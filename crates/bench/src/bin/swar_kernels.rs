//! The fast path against the reference: fused-swar vs. generic
//! per-generation and full-run timings, with bit-identical-metrics
//! verification on every row.
//!
//! Usage: `swar_kernels [--out <path>] [--sizes a,b,c] [--reps k]`
//! (defaults: sizes 64,256,1024; reps scaled by size). With `--out` the
//! measurements are written as JSON to `<path>` (conventionally
//! `BENCH_swar_kernels.json` at the repo root, so the perf trajectory is
//! tracked across PRs); the document carries the provenance stamp (worker
//! budget, CPU count, commit SHA, dirtiness). Both paths are
//! single-threaded — the speedups are kernel design and word-level
//! parallelism over the bit-packed adjacency plane, not thread count —
//! so the sweep covers
//! workload shapes instead of worker counts: the dense standard workload,
//! a uniformly sparse one (sparse-bit walks), and a banded one where the
//! all-zero-word skip dominates.
//!
//! The process exits nonzero if **any** row's metrics or labels diverge
//! between the two paths: a fast wrong kernel is worse than no kernel.

use gca_bench::tables::Table;
use gca_bench::swar;
use gca_engine::Instrumentation;
use serde_json::json;

fn parse_list(s: &str, what: &str) -> Vec<usize> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad {what} entry '{p}' in '{s}'"))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| {
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("{name} needs a value"))
                    .clone()
            })
    };
    let out = flag("--out");
    let sizes = flag("--sizes")
        .map(|s| parse_list(&s, "size"))
        .unwrap_or_else(|| swar::SIZES.to_vec());
    let reps_override: Option<u32> = flag("--reps").map(|s| {
        s.parse()
            .unwrap_or_else(|_| panic!("bad rep count '{s}'"))
    });

    let mut all_identical = true;
    let mut check = |label: String, identical: bool, labels_ok: bool| {
        if !identical || !labels_ok {
            all_identical = false;
            eprintln!("DIVERGENCE at {label}: metrics_identical={identical} labels_ok={labels_ok}");
        }
    };

    // --- Per-generation timings --------------------------------------------
    let mut gen_rows = Vec::new();
    let mut gen_table = Table::new([
        "n", "workload", "gen", "sub", "generic ns", "swar ns", "speedup", "identical",
    ]);
    for &n in &sizes {
        let reps = reps_override.unwrap_or((1 << 20 >> n.max(2).ilog2()).clamp(2, 64) as u32);
        for w in swar::SwarWorkload::ALL {
            for (gen, sub) in swar::kernel_generations() {
                let t = swar::time_generation(n, w, gen, sub, reps).expect("generation timing");
                check(
                    format!("n={n} workload={} gen={gen:?} sub={sub}", w.key()),
                    t.metrics_identical,
                    true,
                );
                gen_table.row([
                    n.to_string(),
                    w.label().to_string(),
                    format!("{:?}", t.generation),
                    t.subgeneration.to_string(),
                    format!("{:.0}", t.generic_ns_per_step.median),
                    format!("{:.0}", t.fused_swar_ns_per_step.median),
                    format!("{:.2}x", t.speedup()),
                    t.metrics_identical.to_string(),
                ]);
                gen_rows.push(json!({
                    "n": t.n,
                    "workload": w.key(),
                    "generation": t.generation.number(),
                    "subgeneration": t.subgeneration,
                    "generic_ns_per_step": t.generic_ns_per_step.json(),
                    "fused_swar_ns_per_step": t.fused_swar_ns_per_step.json(),
                    "speedup": t.speedup(),
                    "metrics_identical": t.metrics_identical,
                }));
            }
        }
    }
    println!("per-generation, generic vs SWAR (both single-thread):");
    print!("{}", gen_table.render());

    // --- Full runs (Off = headline, Counts = full metrics identity) --------
    let mut speedup_n256_dense_off = 0.0;
    let mut run_rows = Vec::new();
    let mut run_table = Table::new([
        "n", "workload", "instr", "generic ms", "swar ms", "speedup", "identical",
    ]);
    for &n in &sizes {
        for w in swar::SwarWorkload::ALL {
            for instr in [Instrumentation::Off, Instrumentation::Counts] {
                let t = swar::time_full_runs(n, w, instr).expect("full-run timing");
                check(
                    format!("full run n={n} workload={} instr={}", w.key(), t.instrumentation),
                    t.metrics_identical,
                    t.labels_match_union_find,
                );
                if n == 256
                    && w == swar::SwarWorkload::GnpDense
                    && matches!(instr, Instrumentation::Off)
                {
                    speedup_n256_dense_off = t.speedup();
                }
                run_table.row([
                    n.to_string(),
                    w.label().to_string(),
                    t.instrumentation.to_string(),
                    format!("{:.2}", t.generic_ms),
                    format!("{:.2}", t.fused_swar_ms),
                    format!("{:.2}x", t.speedup()),
                    (t.metrics_identical && t.labels_match_union_find).to_string(),
                ]);
                run_rows.push(json!({
                    "n": t.n,
                    "workload": w.key(),
                    "instrumentation": t.instrumentation,
                    "generic_ms": t.generic_ms,
                    "fused_swar_ms": t.fused_swar_ms,
                    "speedup": t.speedup(),
                    "labels_match_union_find": t.labels_match_union_find,
                    "metrics_identical": t.metrics_identical,
                }));
            }
        }
    }
    println!("\nfull runs, generic vs SWAR:");
    print!("{}", run_table.render());

    let doc = json!({
        "workload": format!(
            "gnp(n, p, seed {}) at p in {{0.300, 0.020}} plus grid(n/32, 32) banded sparsity",
            swar::SEED
        ),
        "baseline": "generic exec path, sequential backend, hinted domains, single thread on both sides",
        "timed_region": "init + ceil(log2 n) iterations + label extraction; machine build excluded",
        "stamp": gca_bench::stamp(),
        "speedup_full_run_n256_dense_instrumentation_off": speedup_n256_dense_off,
        "kernel_generations": gen_rows,
        "full_runs": run_rows,
    });
    match &out {
        Some(path) => {
            let body = format!("{}\n", serde_json::to_string_pretty(&doc).expect("serializable"));
            std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("swar-kernel results written to {path}");
        }
        None => println!("{}", serde_json::to_string_pretty(&doc).expect("serializable")),
    }

    if !all_identical {
        eprintln!("FAILED: at least one row diverged from the generic path");
        std::process::exit(1);
    }
}
