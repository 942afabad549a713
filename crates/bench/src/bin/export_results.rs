//! Regenerates **every** experiment's numbers in one machine-readable JSON
//! document — the companion artifact to EXPERIMENTS.md, so reported values
//! can be diffed against a fresh run in CI or during review.
//!
//! Usage: `export_results [n] [--sparse-out <path>] [> results.json]`
//! (default n = 16, the paper's synthesized size). With `--sparse-out` the
//! sparse-stepping measurements are additionally written to `<path>`
//! (conventionally `BENCH_sparse_stepping.json` at the repo root, so the
//! perf trajectory is tracked across PRs). The fast path's measurements
//! are the `swar_kernels` binary's (`BENCH_swar_kernels.json`).

use gca_bench::sparse;
use gca_emu::hirschberg_program;
use gca_engine::{Engine, Instrumentation};
use gca_graphs::{generators, properties};
use gca_hirschberg::variants::{low_congestion, n_cells, two_handed};
use gca_hirschberg::{complexity, table1, timing, HirschbergGca};
use gca_hw_model::{analysis, estimate_variant, paper_reference, CostParams, Variant, EP2C70};
use gca_pram::hirschberg_ref;
use serde_json::json;

/// Measures dense-vs-hinted stepping and fixed-vs-detected convergence
/// (the `sparse_stepping` bench's quantities, one sample each).
fn sparse_stepping_doc() -> serde_json::Value {
    let mut generation_rows = Vec::new();
    for &n in &sparse::SIZES {
        // Enough repetitions for stable medians at small n, few at large n.
        let reps = (1 << 20 >> (n.ilog2())).clamp(2, 64) as u32;
        for (gen, sub) in sparse::restricted_generations() {
            let t = sparse::time_generation(n, gen, sub, reps).expect("sparse generation timing");
            generation_rows.push(json!({
                "n": t.n,
                "generation": t.generation.number(),
                "subgeneration": t.subgeneration,
                "dense_ns_per_step": t.dense_ns_per_step.json(),
                "hinted_ns_per_step": t.hinted_ns_per_step.json(),
                "speedup": t.speedup(),
                "metrics_identical": t.metrics_identical,
            }));
        }
    }
    let full_rows: Vec<serde_json::Value> = [16usize, 64, 256]
        .iter()
        .map(|&n| {
            let t = sparse::time_full_runs(n).expect("sparse full-run timing");
            json!({
                "n": t.n,
                "dense_fixed_ms": t.dense_fixed_ms,
                "hinted_fixed_ms": t.hinted_fixed_ms,
                "hinted_detect_ms": t.hinted_detect_ms,
                "fixed_generations": t.fixed_generations,
                "detect_generations": t.detect_generations,
                "labels_match_union_find": t.labels_match_union_find,
            })
        })
        .collect();
    json!({
        "workload": format!("gnp(n, 0.3, seed {})", sparse::SEED),
        "restricted_generations": generation_rows,
        "full_runs": full_rows,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sparse_out = args
        .iter()
        .position(|a| a == "--sparse-out")
        .map(|i| args.get(i + 1).expect("--sparse-out needs a path").clone());
    let n: usize = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);
    let graph = generators::gnp(n, 0.5, 2007);
    let stats = properties::stats(&graph);

    // --- Machines on the reference workload -------------------------------
    let engine = Engine::sequential().with_instrumentation(Instrumentation::Counts);
    let main = HirschbergGca::new()
        .with_engine(engine)
        .run(&graph)
        .expect("main run");
    let ncell = n_cells::run(&graph).expect("n-cell run");
    let lc = low_congestion::run(&graph).expect("low-congestion run");
    let th = two_handed::run(&graph).expect("two-handed run");
    let pram = hirschberg_ref::connected_components(&graph).expect("pram run");
    let emu_gens = hirschberg_program::emulated_generations(n);

    let all_equal = [&ncell.labels, &lc.labels, &th.labels, &pram.labels]
        .iter()
        .all(|l| **l == main.labels);

    // --- Table 1 (first iteration) ----------------------------------------
    let t1: Vec<serde_json::Value> = table1::measure_first_iteration(&graph)
        .expect("table1")
        .iter()
        .map(|r| {
            json!({
                "generation": r.generation.number(),
                "subgeneration": r.subgeneration,
                "active": r.active,
                "cells_read": r.cells_read,
                "max_congestion": r.max_congestion,
            })
        })
        .collect();

    // --- Timing models ------------------------------------------------------
    let pm = timing::profile(&main.metrics);
    let pl = timing::profile(&lc.metrics);

    // --- Hardware model -----------------------------------------------------
    let params = CostParams::calibrated();
    let synth = estimate_variant(16, Variant::Main, &params);
    let paper = paper_reference();
    let at: Vec<serde_json::Value> = [Variant::Main, Variant::NCells, Variant::LowCongestion]
        .iter()
        .map(|&v| serde_json::to_value(analysis::area_time(v, n, &params)).expect("serialize"))
        .collect();

    // --- Sparse active-domain stepping --------------------------------------
    // Every exported document carries the provenance stamp (worker budget,
    // CPU count, commit SHA): checked-in speedup numbers are only
    // interpretable together with the machine that produced them.
    let stamp = gca_bench::stamp();
    let mut sparse_doc = sparse_stepping_doc();
    sparse_doc["stamp"] = stamp.clone();
    if let Some(path) = &sparse_out {
        std::fs::write(
            path,
            format!(
                "{}\n",
                serde_json::to_string_pretty(&sparse_doc).expect("serializable")
            ),
        )
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("sparse-stepping results written to {path}");
    }

    let doc = json!({
        "stamp": stamp,
        "workload": {
            "n": n,
            "edges": stats.m,
            "density": stats.density,
            "generator": "gnp(n, 0.5, seed 2007)",
        },
        "machines": {
            "labels_all_equal": all_equal,
            "components": main.labels.component_count(),
            "generations": {
                "main_one_handed": main.generations,
                "two_handed": th.generations,
                "n_cells": ncell.generations,
                "low_congestion": lc.generations,
                "pram_steps": pram.time,
                "emulated_pram_on_gca": emu_gens,
            },
            "formulas": {
                "main": format!("1 + L(3L+8) = {}", complexity::total_generations(n)),
                "two_handed": format!("1 + L(3L+6) = {}", two_handed::total_generations(n)),
                "n_cells": format!("1 + L(2n+L+6) = {}", n_cells::total_generations(n)),
                "low_congestion": format!("1 + L(10+7L+ceil_log2(n+1)) = {}", low_congestion::total_generations(n)),
                "pram": format!("1 + L(3L+6) = {}", hirschberg_ref::reference_steps(n)),
                "emulated": format!("9 + 32L + 18L^2 = {emu_gens}"),
            },
        },
        "table1_first_iteration": t1,
        "congestion": {
            "main_static_max": main.metrics.entries().iter()
                .filter(|m| m.ctx.phase <= 9)
                .map(|m| m.max_congestion).max().unwrap_or(0),
            "low_congestion_static_max": lc.static_max_congestion(),
            "main_overall_max": main.metrics.max_congestion(),
        },
        "timing_models_cycles": {
            "main": { "unit": pm.unit, "serialized": pm.serialized, "tree": pm.tree },
            "low_congestion": { "unit": pl.unit, "serialized": pl.serialized, "tree": pl.tree },
        },
        "synthesis_n16": {
            "paper": { "cells": paper.cells, "logic_elements": paper.logic_elements,
                        "register_bits": paper.register_bits, "fmax_mhz": paper.fmax_mhz },
            "model": { "cells": synth.cells, "logic_elements": synth.logic_elements,
                        "register_bits": synth.register_bits, "fmax_mhz": synth.fmax_mhz },
            "max_n_on_ep2c70": {
                "main": EP2C70.max_n(Variant::Main, &params),
                "n_cells": EP2C70.max_n(Variant::NCells, &params),
                "low_congestion": EP2C70.max_n(Variant::LowCongestion, &params),
            },
        },
        "area_time": at,
        "sparse_stepping": sparse_doc,
    });

    println!("{}", serde_json::to_string_pretty(&doc).expect("serializable"));
}
