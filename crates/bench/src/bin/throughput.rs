//! Batched multi-graph throughput: sweeps worker counts over a batch of
//! independent same-sized graphs and prints aggregate graphs/sec for the
//! fused-swar and generic execution paths.
//!
//! Usage: `throughput [n] [batch]` (defaults: n = 64, batch = 64).
//!
//! Every configuration verifies its labelings against union-find before its
//! throughput is reported — a number from a wrong run would be worthless.

use gca_bench::swar;
use gca_bench::tables::Table;
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::generators;
use gca_graphs::Labeling;
use gca_hirschberg::{BatchRunner, ExecPath};

fn worker_sweep(max: usize) -> Vec<usize> {
    let mut sweep = vec![1usize];
    let mut w = 2;
    while w < max {
        sweep.push(w);
        w *= 2;
    }
    if max > 1 {
        sweep.push(max);
    }
    sweep
}


fn check_labels(labels: &[Vec<u32>], expected: &[Labeling], what: &str) {
    for (got, want) in labels.iter().zip(expected) {
        assert!(
            got.iter()
                .zip(want.as_slice())
                .all(|(&l, &e)| l as usize == e),
            "labeling mismatch at {what}"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(64);
    let batch: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(64);
    let max_workers = gca_bench::workers();

    let graphs: Vec<_> = (0..batch)
        .map(|i| generators::gnp(n, 0.3, swar::SEED + i as u64))
        .collect();
    let expected: Vec<_> = graphs.iter().map(union_find_components_dense).collect();

    println!(
        "batched throughput: {batch} × gnp({n}, 0.3), {max_workers} hardware threads"
    );
    let mut table = Table::new(["exec", "workers", "graphs/sec", "ms/batch", "scaling"]);
    for (exec, name) in [
        (ExecPath::fused_swar(), "fused-swar"),
        (ExecPath::Generic, "generic"),
    ] {
        let mut base: Option<f64> = None;
        for workers in worker_sweep(max_workers) {
            let runner = BatchRunner::new().exec(exec).workers(workers);
            let report = runner.run(&graphs).expect("batch run");
            check_labels(
                &report.labels,
                &expected,
                &format!("{name} workers={workers}"),
            );
            let gps = report.stats.graphs_per_sec();
            let scaling = gps / *base.get_or_insert(gps);
            table.row([
                name.to_string(),
                report.stats.workers.to_string(),
                format!("{gps:.1}"),
                format!("{:.2}", report.stats.elapsed.as_secs_f64() * 1e3),
                format!("{scaling:.2}x"),
            ]);
        }
    }
    print!("{}", table.render());
}
