//! The untraced run: end-to-end metrics, tracing off.
//!
//! Inputs are generated and the union-find answers computed before the
//! measuring window. Single-graph workloads run whole cycles of the four
//! families, so every family weighs the same in the medians.

use crate::checks::{check_raw, Oracle};
use crate::graphs;
use crate::report::{describe, median, proc_status_mb, Metric, Outcome};
use crate::workload::{solve, Shape, Workload, BATCH_SIZE};
use std::time::{Duration, Instant};

/// Graphs generated for a single-graph workload (two cycles); items
/// cycle through them.
const SINGLE_POOL: usize = 8;

/// Batches generated for the batch workload; items cycle through them.
const BATCH_POOL: usize = 4;

/// Runs `workload` for about `seconds` and reports its end-to-end metrics.
pub fn run(workload: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    match workload.shape {
        Shape::Single => run_single(workload, seed, seconds),
        Shape::Batch => run_batch(workload, seed, seconds),
    }
}

fn run_single(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let prep = Instant::now();
    let pool = graphs::stream(w.n, seed, SINGLE_POOL);
    let expected: Vec<_> = pool.iter().map(Oracle::expected).collect();
    let oracle = Oracle::new(*w)?;
    let mut out = Outcome::default();
    // The one-call reference for the first graph, outside the window.
    let reference = w.one_call().run(&pool[0]);
    let prep = prep.elapsed().as_secs_f64();

    let (mut setup_s, mut run_s, mut gens) = (Vec::new(), Vec::new(), Vec::new());
    let mut by_family = vec![Vec::new(); graphs::Family::CYCLE.len()];
    let window = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut cycle = 0;
    loop {
        let cycle_start = Instant::now();
        for (family, family_runs) in by_family.iter_mut().enumerate() {
            let index = (cycle * graphs::Family::CYCLE.len() + family) % pool.len();
            let first = out.attempted == 0;
            let t0 = Instant::now();
            let built = w.build(&pool[index]);
            let t1 = Instant::now();
            let result = built.and_then(|mut m| solve(&mut m).map(|s| (m, s)));
            let t2 = Instant::now();
            let checked = result
                .map_err(|e| e.to_string())
                .and_then(|(machine, solved)| {
                    setup_s.push((t1 - t0).as_secs_f64());
                    run_s.push((t2 - t0).as_secs_f64());
                    family_runs.push((t2 - t0).as_secs_f64());
                    gens.push(solved.generations as f64);
                    oracle.check(&expected[index], &machine, &solved)?;
                    if first {
                        let reference = reference
                            .as_ref()
                            .map_err(|e| format!("HirschbergGca::run: {e}"))?;
                        oracle.check_one_call(reference, &machine, &solved)?;
                    }
                    Ok(())
                });
            let family = graphs::family_of(index).name();
            out.record(&format!("item {} ({family})", out.attempted + 1), checked);
        }
        cycle += 1;
        if started.elapsed() + cycle_start.elapsed() > window {
            break;
        }
    }
    let timed: f64 = run_s.iter().sum();
    out.lines.push(format!(
        "window {:.3} s after {prep:.3} s of input generation, oracle and one-call reference",
        started.elapsed().as_secs_f64()
    ));
    for (family, times) in graphs::Family::CYCLE.iter().zip(&by_family) {
        out.lines.push(format!(
            "run_s {:<6} {}",
            family.name(),
            describe(times, "s")
        ));
    }
    let metrics = vec![
        Metric::new("run_s", median(&run_s), "s", describe(&run_s, "s")),
        Metric::new("setup_s", median(&setup_s), "s", describe(&setup_s, "s")),
        Metric::new(
            "graphs_per_s",
            run_s.len() as f64 / timed,
            "1/s",
            format!("{} graphs in {timed:.3} s", run_s.len()),
        ),
        peak_rss(),
        ok_frac(&out),
        Metric::new(
            "sim_generations",
            median(&gens),
            "count",
            format!("expected {}", w.expected_generations()),
        ),
    ];
    out.metrics = metrics;
    Ok(out)
}

fn run_batch(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let all = graphs::stream(w.n, seed, BATCH_POOL * BATCH_SIZE);
    let expected: Vec<_> = all.iter().map(Oracle::expected).collect();
    let batches: Vec<_> = all.chunks(BATCH_SIZE).collect();
    let oracle = Oracle::new(*w)?;
    let runner = w.batch_runner();
    let mut out = Outcome::default();
    let (mut setup_s, mut gens, mut run_s) = (Vec::new(), Vec::new(), Vec::new());
    let window = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut index = 0;
    loop {
        let item_start = Instant::now();
        let batch = batches[index % batches.len()];
        let base = (index % batches.len()) * BATCH_SIZE;
        let t0 = Instant::now();
        let report = runner.run(batch);
        let elapsed = t0.elapsed().as_secs_f64();
        let checked = report.map_err(|e| e.to_string()).and_then(|report| {
            run_s.push(elapsed);
            report
                .labels
                .iter()
                .enumerate()
                .try_for_each(|(i, raw)| check_raw(&expected[base + i], raw))
        });
        out.record(&format!("batch {}", out.attempted + 1), checked);

        // Setup and simulated time, outside the item: one graph replayed
        // through a machine of the batch's configuration, so the setup
        // samples spread over the window like the items. Only the build
        // (the per-worker build BatchRunner::run performs) is timed.
        let graph = index % all.len();
        let t0 = Instant::now();
        let built = w.build(&all[graph]);
        let setup = t0.elapsed().as_secs_f64();
        let replayed = built.and_then(|mut m| solve(&mut m).map(|s| (m, s)));
        let checked = replayed
            .map_err(|e| e.to_string())
            .and_then(|(machine, solved)| {
                setup_s.push(setup);
                gens.push(solved.generations as f64);
                oracle.check(&expected[graph], &machine, &solved)
            });
        out.record(&format!("replay of graph {graph}"), checked);

        index += 1;
        if started.elapsed() + item_start.elapsed() > window {
            break;
        }
    }
    let timed: f64 = run_s.iter().sum();
    let graphs = run_s.len() * BATCH_SIZE;
    let metrics = vec![
        Metric::new(
            "run_s",
            median(&run_s),
            "s",
            format!(
                "per BatchRunner::run of {BATCH_SIZE} graphs, {}",
                describe(&run_s, "s")
            ),
        ),
        Metric::new(
            "setup_s",
            median(&setup_s),
            "s",
            format!(
                "per worker machine build, one per item, {}",
                describe(&setup_s, "s")
            ),
        ),
        Metric::new(
            "graphs_per_s",
            graphs as f64 / timed,
            "1/s",
            format!("{graphs} graphs in {timed:.3} s"),
        ),
        peak_rss(),
        ok_frac(&out),
        Metric::new(
            "sim_generations",
            median(&gens),
            "count",
            format!("per replayed graph, expected {}", w.expected_generations()),
        ),
    ];
    out.metrics = metrics;
    Ok(out)
}

/// Peak resident memory of this process, which ran only this workload.
fn peak_rss() -> Metric {
    Metric::new(
        "peak_rss_mb",
        proc_status_mb("VmHWM"),
        "MB",
        "VmHWM of this process",
    )
}

/// Share of attempted items that passed every check.
fn ok_frac(out: &Outcome) -> Metric {
    let (attempted, failed) = (out.attempted, out.failed);
    Metric::new(
        "ok_frac",
        (attempted - failed) as f64 / attempted.max(1) as f64,
        "ratio",
        format!("failed_frac = {failed}/{attempted}"),
    )
}
