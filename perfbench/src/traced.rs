//! The traced run: per-layer metrics from spans around every call into the
//! library, on a fixed probe set (the first cycle of four graphs, or the
//! first batch).
//!
//! Two granularities:
//! * `iteration` is faithful: the untraced calls, split at
//!   `run_iteration`, plus one extra `build_field` to time the field build
//!   apart from the rest of `with_engine`.
//! * `stepwise` times every `Gen` by calling `Machine::step` over
//!   `iteration_schedule(n)`, filtered by the installed `SwarSchedule`. On
//!   the fused paths each step adds a field writeback (and, under Counts, a
//!   histogram copy), and under Off it stops generations 1+2 and 5+6 from
//!   running as fused pairs; the per-`Gen` times include that extra work.
//!
//! The differential ratios (`metrics.counts_over_off`,
//! `par.speedup_vs_seq`) run here only, never inside the timed run.

use crate::checks::{check_raw, Oracle};
use crate::graphs;
use crate::report::{nproc, proc_status_mb, Metric, Outcome};
use crate::trace::Tracer;
use crate::workload::{solve, Shape, Solved, Workload, BATCH_SIZE};
use gca_engine::metrics::GenerationMetrics;
use gca_engine::{GcaError, Instrumentation, StepReport, Word};
use gca_graphs::{AdjacencyMatrix, Labeling};
use gca_hirschberg::complexity::ceil_log2;
use gca_hirschberg::{iteration_schedule, Gen, Layout, Machine};
use std::time::Instant;

/// Span name of each generation, indexed by generation number.
const GEN_SPANS: [&str; 12] = [
    "gen.init",
    "gen.broadcast_c",
    "gen.filter_neighbors",
    "gen.min_reduce",
    "gen.resolve_isolated",
    "gen.broadcast_t",
    "gen.filter_members",
    "gen.min_reduce_members",
    "gen.resolve_members",
    "gen.copy_and_save_t",
    "gen.pointer_jump",
    "gen.final_min",
];

/// Counters summed over the stepwise pass.
#[derive(Default)]
struct StepCounters {
    steps: usize,
    evaluated: u64,
    active: u64,
    changed: u64,
    chunks: u64,
    fork_joins: u64,
}

impl StepCounters {
    fn add(&mut self, rep: &StepReport) {
        self.steps += 1;
        self.evaluated += rep.evaluated_cells as u64;
        self.active += rep.active_cells as u64;
        self.changed += rep.changed_cells as u64;
        self.chunks += rep.workers as u64;
        self.fork_joins += u64::from(rep.workers > 1);
    }
}

fn err(e: GcaError) -> String {
    e.to_string()
}

/// Runs the traced passes of `workload` and returns its per-layer metrics
/// together with the recorded spans.
pub fn run(w: &Workload, seed: u64) -> Result<(Outcome, Tracer), String> {
    let probe = match w.shape {
        Shape::Single => graphs::stream(w.n, seed, graphs::Family::CYCLE.len()),
        Shape::Batch => graphs::stream(w.n, seed, BATCH_SIZE),
    };
    let oracle = Oracle::new(*w)?;
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut metrics = Vec::new();
    let count = probe.len() as f64;

    // Batch layer, untraced; for the batch workload its replay is also the
    // untraced baseline of the iteration pass.
    let batch = batch_layer(w, &probe, &mut out);
    let own = match w.shape {
        Shape::Single => timed_solves(w, &probe, &mut out, "untraced baseline"),
        Shape::Batch => Vec::new(),
    };
    let untraced = match w.shape {
        Shape::Single => own.iter().map(|t| t.setup + t.solve).sum(),
        Shape::Batch => batch.replay_total,
    };

    let (expected, rss) = iteration_pass(w, &probe, &oracle, &mut tracer, &mut out);
    let mut counters = StepCounters::default();
    let replay = w.counting();
    for (i, graph) in probe.iter().enumerate() {
        tracer.set_item(i);
        let result = stepwise(w, graph, &mut tracer, true, replay, &mut counters)
            .and_then(|solved| check_solved(w, &expected[i], &solved));
        out.record(&format!("stepwise graph {i}"), result);
    }
    if !replay {
        // Off workloads replay the metrics function on a Counts run of the
        // first probe graph; its steps are not part of the gen.* figures.
        tracer.set_item(0);
        let counts = w.with_instrumentation(Instrumentation::Counts);
        let result = stepwise(
            &counts,
            &probe[0],
            &mut tracer,
            false,
            true,
            &mut StepCounters::default(),
        )
        .and_then(|solved| check_solved(&counts, &expected[0], &solved));
        out.record("metrics replay", result);
    }

    // Setup and machine layers.
    let times = tracer.self_times();
    let self_per_call = |name: &str| times.get(name).map_or(0.0, |t| t.total / t.calls as f64);
    let calls = |name: &str| times.get(name).map_or(0, |t| t.calls) as f64;
    let builds = calls("machine.with_engine").max(1.0);
    metrics.push(Metric::new(
        "layout.build_field_s",
        self_per_call("layout.build_field"),
        "s",
        "Layout::new + build_field, per build",
    ));
    metrics.push(Metric::new(
        "machine.alloc_s",
        (tracer.total("machine.with_engine") - tracer.total("layout.build_field")) / builds,
        "s",
        "with_engine minus build_field, per build",
    ));
    metrics.push(Metric::new(
        "analysis.swar_schedule_s",
        self_per_call("analysis.swar_schedule"),
        "s",
        format!("{} calls", calls("analysis.swar_schedule")),
    ));
    metrics.push(Metric::new(
        "machine.rss_delta_mb",
        rss / builds,
        "MB",
        "VmRSS growth across with_engine, per build",
    ));
    metrics.push(Metric::new(
        "machine.init_s",
        self_per_call("machine.init"),
        "s",
        "per call",
    ));
    metrics.push(Metric::new(
        "machine.iteration_s",
        self_per_call("machine.iteration"),
        "s",
        "per run_iteration call",
    ));
    metrics.push(Metric::new(
        "machine.labels_s",
        self_per_call("machine.labels"),
        "s",
        "per call",
    ));

    // Generation layer (stepwise granularity).
    let steps_note = "stepwise: includes per-step writeback / histogram copy and unfused 1+2, 5+6";
    for name in GEN_SPANS {
        metrics.push(Metric::new(
            format!("{name}.s"),
            self_per_call(name),
            "s",
            format!("per step, {steps_note}"),
        ));
        metrics.push(Metric::new(
            format!("{name}.n"),
            calls(name) / count,
            "count",
            "steps per graph",
        ));
    }
    metrics.push(Metric::new(
        "engine.evaluated_cells",
        counters.evaluated as f64 / count,
        "count",
        "per graph, StepReport",
    ));
    metrics.push(Metric::new(
        "engine.active_cells",
        counters.active as f64 / count,
        "count",
        "per graph, StepReport",
    ));
    metrics.push(Metric::new(
        "engine.changed_cells",
        counters.changed as f64 / count,
        "count",
        "per graph, StepReport",
    ));
    metrics.push(Metric::new(
        "engine.active_over_evaluated",
        counters.active as f64 / counters.evaluated as f64,
        "ratio",
        "base: evaluated cells",
    ));

    // Metrics layer.
    metrics.push(Metric::new(
        "metrics.from_read_counts_s",
        self_per_call("metrics.from_read_counts"),
        "s",
        "per generation replayed",
    ));
    let cells = (w.n * (w.n + 1)) as f64;
    let plane = if w.counting() {
        cells * std::mem::size_of::<u32>() as f64
    } else {
        0.0
    };
    metrics.push(Metric::new(
        "metrics.reads_plane_bytes",
        plane,
        "bytes",
        "computed: n(n+1) u32 read counters per generation, 0 under Off",
    ));
    let (counts_over_off, counts_note) = counts_over_off(w, &probe, &own, batch.wall, &mut out);
    metrics.push(Metric::new(
        "metrics.counts_over_off",
        counts_over_off,
        "ratio",
        counts_note,
    ));

    // Parallel layer.
    let (speedup, speedup_note) = speedup_vs_seq(w, &probe, &own, batch.wall, &mut out);
    metrics.push(Metric::new(
        "par.speedup_vs_seq",
        speedup,
        "ratio",
        speedup_note,
    ));
    metrics.push(Metric::new(
        "par.chunks_per_gen",
        counters.chunks as f64 / counters.steps.max(1) as f64,
        "count",
        "mean StepReport.workers, stepwise",
    ));
    metrics.push(Metric::new(
        "par.fork_joins.n",
        counters.fork_joins as f64 / count,
        "count",
        "per graph: stepwise steps on more than one chunk",
    ));

    // Batch layer.
    metrics.push(Metric::new(
        "batch.workers",
        batch.workers as f64,
        "count",
        "BatchRunner effective workers",
    ));
    metrics.push(Metric::new(
        "batch.reset_with_s",
        batch.reset_total / count,
        "s",
        "per graph, sequential replay",
    ));
    metrics.push(Metric::new(
        "batch.solve_s",
        batch.solve_total / count,
        "s",
        "per graph: init + run_iteration + labels_into",
    ));
    metrics.push(Metric::new(
        "batch.efficiency",
        batch.replay_total / (batch.workers as f64 * batch.wall),
        "ratio",
        format!(
            "base: {} workers x {:.6} s BatchRunner::run wall",
            batch.workers, batch.wall
        ),
    ));

    metrics.push(Metric::new(
        "oracle.verify_s",
        self_per_call("oracle.verify"),
        "s",
        "per graph, outside run_s",
    ));

    // Tracing itself.
    let traced = tracer.total("item");
    metrics.push(Metric::new(
        "trace.overhead_s",
        (traced - untraced) / count,
        "s",
        format!("per graph: traced {traced:.6} s - untraced {untraced:.6} s"),
    ));
    metrics.push(Metric::new(
        "trace.coverage",
        tracer.coverage("item"),
        "ratio",
        "top-level spans / traced item wall",
    ));
    let stepwise_total = tracer.total("stepwise.item");
    out.lines.push(format!(
        "stepwise pass: {stepwise_total:.6} s vs untraced {untraced:.6} s on the same graphs"
    ));

    out.metrics = metrics;
    Ok((out, tracer))
}

/// Setup, split into the field build, the rest of `with_engine`, the
/// schedule derivation and the `with_*` calls. Returns the machine and the
/// VmRSS growth across `with_engine` in MB.
fn traced_build(
    w: &Workload,
    graph: &AdjacencyMatrix,
    tracer: &mut Tracer,
) -> Result<(Machine, f64), String> {
    tracer.enter("machine.setup");
    let result = (|| {
        let field = tracer.span("layout.build_field", || {
            Layout::new(graph.n()).and_then(|l| l.build_field(graph))
        });
        drop(field.map_err(err)?);
        let before = proc_status_mb("VmRSS");
        let machine = tracer
            .span("machine.with_engine", || {
                if w.library_default {
                    Machine::new(graph)
                } else {
                    Machine::with_engine(graph, w.engine())
                }
            })
            .map_err(err)?;
        let rss = proc_status_mb("VmRSS") - before;
        if w.library_default {
            return Ok((machine, rss));
        }
        let machine = machine.with_exec(w.exec);
        let machine = match w.swar_schedule {
            true => machine.with_swar_schedule(tracer.span("analysis.swar_schedule", || {
                gca_analysis::swar_schedule(w.n)
            })),
            false => machine,
        };
        Ok((machine, rss))
    })();
    tracer.exit();
    result
}

/// `init` and every `run_iteration`, each in its own span; returns the
/// generations executed.
fn traced_iterate(machine: &mut Machine, tracer: &mut Tracer) -> Result<u64, String> {
    tracer
        .span("machine.init", || machine.init())
        .map_err(err)?;
    for _ in 0..ceil_log2(machine.n()) {
        tracer
            .span("machine.iteration", || machine.run_iteration())
            .map_err(err)?;
    }
    Ok(machine.generations())
}

/// What one item of the iteration pass hands to the checks.
enum Output {
    /// A single graph's machine and result.
    Solved(Box<Machine>, Solved),
    /// Raw labels and generations from the reused batch machine.
    Raw(Vec<Word>, u64),
}

/// The iteration pass. Returns the union-find labels of the probe set and
/// the summed VmRSS growth of every machine build.
fn iteration_pass(
    w: &Workload,
    probe: &[AdjacencyMatrix],
    oracle: &Oracle,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (Vec<Labeling>, f64) {
    let mut expected = Vec::with_capacity(probe.len());
    let mut rss_total = 0.0;
    // The batch workload reuses one machine through reset_with, built
    // once like a BatchRunner worker builds it.
    let mut shared = None;
    if w.shape == Shape::Batch {
        tracer.set_item(0);
        match traced_build(w, &probe[0], tracer) {
            Ok((m, rss)) => {
                rss_total += rss;
                shared = Some(m);
            }
            Err(e) => out.record("batch machine build", Err(e)),
        }
    }
    for (i, graph) in probe.iter().enumerate() {
        tracer.set_item(i);
        tracer.enter("item");
        let result = match shared.as_mut() {
            Some(m) => (|| {
                tracer
                    .span("batch.reset_with", || m.reset_with(graph))
                    .map_err(err)?;
                let generations = traced_iterate(m, tracer)?;
                let mut raw = Vec::new();
                tracer.span("machine.labels", || m.labels_into(&mut raw));
                Ok(Output::Raw(raw, generations))
            })(),
            None => (|| {
                let (mut m, rss) = traced_build(w, graph, tracer)?;
                rss_total += rss;
                let generations = traced_iterate(&mut m, tracer)?;
                let labels = tracer.span("machine.labels", || m.labels()).map_err(err)?;
                Ok(Output::Solved(
                    Box::new(m),
                    Solved {
                        labels,
                        generations,
                    },
                ))
            })(),
        };
        tracer.exit();
        tracer.enter("oracle.verify");
        let want = Oracle::expected(graph);
        let checked = result.and_then(|output| match output {
            Output::Solved(m, solved) => oracle.check(&want, &m, &solved),
            Output::Raw(raw, generations) => {
                check_raw(&want, &raw).and_then(|()| check_generations(w, generations))
            }
        });
        tracer.exit();
        out.record(&format!("iteration pass graph {i}"), checked);
        expected.push(want);
    }
    (expected, rss_total)
}

fn check_generations(w: &Workload, generations: u64) -> Result<(), String> {
    let want = w.expected_generations();
    if generations == want {
        Ok(())
    } else {
        Err(format!("{generations} generations, expected {want}"))
    }
}

/// The stepwise pass over one graph: `Machine::step` over
/// `iteration_schedule(n)`, filtered by the installed schedule. With
/// `gen_spans` every step is a `gen.*` span and feeds `counters`; with
/// `replay` every step's read counts are replayed through
/// `GenerationMetrics::from_read_counts` and compared with the entry the
/// machine logged.
fn stepwise(
    w: &Workload,
    graph: &AdjacencyMatrix,
    tracer: &mut Tracer,
    gen_spans: bool,
    replay: bool,
    counters: &mut StepCounters,
) -> Result<Solved, String> {
    let mut m = w.build(graph).map_err(err)?;
    let schedule = w.schedule();
    let n = w.n;
    tracer.enter(if gen_spans {
        "stepwise.item"
    } else {
        "metrics.probe"
    });
    let result = (|| {
        let mut step = |m: &mut Machine, gen: Gen, sub: u32| -> Result<(), String> {
            let run = |m: &mut Machine| {
                if gen == Gen::Init {
                    m.init()
                } else {
                    m.step(gen, sub)
                }
            };
            let rep = if gen_spans {
                tracer.span(GEN_SPANS[gen.number() as usize], || run(m))
            } else {
                run(m)
            }
            .map_err(err)?;
            if gen_spans {
                counters.add(&rep);
            }
            if replay {
                let reads = rep
                    .congestion
                    .ok_or("no read counts under Counts")?
                    .into_reads();
                let replayed = tracer.span("metrics.from_read_counts", || {
                    GenerationMetrics::from_read_counts(rep.ctx, rep.active_cells, &reads)
                });
                if m.metrics().entries().last() != Some(&replayed) {
                    return Err(format!(
                        "{gen:?}/{sub}: replayed metrics differ from the log"
                    ));
                }
            }
            Ok(())
        };
        step(&mut m, Gen::Init, 0)?;
        for _ in 0..ceil_log2(n) {
            for (gen, sub) in iteration_schedule(n) {
                if schedule.is_none_or(|s| s.live(gen, sub)) {
                    step(&mut m, gen, sub)?;
                }
            }
        }
        Ok(Solved {
            labels: m.labels().map_err(err)?,
            generations: m.generations(),
        })
    })();
    tracer.exit();
    result
}

fn check_solved(w: &Workload, expected: &Labeling, solved: &Solved) -> Result<(), String> {
    if &solved.labels != expected {
        return Err("labels differ from union-find".to_string());
    }
    check_generations(w, solved.generations)
}

/// Setup and solve time of one untraced graph.
#[derive(Clone, Copy)]
struct Timing {
    setup: f64,
    solve: f64,
}

/// Untraced build + solve of every probe graph, checked against
/// union-find outside the timing.
fn timed_solves(
    w: &Workload,
    probe: &[AdjacencyMatrix],
    out: &mut Outcome,
    what: &str,
) -> Vec<Timing> {
    let mut timings = Vec::with_capacity(probe.len());
    for (i, graph) in probe.iter().enumerate() {
        let t0 = Instant::now();
        let built = w.build(graph);
        let t1 = Instant::now();
        let result = built.and_then(|mut m| solve(&mut m));
        let t2 = Instant::now();
        let checked = result.map_err(err).and_then(|solved| {
            timings.push(Timing {
                setup: (t1 - t0).as_secs_f64(),
                solve: (t2 - t1).as_secs_f64(),
            });
            check_solved(w, &Oracle::expected(graph), &solved)
        });
        out.record(&format!("{what} graph {i}"), checked);
    }
    timings
}

fn total_solve(timings: &[Timing]) -> f64 {
    timings.iter().map(|t| t.solve).sum()
}

/// The batch layer: one `BatchRunner::run` over the probe set and a
/// sequential replay of the same graphs through one reused machine.
struct BatchLayer {
    workers: usize,
    wall: f64,
    reset_total: f64,
    solve_total: f64,
    replay_total: f64,
}

fn batch_layer(w: &Workload, probe: &[AdjacencyMatrix], out: &mut Outcome) -> BatchLayer {
    let runner = w.batch_runner();
    let workers = runner.effective_workers(probe.len());
    let wall = timed_batch(&runner, probe, out, "BatchRunner::run");
    let (mut reset_total, mut solve_total) = (0.0, 0.0);
    let result = (|| {
        let mut m = w.build(&probe[0]).map_err(err)?;
        let mut raw = Vec::new();
        for graph in probe {
            let t0 = Instant::now();
            m.reset_with(graph).map_err(err)?;
            let t1 = Instant::now();
            m.init().map_err(err)?;
            for _ in 0..ceil_log2(w.n) {
                m.run_iteration().map_err(err)?;
            }
            m.labels_into(&mut raw);
            let t2 = Instant::now();
            reset_total += (t1 - t0).as_secs_f64();
            solve_total += (t2 - t1).as_secs_f64();
            check_raw(&Oracle::expected(graph), &raw)?;
        }
        Ok(())
    })();
    out.record("batch replay", result);
    BatchLayer {
        workers,
        wall,
        reset_total,
        solve_total,
        replay_total: reset_total + solve_total,
    }
}

/// Wall time of one checked `BatchRunner::run` over `graphs`.
fn timed_batch(
    runner: &gca_hirschberg::BatchRunner,
    graphs: &[AdjacencyMatrix],
    out: &mut Outcome,
    what: &str,
) -> f64 {
    let t0 = Instant::now();
    let report = runner.run(graphs);
    let wall = t0.elapsed().as_secs_f64();
    let checked = report.map_err(err).and_then(|report| {
        graphs
            .iter()
            .zip(&report.labels)
            .try_for_each(|(g, raw)| check_raw(&Oracle::expected(g), raw))
    });
    out.record(what, checked);
    wall
}

/// Solve time under Counts divided by solve time under Off, same graphs.
fn counts_over_off(
    w: &Workload,
    probe: &[AdjacencyMatrix],
    own: &[Timing],
    batch_wall: f64,
    out: &mut Outcome,
) -> (f64, String) {
    let base = "base: Off solve time (init..labels) on the same graphs";
    if w.shape == Shape::Batch {
        let counts = w.batch_runner().instrumentation(Instrumentation::Counts);
        let wall = timed_batch(&counts, probe, out, "Counts batch");
        return (
            wall / batch_wall,
            format!("{base}: BatchRunner::run {batch_wall:.6} s"),
        );
    }
    let solve_under = |level: Instrumentation, out: &mut Outcome| {
        if w.instrumentation == level {
            total_solve(own)
        } else {
            total_solve(&timed_solves(
                &w.with_instrumentation(level),
                probe,
                out,
                "counts_over_off",
            ))
        }
    };
    let counts = solve_under(Instrumentation::Counts, out);
    let off = solve_under(Instrumentation::Off, out);
    (
        counts / off,
        format!("{base}: {off:.6} s over {} graphs", probe.len()),
    )
}

/// Solve time on one worker divided by solve time on `nproc` workers.
fn speedup_vs_seq(
    w: &Workload,
    probe: &[AdjacencyMatrix],
    own: &[Timing],
    batch_wall: f64,
    out: &mut Outcome,
) -> (f64, String) {
    let nproc = nproc();
    let caveat = if nproc == 1 {
        "; nproc = 1, no parallel claim"
    } else {
        ""
    };
    if w.shape == Shape::Batch {
        let seq = timed_batch(
            &w.with_workers(1).batch_runner(),
            probe,
            out,
            "one-worker batch",
        );
        return (
            seq / batch_wall,
            format!("base: BatchRunner::run on {nproc} workers, {batch_wall:.6} s{caveat}"),
        );
    }
    let solve_on = |workers: usize, out: &mut Outcome| {
        if w.threads == workers {
            total_solve(own)
        } else {
            total_solve(&timed_solves(
                &w.with_workers(workers),
                probe,
                out,
                "speedup_vs_seq",
            ))
        }
    };
    let seq = solve_on(1, out);
    let par = solve_on(nproc, out);
    (
        seq / par,
        format!(
            "base: solve time on {nproc} workers, {par:.6} s over {} graphs{caveat}",
            probe.len()
        ),
    )
}
