//! SWAR-kernel measurements: the data behind the `swar_kernels` bench and
//! the `BENCH_swar_kernels.json` export.
//!
//! [`ExecPath::FusedSwar`] — the one fast path — replaces the engine's
//! per-cell rule dispatch and per-step full-field copy with flat-array
//! kernels whose hot bodies are word-parallel free functions over the
//! bit-packed, row-aligned adjacency plane: all-zero adjacency words are
//! skipped outright, set bits are walked with `trailing_zeros`, broadcast
//! fills are slice copies, and the tree reductions fold branch-free. Its
//! contract is *bit-identical* labelings and `Counts` metrics versus the
//! reference: [`ExecPath::Generic`], the path users get by default. Every
//! timing helper here checks that equivalence on the workload before
//! publishing a number — the export fails outright if any row diverges.
//!
//! The headline configuration is **single-threaded** on both sides: the
//! generic path on the sequential backend against `FusedSwar { parallel:
//! None }`, so every speedup is kernel design and word-level parallelism,
//! not thread count. The workloads sweep shape as well as size (see
//! [`SwarWorkload`]): the zero-word skip makes the filter kernels' cost
//! proportional to *occupied adjacency words*, so a banded sparse graph —
//! whose set bits cluster into few words — gains the most, while uniform
//! sparsity mostly exercises the sparse-bit walk.

use crate::NsPerStep;
use gca_engine::{Engine, GcaError, Instrumentation};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::generators;
use gca_hirschberg::{complexity::ceil_log2, ExecPath, Gen, Machine};
use std::time::Instant;

/// Seed shared by the `gnp` workloads (same as `sparse`).
pub const SEED: u64 = 2007;

/// Representative `(generation, sub-generation)` pairs, one per kernel
/// family: dense broadcast, row filter, thinned tree reduction, and the
/// chased-pointer jump.
pub fn kernel_generations() -> [(Gen, u32); 4] {
    [
        (Gen::BroadcastC, 0),
        (Gen::FilterNeighbors, 0),
        (Gen::MinReduce, 1),
        (Gen::PointerJump, 0),
    ]
}

/// Problem sizes the export tracks.
pub const SIZES: [usize; 3] = [64, 256, 1024];

/// The workloads the export sweeps at every size.
///
/// Sparsity comes in two very different shapes for a word-parallel kernel.
/// Uniform `gnp` sparsity spreads set bits evenly over the packed plane —
/// at `p = 0.02` a 64-bit adjacency word is still non-zero with
/// probability `1 − 0.98⁶⁴ ≈ 0.73` — so it exercises the sparse-bit walk
/// (`trailing_zeros`), not the all-zero-word skip. *Banded* sparsity
/// (here: grid adjacency, neighbors within one 32-wide row) clusters every
/// set bit within a couple of words of the diagonal, leaving the rest of
/// each row all-zero — the regime the zero-word skip targets, and where
/// its advantage grows with `n` (at `n = 1024`, 14 of 16 words per row
/// skip).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwarWorkload {
    /// `gnp(n, 0.300)` — the dense standard workload (shared seed, so
    /// rows are comparable across exports).
    GnpDense,
    /// `gnp(n, 0.020)` — uniform sparsity: sparse-bit walks, few zero
    /// words.
    GnpSparse,
    /// `grid(n / 32, 32)` — banded sparsity: nearly all adjacency words
    /// are zero, the zero-word skip dominates.
    Band,
}

impl SwarWorkload {
    /// Every workload, in the order the tables print.
    pub const ALL: [SwarWorkload; 3] =
        [SwarWorkload::GnpDense, SwarWorkload::GnpSparse, SwarWorkload::Band];

    /// Stable machine-readable key for exported JSON rows.
    pub fn key(self) -> &'static str {
        match self {
            SwarWorkload::GnpDense => "gnp_300",
            SwarWorkload::GnpSparse => "gnp_020",
            SwarWorkload::Band => "grid_band",
        }
    }

    /// Human-readable table label.
    pub fn label(self) -> &'static str {
        match self {
            SwarWorkload::GnpDense => "gnp 0.300",
            SwarWorkload::GnpSparse => "gnp 0.020",
            SwarWorkload::Band => "grid band",
        }
    }

    /// The workload graph at size `n` (`n` must be a multiple of 32,
    /// which every entry of [`SIZES`] is).
    pub fn graph(self, n: usize) -> gca_graphs::AdjacencyMatrix {
        match self {
            SwarWorkload::GnpDense => generators::gnp(n, 0.300, SEED),
            SwarWorkload::GnpSparse => generators::gnp(n, 0.020, SEED),
            SwarWorkload::Band => generators::grid(n / 32, 32),
        }
    }
}

/// An initialized machine on `workload.graph(n)` under `exec` and
/// `instrumentation`. Timing uses `Off` (pure kernel time — `Counts`
/// adds a flat per-step accounting cost that swamps the kernels and
/// drags every ratio toward 1.0x); identity checks use `Counts`.
fn machine(
    n: usize,
    workload: SwarWorkload,
    exec: ExecPath,
    instrumentation: Instrumentation,
) -> Result<Machine, GcaError> {
    let graph = workload.graph(n);
    let engine = Engine::sequential().with_instrumentation(instrumentation);
    let mut m = Machine::with_engine(&graph, engine)?.with_exec(exec);
    m.init()?;
    Ok(m)
}

/// One `(generation, sub)` timed under generic and SWAR.
#[derive(Clone, Debug)]
pub struct SwarGenTiming {
    /// Problem size.
    pub n: usize,
    /// Workload shape.
    pub workload: SwarWorkload,
    /// The timed generation.
    pub generation: Gen,
    /// The timed sub-generation.
    pub subgeneration: u32,
    /// Per-step statistics, generic reference path.
    pub generic_ns_per_step: NsPerStep,
    /// Per-step statistics, SWAR bodies (single-thread).
    pub fused_swar_ns_per_step: NsPerStep,
    /// Whether active cells, reads, changed cells and the congestion
    /// histogram were bit-identical between the two paths.
    pub metrics_identical: bool,
}

impl SwarGenTiming {
    /// Generic median time over SWAR median time.
    pub fn speedup(&self) -> f64 {
        self.generic_ns_per_step.median / self.fused_swar_ns_per_step.median
    }
}

fn time_steps(m: &mut Machine, gen: Gen, sub: u32, reps: u32) -> Result<NsPerStep, GcaError> {
    // One probing step surfaces most errors before the timing loop; the
    // measurement closure is infallible by signature, so any error inside
    // it is captured and surfaced afterwards.
    std::hint::black_box(m.step(gen, sub)?);
    let mut failed = None;
    let ns = NsPerStep::measure(
        || match m.step(gen, sub) {
            Ok(report) => {
                std::hint::black_box(report);
            }
            Err(e) => failed = Some(e),
        },
        reps,
    );
    match failed {
        Some(e) => Err(e),
        None => Ok(ns),
    }
}

/// Times `reps` executions of `(gen, sub)` under generic and SWAR on
/// the same workload. The metrics-identity check runs first on a separate
/// pair of `Counts` machines (one step each); the timed machines run under
/// `Instrumentation::Off` so the rows report kernel time, not counting
/// overhead.
pub fn time_generation(
    n: usize,
    workload: SwarWorkload,
    gen: Gen,
    sub: u32,
    reps: u32,
) -> Result<SwarGenTiming, GcaError> {
    let metrics_identical = {
        let mut generic = machine(n, workload, ExecPath::Generic, Instrumentation::Counts)?;
        let mut swar = machine(n, workload, ExecPath::fused_swar(), Instrumentation::Counts)?;
        let rg = generic.step(gen, sub)?;
        let rw = swar.step(gen, sub)?;
        rg.active_cells == rw.active_cells
            && rg.total_reads == rw.total_reads
            && rg.changed_cells == rw.changed_cells
            && rg.congestion == rw.congestion
    };
    let mut generic = machine(n, workload, ExecPath::Generic, Instrumentation::Off)?;
    let mut swar = machine(n, workload, ExecPath::fused_swar(), Instrumentation::Off)?;
    let generic_ns = time_steps(&mut generic, gen, sub, reps)?;
    let swar_ns = time_steps(&mut swar, gen, sub, reps)?;
    Ok(SwarGenTiming {
        n,
        workload,
        generation: gen,
        subgeneration: sub,
        generic_ns_per_step: generic_ns,
        fused_swar_ns_per_step: swar_ns,
        metrics_identical,
    })
}

/// Full connected-components runs, generic vs. SWAR.
#[derive(Clone, Debug)]
pub struct SwarRunTiming {
    /// Problem size.
    pub n: usize,
    /// Workload shape.
    pub workload: SwarWorkload,
    /// Instrumentation the runs executed under (`"off"` / `"counts"`).
    pub instrumentation: &'static str,
    /// Milliseconds for the generic run.
    pub generic_ms: f64,
    /// Milliseconds for the SWAR run (single-thread).
    pub fused_swar_ms: f64,
    /// Whether both runs matched the union-find ground truth.
    pub labels_match_union_find: bool,
    /// Whether the per-generation metrics logs were bit-identical
    /// (trivially `true` under `Instrumentation::Off`, where both are
    /// empty).
    pub metrics_identical: bool,
}

impl SwarRunTiming {
    /// Generic time over SWAR time.
    pub fn speedup(&self) -> f64 {
        self.generic_ms / self.fused_swar_ms
    }
}

/// One timed solve: the paper's fixed schedule (`init` + `⌈log₂ n⌉`
/// iterations + label extraction) on a pre-built machine. Building the
/// machine — packing the input adjacency into the bit plane — is identical
/// input conversion for both execution paths and is deliberately *outside*
/// the timed region, so the ratio measures the kernels, not shared setup.
fn timed_run(
    graph: &gca_graphs::AdjacencyMatrix,
    exec: ExecPath,
    instrumentation: Instrumentation,
) -> Result<(f64, Machine), GcaError> {
    let engine = Engine::sequential().with_instrumentation(instrumentation);
    let mut m = Machine::with_engine(graph, engine)?.with_exec(exec);
    let start = Instant::now();
    m.init()?;
    m.run_iterations(u64::from(ceil_log2(graph.n())))?;
    let labels = std::hint::black_box(m.labels()?);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    drop(labels);
    Ok((ms, m))
}

/// Times full runs on `workload(n, p_milli)` under `instrumentation`.
/// `Instrumentation::Off` is the headline configuration (pure kernel time,
/// no counting overhead on either side); `Counts` doubles as the
/// metrics-identity check over a complete run.
///
/// Each path reports its *best* wall time over several runs: a shared-CI
/// container jitters single samples by ±30%, and the minimum is the
/// standard robust estimator for "how fast does this code actually run"
/// (noise only ever adds time). `Off` takes five runs per path; `Counts`
/// (an identity check first, a timing second) takes two.
pub fn time_full_runs(
    n: usize,
    workload: SwarWorkload,
    instrumentation: Instrumentation,
) -> Result<SwarRunTiming, GcaError> {
    let graph = workload.graph(n);
    let expected = union_find_components_dense(&graph);
    let runs = if matches!(instrumentation, Instrumentation::Off) {
        5
    } else {
        2
    };
    // The first run seeds both the minima and the machines the identity
    // check below reads, so no Option/expect dance is needed for "at least
    // one run happened".
    let (mut generic_ms, mut generic) = timed_run(&graph, ExecPath::Generic, instrumentation)?;
    let (mut fused_swar_ms, mut swar) = timed_run(&graph, ExecPath::fused_swar(), instrumentation)?;
    for _ in 1..runs {
        let (g_ms, g_machine) = timed_run(&graph, ExecPath::Generic, instrumentation)?;
        let (w_ms, w_machine) = timed_run(&graph, ExecPath::fused_swar(), instrumentation)?;
        generic_ms = generic_ms.min(g_ms);
        fused_swar_ms = fused_swar_ms.min(w_ms);
        (generic, swar) = (g_machine, w_machine);
    }
    let labels_match_union_find = [generic.labels()?, swar.labels()?]
        .iter()
        .all(|l| l.as_slice() == expected.as_slice());
    Ok(SwarRunTiming {
        n,
        workload,
        instrumentation: match instrumentation {
            Instrumentation::Off => "off",
            Instrumentation::Counts => "counts",
            Instrumentation::Trace => "trace",
            Instrumentation::Validate => "validate",
        },
        generic_ms,
        fused_swar_ms,
        labels_match_union_find,
        metrics_identical: generic.metrics().entries() == swar.metrics().entries(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small test size: a multiple of 32 (the band workload's row width)
    /// that still keeps the tests fast.
    const TEST_N: usize = 32;

    #[test]
    fn generation_timings_report_identical_metrics() {
        for w in SwarWorkload::ALL {
            for (gen, sub) in kernel_generations() {
                let t = time_generation(TEST_N, w, gen, sub, 2).unwrap();
                assert!(t.metrics_identical, "{gen:?} sub {sub} workload {w:?}");
                assert!(
                    t.generic_ns_per_step.median > 0.0 && t.fused_swar_ns_per_step.median > 0.0
                );
                assert!(t.fused_swar_ns_per_step.min <= t.fused_swar_ns_per_step.max);
            }
        }
    }

    #[test]
    fn full_runs_agree_under_both_instrumentations() {
        for instr in [Instrumentation::Off, Instrumentation::Counts] {
            for w in SwarWorkload::ALL {
                let t = time_full_runs(TEST_N, w, instr).unwrap();
                assert!(t.labels_match_union_find, "workload {w:?}");
                assert!(t.metrics_identical, "workload {w:?}");
            }
        }
    }

    #[test]
    fn band_workload_is_banded() {
        // The zero-word-skip story depends on the band workload actually
        // clustering its bits: every neighbor of vertex v lies within one
        // grid row (±32) of v.
        let g = SwarWorkload::Band.graph(128);
        for v in 0..128usize {
            for u in 0..128usize {
                if g.has_edge(v, u) {
                    assert!(v.abs_diff(u) <= 32, "edge ({v},{u}) leaves the band");
                }
            }
        }
    }
}
