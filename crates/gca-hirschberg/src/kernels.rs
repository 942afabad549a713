//! Fused flat-array kernels for the Hirschberg rule ([`ExecPath::FusedSwar`],
//! the one fast path beside the generic reference).
//!
//! The generic engine path evaluates every generation through per-cell
//! [`gca_engine::GcaRule`] dispatch: each cell re-derives its row/column,
//! re-matches the phase enum, resolves an [`gca_engine::Access`], and the
//! engine copies every untouched cell from the previous to the next buffer.
//! For the iterated phases (the two `⌈log₂ n⌉` min-reduction trees and
//! pointer jumping) that copy alone is `O(n²)` work per sub-generation for
//! `O(n)` useful updates.
//!
//! This module implements each of Figure 2's generations as a specialized
//! kernel over the struct-of-arrays `HField` data plane instead:
//!
//! * **broadcasts** (generations 1, 5, 9) gather the column-0 vector into a
//!   reusable scratch once, then fill rows with strided writes;
//! * **tree reductions** (generations 3, 7) update the current buffer in
//!   place — within one sub-generation the written columns
//!   (`col ≡ 0 (mod 2^{s+1})`) and the read columns (`col + 2^s`) are
//!   disjoint, so synchrony holds without any buffer copy, and the `log n`
//!   sub-generations fuse into consecutive passes over the same buffer;
//! * **pointer jumping** (generation 10) chases pointers through two
//!   ping-pong label vectors of length `n` (`FusedExecutor::gather_labels`
//!   / `FusedExecutor::scatter_labels`), touching the `n²`-cell field not
//!   at all between sub-generations — the existing
//!   [`crate::Convergence::Detect`] fixed point composes unchanged.
//!
//! **SWAR execution.** The statically addressed kernels run the
//! word-parallel row bodies of the [`crate::swar`] module: the bit-gated
//! filters walk the row-aligned packed adjacency plane a word at a time
//! (zero-word skip + `trailing_zeros` set-bit walks) and the fills and
//! reductions run branch-free over whole slices. The scalar `*_rows`
//! functions below are the per-cell reference those bodies are proven
//! against lane by lane (`gca-analysis --lanes`, DESIGN.md §15); the
//! resolve, pointer-jump and final-min generations have no SWAR twin and
//! run their scalar bodies directly.
//!
//! **Parallel execution.** Every kernel body is a *row-range function*
//! (`swar::*_rows`, or `*_rows` below) over a contiguous slice of whole
//! rows. The sequential path runs it once over the full range; a
//! partitioned run ([`FusedSwar::parallel`]) runs the same function over
//! disjoint `par_chunks_mut` row partitions, one `ChunkReport` accumulator
//! per chunk, merged after the join. Because both paths execute the
//! identical per-cell code and integer counter sums commute, labels *and*
//! metrics are bit-identical by construction. The
//! per-generation race-freedom argument (why row partitions never alias) is
//! written out in DESIGN.md §13.
//!
//! **Metrics contract.** Every kernel produces the exact counters the
//! generic path produces: active cells per Table 1, total reads, changed
//! cells (the convergence signal), and its read footprint as a `ReadSet`
//! — never a dense n(n+1) count plane. Statically addressed phases
//! (generations 1–9) emit a closed form: one δ over a strided grid of
//! target cells. The data-dependent pointer chases (generations 10 and
//! 11) accumulate compact per-chunk histograms (indexed by the chased
//! label, `≤ n`) that are merged slot by slot after the join.
//! `FusedExecutor::generation_metrics` turns a footprint into Table-1
//! metrics in O(1) (static) or O(n) (chases); the dense plane is
//! materialized only for the `Validate` replay and the single-step API.
//! `tests/property_based.rs` asserts labelings *and* `Counts` metrics are
//! bit-identical across every path, partitioned or not; `Instrumentation::Trace` needs
//! per-cell access lists only the generic evaluator materializes, so
//! [`crate::Machine`] falls back to it.

use crate::hfield::{a_bit, HField};
use crate::{swar, Gen, HCell};
use gca_engine::metrics::GenerationMetrics;
use gca_engine::{AdjWord, CellField, GcaError, StepCtx, Word, INFINITY, WORD_BITS};
use rayon::prelude::*;

/// Which implementation executes the state machine's generations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecPath {
    /// The engine's generic per-cell `access`/`evolve` dispatch — the
    /// reference semantics, supporting every [`gca_engine::Instrumentation`]
    /// level and [`gca_engine::Backend`].
    #[default]
    Generic,
    /// The fused flat-array kernels of [`crate::kernels`] with SWAR
    /// (SIMD-within-a-register) row bodies from the `swar` module:
    /// word-skip + `trailing_zeros` walks over the bit-packed adjacency
    /// plane, slice-equality broadcast fast paths and branch-free tree
    /// reductions — 64 cells per ALU operation on the filter generations.
    /// Optionally composes with row partitioning ([`FusedSwar::parallel`]):
    /// SWAR inside each chunk. Labels and `Counts` metrics stay
    /// bit-identical to [`ExecPath::Generic`]; steps with
    /// [`gca_engine::Instrumentation::Trace`] fall back to the generic path
    /// (access traces require the per-cell evaluator). The machine driver
    /// additionally consults a [`crate::SwarSchedule`] (structural by
    /// default, derivable from `gca-analysis`'s symbolic activity forms) to
    /// skip provably zero-activity sub-generations.
    FusedSwar(FusedSwar),
}

/// Row-partitioned parallelism of the SWAR fused path
/// ([`FusedSwar::parallel`]). A generation partitions only when its
/// touched region reaches the engine's tunable
/// ([`gca_engine::Engine::min_parallel_cells`]), the one fallback knob it
/// shares with [`gca_engine::Backend::Parallel`]; below it the kernels run
/// sequentially.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct FusedParallel {
    /// Worker (chunk) count; `0` means one per hardware thread
    /// ([`rayon::current_num_threads`]). An explicit count is honored
    /// exactly — even on small fields — so non-power-of-two partitions can
    /// be exercised deterministically.
    pub workers: usize,
}

impl FusedParallel {
    /// A configuration with an explicit worker count (`0` = auto).
    pub fn with_workers(workers: usize) -> Self {
        FusedParallel { workers }
    }
}

/// Configuration of the SWAR fused path ([`ExecPath::FusedSwar`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct FusedSwar {
    /// Row-partitioned parallelism *inside* the SWAR kernels; `None` runs
    /// the SWAR bodies sequentially (the honest single-thread
    /// configuration the benches report).
    pub parallel: Option<FusedParallel>,
}

impl ExecPath {
    /// The name of the retired scalar fused path, kept as an alias of the
    /// sequential [`ExecPath::FusedSwar`] configuration so that callers
    /// written against it (the repository benchmark's workload table)
    /// still build. It names no third path; it goes when those callers
    /// move to [`ExecPath::fused_swar`].
    #[allow(non_upper_case_globals)]
    pub const Fused: ExecPath = ExecPath::FusedSwar(FusedSwar { parallel: None });

    /// Shorthand for the sequential [`ExecPath::FusedSwar`] configuration.
    pub fn fused_swar() -> Self {
        ExecPath::FusedSwar(FusedSwar::default())
    }
}

/// The resolved per-step parallel policy [`crate::Machine`] hands the
/// executor: worker count already defaulted (≥ 2, or the machine would not
/// pass a policy at all) and threshold resolved against the engine tunable.
#[derive(Clone, Copy, Debug)]
pub struct ParPolicy {
    /// Target chunk count.
    pub workers: usize,
    /// Minimum touched cells before a kernel parallelizes.
    pub threshold: usize,
    /// `true` when the worker count was configured explicitly (honor it
    /// exactly); `false` for auto counts (clamp chunks to a minimum size so
    /// scoped-thread spawns stay amortized, mirroring the engine backend).
    pub explicit: bool,
}

/// Minimum data-plane cells per parallel chunk under an *auto* worker
/// count (mirrors `gca-engine`'s `MIN_PAR_CHUNK`); explicit worker counts
/// bypass it.
pub const MIN_PAR_CHUNK_CELLS: usize = 8 * 1024;

/// Decides the row partitioning of one kernel: `None` → run sequentially,
/// `Some(rows_per_chunk)` → split `rows` rows (each `row_width` data-plane
/// cells wide) into `par_chunks_mut` partitions.
///
/// Public as verification surface: `gca-analysis`'s partition prover
/// (DESIGN.md §15) enumerates this exact planner over every kernel
/// geometry to prove the resulting `par_chunks_mut` intervals are
/// pairwise disjoint and exactly cover the field.
pub fn plan_rows(
    par: Option<ParPolicy>,
    touched: usize,
    rows: usize,
    row_width: usize,
) -> Option<usize> {
    let p = par?;
    if touched < p.threshold || rows < 2 {
        return None;
    }
    let mut rows_per = rows.div_ceil(p.workers).max(1);
    if !p.explicit {
        rows_per = rows_per.max(MIN_PAR_CHUNK_CELLS.div_ceil(row_width.max(1)));
    }
    (rows.div_ceil(rows_per) >= 2).then_some(rows_per)
}

/// Where one fused generation read, in closed form: the compact stand-in
/// for a dense n(n+1) per-target read-count plane (Table 1's congestion
/// histogram), which only [`FusedExecutor::write_reads`] materializes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum ReadSet {
    /// No reads (generation 0, or an empty field).
    #[default]
    None,
    /// Statically addressed (generations 1–9): in each of the `rows`
    /// field rows from `row` on, the `per_row` cells at columns
    /// `col + k·step` are read exactly `delta` times each.
    Grid {
        row: usize,
        rows: usize,
        col: usize,
        step: usize,
        per_row: usize,
        delta: u32,
    },
    /// A data-dependent chase (generations 10 and 11): slot `d` of the
    /// executor's merged label histogram counts the reads of cell
    /// `d·n + col`.
    Chase { col: usize },
}

impl ReadSet {
    /// Column 0 of the `n` square rows, each cell read `delta` times —
    /// the broadcast and copy generations' source column.
    fn column0(n: usize, delta: usize) -> Self {
        ReadSet::Grid {
            row: 0,
            rows: n,
            col: 0,
            step: 1,
            per_row: 1,
            // delta ≤ n + 1 and the layout caps n below u32::MAX.
            delta: delta as u32, // gca-lint: allow(truncating-cast)
        }
    }

    /// The `D_N` row (row `n`), each cell read `delta` times — the filter
    /// and resolve generations' saved labels.
    fn dn_row(n: usize, delta: usize) -> Self {
        ReadSet::Grid {
            row: n,
            rows: 1,
            col: 0,
            step: 1,
            per_row: n,
            // delta ≤ n and the layout caps n below u32::MAX.
            delta: delta as u32, // gca-lint: allow(truncating-cast)
        }
    }
}

/// Counters of one fused generation — the kernel-side mirror of
/// [`gca_engine::StepReport`]'s counter fields, plus its read footprint.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct KernelReport {
    /// Cells that performed a calculation (Table 1's activity column).
    pub active: usize,
    /// Total global reads issued.
    pub reads: u64,
    /// Cells whose new state differs from their previous state.
    pub changed: usize,
    /// Cells the kernel visited.
    pub evaluated: usize,
    /// Worker chunks that executed the kernel (`1` = sequential, including
    /// the below-threshold auto-fallback).
    pub workers: usize,
    /// Which cells were read how often ([`FusedExecutor::generation_metrics`]).
    pub footprint: ReadSet,
}

impl KernelReport {
    /// A report of `active` cells that each issue exactly one read and
    /// are the only cells evaluated.
    fn uniform(active: usize, changed: usize, workers: usize, footprint: ReadSet) -> Self {
        KernelReport {
            active,
            reads: active as u64,
            changed,
            evaluated: active,
            workers,
            footprint,
        }
    }
}

/// One parallel chunk's accumulator: a changed-cell tally, a compact
/// per-label read histogram for the data-dependent kernels (merged into
/// the shared histogram after the join) and an error slot. Owned by the
/// executor so the buffers stay warm across generations.
#[derive(Clone, Debug, Default)]
struct ChunkReport {
    changed: usize,
    hist: Vec<u32>,
    error: Option<GcaError>,
}

/// Clears (and histogram-sizes) the first `count` chunk accumulators,
/// growing the pool on demand.
fn chunk_slots(
    chunks: &mut Vec<ChunkReport>,
    count: usize,
    hist_len: Option<usize>,
) -> &mut [ChunkReport] {
    if chunks.len() < count {
        chunks.resize_with(count, ChunkReport::default);
    }
    let slots = &mut chunks[..count];
    for c in slots.iter_mut() {
        c.changed = 0;
        c.error = None;
        c.hist.clear();
        if let Some(len) = hist_len {
            c.hist.resize(len, 0);
        }
    }
    slots
}

/// Reusable scratch and per-generation kernels for one problem size `n`.
///
/// Owned by [`crate::Machine`]; all buffers (including the [`HField`] SoA
/// mirror of the machine's field) are allocated once and reused, so fused
/// steady-state stepping performs no allocation (under
/// `Instrumentation::Off` and `Instrumentation::Counts` alike) beyond what
/// the metrics log itself appends. Read accounting never materializes the
/// n(n+1) count plane: each kernel reports its [`ReadSet`] in closed form.
#[derive(Clone, Debug, Default)]
pub(crate) struct FusedExecutor {
    n: usize,
    /// The SoA mirror the kernels execute on; synced with the machine's
    /// `CellField<HCell>` at the `Machine` boundary.
    hfield: HField,
    /// Gathered column-0 (`C`/`T`) values — the broadcast source and the
    /// "ping" label buffer of pointer jumping.
    labels: Vec<Word>,
    /// The "pong" label buffer of pointer jumping.
    labels_next: Vec<Word>,
    /// The merged per-label read histogram of the last counting chase
    /// kernel ([`ReadSet::Chase`]), `n + 1` slots.
    hist: Vec<u32>,
    /// Reads booked behind the kernels' back since the last kernel ran
    /// ([`FusedExecutor::bump_read`]), one entry per extra read.
    bumps: Vec<usize>,
    /// Per-chunk accumulators of the parallel path.
    chunks: Vec<ChunkReport>,
    /// Generation 6 scratch: the row-aligned membership
    /// mask (`bit (r, c) ⇔ D_N[c] = r`), rebuilt each FilterMembers.
    member_mask: Vec<AdjWord>,
    /// Occupancy plane over the square field: bit `(r, c)` set iff
    /// cell `(r, c)` is not `∞`. Written exactly by the filter kernels
    /// (generations 2 and 6), maintained by the occupancy-guided tree
    /// reductions, and meaningful only while `occ_valid`.
    occ: Vec<AdjWord>,
    /// Whether `occ` currently mirrors the square plane. True only in the
    /// filter → min-reduce windows; any other kernel (or a SoA reload)
    /// invalidates it, dropping the reductions back to their
    /// occupancy-free bodies.
    occ_valid: bool,
}

impl FusedExecutor {
    /// An executor for problem size `n`.
    pub fn new(n: usize) -> Self {
        let hfield = HField::new(n);
        let occ = vec![0; n * hfield.words_per_row];
        FusedExecutor {
            n,
            hfield,
            labels: Vec::with_capacity(n),
            labels_next: vec![0; n],
            hist: Vec::new(),
            bumps: Vec::new(),
            chunks: Vec::new(),
            member_mask: Vec::new(),
            occ,
            occ_valid: false,
        }
    }

    /// Reloads the SoA mirror from the authoritative AoS field.
    pub fn load(&mut self, field: &CellField<HCell>) {
        self.hfield.load(field);
        self.occ_valid = false;
    }

    /// Writes the SoA data plane back into the AoS field (adjacency bits
    /// are immutable and never flow back).
    pub fn store_d(&self, field: &mut CellField<HCell>) {
        self.hfield.store_d(field);
    }

    /// The Table-1 metrics of the last kernel, whose report carried
    /// `footprint`: O(1) from the closed form of a static generation,
    /// O(n) from a chase's label histogram. Equal to
    /// [`GenerationMetrics::from_read_counts`] over the plane
    /// [`FusedExecutor::write_reads`] materializes. A generation whose
    /// footprint a fault surface bumped (fault injection only) takes that
    /// dense route itself.
    pub fn generation_metrics(
        &self,
        ctx: StepCtx,
        active: usize,
        footprint: ReadSet,
    ) -> GenerationMetrics {
        let len = self.hfield.d.len();
        if !self.bumps.is_empty() {
            let mut reads = Vec::new();
            self.write_reads(footprint, &mut reads);
            return GenerationMetrics::from_read_counts(ctx, active, &reads);
        }
        match footprint {
            ReadSet::None => GenerationMetrics::from_read_groups(ctx, active, len, []),
            ReadSet::Grid {
                rows,
                per_row,
                delta,
                ..
            } => GenerationMetrics::from_read_groups(ctx, active, len, [(delta, rows * per_row)]),
            ReadSet::Chase { .. } => {
                let slots = self.hist.iter().map(|&c| (c, 1));
                GenerationMetrics::from_read_groups(ctx, active, len, slots)
            }
        }
    }

    /// Materializes the dense per-target read counts of the last kernel
    /// (whose report carried `footprint`, plus any fault bumps) into `out`,
    /// reusing its allocation — for the per-cell replay comparison and the
    /// single-step API's owned congestion histogram only.
    pub fn write_reads(&self, footprint: ReadSet, out: &mut Vec<u32>) {
        let n = self.n;
        out.clear();
        out.resize(self.hfield.d.len(), 0);
        match footprint {
            ReadSet::None => {}
            ReadSet::Grid {
                row,
                rows,
                col,
                step,
                per_row,
                delta,
            } => {
                for r in row..row + rows {
                    for k in 0..per_row {
                        out[r * n + col + k * step] = delta;
                    }
                }
            }
            ReadSet::Chase { col } => {
                for (d, &c) in self.hist.iter().enumerate() {
                    if c > 0 {
                        out[d * n + col] = c;
                    }
                }
            }
        }
        for &i in &self.bumps {
            out[i] += 1;
        }
    }

    /// The data-plane word of linear cell `i`, or `None` when out of
    /// range — the fault-injection hooks' read surface.
    pub fn word_at(&self, i: usize) -> Option<Word> {
        self.hfield.d.get(i).copied()
    }

    /// Overwrites the data-plane word of linear cell `i` (out-of-range
    /// writes are ignored) — the fault-injection hooks' write surface.
    pub fn set_word(&mut self, i: usize, w: Word) {
        if let Some(slot) = self.hfield.d.get_mut(i) {
            *slot = w;
        }
    }

    /// Copies the whole data plane into `out` (reusing its allocation) —
    /// the pre-generation capture of a dropped-generation fault.
    pub fn save_plane(&self, out: &mut Vec<Word>) {
        out.clear();
        out.extend_from_slice(&self.hfield.d);
    }

    /// Restores a data plane captured by [`FusedExecutor::save_plane`].
    /// Ignored on length mismatch (a stale capture from another size).
    pub fn load_plane(&mut self, plane: &[Word]) {
        if plane.len() == self.hfield.d.len() {
            self.hfield.d.copy_from_slice(plane);
        }
    }

    /// Clears the occupancy-plane bit of square cell `i` — the stale-
    /// occupancy fault surface: a filter marked the cell occupied, the
    /// occupancy write is lost, and the next occupancy-guided tree
    /// reduction skips a live value. No-op unless the plane is currently
    /// authoritative (inside a filter → min-reduce window) or `i` lies
    /// outside the square plane.
    pub fn clear_occ_bit(&mut self, i: usize) {
        if !self.occ_valid || self.n == 0 || i >= self.n * self.n {
            return;
        }
        let (row, col) = (i / self.n, i % self.n);
        self.occ[row * self.hfield.words_per_row + col / WORD_BITS] &=
            !(1 << (col % WORD_BITS));
    }

    /// Books one more read of cell `i` behind the kernels' back — the
    /// fault surface of a corrupted histogram merge (a chunk's congestion
    /// accumulator folded in twice) and of a duplicated chunk row.
    /// Counted into the last kernel's footprint until the next kernel
    /// runs; no-op when `i` is out of range.
    pub fn bump_read(&mut self, i: usize) {
        if i < self.hfield.d.len() {
            self.bumps.push(i);
        }
    }

    /// Executes one `(generation, sub-generation)` over the SoA mirror,
    /// dispatching to the matching kernel. `par` carries the resolved
    /// parallel policy (`None` = sequential fused path). On error the data
    /// plane is left on its previous generation, like
    /// [`gca_engine::Engine::step`].
    pub fn step(
        &mut self,
        ctx: &StepCtx,
        counting: bool,
        par: Option<ParPolicy>,
    ) -> Result<KernelReport, GcaError> {
        let gen = Gen::from_number(ctx.phase)
            .unwrap_or_else(|| panic!("invalid Hirschberg phase {}", ctx.phase));
        let n = self.n;
        self.bumps.clear();
        if n == 0 {
            return Ok(KernelReport {
                workers: 1,
                ..KernelReport::default()
            });
        }
        // Occupancy lifecycle: the filters produce an exact plane,
        // the tree reductions keep it exact, everything else (including
        // errors, which leave the plane mid-state) invalidates it.
        let occ_was_valid = self.occ_valid;
        self.occ_valid = false;
        match gen {
            Gen::Init => Ok(self.init(par)),
            Gen::BroadcastC => Ok(self.broadcast(true, par)),
            Gen::FilterNeighbors => {
                let rep = self.filter_neighbors(par);
                self.occ_valid = true;
                Ok(rep)
            }
            Gen::MinReduce | Gen::MinReduceMembers => {
                let rep = self.min_reduce(ctx.subgeneration, occ_was_valid, par);
                self.occ_valid = occ_was_valid;
                Ok(rep)
            }
            Gen::ResolveIsolated | Gen::ResolveMembers => Ok(self.resolve(par)),
            Gen::BroadcastT => Ok(self.broadcast(false, par)),
            Gen::FilterMembers => {
                let rep = self.filter_members(par);
                self.occ_valid = true;
                Ok(rep)
            }
            Gen::CopyAndSaveT => Ok(self.copy_and_save_t(par)),
            Gen::PointerJump => {
                self.gather_labels();
                let rep = self.jump_once(ctx, counting, par)?;
                self.scatter_labels();
                Ok(rep)
            }
            Gen::FinalMin => self.final_min(ctx, counting, par),
        }
    }

    /// Generation 0: `d ← row(index)` everywhere, no reads.
    fn init(&mut self, par: Option<ParPolicy>) -> KernelReport {
        let n = self.n;
        let rows = n + 1;
        let touched = rows * n;
        let (changed, workers) = match plan_rows(par, touched, rows, n) {
            None => (swar::init_rows(&mut self.hfield.d, 0, n), 1),
            Some(rows_per) => {
                let count = rows.div_ceil(rows_per);
                let slots = chunk_slots(&mut self.chunks, count, None);
                self.hfield
                    .d
                    .par_chunks_mut(rows_per * n)
                    .zip(slots.par_iter_mut())
                    .enumerate()
                    .for_each(|(ci, (seg, acc))| {
                        acc.changed = swar::init_rows(seg, ci * rows_per, n);
                    });
                (slots.iter().map(|c| c.changed).sum(), count)
            }
        };
        KernelReport {
            active: touched,
            reads: 0,
            changed,
            evaluated: touched,
            workers,
            footprint: ReadSet::None,
        }
    }

    /// Generations 1 and 5: fill every row with the gathered column-0
    /// vector. Generation 1 (`include_dn`) also overwrites `D_N` (saving
    /// `C`); generation 5 leaves `D_N` on its saved copy.
    fn broadcast(&mut self, include_dn: bool, par: Option<ParPolicy>) -> KernelReport {
        let n = self.n;
        self.labels.clear();
        {
            let d = &self.hfield.d;
            self.labels.extend((0..n).map(|j| d[j * n]));
        }
        let rows = if include_dn { n + 1 } else { n };
        let touched = rows * n;
        let (changed, workers) = match plan_rows(par, touched, rows, n) {
            None => (
                swar::broadcast_rows(&mut self.hfield.d[..touched], &self.labels),
                1,
            ),
            Some(rows_per) => {
                let count = rows.div_ceil(rows_per);
                let slots = chunk_slots(&mut self.chunks, count, None);
                let labels = &self.labels;
                self.hfield.d[..touched]
                    .par_chunks_mut(rows_per * n)
                    .zip(slots.par_iter_mut())
                    .for_each(|(seg, acc)| acc.changed = swar::broadcast_rows(seg, labels));
                (slots.iter().map(|c| c.changed).sum(), count)
            }
        };
        KernelReport::uniform(touched, changed, workers, ReadSet::column0(n, rows))
    }

    /// Fused broadcast + filter: generations 1+2 (`members = false`) or
    /// 5+6 (`members = true`) in one sweep over the square plane — one
    /// load+store per cell instead of the broadcast's store pass plus the
    /// filter's load+store pass. Only reached from the batched driver when the post-broadcast intermediate state is
    /// unobservable (no validation, no fault plan, no single-stepping).
    /// Both generations are statically addressed, so the returned pair
    /// carries each one's closed-form read footprint alongside the exact
    /// `changed` counts the separate passes produce (see
    /// [`swar::broadcast_filter_neighbor_rows`]).
    pub(crate) fn broadcast_filter(
        &mut self,
        members: bool,
        par: Option<ParPolicy>,
    ) -> (KernelReport, KernelReport) {
        self.bumps.clear();
        let n = self.n;
        let wpr = self.hfield.words_per_row;
        self.labels.clear();
        {
            let d = &self.hfield.d;
            self.labels.extend((0..n).map(|j| d[j * n]));
        }
        if members {
            // Generation 5 leaves D_N untouched, so the mask built here is
            // the mask generation 6 would have seen after the broadcast.
            swar::build_member_mask(&mut self.member_mask, &self.hfield.d[n * n..], n, wpr);
        }
        let occ = &mut self.occ;
        let (square, dn) = self.hfield.d.split_at_mut(n * n);
        let labels = &self.labels;
        let a = &self.hfield.a;
        let mask = &self.member_mask;
        // A uniform label vector (run converged to one component) means no
        // cell survives generation 2's `lab ≠ C(row)` test: the pair
        // degenerates to tally + fill. Not applicable to generation 6,
        // whose `keep` varies by row.
        let uniform_kill = !members && labels.iter().all(|&l| l == labels[0]);
        let kill_f_per_row = labels.iter().filter(|&&l| l != INFINITY).count();
        let run = |seg: &mut [Word], occ_seg: &mut [AdjWord], base_row: usize| {
            if uniform_kill {
                let rows = seg.len() / n.max(1);
                (
                    swar::broadcast_kill_rows(seg, occ_seg, labels, n, wpr),
                    rows * kill_f_per_row,
                )
            } else if members {
                swar::broadcast_filter_member_rows(seg, occ_seg, mask, labels, base_row, n, wpr)
            } else {
                swar::broadcast_filter_neighbor_rows(seg, occ_seg, a, labels, base_row, n, wpr)
            }
        };
        let ((mut b_changed, f_changed), workers) = match plan_rows(par, n * n, n, n) {
            None => (run(square, occ, 0), 1),
            Some(rows_per) => {
                let count = n.div_ceil(rows_per);
                // Two tallies per chunk, so the shared `ChunkReport` slots
                // (one counter) don't fit; `count` is at most the worker
                // budget, so a fresh accumulator vector is cheap.
                let mut slots: Vec<(usize, usize)> = vec![(0, 0); count];
                square
                    .par_chunks_mut(rows_per * n)
                    .zip(occ.par_chunks_mut(rows_per * wpr))
                    .zip(slots.par_iter_mut())
                    .enumerate()
                    .for_each(|(ci, ((seg, occ_seg), acc))| {
                        *acc = run(seg, occ_seg, ci * rows_per);
                    });
                (
                    slots
                        .iter()
                        .fold((0, 0), |(b, f), &(cb, cf)| (b + cb, f + cf)),
                    count,
                )
            }
        };
        // Generation 1's broadcast also writes the D_N row (saving `C`);
        // generation 5's leaves D_N on the saved copy.
        let bcast_rows = if members { n } else { n + 1 };
        if !members {
            for (cell, &lab) in dn[..n].iter_mut().zip(labels) {
                b_changed += usize::from(*cell != lab);
                *cell = lab;
            }
        }
        // The filter half wrote an exact occupancy plane, exactly as the
        // separate filter generation would have.
        self.occ_valid = true;
        let bcast = ReadSet::column0(n, bcast_rows);
        (
            KernelReport::uniform(bcast_rows * n, b_changed, workers, bcast),
            KernelReport::uniform(n * n, f_changed, workers, ReadSet::dn_row(n, n)),
        )
    }

    /// Generation 2: keep `d = C(col)` only where an edge connects `row` to
    /// `col` and the endpoints are in different components (`d ≠ C(row)`,
    /// with `C(row)` read from `D_N`); else `∞`.
    fn filter_neighbors(&mut self, par: Option<ParPolicy>) -> KernelReport {
        let n = self.n;
        let wpr = self.hfield.words_per_row;
        let occ = &mut self.occ;
        let (square, dn) = self.hfield.d.split_at_mut(n * n);
        let a = &self.hfield.a;
        let run = |seg: &mut [Word], occ_seg: &mut [AdjWord], base_row: usize, dn: &[Word]| {
            swar::filter_neighbor_rows(seg, occ_seg, a, dn, base_row, n, wpr)
        };
        let (changed, workers) = match plan_rows(par, n * n, n, n) {
            None => (run(square, occ, 0, dn), 1),
            Some(rows_per) => {
                let count = n.div_ceil(rows_per);
                let slots = chunk_slots(&mut self.chunks, count, None);
                let dn = &dn[..];
                // The occupancy plane is row-partitioned exactly like the
                // square plane, so chunks stay disjoint.
                square
                    .par_chunks_mut(rows_per * n)
                    .zip(occ.par_chunks_mut(rows_per * wpr))
                    .zip(slots.par_iter_mut())
                    .enumerate()
                    .for_each(|(ci, ((seg, occ_seg), acc))| {
                        acc.changed = run(seg, occ_seg, ci * rows_per, dn);
                    });
                (slots.iter().map(|c| c.changed).sum(), count)
            }
        };
        KernelReport::uniform(n * n, changed, workers, ReadSet::dn_row(n, n))
    }

    /// Generations 3 and 7, one sub-generation: every participating cell
    /// (`col ≡ 0 (mod 2^{s+1})`, `col + 2^s < n`) folds in the cell `2^s` to
    /// its right. In place: written and read columns are disjoint, and both
    /// stay inside the cell's own row, so row partitions never alias.
    fn min_reduce(&mut self, s: u32, occ_valid: bool, par: Option<ParPolicy>) -> KernelReport {
        let n = self.n;
        let wpr = self.hfield.words_per_row;
        let stride = 1usize << s;
        let per_row = if n > stride {
            (n - stride - 1) / (stride << 1) + 1
        } else {
            0
        };
        let active = n * per_row;
        let occ = &mut self.occ;
        let square = &mut self.hfield.d[..n * n];
        let run = |seg: &mut [Word], occ_seg: &mut [AdjWord]| {
            if occ_valid {
                swar::min_reduce_rows_occ(seg, occ_seg, stride, n, wpr)
            } else {
                swar::min_reduce_rows(seg, stride, n)
            }
        };
        let (changed, workers) = match plan_rows(par, active, n, n) {
            None => (run(square, occ), 1),
            Some(rows_per) => {
                let count = n.div_ceil(rows_per);
                let slots = chunk_slots(&mut self.chunks, count, None);
                square
                    .par_chunks_mut(rows_per * n)
                    .zip(occ.par_chunks_mut(rows_per * wpr))
                    .zip(slots.par_iter_mut())
                    .for_each(|((seg, occ_seg), acc)| acc.changed = run(seg, occ_seg));
                (slots.iter().map(|c| c.changed).sum(), count)
            }
        };
        // Each participating cell reads the cell `2^s` to its right once.
        let footprint = ReadSet::Grid {
            row: 0,
            rows: n,
            col: stride,
            step: stride << 1,
            per_row,
            delta: 1,
        };
        KernelReport::uniform(active, changed, workers, footprint)
    }

    /// Generations 4 and 8: column-0 cells still holding `∞` fall back to
    /// the saved `C(row)` from `D_N`.
    fn resolve(&mut self, par: Option<ParPolicy>) -> KernelReport {
        let n = self.n;
        let (square, dn) = self.hfield.d.split_at_mut(n * n);
        let (changed, workers) = match plan_rows(par, n, n, 1) {
            None => (resolve_rows(square, dn, n), 1),
            Some(rows_per) => {
                let count = n.div_ceil(rows_per);
                let slots = chunk_slots(&mut self.chunks, count, None);
                square
                    .par_chunks_mut(rows_per * n)
                    .zip(dn[..n].par_chunks(rows_per))
                    .zip(slots.par_iter_mut())
                    .for_each(|((seg, dns), acc)| acc.changed = resolve_rows(seg, dns, n));
                (slots.iter().map(|c| c.changed).sum(), count)
            }
        };
        KernelReport::uniform(n, changed, workers, ReadSet::dn_row(n, 1))
    }

    /// Generation 6: keep `d = T(col)` only where `col` is a member of
    /// component `row` (`C(col) = row`, read from `D_N`) and its candidate
    /// differs from `row`; else `∞`.
    fn filter_members(&mut self, par: Option<ParPolicy>) -> KernelReport {
        let n = self.n;
        let wpr = self.hfield.words_per_row;
        // One O(n) pass turns the n² membership tests into a packed row
        // mask the word-walk can zero-skip (D_N is read-only for this
        // generation).
        swar::build_member_mask(&mut self.member_mask, &self.hfield.d[n * n..], n, wpr);
        let mask = &self.member_mask;
        let occ = &mut self.occ;
        let square = &mut self.hfield.d[..n * n];
        let run = |seg: &mut [Word], occ_seg: &mut [AdjWord], base_row: usize| {
            swar::filter_member_rows(seg, occ_seg, mask, base_row, n, wpr)
        };
        let (changed, workers) = match plan_rows(par, n * n, n, n) {
            None => (run(square, occ, 0), 1),
            Some(rows_per) => {
                let count = n.div_ceil(rows_per);
                let slots = chunk_slots(&mut self.chunks, count, None);
                square
                    .par_chunks_mut(rows_per * n)
                    .zip(occ.par_chunks_mut(rows_per * wpr))
                    .zip(slots.par_iter_mut())
                    .enumerate()
                    .for_each(|(ci, ((seg, occ_seg), acc))| {
                        acc.changed = run(seg, occ_seg, ci * rows_per);
                    });
                (slots.iter().map(|c| c.changed).sum(), count)
            }
        };
        KernelReport::uniform(n * n, changed, workers, ReadSet::dn_row(n, n))
    }

    /// Generation 9: spread `T(row)` (column 0) across each square row and
    /// save `T` into `D_N`. Column 0 itself is never written, so both fills
    /// read stable sources; the `D_N` save of row `k` reads only row `k`'s
    /// column 0, keeping the fused per-row form race-free under row
    /// partitioning.
    fn copy_and_save_t(&mut self, par: Option<ParPolicy>) -> KernelReport {
        let n = self.n;
        let (square, dn) = self.hfield.d.split_at_mut(n * n);
        let (changed, workers) = match plan_rows(par, n * n, n, n) {
            None => (swar::copy_save_rows(square, dn, n), 1),
            Some(rows_per) => {
                let count = n.div_ceil(rows_per);
                let slots = chunk_slots(&mut self.chunks, count, None);
                square
                    .par_chunks_mut(rows_per * n)
                    .zip(dn[..n].par_chunks_mut(rows_per))
                    .zip(slots.par_iter_mut())
                    .for_each(|((seg, dns), acc)| acc.changed = swar::copy_save_rows(seg, dns, n));
                (slots.iter().map(|c| c.changed).sum(), count)
            }
        };
        KernelReport::uniform(n * n, changed, workers, ReadSet::column0(n, n))
    }

    /// Copies column 0 of the square field into the ping label buffer —
    /// the entry point of a fused pointer-jump sequence.
    pub fn gather_labels(&mut self) {
        let n = self.n;
        let d = &self.hfield.d;
        self.labels.clear();
        self.labels.extend((0..n).map(|j| d[j * n]));
    }

    /// Writes the ping label buffer back into column 0 of the square field —
    /// the exit point of a fused pointer-jump sequence. Committed
    /// sub-generations stay visible even when a later one failed, matching
    /// the generic engine (a failed step leaves the previous generation in
    /// place).
    pub fn scatter_labels(&mut self) {
        let n = self.n;
        for (j, &v) in self.labels.iter().enumerate() {
            self.hfield.d[j * n] = v;
        }
    }

    /// One pointer-jump sub-generation over the gathered labels:
    /// `C(i) ← C(C(i))`, computed into the pong buffer and swapped on
    /// success. The field is only consulted for the `d = n` corner (the
    /// data-dependent pointer then lands on `D_N[0]`, which this generation
    /// never writes) and for bounds reporting.
    pub fn jump_once(
        &mut self,
        ctx: &StepCtx,
        counting: bool,
        par: Option<ParPolicy>,
    ) -> Result<KernelReport, GcaError> {
        self.bumps.clear();
        let n = self.n;
        let len = self.hfield.d.len();
        let dn0 = if len > n * n {
            self.hfield.d[n * n]
        } else {
            INFINITY
        };
        let plan = plan_rows(par, n, n, 1);
        let rows_per = plan.unwrap_or(n.max(1));
        let count = n.div_ceil(rows_per.max(1)).max(1);
        let hist_len = counting.then_some(n + 1);
        {
            let slots = chunk_slots(&mut self.chunks, count, hist_len);
            let labels = &self.labels;
            let out = &mut self.labels_next[..n];
            let run = |base: usize, seg: &mut [Word], acc: &mut ChunkReport| {
                let hist = if counting {
                    Some(acc.hist.as_mut_slice())
                } else {
                    None
                };
                match jump_rows(seg, base, labels, dn0, n, len, ctx.generation, hist) {
                    Ok(c) => acc.changed = c,
                    Err(e) => acc.error = Some(e),
                }
            };
            if plan.is_none() {
                run(0, out, &mut slots[0]);
            } else {
                out.par_chunks_mut(rows_per)
                    .zip(slots.par_iter_mut())
                    .enumerate()
                    .for_each(|(ci, (seg, acc))| run(ci * rows_per, seg, acc));
            }
        }
        // Chunks are ordered by row range, and each reports its first
        // error, so the first erroring chunk carries the globally smallest
        // erroring cell — the same error the sequential loop raises.
        for ci in 0..count {
            if let Some(e) = self.chunks[ci].error.take() {
                return Err(e);
            }
        }
        let changed: usize = self.chunks[..count].iter().map(|c| c.changed).sum();
        if counting {
            self.merge_hist(count);
        }
        std::mem::swap(&mut self.labels, &mut self.labels_next);
        let workers = if plan.is_some() { count } else { 1 };
        Ok(KernelReport::uniform(
            n,
            changed,
            workers,
            ReadSet::Chase { col: 0 },
        ))
    }

    /// Folds the first `count` chunks' label histograms into `hist` (the
    /// exact per-partition histograms add slot by slot). The first
    /// chunk's buffer is swapped in rather than copied, so both stay warm.
    fn merge_hist(&mut self, count: usize) {
        std::mem::swap(&mut self.hist, &mut self.chunks[0].hist);
        for c in &self.chunks[1..count] {
            for (h, &v) in self.hist.iter_mut().zip(&c.hist) {
                *h += v;
            }
        }
    }

    /// Generation 11: `C(i) ← min(C(i), T(C(i)))`, reading column 1 of row
    /// `C(i)` (which still holds the pre-jump `T`). Computed gather →
    /// per-row min into the pong buffer → scatter: the data-dependent
    /// target `d·n + 1` is never in column 0 (for `n = 1` it lands in
    /// `D_N`, also unwritten), so the whole data plane stays read-shared
    /// during the compute and the column-0 writes land only on success.
    fn final_min(
        &mut self,
        ctx: &StepCtx,
        counting: bool,
        par: Option<ParPolicy>,
    ) -> Result<KernelReport, GcaError> {
        let n = self.n;
        let len = self.hfield.d.len();
        self.gather_labels();
        let plan = plan_rows(par, n, n, 1);
        let rows_per = plan.unwrap_or(n.max(1));
        let count = n.div_ceil(rows_per.max(1)).max(1);
        let hist_len = counting.then_some(n + 1);
        {
            let slots = chunk_slots(&mut self.chunks, count, hist_len);
            let labels = &self.labels;
            let d = &self.hfield.d;
            let out = &mut self.labels_next[..n];
            let run = |base: usize, seg: &mut [Word], acc: &mut ChunkReport| {
                let hist = if counting {
                    Some(acc.hist.as_mut_slice())
                } else {
                    None
                };
                match final_min_rows(seg, base, labels, d, n, len, ctx.generation, hist) {
                    Ok(c) => acc.changed = c,
                    Err(e) => acc.error = Some(e),
                }
            };
            if plan.is_none() {
                run(0, out, &mut slots[0]);
            } else {
                out.par_chunks_mut(rows_per)
                    .zip(slots.par_iter_mut())
                    .enumerate()
                    .for_each(|(ci, (seg, acc))| run(ci * rows_per, seg, acc));
            }
        }
        // First error by chunk (row) order = globally smallest erroring
        // cell, like the sequential loop. On error nothing is scattered:
        // the field stays on its previous generation.
        for ci in 0..count {
            if let Some(e) = self.chunks[ci].error.take() {
                return Err(e);
            }
        }
        let changed: usize = self.chunks[..count].iter().map(|c| c.changed).sum();
        if counting {
            self.merge_hist(count);
        }
        for (j, &v) in self.labels_next[..n].iter().enumerate() {
            self.hfield.d[j * n] = v;
        }
        let workers = if plan.is_some() { count } else { 1 };
        Ok(KernelReport::uniform(
            n,
            changed,
            workers,
            ReadSet::Chase { col: 1 },
        ))
    }
}

// ---------------------------------------------------------------------------
// Scalar row-range bodies. Each operates on a contiguous slice of whole
// rows. Resolve, pointer jump and final-min have no SWAR twin: the
// executor runs them directly, over the full range or disjoint
// `par_chunks_mut` partitions. The others are not executed; they are
// public as verification surface — the scalar reference semantics
// `gca-analysis`'s lane verifier checks the SWAR bodies of `crate::swar`
// against, lane by lane (DESIGN.md §15).
// ---------------------------------------------------------------------------

/// `d ← base_row + local_row` over whole rows (generation 0).
pub fn init_rows(seg: &mut [Word], base_row: usize, n: usize) -> usize {
    let mut changed = 0;
    for (r, row) in seg.chunks_mut(n).enumerate() {
        let v = (base_row + r) as Word;
        for cell in row {
            changed += usize::from(*cell != v);
            *cell = v;
        }
    }
    changed
}

/// Fills whole rows with the gathered column-0 vector (generations 1, 5).
pub fn broadcast_rows(seg: &mut [Word], labels: &[Word]) -> usize {
    let mut changed = 0;
    for row in seg.chunks_mut(labels.len().max(1)) {
        for (cell, &v) in row.iter_mut().zip(labels) {
            changed += usize::from(*cell != v);
            *cell = v;
        }
    }
    changed
}

/// Generation 2 over whole rows: reads are the row's `D_N` entry and the
/// immutable adjacency plane — both disjoint from the square writes.
pub fn filter_neighbor_rows(
    seg: &mut [Word],
    a: &[AdjWord],
    dn: &[Word],
    base_row: usize,
    n: usize,
    wpr: usize,
) -> usize {
    let mut changed = 0;
    for (r, row) in seg.chunks_mut(n).enumerate() {
        let row_idx = base_row + r;
        let c_row = dn[row_idx];
        for (col, cell) in row.iter_mut().enumerate() {
            if !(a_bit(a, wpr, row_idx, col) && *cell != c_row) {
                changed += usize::from(*cell != INFINITY);
                *cell = INFINITY;
            }
        }
    }
    changed
}

/// Generations 3 and 7 over whole rows: strictly row-local reads/writes.
pub fn min_reduce_rows(seg: &mut [Word], stride: usize, n: usize) -> usize {
    let mut changed = 0;
    for row in seg.chunks_mut(n) {
        let mut col = 0;
        while col + stride < n {
            let neigh = row[col + stride];
            if neigh < row[col] {
                row[col] = neigh;
                changed += 1;
            }
            col += stride << 1;
        }
    }
    changed
}

/// Generations 4 and 8 over whole rows: each row writes only its own
/// column-0 cell and reads only its own `D_N` entry.
pub fn resolve_rows(seg: &mut [Word], dn: &[Word], n: usize) -> usize {
    let mut changed = 0;
    for (r, &saved) in dn.iter().enumerate() {
        let cell = &mut seg[r * n];
        if *cell == INFINITY {
            changed += usize::from(saved != INFINITY);
            *cell = saved;
        }
    }
    changed
}

/// Generation 6 over whole rows: reads only the (unwritten) `D_N` plane.
pub fn filter_member_rows(seg: &mut [Word], dn: &[Word], base_row: usize, n: usize) -> usize {
    let mut changed = 0;
    for (r, row) in seg.chunks_mut(n).enumerate() {
        let j = (base_row + r) as Word;
        for (col, cell) in row.iter_mut().enumerate() {
            if !(dn[col] == j && *cell != j) {
                changed += usize::from(*cell != INFINITY);
                *cell = INFINITY;
            }
        }
    }
    changed
}

/// Generation 9, fused per row: save `T(row)` (the row's column 0, never
/// written) into the row's `D_N` slot, then fill columns `1..` with it.
pub fn copy_save_rows(seg: &mut [Word], dn: &mut [Word], n: usize) -> usize {
    let mut changed = 0;
    for (r, row) in seg.chunks_mut(n).enumerate() {
        let t = row[0];
        changed += usize::from(dn[r] != t);
        dn[r] = t;
        for cell in &mut row[1..] {
            changed += usize::from(*cell != t);
            *cell = t;
        }
    }
    changed
}

/// One pointer-jump sub-generation over a segment of the pong buffer.
/// `hist` (when counting) is the compact per-label histogram: slot `d`
/// accumulates the reads the sequential path books at field index `d·n`.
#[allow(clippy::too_many_arguments)]
pub fn jump_rows(
    seg: &mut [Word],
    base: usize,
    labels: &[Word],
    dn0: Word,
    n: usize,
    len: usize,
    generation: u64,
    mut hist: Option<&mut [u32]>,
) -> Result<usize, GcaError> {
    let mut changed = 0;
    for (k, slot) in seg.iter_mut().enumerate() {
        let i = base + k;
        let d = labels[i] as usize;
        if d.checked_mul(n).filter(|&t| t < len).is_none() {
            return Err(GcaError::PointerOutOfRange {
                cell: i * n,
                target: d.saturating_mul(n),
                len,
                generation,
            });
        }
        // target = d·n is column 0 of row d when d < n; the only other
        // in-range multiple of n is n² = D_N[0].
        let v = if d < n { labels[d] } else { dn0 };
        if let Some(h) = hist.as_deref_mut() {
            h[d] += 1;
        }
        changed += usize::from(v != labels[i]);
        *slot = v;
    }
    Ok(changed)
}

/// Generation 11 over a segment of the pong buffer: `min(C(i), T(C(i)))`
/// with `T` read from the shared data plane (column 1, never written).
/// `hist` slot `d` accumulates the reads the sequential path books at
/// field index `d·n + 1`.
#[allow(clippy::too_many_arguments)]
pub fn final_min_rows(
    seg: &mut [Word],
    base: usize,
    labels: &[Word],
    d_plane: &[Word],
    n: usize,
    len: usize,
    generation: u64,
    mut hist: Option<&mut [u32]>,
) -> Result<usize, GcaError> {
    let mut changed = 0;
    for (k, slot) in seg.iter_mut().enumerate() {
        let row = base + k;
        let cur = labels[row];
        let d = cur as usize;
        let target = d
            .checked_mul(n)
            .and_then(|t| t.checked_add(1))
            .filter(|&t| t < len)
            .ok_or_else(|| GcaError::PointerOutOfRange {
                cell: row * n,
                target: d.saturating_mul(n).saturating_add(1),
                len,
                generation,
            })?;
        let t = d_plane[target];
        if let Some(h) = hist.as_deref_mut() {
            h[d] += 1;
        }
        if t < cur {
            *slot = t;
            changed += 1;
        } else {
            *slot = cur;
        }
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_honors_threshold_and_explicit_workers() {
        let explicit = ParPolicy {
            workers: 3,
            threshold: 0,
            explicit: true,
        };
        // Explicit workers split even tiny fields (8 rows / 3 → 3 per chunk).
        assert_eq!(plan_rows(Some(explicit), 64, 8, 8), Some(3));
        // Below the threshold: sequential.
        let gated = ParPolicy {
            threshold: 1 << 20,
            ..explicit
        };
        assert_eq!(plan_rows(Some(gated), 64, 8, 8), None);
        // No policy at all: sequential.
        assert_eq!(plan_rows(None, 1 << 30, 1 << 10, 1 << 10), None);
        // One row can never split.
        assert_eq!(plan_rows(Some(explicit), 64, 1, 64), None);
    }

    #[test]
    fn retired_fused_name_is_sequential_fused_swar() {
        assert_eq!(ExecPath::Fused, ExecPath::fused_swar());
        assert_eq!(ExecPath::Fused, ExecPath::FusedSwar(FusedSwar::default()));
    }

    #[test]
    fn plan_clamps_auto_chunks_to_amortized_size() {
        let auto = ParPolicy {
            workers: 8,
            threshold: 0,
            explicit: false,
        };
        // 64 rows of width 64 = 4096 cells: one 8 KiB chunk minimum means
        // no split is worth it.
        assert_eq!(plan_rows(Some(auto), 4096, 64, 64), None);
        // 1024 rows of width 1024: 8 chunks of 128 rows each.
        assert_eq!(plan_rows(Some(auto), 1 << 20, 1024, 1024), Some(128));
    }

    #[test]
    fn swar_kernels_match_reference_rule_on_multiword_rows() {
        // n = 70 exercises wpr = 2 adjacency words per row plus a zero
        // tail — geometry the n ≤ 64 property corpus cannot reach. The
        // reference is the generic engine stepping `HirschbergRule`.
        let n = 70usize;
        let g = gca_graphs::generators::gnp(n, 0.13, 99);
        let layout = crate::Layout::new(n).unwrap();
        let mut field = layout.build_field(&g).unwrap();
        let rule = crate::HirschbergRule::new(n);
        let mut engine = gca_engine::Engine::sequential()
            .with_instrumentation(gca_engine::Instrumentation::Counts);

        let mut exec = FusedExecutor::new(n);
        exec.load(&field);

        for &(phase, sub) in &[
            (Gen::Init, 0u32),
            (Gen::BroadcastC, 0),
            (Gen::FilterNeighbors, 0),
            (Gen::MinReduce, 0),
            (Gen::MinReduce, 1),
            (Gen::MinReduce, 3),
            (Gen::MinReduce, 6),
            (Gen::ResolveIsolated, 0),
            (Gen::BroadcastT, 0),
            (Gen::FilterMembers, 0),
            (Gen::MinReduceMembers, 0),
            (Gen::ResolveMembers, 0),
            (Gen::CopyAndSaveT, 0),
            (Gen::PointerJump, 0),
            (Gen::FinalMin, 0),
        ] {
            let want = engine.step(&mut field, &rule, phase.number(), sub).unwrap();
            let got = exec.step(&want.ctx, true, None).unwrap();
            let plane: Vec<Word> = field.states().iter().map(|c| c.d).collect();
            assert_eq!(exec.hfield.d, plane, "{phase:?}/{sub} plane");
            assert_eq!(got.active, want.active_cells, "{phase:?}/{sub} active");
            assert_eq!(got.reads, want.total_reads, "{phase:?}/{sub} reads");
            assert_eq!(got.changed, want.changed_cells, "{phase:?}/{sub} changed");
            let mut reads = Vec::new();
            exec.write_reads(got.footprint, &mut reads);
            assert_eq!(
                reads,
                want.congestion.unwrap().into_reads(),
                "{phase:?}/{sub} hist"
            );
        }
    }

    /// The dense reads plane the reference rule issues from the
    /// executor's current state (the generic engine's histogram).
    fn reference_reads(exec: &FusedExecutor, ctx: &StepCtx) -> Vec<u32> {
        use gca_engine::GcaRule;
        let n = exec.n;
        let layout = crate::Layout::new(n).unwrap();
        let shape = *layout.shape();
        let rule = crate::HirschbergRule::new(n);
        let accesses: Vec<_> = (0..shape.len())
            .map(|i| rule.access(ctx, &shape, i, &HCell::new(exec.hfield.d[i])))
            .collect();
        gca_engine::metrics::CongestionHistogram::from_accesses(shape.len(), accesses.iter()).into_reads()
    }

    #[test]
    fn closed_form_footprints_equal_dense_accounting() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for n in [1usize, 2, 3, 5, 63, 64, 65, 100, 128] {
            let mut exec = FusedExecutor::new(n);
            for (generation, (gen, sub)) in crate::iteration_schedule(n).into_iter().enumerate() {
                if matches!(gen, Gen::PointerJump | Gen::FinalMin) {
                    // Chases read through arbitrary column-0 labels.
                    for j in 0..n {
                        exec.set_word(j * n, rng.gen_range(0..n) as Word);
                    }
                }
                let ctx = StepCtx {
                    generation: generation as u64,
                    phase: gen.number(),
                    subgeneration: sub,
                };
                let reference = reference_reads(&exec, &ctx);
                let rep = exec.step(&ctx, true, None).unwrap();
                let what = format!("n={n} {gen:?}/{sub}");
                let mut plane = Vec::new();
                exec.write_reads(rep.footprint, &mut plane);
                assert_eq!(plane, reference, "{what}: plane vs reference rule");
                let unread = plane.iter().position(|&r| r == 0);
                let bump_sets = [vec![], vec![0], vec![0, 0]].into_iter().chain(
                    unread
                        .into_iter()
                        .flat_map(|u| [vec![u], vec![u, u], vec![0, u]]),
                );
                for bumps in bump_sets {
                    exec.bumps.clear();
                    for &i in &bumps {
                        exec.bump_read(i);
                    }
                    exec.write_reads(rep.footprint, &mut plane);
                    let mut want = reference.clone();
                    for &i in &bumps {
                        want[i] += 1;
                    }
                    assert_eq!(plane, want, "{what} bumps {bumps:?}: plane");
                    assert_eq!(
                        exec.generation_metrics(ctx, rep.active, rep.footprint),
                        GenerationMetrics::from_read_counts(ctx, rep.active, &plane),
                        "{what} bumps {bumps:?}: metrics"
                    );
                }
            }
        }
    }

    #[test]
    fn remainder_partitions_cover_every_row() {
        // workers = 3 over 8 rows → chunks of 3, 3, 2 rows.
        let n = 8;
        let mut exec = FusedExecutor::new(n);
        for (i, v) in exec.hfield.d.iter_mut().enumerate() {
            *v = i as Word;
        }
        let before = exec.hfield.d.clone();
        let par = Some(ParPolicy {
            workers: 3,
            threshold: 0,
            explicit: true,
        });
        let rep = exec.init(par);
        assert_eq!(rep.workers, 3);
        for (i, &v) in exec.hfield.d.iter().enumerate() {
            assert_eq!(v as usize, i / n, "row value at {i}");
        }
        assert_eq!(
            rep.changed,
            before
                .iter()
                .enumerate()
                .filter(|&(i, &v)| v as usize != i / n)
                .count()
        );
    }
}
