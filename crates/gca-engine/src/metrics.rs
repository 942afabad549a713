//! Activity and congestion accounting (the quantities of Table 1).
//!
//! The duration of a GCA generation in hardware is bounded from below by the
//! **congestion** δ of the most-read cell: if δ cells read the same target,
//! a physical interconnect needs (absent replication or tree distribution)
//! δ sequential transfers, or a tree of depth `log δ`. The paper tabulates,
//! per generation, how many cells are *active* (perform a calculation), how
//! many cells are *read*, and with which δ. This module computes those
//! numbers from the access patterns the engine observes.

use crate::{Access, StepCtx};
use std::collections::BTreeMap;

/// Per-target concurrent-read counts for one generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CongestionHistogram {
    reads: Vec<u32>,
}

impl CongestionHistogram {
    /// Builds the histogram from every cell's access in one generation.
    pub fn from_accesses<'a>(len: usize, accesses: impl IntoIterator<Item = &'a Access>) -> Self {
        let mut reads = vec![0u32; len];
        for a in accesses {
            for t in a.targets() {
                reads[t] += 1;
            }
        }
        CongestionHistogram { reads }
    }

    /// Wraps a prebuilt per-target read-count vector (index = cell, value =
    /// concurrent readers). This is how the engine hands out its reusable
    /// accumulation scratch without re-walking the access list.
    pub fn from_reads(reads: Vec<u32>) -> Self {
        CongestionHistogram { reads }
    }

    /// Consumes the histogram, returning the underlying per-target read
    /// counts — the inverse of [`CongestionHistogram::from_reads`], used to
    /// recycle report buffers back into engine scratch.
    pub fn into_reads(self) -> Vec<u32> {
        self.reads
    }

    /// Number of cells in the field.
    #[inline]
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// `true` iff the field had no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// Concurrent reads that targeted cell `index`.
    #[inline]
    pub fn reads_of(&self, index: usize) -> u32 {
        self.reads[index]
    }

    /// The maximum congestion δ over all cells — the quantity that bounds
    /// the generation's duration from below.
    pub fn max_congestion(&self) -> u32 {
        self.reads.iter().copied().max().unwrap_or(0)
    }

    /// Total number of global reads performed.
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().map(|&r| u64::from(r)).sum()
    }

    /// Number of cells read at least once.
    pub fn cells_read(&self) -> usize {
        self.reads.iter().filter(|&&r| r > 0).count()
    }

    /// Groups cells by their δ: returns `δ → number of cells with exactly
    /// that many concurrent readers`, **including** the δ = 0 group. This is
    /// the exact shape of Table 1's `# cells / δ` column pairs.
    pub fn groups(&self) -> BTreeMap<u32, usize> {
        let mut m = BTreeMap::new();
        for &r in &self.reads {
            *m.entry(r).or_insert(0usize) += 1;
        }
        m
    }

    /// The cells with the maximal δ (useful in diagnostics: *which* cell is
    /// the hot spot).
    pub fn hottest_cells(&self) -> Vec<usize> {
        let max = self.max_congestion();
        if max == 0 {
            return Vec::new();
        }
        self.reads
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == max)
            .map(|(i, _)| i)
            .collect()
    }
}

/// One generation's worth of Table-1 accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerationMetrics {
    /// The control context the generation executed under.
    pub ctx: StepCtx,
    /// Cells that performed a calculation ([`crate::GcaRule::is_active`]).
    pub active_cells: usize,
    /// Total global reads issued.
    pub total_reads: u64,
    /// Distinct cells read at least once.
    pub cells_read: usize,
    /// Maximum concurrent reads on a single cell.
    pub max_congestion: u32,
    /// Full δ grouping (δ → cell count), including δ = 0.
    pub congestion_groups: BTreeMap<u32, usize>,
}

impl GenerationMetrics {
    /// Assembles the metrics from a histogram and an active-cell count.
    pub fn new(ctx: StepCtx, active_cells: usize, hist: &CongestionHistogram) -> Self {
        GenerationMetrics {
            ctx,
            active_cells,
            total_reads: hist.total_reads(),
            cells_read: hist.cells_read(),
            max_congestion: hist.max_congestion(),
            congestion_groups: hist.groups(),
        }
    }

    /// Assembles the metrics from a borrowed per-target read-count slice
    /// without building a [`CongestionHistogram`], in a single pass.
    ///
    /// Equal to [`GenerationMetrics::new`] over
    /// [`CongestionHistogram::from_reads`] of the same counts. The δ
    /// grouping accumulates into a small linear-probed vector rather than a
    /// per-cell map insertion: one generation exhibits only a handful of
    /// distinct δ values (Table 1 shows at most three per row).
    pub fn from_read_counts(ctx: StepCtx, active_cells: usize, reads: &[u32]) -> Self {
        let mut total_reads = 0u64;
        let mut cells_read = 0usize;
        let mut max_congestion = 0u32;
        let mut distinct: Vec<(u32, usize)> = Vec::new();
        for &r in reads {
            total_reads += u64::from(r);
            cells_read += usize::from(r > 0);
            max_congestion = max_congestion.max(r);
            match distinct.iter_mut().find(|(v, _)| *v == r) {
                Some((_, count)) => *count += 1,
                None => distinct.push((r, 1)),
            }
        }
        GenerationMetrics {
            ctx,
            active_cells,
            total_reads,
            cells_read,
            max_congestion,
            congestion_groups: distinct.into_iter().collect(),
        }
    }

    /// Assembles the metrics of a field of `len` cells from its δ groups
    /// alone: each `(δ, cells)` pair books `cells` further distinct cells
    /// read exactly δ times (a δ may repeat across pairs; δ = 0 pairs
    /// are ignored), and every cell no pair books forms the δ = 0 group.
    ///
    /// Equal to [`GenerationMetrics::from_read_counts`] over any
    /// per-target count slice of length `len` with those groups, at
    /// O(pairs) cost instead of O(len): a kernel that knows its read
    /// footprint in closed form never materializes the dense plane.
    pub fn from_read_groups(
        ctx: StepCtx,
        active_cells: usize,
        len: usize,
        groups: impl IntoIterator<Item = (u32, usize)>,
    ) -> Self {
        let mut congestion_groups = BTreeMap::new();
        for (r, cells) in groups {
            if r > 0 && cells > 0 {
                *congestion_groups.entry(r).or_insert(0) += cells;
            }
        }
        let cells_read: usize = congestion_groups.values().sum();
        let total_reads = congestion_groups
            .iter()
            .map(|(&r, &cells)| u64::from(r) * cells as u64)
            .sum();
        let max_congestion = congestion_groups.keys().next_back().copied().unwrap_or(0);
        debug_assert!(
            cells_read <= len,
            "groups book more cells than the field has"
        );
        if len > cells_read {
            congestion_groups.insert(0, len - cells_read);
        }
        GenerationMetrics {
            ctx,
            active_cells,
            total_reads,
            cells_read,
            max_congestion,
            congestion_groups,
        }
    }
}

/// An append-only log of [`GenerationMetrics`] across a run, with the
/// aggregations the experiment tables need.
#[derive(Clone, Debug, Default)]
pub struct MetricsLog {
    entries: Vec<GenerationMetrics>,
}

impl MetricsLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one generation's metrics.
    pub fn push(&mut self, m: GenerationMetrics) {
        self.entries.push(m);
    }

    /// Discards all entries, keeping the log's capacity — for reusing a
    /// machine across runs without reallocating its metrics storage.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// All recorded generations in execution order.
    pub fn entries(&self) -> &[GenerationMetrics] {
        &self.entries
    }

    /// Discards every entry past the first `generations` — the metrics
    /// half of restoring a checkpoint: under counting instrumentation the
    /// log holds exactly one entry per committed generation, so
    /// truncating to the checkpoint's generation counter makes the
    /// re-executed generations append over a clean suffix and the final
    /// log bit-identical to an undisturbed run. No-op when the log is
    /// already at or below that length.
    pub fn truncate(&mut self, generations: usize) {
        self.entries.truncate(generations);
    }

    /// Number of generations recorded.
    pub fn generations(&self) -> usize {
        self.entries.len()
    }

    /// The worst congestion over the whole run.
    pub fn max_congestion(&self) -> u32 {
        self.entries.iter().map(|e| e.max_congestion).max().unwrap_or(0)
    }

    /// Sum of global reads over the whole run.
    pub fn total_reads(&self) -> u64 {
        self.entries.iter().map(|e| e.total_reads).sum()
    }

    /// Sum of active cells over the whole run (a work measure).
    pub fn total_active(&self) -> u64 {
        self.entries.iter().map(|e| e.active_cells as u64).sum()
    }

    /// Entries belonging to a particular algorithm phase.
    pub fn phase_entries(&self, phase: u32) -> impl Iterator<Item = &GenerationMetrics> {
        self.entries.iter().filter(move |e| e.ctx.phase == phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> StepCtx {
        StepCtx::at_phase(0)
    }

    #[test]
    fn histogram_from_accesses() {
        let accesses = [
            Access::One(0),
            Access::One(0),
            Access::Two(0, 2),
            Access::None,
        ];
        let h = CongestionHistogram::from_accesses(4, accesses.iter());
        assert_eq!(h.reads_of(0), 3);
        assert_eq!(h.reads_of(1), 0);
        assert_eq!(h.reads_of(2), 1);
        assert_eq!(h.max_congestion(), 3);
        assert_eq!(h.total_reads(), 4);
        assert_eq!(h.cells_read(), 2);
        assert_eq!(h.hottest_cells(), vec![0]);
    }

    #[test]
    fn from_reads_equals_from_accesses() {
        let accesses = [Access::One(0), Access::Two(0, 2), Access::None];
        let via_accesses = CongestionHistogram::from_accesses(3, accesses.iter());
        let via_reads = CongestionHistogram::from_reads(vec![2, 0, 1]);
        assert_eq!(via_accesses, via_reads);
    }

    #[test]
    fn histogram_groups_include_zero() {
        let accesses = [Access::One(1), Access::One(1)];
        let h = CongestionHistogram::from_accesses(3, accesses.iter());
        let g = h.groups();
        assert_eq!(g.get(&0), Some(&2)); // cells 0 and 2
        assert_eq!(g.get(&2), Some(&1)); // cell 1
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn empty_histogram() {
        let h = CongestionHistogram::from_accesses(0, [].iter());
        assert!(h.is_empty());
        assert_eq!(h.max_congestion(), 0);
        assert_eq!(h.hottest_cells(), Vec::<usize>::new());
    }

    #[test]
    fn generation_metrics_assembly() {
        let accesses = [Access::One(0), Access::One(0)];
        let h = CongestionHistogram::from_accesses(2, accesses.iter());
        let m = GenerationMetrics::new(ctx(), 2, &h);
        assert_eq!(m.active_cells, 2);
        assert_eq!(m.total_reads, 2);
        assert_eq!(m.cells_read, 1);
        assert_eq!(m.max_congestion, 2);
    }

    #[test]
    fn from_read_counts_equals_histogram_assembly() {
        for reads in [
            vec![],
            vec![0u32, 0, 0],
            vec![3, 0, 1, 1, 7, 3, 0],
            vec![5; 64],
        ] {
            let hist = CongestionHistogram::from_reads(reads.clone());
            let via_hist = GenerationMetrics::new(ctx(), 9, &hist);
            let via_counts = GenerationMetrics::from_read_counts(ctx(), 9, &reads);
            assert_eq!(via_hist, via_counts, "reads = {reads:?}");
        }
    }

    #[test]
    fn from_read_groups_equals_from_read_counts() {
        for reads in [
            vec![],
            vec![0u32, 0, 0],
            vec![3, 0, 1, 1, 7, 3, 0],
            vec![5; 64],
        ] {
            // One pair per cell, in cell order: the least compressed input.
            let per_cell = reads.iter().map(|&r| (r, 1));
            let via_groups = GenerationMetrics::from_read_groups(ctx(), 9, reads.len(), per_cell);
            let via_counts = GenerationMetrics::from_read_counts(ctx(), 9, &reads);
            assert_eq!(via_groups, via_counts, "reads = {reads:?}");
        }
        // Repeated δ and empty pairs fold into one group each.
        let groups = [(3, 1), (0, 4), (3, 1), (1, 2), (7, 0), (7, 1)];
        let via_groups = GenerationMetrics::from_read_groups(ctx(), 9, 7, groups);
        let via_counts = GenerationMetrics::from_read_counts(ctx(), 9, &[3, 0, 1, 1, 7, 3, 0]);
        assert_eq!(via_groups, via_counts);
    }

    #[test]
    fn into_reads_round_trips() {
        let reads = vec![2u32, 0, 1];
        let h = CongestionHistogram::from_reads(reads.clone());
        assert_eq!(h.into_reads(), reads);
    }

    #[test]
    fn metrics_log_clear_empties() {
        let h = CongestionHistogram::from_reads(vec![1]);
        let mut log = MetricsLog::new();
        log.push(GenerationMetrics::new(ctx(), 1, &h));
        assert_eq!(log.generations(), 1);
        log.clear();
        assert_eq!(log.generations(), 0);
        assert_eq!(log.total_reads(), 0);
    }

    #[test]
    fn metrics_log_aggregation() {
        let h1 = CongestionHistogram::from_accesses(2, [Access::One(0)].iter());
        let h2 = CongestionHistogram::from_accesses(2, [Access::Two(0, 1), Access::One(0)].iter());
        let mut log = MetricsLog::new();
        log.push(GenerationMetrics::new(StepCtx::at_phase(1), 1, &h1));
        log.push(GenerationMetrics::new(StepCtx::at_phase(2), 2, &h2));
        assert_eq!(log.generations(), 2);
        assert_eq!(log.max_congestion(), 2);
        assert_eq!(log.total_reads(), 4);
        assert_eq!(log.total_active(), 3);
        assert_eq!(log.phase_entries(2).count(), 1);
        assert_eq!(log.phase_entries(9).count(), 0);
    }
}
