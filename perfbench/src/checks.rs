//! Output checks. Each failed check is one failed item; nothing aborts.

use crate::workload::{Solved, Workload};
use gca_analysis::SymbolicModel;
use gca_engine::metrics::GenerationMetrics;
use gca_engine::Word;
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::{AdjacencyMatrix, Labeling};
use gca_hirschberg::complexity::exact_log2;
use gca_hirschberg::{GcaRun, Gen, Machine};

/// Reference answers, computed outside every timed region.
pub struct Oracle {
    /// The workload the answers are for.
    workload: Workload,
    /// Closed-form activity polynomials, derived once when the workload
    /// counts reads.
    symbolic: Option<SymbolicModel>,
}

impl Oracle {
    /// Prepares the reference answers for `workload`.
    pub fn new(workload: Workload) -> Result<Oracle, String> {
        let symbolic = if workload.counting() {
            Some(gca_analysis::derive_symbolic().map_err(|e| format!("symbolic derivation: {e}"))?)
        } else {
            None
        };
        Ok(Oracle { workload, symbolic })
    }

    /// Union-find labels of `graph`: the expected output.
    pub fn expected(graph: &AdjacencyMatrix) -> Labeling {
        union_find_components_dense(graph)
    }

    /// Checks one solved single graph: labels, generation count and, under
    /// counting, the metrics log.
    pub fn check(
        &self,
        expected: &Labeling,
        machine: &Machine,
        solved: &Solved,
    ) -> Result<(), String> {
        if &solved.labels != expected {
            return Err("labels differ from union-find".to_string());
        }
        let want = self.workload.expected_generations();
        if solved.generations != want {
            return Err(format!(
                "{} generations, expected {want}",
                solved.generations
            ));
        }
        if self.workload.counting() {
            self.check_metrics(machine.metrics().entries(), solved.generations)?;
        }
        Ok(())
    }

    /// Under counting: one metrics entry per executed generation, and the
    /// activity of every generation equal to its closed form.
    fn check_metrics(&self, entries: &[GenerationMetrics], generations: u64) -> Result<(), String> {
        if entries.len() as u64 != generations {
            return Err(format!(
                "metrics log has {} entries for {generations} generations",
                entries.len()
            ));
        }
        let n = self.workload.n;
        let log = exact_log2(n).ok();
        for e in entries {
            let gen = Gen::from_number(e.ctx.phase)
                .ok_or_else(|| format!("unknown phase {} in metrics log", e.ctx.phase))?;
            let closed = gca_analysis::activity(n, gen, e.ctx.subgeneration);
            if e.active_cells as u64 != closed {
                return Err(format!(
                    "{gen:?}/{}: {} active cells, closed form {closed}",
                    e.ctx.subgeneration, e.active_cells
                ));
            }
            // Table 1's polynomials describe sub-generation 0 at n = 2^k.
            if let (Some(model), Some(log), 0) = (&self.symbolic, log, e.ctx.subgeneration) {
                let form = model.phases.iter().find(|p| p.gen == gen);
                let symbolic = form.and_then(|p| p.activity.eval_u64(n as u64, log));
                if symbolic != Some(e.active_cells as u64) {
                    return Err(format!(
                        "{gen:?}: symbolic activity form disagrees at n={n}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The first graph of a single-graph workload must come out of the
    /// one-call API identically: labels, generations and metrics log.
    pub fn check_one_call(
        &self,
        reference: &GcaRun,
        machine: &Machine,
        solved: &Solved,
    ) -> Result<(), String> {
        if reference.labels != solved.labels {
            return Err("labels differ from HirschbergGca::run".to_string());
        }
        if reference.generations != solved.generations {
            return Err(format!(
                "{} generations, HirschbergGca::run executed {}",
                solved.generations, reference.generations
            ));
        }
        if reference.metrics.entries() != machine.metrics().entries() {
            return Err("metrics log differs from HirschbergGca::run".to_string());
        }
        Ok(())
    }
}

/// Checks raw batch labels against union-find.
pub fn check_raw(expected: &Labeling, raw: &[Word]) -> Result<(), String> {
    let same = expected.as_slice().len() == raw.len()
        && expected
            .as_slice()
            .iter()
            .zip(raw)
            .all(|(&e, &r)| e as u64 == u64::from(r));
    if same {
        Ok(())
    } else {
        Err("batch labels differ from union-find".to_string())
    }
}
