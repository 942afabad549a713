use crate::complexity::{ceil_log2, total_generations};
use crate::invariants::{InvariantChecker, InvariantClass};
use crate::kernels::{plan_rows, FusedExecutor, KernelReport, ParPolicy};
use crate::{iteration_schedule, ExecPath, Gen, HCell, HirschbergRule, Layout, SwarSchedule};
use gca_engine::faults::{FaultKind, FaultPlan};
use gca_engine::metrics::{CongestionHistogram, GenerationMetrics, MetricsLog};
use gca_engine::{
    CellField, Engine, GcaError, Instrumentation, InvariantCheck, StepCtx, StepReport, Word,
};
use gca_graphs::{AdjacencyMatrix, Labeling};

/// Mask of the low half of a data word — the half a torn write leaves on
/// its pre-generation value (see [`FaultKind::TornWrite`]).
const TORN_LO_MASK: Word = (1 << (Word::BITS / 2)) - 1;

/// When to stop the iterated pointer-jumping sub-generations.
///
/// The paper's central state machine always runs `⌈log₂ n⌉` sub-generations
/// of generation 10 (pointer jumping) — the worst case for a path-shaped
/// pointer chain. Most graphs converge earlier, and the engine counts
/// changed cells for free during write-back
/// ([`gca_engine::StepReport::changed_cells`]), so the stepper can detect
/// the fixed point and skip the remaining sub-generations.
///
/// Detection is applied **only** to pointer jumping, where it is sound:
/// `C ← C(C)` at a fixed point (`C(i) = C(C(i))` for all `i`) stays fixed
/// under further applications. The min tree reductions (generations 3 and 7)
/// must always run their full `⌈log₂ n⌉` schedule: a zero-change
/// sub-generation there does *not* imply completion — for the row
/// `[2, 9, 1, 7]`, stride-1 reduction changes nothing at cell 0
/// (`min(2, 9) = 2`) yet the stride-2 sub-generation still must fold in the
/// `1` (`min(2, 1) = 1`). See DESIGN.md.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Convergence {
    /// Always run the full fixed schedule — the paper's hardware behavior
    /// and the default. Total generations match `1 + log n · (3 log n + 8)`.
    #[default]
    Fixed,
    /// Skip the remaining pointer-jump sub-generations of an iteration once
    /// one of them reports zero changed cells. Labelings are identical to
    /// [`Convergence::Fixed`]; only the generation count (and the metrics
    /// log) shrinks.
    Detect,
}

/// The generation-level stepper for the Hirschberg GCA.
///
/// [`Machine`] owns the field, the rule and an [`Engine`], and exposes the
/// state machine one generation at a time — the figure/table binaries drive
/// it manually to capture access patterns, while [`HirschbergGca::run`]
/// drives it to completion.
pub struct Machine {
    layout: Layout,
    rule: HirschbergRule,
    engine: Engine,
    field: CellField<HCell>,
    metrics: MetricsLog,
    convergence: Convergence,
    exec: ExecPath,
    fused: FusedExecutor,
    /// Whether the fused executor's SoA mirror currently reflects `field`.
    /// Anything that mutates the field behind the kernels' back (generic
    /// steps, snapshot restore, graph reset) clears it; the
    /// next fused step reloads the mirror.
    soa_valid: bool,
    initialized: bool,
    /// The symbolic-activity schedule the [`ExecPath::FusedSwar`] driver
    /// consults (`None` → the structural schedule, which never skips).
    swar_schedule: Option<SwarSchedule>,
    /// The differential harness armed by [`Instrumentation::Validate`] on
    /// the fused path: a shadow field replayed through the reference engine
    /// (itself running the CROW sanitizer) after every fused generation.
    validator: Option<FusedValidator>,
    /// The algorithm-level invariant checker, also armed by
    /// [`Instrumentation::Validate`] — on *every* execution path. Replays
    /// the schedule's Hoare-contract transfers (see
    /// [`crate::invariants`]) against each committed generation and
    /// asserts the iteration-boundary invariants of the induction
    /// argument. Rebuilt lazily from the field after a reset or restore.
    inv: Option<InvariantChecker>,
    /// Test-only pending invariant fault, installed into the checker once
    /// it exists (see [`Machine::seed_invariant_fault`]).
    inv_fault: Option<InvariantClass>,
    /// The armed fault plan (see [`gca_engine::faults`]). `None` on clean
    /// runs — every hook starts with this check, keeping injection
    /// zero-cost when off.
    inject: Option<FaultPlan>,
    /// Pre-generation capture scratch for dropped-generation faults on
    /// the fused paths (the SoA data plane).
    drop_words: Vec<Word>,
    /// Pre-generation capture scratch for dropped-generation faults on
    /// the generic path (the full cell states).
    drop_states: Vec<HCell>,
    /// Pre-generation value of a torn-write target word.
    torn_pre: Option<Word>,
}

/// Shadow state of the fused-kernel differential harness.
///
/// Before each fused generation the current field is copied into `shadow`;
/// after the kernel ran, `engine` (a sequential
/// [`Instrumentation::Validate`] engine — the same CROW/domain checker the
/// generic path uses) replays the generation on the shadow, and the two
/// next-states plus read histograms must agree cell for cell.
struct FusedValidator {
    engine: Engine,
    shadow: CellField<HCell>,
}

impl Machine {
    /// Builds a machine for `graph` with a default (sequential, counting)
    /// engine.
    pub fn new(graph: &AdjacencyMatrix) -> Result<Self, GcaError> {
        Machine::with_engine(graph, Engine::sequential())
    }

    /// Builds a machine with an explicit engine configuration.
    pub fn with_engine(graph: &AdjacencyMatrix, engine: Engine) -> Result<Self, GcaError> {
        let layout = Layout::new(graph.n())?;
        let field = layout.build_field(graph)?;
        Ok(Machine {
            layout,
            rule: HirschbergRule::new(graph.n()),
            engine,
            field,
            metrics: MetricsLog::new(),
            convergence: Convergence::Fixed,
            exec: ExecPath::Generic,
            fused: FusedExecutor::new(graph.n()),
            soa_valid: false,
            initialized: false,
            swar_schedule: None,
            validator: None,
            inv: None,
            inv_fault: None,
            inject: None,
            drop_words: Vec::new(),
            drop_states: Vec::new(),
            torn_pre: None,
        })
    }

    /// Sets the sub-generation convergence policy (see [`Convergence`]).
    #[must_use]
    pub fn with_convergence(mut self, convergence: Convergence) -> Self {
        self.convergence = convergence;
        self
    }

    /// Sets the execution path (see [`ExecPath`]).
    #[must_use]
    pub fn with_exec(mut self, exec: ExecPath) -> Self {
        self.exec = exec;
        self.fused.set_swar(matches!(exec, ExecPath::FusedSwar(_)));
        self
    }

    /// Installs a symbolic-activity schedule for the
    /// [`ExecPath::FusedSwar`] driver (see [`SwarSchedule`]). A schedule
    /// derived for a different problem size is ignored in favor of the
    /// structural one. No effect on the other execution paths.
    #[must_use]
    pub fn with_swar_schedule(mut self, schedule: SwarSchedule) -> Self {
        self.swar_schedule = Some(schedule);
        self
    }

    /// The configured convergence policy.
    pub fn convergence(&self) -> Convergence {
        self.convergence
    }

    /// The configured execution path.
    pub fn exec(&self) -> ExecPath {
        self.exec
    }

    /// Problem size `n`.
    pub fn n(&self) -> usize {
        self.layout.n()
    }

    /// The field layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The uniform cell rule.
    pub fn rule(&self) -> &HirschbergRule {
        &self.rule
    }

    /// Read-only view of the current field.
    pub fn field(&self) -> &CellField<HCell> {
        &self.field
    }

    /// Generations executed so far.
    pub fn generations(&self) -> u64 {
        self.engine.generation()
    }

    /// The per-generation metrics recorded so far.
    pub fn metrics(&self) -> &MetricsLog {
        &self.metrics
    }

    /// Executes generation 0 (initialization). Must run exactly once,
    /// before any iteration.
    pub fn init(&mut self) -> Result<StepReport, GcaError> {
        assert!(!self.initialized, "machine already initialized");
        let rep = self.step(Gen::Init, 0)?;
        self.initialized = true;
        Ok(rep)
    }

    /// Executes a single `(generation, sub-generation)` of the state
    /// machine and records its metrics.
    pub fn step(&mut self, gen: Gen, subgeneration: u32) -> Result<StepReport, GcaError> {
        if self.fused_active() {
            return self.step_fused(gen, subgeneration);
        }
        self.ensure_invariant_checker();
        let fault_gen = self.engine.generation();
        self.arm_generic_fault(fault_gen);
        let rep = self
            .engine
            .step(&mut self.field, &self.rule, gen.number(), subgeneration)?;
        self.apply_generic_fault(fault_gen);
        self.soa_valid = false;
        if let Some(hist) = rep.congestion.as_ref() {
            self.metrics
                .push(GenerationMetrics::new(rep.ctx, rep.active_cells, hist));
        }
        self.check_invariants(&rep.ctx)?;
        Ok(rep)
    }

    /// Fused kernels reproduce `Counts` metrics exactly, but per-cell
    /// access traces exist only in the generic evaluator — `Trace` steps
    /// fall back to it. `Validate` stays fused on purpose: that is what
    /// arms the differential replay harness against the kernels.
    fn fused_active(&self) -> bool {
        matches!(self.exec, ExecPath::Fused | ExecPath::FusedSwar(_))
            && !matches!(self.engine.instrumentation(), Instrumentation::Trace)
    }

    /// Resolves [`FusedSwar::parallel`](crate::FusedSwar::parallel) into
    /// the per-step policy the kernels consume: auto worker counts default
    /// to the hardware thread count, the threshold is the engine's shared
    /// tunable, and anything that resolves below two workers runs the
    /// plain sequential kernels.
    fn par_policy(&self) -> Option<ParPolicy> {
        let ExecPath::FusedSwar(swar) = self.exec else {
            return None;
        };
        let cfg = swar.parallel?;
        let workers = if cfg.workers == 0 {
            rayon::current_num_threads()
        } else {
            cfg.workers
        };
        (workers >= 2).then(|| ParPolicy {
            workers,
            threshold: self.engine.min_parallel_cells(),
            explicit: cfg.workers != 0,
        })
    }

    /// Reloads the kernels' SoA mirror from the field if it is stale.
    fn ensure_soa(&mut self) {
        if !self.soa_valid {
            self.fused.load(&self.field);
            self.soa_valid = true;
        }
    }

    /// Whether a step should account reads (mirrors the engine's `counting`).
    fn counting(&self) -> bool {
        !matches!(self.engine.instrumentation(), Instrumentation::Off)
    }

    /// Whether the CROW sanitizer / fused replay harness is armed.
    fn validating(&self) -> bool {
        matches!(self.engine.instrumentation(), Instrumentation::Validate)
    }

    /// Test-only hook for the failure-injection suite: arms a one-shot
    /// planted contract break of the given [`InvariantClass`] inside the
    /// invariant checker, which must then report it as
    /// [`GcaError::InvariantViolation`]. No effect unless the machine runs
    /// under [`Instrumentation::Validate`].
    #[doc(hidden)]
    pub fn seed_invariant_fault(&mut self, class: InvariantClass) {
        match self.inv.as_mut() {
            Some(inv) => inv.seed_fault(class),
            None => self.inv_fault = Some(class),
        }
    }

    /// Arms (or clears) a deterministic fault plan. An armed plan injects
    /// its fault into the addressed committed generation on whichever
    /// execution path runs it (see [`gca_engine::faults`] for the per-kind
    /// semantics and which paths each kind applies to). Arming also
    /// disables the SWAR driver's broadcast+filter and multi-jump fusions
    /// so that every scheduled generation materializes as an injection
    /// site; a `None` plan restores full fusion and costs nothing per
    /// step. The plan survives [`Machine::reset_with`] and
    /// [`Machine::rollback_to`] on purpose: recovery re-executes the
    /// faulted span, and whether the fault re-fires is the plan's
    /// [`gca_engine::faults::Persistence`] decision, not the machine's.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.inject = plan;
        self.torn_pre = None;
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.inject.as_ref()
    }

    /// Why a fault of `kind` can never fire on this machine as configured,
    /// or `None` when it can. The state-corrupting kinds fire on every
    /// path; the others need the machinery they corrupt: the SWAR
    /// occupancy plane (stale occupancy), counting fused kernels
    /// (histogram merge), or a counting broadcast whose generation 1 is
    /// row-partitioned (duplicated chunk row).
    pub fn fault_inapplicability(&self, kind: FaultKind) -> Option<&'static str> {
        let swar = matches!(self.exec, ExecPath::FusedSwar(_));
        let counting_fused = self.counting() && (swar || self.exec == ExecPath::Fused);
        let n = self.n();
        match kind {
            FaultKind::StaleOccupancy if !swar => {
                Some("needs the fused-swar path, the only one with an occupancy plane")
            }
            FaultKind::CorruptHistogramMerge if !counting_fused => {
                Some("needs a fused path (fused or fused-swar) that counts reads")
            }
            FaultKind::DuplicatedChunkRow
                if !counting_fused
                    || plan_rows(self.par_policy(), (n + 1) * n, n + 1, n).is_none() =>
            {
                Some(
                    "needs fused-swar with at least 2 workers on a field whose generation 1 \
                     row-partitions (n(n+1) cells at or above the engine's parallel threshold)",
                )
            }
            _ => None,
        }
    }

    /// The degradation-ladder level of the configured execution path —
    /// the coordinate sticky faults compare against (see
    /// [`gca_engine::faults::Persistence::Sticky`]). Higher is more
    /// optimized: generic 0, fused 1, fused-swar 2.
    pub fn exec_level(&self) -> u8 {
        match self.exec {
            ExecPath::Generic => 0,
            ExecPath::Fused => 1,
            ExecPath::FusedSwar(_) => 2,
        }
    }

    /// Switches the execution path in place — the degradation ladder's
    /// rung change. Unlike [`Machine::with_exec`] this is callable
    /// mid-run; the paths are bit-identical in labels and metrics, so a
    /// switch at any generation boundary is semantically invisible.
    pub fn set_exec(&mut self, exec: ExecPath) {
        self.exec = exec;
        self.fused.set_swar(matches!(exec, ExecPath::FusedSwar(_)));
        // The SoA mirror's auxiliary planes (occupancy) are path-dependent;
        // force a reload under the new path's configuration.
        self.soa_valid = false;
    }

    /// Rewinds the machine to a checkpoint: restores the field snapshot,
    /// resets the engine's generation counter to `generation`, and
    /// truncates the metrics log to match (under counting instrumentation
    /// the log holds exactly one entry per committed generation, so the
    /// re-executed span appends over a clean suffix and a recovered run's
    /// log is bit-identical to an undisturbed one). The fused replay
    /// shadow is dropped and re-arms in lockstep on the next validated
    /// generation.
    pub fn rollback_to(
        &mut self,
        generation: u64,
        snapshot: &gca_engine::snapshot::FieldSnapshot<HCell>,
    ) -> Result<(), GcaError> {
        self.restore(snapshot)?;
        self.engine.rewind_to(generation);
        self.metrics.truncate(generation as usize);
        self.validator = None;
        self.torn_pre = None;
        Ok(())
    }

    /// Pre-generation half of the generic-path injection hook: captures
    /// whatever pre-state the armed fault needs. `generation` is the
    /// number the generation will commit as (the pre-step counter).
    fn arm_generic_fault(&mut self, generation: u64) {
        let Some(plan) = self.inject.as_ref() else {
            return;
        };
        match plan.peek(generation, self.exec_level()) {
            Some(FaultKind::DroppedGeneration) => {
                self.drop_states.clear();
                self.drop_states.extend_from_slice(self.field.states());
            }
            Some(FaultKind::TornWrite) => {
                self.torn_pre = self.field.states().get(plan.cell()).map(|c| c.d);
            }
            _ => {}
        }
    }

    /// Post-generation half of the generic-path injection hook: fires the
    /// plan and corrupts the committed field state. The invariant
    /// checker's contract-step mirror (armed under
    /// [`Instrumentation::Validate`]) is the detector on this path — it
    /// replays the generation from the uncorrupted pre-state and compares
    /// the full field. Kinds without a generic-path surface (stale
    /// occupancy bits, duplicated chunk rows, histogram merges live in
    /// the fused kernels) consume their charge without effect.
    fn apply_generic_fault(&mut self, generation: u64) {
        let level = self.exec_level();
        let Some(plan) = self.inject.as_mut() else {
            return;
        };
        let Some(kind) = plan.fire(generation, level) else {
            return;
        };
        let cell = plan.cell();
        match kind {
            FaultKind::BitFlip { bit } => {
                if let Some(c) = self.field.states_mut().get_mut(cell) {
                    c.d ^= 1 << (bit % Word::BITS);
                }
            }
            FaultKind::TornWrite => {
                if let (Some(pre), Some(c)) =
                    (self.torn_pre.take(), self.field.states_mut().get_mut(cell))
                {
                    c.d = (c.d & !TORN_LO_MASK) | (pre & TORN_LO_MASK);
                }
            }
            FaultKind::DroppedGeneration => {
                if self.drop_states.len() == self.field.len() {
                    self.field.states_mut().clone_from_slice(&self.drop_states);
                }
            }
            FaultKind::StaleOccupancy
            | FaultKind::DuplicatedChunkRow
            | FaultKind::CorruptHistogramMerge => {}
        }
    }

    /// Pre-kernel half of the fused-path injection hook. Runs after
    /// `ensure_soa`, so captures see the authoritative SoA mirror.
    /// Duplicated-chunk-row faults arm here (the overlap fires *inside*
    /// the kernel's partitioned counting broadcast); everything else only
    /// captures pre-state.
    fn arm_fused_fault(&mut self, generation: u64) {
        let Some(plan) = self.inject.as_ref() else {
            return;
        };
        match plan.peek(generation, self.exec_level()) {
            Some(FaultKind::DroppedGeneration) => {
                self.fused.save_plane(&mut self.drop_words);
            }
            Some(FaultKind::TornWrite) => {
                self.torn_pre = self.fused.word_at(plan.cell());
            }
            Some(FaultKind::DuplicatedChunkRow) => {
                self.fused.set_overlap_fault(true);
            }
            _ => {}
        }
    }

    /// Post-kernel half of the fused-path injection hook: fires the plan
    /// and corrupts the kernel's committed output *before* the field
    /// write-back and the differential-replay comparison — exactly where
    /// a hardware fault between kernel and commit would land. Detection
    /// is the replay harness ([`GcaError::KernelDivergence`]) under
    /// [`Instrumentation::Validate`].
    fn apply_fused_fault(&mut self, generation: u64) {
        let level = self.exec_level();
        let Some(plan) = self.inject.as_mut() else {
            return;
        };
        let Some(kind) = plan.fire(generation, level) else {
            return;
        };
        let cell = plan.cell();
        let counting = self.counting();
        match kind {
            FaultKind::BitFlip { bit } => {
                if let Some(w) = self.fused.word_at(cell) {
                    self.fused.set_word(cell, w ^ (1 << (bit % Word::BITS)));
                }
            }
            FaultKind::TornWrite => {
                if let (Some(pre), Some(w)) = (self.torn_pre.take(), self.fused.word_at(cell)) {
                    self.fused.set_word(cell, (w & !TORN_LO_MASK) | (pre & TORN_LO_MASK));
                }
            }
            FaultKind::DroppedGeneration => {
                self.fused.load_plane(&self.drop_words);
            }
            FaultKind::StaleOccupancy => {
                self.fused.clear_occ_bit(cell);
            }
            FaultKind::CorruptHistogramMerge => {
                if counting {
                    self.fused.bump_read(cell);
                }
            }
            // Armed pre-kernel; the overlap already fired inside the
            // partitioned broadcast, or expires unobserved here if this
            // generation was no partitioned counting broadcast.
            FaultKind::DuplicatedChunkRow => self.fused.set_overlap_fault(false),
        }
    }

    /// Lazily (re)builds the invariant checker from the current field — the
    /// pre-state of the next generation to run. Called before every
    /// generation executes; a checker dropped by `reset_with`/`restore`
    /// re-arms here (at an iteration boundary, where column 0 carries the
    /// labels the boundary invariants need). No-op unless validating.
    fn ensure_invariant_checker(&mut self) {
        if !self.validating() || self.inv.is_some() {
            return;
        }
        let mut inv = InvariantChecker::from_states(self.n(), self.field.states());
        if let Some(class) = self.inv_fault.take() {
            inv.seed_fault(class);
        }
        self.inv = Some(inv);
    }

    /// Replays the committed generation through the contract transfer
    /// functions and asserts the invariant set. No-op unless validating
    /// (`ensure_invariant_checker` arms the checker in that case, so a
    /// validating machine always has one here).
    fn check_invariants(&mut self, ctx: &StepCtx) -> Result<(), GcaError> {
        if !self.validating() {
            return Ok(());
        }
        match self.inv.as_mut() {
            Some(inv) => inv.after_generation(ctx, self.field.states()),
            None => Ok(()),
        }
    }

    /// Copies the pre-generation field into the shadow so the reference
    /// engine can replay the generation the fused kernel is about to run.
    /// No-op unless validating.
    fn begin_fused_validation(&mut self) {
        if !self.validating() {
            return;
        }
        self.ensure_invariant_checker();
        if self.validator.is_none() {
            self.validator = Some(FusedValidator {
                engine: Engine::sequential().with_instrumentation(Instrumentation::Validate),
                shadow: self.field.clone(),
            });
        }
        let Some(v) = self.validator.as_mut() else {
            return;
        };
        v.shadow.states_mut().clone_from_slice(self.field.states());
        // Keep the shadow engine's generation counter in lockstep (it may
        // lag when the machine was restored from a snapshot).
        while v.engine.generation() < self.engine.generation() {
            v.engine.advance_generation();
        }
    }

    /// The differential check: replays the generation the fused kernel just
    /// executed through the reference engine (running the CROW sanitizer)
    /// on the shadow copy, then compares next-states and read histograms
    /// cell by cell. The first disagreeing cell is reported as
    /// [`GcaError::KernelDivergence`]. No-op unless validating.
    fn check_fused_generation(&mut self, ctx: &StepCtx) -> Result<(), GcaError> {
        if !self.validating() {
            return Ok(());
        }
        let Some(v) = self.validator.as_mut() else {
            // Unreachable in practice: `begin_fused_validation` arms the
            // validator whenever `validating()` holds.
            return Ok(());
        };
        let rep = v
            .engine
            .step(&mut v.shadow, &self.rule, ctx.phase, ctx.subgeneration)?;
        let diverged = |cell: usize| GcaError::KernelDivergence {
            cell,
            generation: ctx.generation,
            phase: ctx.phase,
        };
        if let Some(cell) = v
            .shadow
            .states()
            .iter()
            .zip(self.field.states())
            .position(|(replayed, fused)| replayed != fused)
        {
            return Err(diverged(cell));
        }
        if let Some(hist) = rep.congestion.as_ref() {
            let kernel = self.fused.reads();
            if let Some(cell) =
                (0..self.field.len()).find(|&i| hist.reads_of(i) != kernel[i])
            {
                return Err(diverged(cell));
            }
        }
        Ok(())
    }

    fn fused_ctx(&self, gen: Gen, subgeneration: u32) -> StepCtx {
        StepCtx {
            generation: self.engine.generation(),
            phase: gen.number(),
            subgeneration,
        }
    }

    /// Books one successfully executed fused generation: advances the
    /// engine's generation counter and appends the metrics entry, exactly as
    /// an engine-executed step would.
    fn fused_commit(&mut self, ctx: StepCtx, active: usize) {
        self.engine.advance_generation();
        if self.counting() {
            self.metrics
                .push(GenerationMetrics::from_read_counts(ctx, active, self.fused.reads()));
        }
    }

    /// One fused `(generation, sub-generation)` with a full [`StepReport`]
    /// (including an owned congestion histogram) — the single-step API.
    /// [`Machine::run_iteration`] uses the report-free internal path.
    fn step_fused(&mut self, gen: Gen, subgeneration: u32) -> Result<StepReport, GcaError> {
        let counting = self.counting();
        let ctx = self.fused_ctx(gen, subgeneration);
        let par = self.par_policy();
        self.begin_fused_validation();
        self.ensure_soa();
        self.arm_fused_fault(ctx.generation);
        let rep = self.fused.step(&ctx, counting, par)?;
        self.apply_fused_fault(ctx.generation);
        // The single-step API keeps the public field authoritative after
        // every generation (callers inspect it between steps).
        self.fused.store_d(&mut self.field);
        self.check_fused_generation(&ctx)?;
        self.check_invariants(&ctx)?;
        self.fused_commit(ctx, rep.active);
        Ok(StepReport {
            ctx,
            active_cells: rep.active,
            total_reads: rep.reads,
            changed_cells: rep.changed,
            evaluated_cells: rep.evaluated,
            workers: rep.workers,
            congestion: counting
                .then(|| CongestionHistogram::from_reads(self.fused.reads().to_vec())),
            accesses: None,
        })
    }

    /// Executes one full outer iteration (generations 1–11 with their
    /// sub-generations). Returns the number of generations executed —
    /// `iteration_schedule(n).len()` under [`Convergence::Fixed`], possibly
    /// fewer under [`Convergence::Detect`] (skipped pointer-jump
    /// sub-generations are not executed at all and record no metrics).
    pub fn run_iteration(&mut self) -> Result<u64, GcaError> {
        assert!(self.initialized, "call init() before iterating");
        if self.fused_active() {
            return self.run_iteration_fused();
        }
        let schedule = iteration_schedule(self.n());
        let mut executed = 0u64;
        let mut jump_converged = false;
        for (gen, sub) in schedule {
            if jump_converged && gen == Gen::PointerJump {
                continue;
            }
            let rep = self.step(gen, sub)?;
            executed += 1;
            if self.convergence == Convergence::Detect
                && gen == Gen::PointerJump
                && rep.changed_cells == 0
            {
                jump_converged = true;
            }
            self.engine.recycle(rep);
        }
        Ok(executed)
    }

    /// Executes `count` full outer iterations back to back, returning the
    /// total number of generations executed. Observably identical to
    /// calling [`Machine::run_iteration`] `count` times, except that the
    /// fused paths write the public field back once at the end instead of
    /// once per iteration (the field is only guaranteed authoritative when
    /// this returns — also on error, exactly as the per-iteration API
    /// leaves committed generations visible).
    pub fn run_iterations(&mut self, count: u64) -> Result<u64, GcaError> {
        assert!(self.initialized, "call init() before iterating");
        if !self.fused_active() || self.validating() {
            let mut executed = 0;
            for _ in 0..count {
                executed += self.run_iteration()?;
            }
            return Ok(executed);
        }
        let mut executed = 0;
        let mut failure = None;
        for _ in 0..count {
            match self.run_iteration_fused_inner() {
                Ok(e) => executed += e,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        self.fused.store_d(&mut self.field);
        match failure {
            None => Ok(executed),
            Some(e) => Err(e),
        }
    }

    /// One fused generation without report assembly (no histogram copy) —
    /// the hot-loop variant of [`Machine::step_fused`]. Returns the changed
    /// count for convergence detection.
    fn fused_tick(&mut self, gen: Gen, subgeneration: u32) -> Result<KernelReport, GcaError> {
        let ctx = self.fused_ctx(gen, subgeneration);
        let counting = self.counting();
        let par = self.par_policy();
        self.begin_fused_validation();
        self.ensure_soa();
        self.arm_fused_fault(ctx.generation);
        let rep = self.fused.step(&ctx, counting, par)?;
        self.apply_fused_fault(ctx.generation);
        if self.validating() {
            // The replay harness compares against the field, so each
            // validated generation writes back immediately; the plain hot
            // loop defers the writeback to the iteration boundary.
            self.fused.store_d(&mut self.field);
            self.check_fused_generation(&ctx)?;
            self.check_invariants(&ctx)?;
        }
        self.fused_commit(ctx, rep.active);
        Ok(rep)
    }

    /// The schedule the [`ExecPath::FusedSwar`] driver consults; `None` for
    /// the other fused paths (never skip). An installed schedule derived
    /// for a different `n` falls back to the structural one.
    fn swar_bounds(&self) -> Option<SwarSchedule> {
        matches!(self.exec, ExecPath::FusedSwar(_)).then(|| {
            self.swar_schedule
                .filter(|sc| sc.n() == self.n())
                .unwrap_or_else(|| SwarSchedule::structural(self.n()))
        })
    }

    /// Runs one iterated-phase sub-generation under the SWAR schedule.
    /// Scheduled subs execute normally; an out-of-schedule sub (symbolic
    /// activity zero) is skipped outright — except under
    /// [`Instrumentation::Validate`], where it executes anyway and a debug
    /// assertion cross-checks the symbolic claim against the dynamic
    /// counters (zero activity for the tree reductions, zero changed cells
    /// for a clamped pointer jump). Returns `None` when skipped.
    fn swar_gated_tick(
        &mut self,
        sched: Option<SwarSchedule>,
        gen: Gen,
        s: u32,
        executed: &mut u64,
    ) -> Result<Option<KernelReport>, GcaError> {
        let live = sched.is_none_or(|sc| sc.live(gen, s));
        if !live && !self.validating() {
            return Ok(None);
        }
        let rep = self.fused_tick(gen, s)?;
        *executed += 1;
        if !live {
            debug_assert!(
                rep.changed == 0 && (gen == Gen::PointerJump || rep.active == 0),
                "symbolic-activity schedule skipped an active sub-generation: \
                 {gen:?}/{s} active={} changed={}",
                rep.active,
                rep.changed,
            );
        }
        Ok(Some(rep))
    }

    /// Whether the batched driver may fuse each broadcast with the filter
    /// that immediately follows it (generations 1+2 and 5+6). Requires the
    /// SWAR path *and* an unobservable intermediate state: under counting
    /// the two generations report separate read footprints, and under
    /// validation the replay harness compares the field after every
    /// generation — both must see the broadcast materialized. An armed
    /// fault plan also disables the fusion: fault coordinates address
    /// individual committed generations, so every generation must
    /// materialize as an injection site.
    fn fuse_broadcast_filter(&self) -> bool {
        matches!(self.exec, ExecPath::FusedSwar(_))
            && !self.counting()
            && !self.validating()
            && self.inject.is_none()
    }

    /// Runs one fused broadcast+filter pair (generations 1+2 for
    /// `members = false`, 5+6 for `members = true`) and commits both
    /// generations, exactly as two separate ticks would have.
    fn broadcast_filter_ticks(&mut self, members: bool) {
        let par = self.par_policy();
        self.ensure_soa();
        let (bcast, filter) = self.fused.broadcast_filter(members, par);
        let (g_b, g_f) = if members {
            (Gen::BroadcastT, Gen::FilterMembers)
        } else {
            (Gen::BroadcastC, Gen::FilterNeighbors)
        };
        let ctx_b = self.fused_ctx(g_b, 0);
        self.fused_commit(ctx_b, bcast.active);
        // The second ctx is built after the first commit so its generation
        // number advances exactly as under separate ticks.
        let ctx_f = self.fused_ctx(g_f, 0);
        self.fused_commit(ctx_f, filter.active);
    }

    /// The fused iteration: identical `(generation, sub-generation)`
    /// schedule and convergence behaviour as the generic loop, with the
    /// pointer-jump sub-generations fused over ping-pong label buffers.
    /// The SoA mirror is the working state between generations; the public
    /// field is written back once per iteration (also on error, so
    /// committed generations stay visible exactly as the generic engine
    /// leaves them — a failed generation never commits).
    fn run_iteration_fused(&mut self) -> Result<u64, GcaError> {
        let result = self.run_iteration_fused_inner();
        if !self.validating() {
            self.fused.store_d(&mut self.field);
        }
        result
    }

    fn run_iteration_fused_inner(&mut self) -> Result<u64, GcaError> {
        let subgens = ceil_log2(self.n());
        let sched = self.swar_bounds();
        let fuse_bf = self.fuse_broadcast_filter();
        let mut executed = 0u64;
        if fuse_bf {
            self.broadcast_filter_ticks(false);
            executed += 2;
        } else {
            for gen in [Gen::BroadcastC, Gen::FilterNeighbors] {
                self.fused_tick(gen, 0)?;
                executed += 1;
            }
        }
        for s in 0..subgens {
            self.swar_gated_tick(sched, Gen::MinReduce, s, &mut executed)?;
        }
        self.fused_tick(Gen::ResolveIsolated, 0)?;
        executed += 1;
        if fuse_bf {
            self.broadcast_filter_ticks(true);
            executed += 2;
        } else {
            for gen in [Gen::BroadcastT, Gen::FilterMembers] {
                self.fused_tick(gen, 0)?;
                executed += 1;
            }
        }
        for s in 0..subgens {
            self.swar_gated_tick(sched, Gen::MinReduceMembers, s, &mut executed)?;
        }
        for gen in [Gen::ResolveMembers, Gen::CopyAndSaveT] {
            self.fused_tick(gen, 0)?;
            executed += 1;
        }
        if self.validating() || self.inject.is_some() {
            // The multi-jump fusion keeps labels in private ping-pong
            // buffers between sub-generations; the replay harness needs
            // every generation's writes in the field (and an armed fault
            // plan needs every generation to exist as an injection site),
            // so both take the gather/jump/scatter-per-sub-generation path.
            for s in 0..subgens {
                let rep = self.swar_gated_tick(sched, Gen::PointerJump, s, &mut executed)?;
                if let Some(rep) = rep {
                    if self.convergence == Convergence::Detect && rep.changed == 0 {
                        break;
                    }
                }
            }
        } else {
            // The schedule clamps the pointer-jump iteration bound; for the
            // structural (and the symbolically derived) schedule the clamp
            // equals ⌈log₂ n⌉ and the behavior is unchanged.
            let jump_bound =
                sched.map_or(subgens, |sc| sc.subgenerations(Gen::PointerJump).min(subgens));
            executed += self.fused_pointer_jump(jump_bound)?;
        }
        self.fused_tick(Gen::FinalMin, 0)?;
        executed += 1;
        Ok(executed)
    }

    /// All pointer-jump sub-generations in one fused call: gather column 0
    /// once, ping-pong the two label buffers per sub-generation, scatter
    /// once at the end (also on error, so committed sub-generations stay
    /// visible exactly as the generic engine leaves them).
    fn fused_pointer_jump(&mut self, subgens: u32) -> Result<u64, GcaError> {
        let counting = self.counting();
        let par = self.par_policy();
        self.ensure_soa();
        self.fused.gather_labels();
        let mut executed = 0u64;
        let mut failure = None;
        for s in 0..subgens {
            if counting {
                self.fused.reset_reads(self.field.len());
            }
            let ctx = self.fused_ctx(Gen::PointerJump, s);
            match self.fused.jump_once(&ctx, counting, par) {
                Ok(rep) => {
                    self.fused_commit(ctx, rep.active);
                    executed += 1;
                    if self.convergence == Convergence::Detect && rep.changed == 0 {
                        break;
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        self.fused.scatter_labels();
        match failure {
            None => Ok(executed),
            Some(e) => Err(e),
        }
    }

    /// Captures the complete field state for checkpointing. Meaningful at
    /// iteration boundaries (mid-iteration snapshots additionally require
    /// the caller to remember the schedule position).
    pub fn snapshot(&self) -> gca_engine::snapshot::FieldSnapshot<HCell> {
        gca_engine::snapshot::FieldSnapshot::capture(&self.field)
    }

    /// Restores a previously captured field state into this machine. The
    /// snapshot must match the machine's field shape; the machine is marked
    /// initialized (snapshots are taken after generation 0 by construction).
    pub fn restore(
        &mut self,
        snapshot: &gca_engine::snapshot::FieldSnapshot<HCell>,
    ) -> Result<(), GcaError> {
        let field = snapshot.restore()?;
        if field.shape() != self.field.shape() {
            return Err(GcaError::ShapeMismatch {
                expected: self.field.len(),
                actual: field.len(),
            });
        }
        self.field = field;
        self.soa_valid = false;
        self.initialized = true;
        // The invariant checker's shadow plane no longer matches the field;
        // it re-arms lazily from the restored state (an iteration boundary).
        self.inv = None;
        Ok(())
    }

    /// The current `C` vector (column 0).
    pub fn labels_raw(&self) -> Vec<Word> {
        let mut out = Vec::new();
        self.labels_into(&mut out);
        out
    }

    /// Writes the current `C` vector (column 0) into `out`, reusing its
    /// allocation — the steady-state extraction path of the batched runner.
    pub fn labels_into(&self, out: &mut Vec<Word>) {
        out.clear();
        out.extend((0..self.n()).map(|j| self.field.get(self.layout.c_index(j)).d));
    }

    /// Reloads the machine with a new graph of the **same size**, reusing
    /// every buffer (field, engine scratch, metrics log, kernel scratch) —
    /// no allocation. The machine returns to its pre-[`Machine::init`]
    /// state; configuration (engine, convergence, exec path) is kept.
    pub fn reset_with(&mut self, graph: &AdjacencyMatrix) -> Result<(), GcaError> {
        self.layout.refill_field(graph, &mut self.field)?;
        self.engine.reset();
        self.metrics.clear();
        self.soa_valid = false;
        self.initialized = false;
        if let Some(v) = self.validator.as_mut() {
            v.engine.reset();
        }
        self.inv = None;
        self.inv_fault = None;
        Ok(())
    }

    /// The current `C` vector as a [`Labeling`]. An out-of-range label —
    /// impossible on a clean run, but exactly what an undetected data
    /// fault can produce — surfaces as [`GcaError::BadLabel`] instead of
    /// a panic.
    pub fn labels(&self) -> Result<Labeling, GcaError> {
        let raw = self.labels_raw();
        crate::machine_labeling(raw.into_iter().map(|w| w as usize).collect())
    }
}

/// The result of a complete GCA run.
#[derive(Clone, Debug)]
pub struct GcaRun {
    /// Component labeling (canonical: every node labeled with the minimum
    /// node index of its component).
    pub labels: Labeling,
    /// Total generations executed (including generation 0).
    pub generations: u64,
    /// Outer iterations executed.
    pub iterations: u32,
    /// Per-generation activity/congestion metrics (empty when the engine
    /// ran with [`gca_engine::Instrumentation::Off`]).
    pub metrics: MetricsLog,
}

impl GcaRun {
    /// Worst congestion observed over the whole run.
    pub fn max_congestion(&self) -> u32 {
        self.metrics.max_congestion()
    }
}

/// Configurable front-end for running the algorithm.
///
/// ```
/// use gca_graphs::generators;
/// use gca_hirschberg::HirschbergGca;
///
/// let g = generators::gnp(24, 0.2, 7);
/// let run = HirschbergGca::new().run(&g).unwrap();
/// assert_eq!(run.labels.n(), 24);
/// ```
#[derive(Clone, Debug, Default)]
pub struct HirschbergGca {
    engine: Engine,
    early_exit: bool,
    convergence: Convergence,
    exec: ExecPath,
    swar_schedule: Option<SwarSchedule>,
}

impl HirschbergGca {
    /// Default configuration: sequential engine, congestion counting,
    /// fixed `⌈log₂ n⌉` iterations (the paper's schedule), generic
    /// execution path.
    pub fn new() -> Self {
        HirschbergGca {
            engine: Engine::sequential(),
            early_exit: false,
            convergence: Convergence::Fixed,
            exec: ExecPath::Generic,
            swar_schedule: None,
        }
    }

    /// Uses an explicit engine (backend / instrumentation).
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the sub-generation convergence policy (see [`Convergence`]).
    /// Orthogonal to [`HirschbergGca::early_exit`], which stops whole outer
    /// iterations.
    #[must_use]
    pub fn convergence(mut self, convergence: Convergence) -> Self {
        self.convergence = convergence;
        self
    }

    /// Sets the execution path (see [`ExecPath`]).
    #[must_use]
    pub fn exec(mut self, exec: ExecPath) -> Self {
        self.exec = exec;
        self
    }

    /// Installs a symbolic-activity schedule for the
    /// [`ExecPath::FusedSwar`] driver (see [`Machine::with_swar_schedule`]);
    /// no effect on the other execution paths.
    #[must_use]
    pub fn with_swar_schedule(mut self, schedule: SwarSchedule) -> Self {
        self.swar_schedule = Some(schedule);
        self
    }

    /// Stops as soon as an iteration leaves `C` unchanged, instead of
    /// always running `⌈log₂ n⌉` iterations. An extension over the paper
    /// (the fixed schedule is what the hardware implements); useful in the
    /// ablation benchmarks.
    #[must_use]
    pub fn early_exit(mut self, enabled: bool) -> Self {
        self.early_exit = enabled;
        self
    }

    /// Runs the algorithm to completion on `graph`.
    pub fn run(&self, graph: &AdjacencyMatrix) -> Result<GcaRun, GcaError> {
        let n = graph.n();
        if n == 0 {
            return Ok(GcaRun {
                labels: Labeling::empty(),
                generations: 0,
                iterations: 0,
                metrics: MetricsLog::new(),
            });
        }

        let mut machine = Machine::with_engine(graph, self.engine.clone())?
            .with_convergence(self.convergence)
            .with_exec(self.exec);
        if let Some(sched) = self.swar_schedule {
            machine = machine.with_swar_schedule(sched);
        }
        machine.init()?;
        let max_iterations = ceil_log2(n);
        let mut iterations = 0;
        if self.early_exit {
            let mut previous = machine.labels_raw();
            for _ in 0..max_iterations {
                machine.run_iteration()?;
                iterations += 1;
                let current = machine.labels_raw();
                if current == previous {
                    break;
                }
                previous = current;
            }
        } else {
            // No between-iteration label reads: the batched driver defers
            // the fused paths' field writeback to the end of the run.
            machine.run_iterations(u64::from(max_iterations))?;
            iterations = max_iterations;
        }

        let generations = machine.generations();
        if !self.early_exit
            && self.convergence == Convergence::Fixed
            && self.swar_schedule.is_none_or(|sc| sc.is_structural())
        {
            // A truncated SWAR schedule legitimately executes fewer
            // generations than the closed form; every other configuration
            // must match it exactly.
            debug_assert_eq!(
                generations,
                total_generations(n),
                "generation count must match the paper's formula"
            );
        }
        Ok(GcaRun {
            labels: machine.labels()?,
            generations,
            iterations,
            metrics: std::mem::take(&mut machine.metrics),
        })
    }
}

/// One-call API: connected components of `graph` via the GCA algorithm.
///
/// Returns the canonical min-index labeling, identical (as a partition and
/// representative choice) to [`gca_graphs::connectivity::bfs_components`].
pub fn connected_components(graph: &AdjacencyMatrix) -> Result<Labeling, GcaError> {
    Ok(HirschbergGca::new().run(graph)?.labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_graphs::connectivity::union_find_components_dense;
    use gca_graphs::{generators, GraphBuilder};

    fn check(graph: &AdjacencyMatrix) {
        let expected = union_find_components_dense(graph);
        let run = HirschbergGca::new().run(graph).unwrap();
        assert_eq!(
            run.labels.as_slice(),
            expected.as_slice(),
            "GCA disagrees with union-find on {graph:?}"
        );
    }

    #[test]
    fn single_edge() {
        check(&GraphBuilder::new(2).edge(0, 1).build().unwrap());
    }

    #[test]
    fn two_isolated_nodes() {
        check(&generators::empty(2));
    }

    #[test]
    fn paper_scale_n4() {
        check(&GraphBuilder::new(4).edge(0, 2).edge(1, 3).build().unwrap());
    }

    #[test]
    fn path_graphs() {
        for n in [2usize, 3, 5, 8, 13] {
            check(&generators::path(n));
        }
    }

    #[test]
    fn rings_and_stars() {
        for n in [3usize, 4, 7, 16] {
            check(&generators::ring(n));
            check(&generators::star(n));
        }
    }

    #[test]
    fn complete_graphs() {
        for n in [2usize, 3, 9, 16] {
            check(&generators::complete(n));
        }
    }

    #[test]
    fn empty_graphs_label_identity() {
        for n in [1usize, 2, 6, 10] {
            let run = HirschbergGca::new().run(&generators::empty(n)).unwrap();
            let expect: Vec<usize> = (0..n).collect();
            assert_eq!(run.labels.as_slice(), &expect[..]);
        }
    }

    #[test]
    fn zero_node_graph() {
        let run = HirschbergGca::new().run(&generators::empty(0)).unwrap();
        assert_eq!(run.labels.n(), 0);
        assert_eq!(run.generations, 0);
    }

    #[test]
    fn single_node_graph() {
        let run = HirschbergGca::new().run(&generators::empty(1)).unwrap();
        assert_eq!(run.labels.as_slice(), &[0]);
        assert_eq!(run.generations, 1); // init only: log₂ 1 = 0 iterations
    }

    #[test]
    fn random_graphs_match_union_find() {
        for seed in 0..8 {
            let g = generators::gnp(21, 0.12, seed);
            check(&g);
        }
    }

    #[test]
    fn planted_components_recovered() {
        for seed in 0..4 {
            let p = generators::planted_components(24, 5, 0.5, seed);
            let run = HirschbergGca::new().run(&p.graph).unwrap();
            assert!(run.labels.same_partition(&p.expected_labels()));
        }
    }

    #[test]
    fn forests_match() {
        for seed in 0..4 {
            check(&generators::random_forest(18, 4, seed));
        }
    }

    #[test]
    fn generation_count_matches_formula() {
        for n in [2usize, 3, 4, 7, 8, 16, 20] {
            let g = generators::gnp(n, 0.3, 1);
            let run = HirschbergGca::new().run(&g).unwrap();
            assert_eq!(run.generations, total_generations(n), "n = {n}");
            assert_eq!(run.iterations, ceil_log2(n));
        }
    }

    #[test]
    fn early_exit_still_correct() {
        for seed in 0..4 {
            let g = generators::gnp(17, 0.3, seed);
            let expected = union_find_components_dense(&g);
            let run = HirschbergGca::new().early_exit(true).run(&g).unwrap();
            assert_eq!(run.labels.as_slice(), expected.as_slice());
        }
    }

    #[test]
    fn early_exit_saves_iterations_on_complete_graph() {
        // K_n merges everything in one iteration; one more detects the
        // fixpoint.
        let g = generators::complete(16);
        let run = HirschbergGca::new().early_exit(true).run(&g).unwrap();
        assert!(run.iterations <= 2, "took {} iterations", run.iterations);
    }

    #[test]
    fn detect_convergence_matches_union_find_on_all_generators() {
        // The acceptance workload: every generator family, labelings equal
        // the union-find ground truth, generation count within the paper's
        // 1 + log n · (3 log n + 8) bound.
        let graphs: Vec<AdjacencyMatrix> = vec![
            generators::path(13),
            generators::ring(16),
            generators::star(11),
            generators::complete(12),
            generators::empty(9),
            generators::gnp(20, 0.15, 2),
            generators::gnp(20, 0.4, 3),
            generators::random_forest(17, 3, 1),
            generators::planted_components(18, 4, 0.6, 5).graph,
        ];
        for g in &graphs {
            let expected = union_find_components_dense(g);
            let run = HirschbergGca::new()
                .convergence(Convergence::Detect)
                .run(g)
                .unwrap();
            assert_eq!(run.labels.as_slice(), expected.as_slice());
            assert!(
                run.generations <= total_generations(g.n()),
                "detect exceeded the fixed schedule on n = {}",
                g.n()
            );
        }
    }

    #[test]
    fn detect_convergence_saves_generations_on_star() {
        // A star's pointer chains have depth 1: one jump reaches the fixed
        // point, the next detects it, the rest of the log n schedule is
        // skipped.
        let g = generators::star(16);
        let fixed = HirschbergGca::new().run(&g).unwrap();
        let detect = HirschbergGca::new()
            .convergence(Convergence::Detect)
            .run(&g)
            .unwrap();
        assert_eq!(fixed.labels, detect.labels);
        assert!(
            detect.generations < fixed.generations,
            "detect: {} vs fixed: {}",
            detect.generations,
            fixed.generations
        );
    }

    #[test]
    fn detect_convergence_composes_with_early_exit() {
        for seed in 0..4 {
            let g = generators::gnp(15, 0.25, seed);
            let expected = union_find_components_dense(&g);
            let run = HirschbergGca::new()
                .convergence(Convergence::Detect)
                .early_exit(true)
                .run(&g)
                .unwrap();
            assert_eq!(run.labels.as_slice(), expected.as_slice());
        }
    }

    #[test]
    fn detect_convergence_skips_metrics_of_skipped_generations() {
        let g = generators::star(16);
        let run = HirschbergGca::new()
            .convergence(Convergence::Detect)
            .run(&g)
            .unwrap();
        // Every executed generation still records exactly one metrics entry.
        assert_eq!(run.metrics.generations() as u64, run.generations);
    }

    #[test]
    fn parallel_backend_matches_sequential() {
        for seed in 0..3 {
            let g = generators::gnp(19, 0.15, seed);
            let seq = HirschbergGca::new().run(&g).unwrap();
            let par = HirschbergGca::new()
                .with_engine(Engine::parallel())
                .run(&g)
                .unwrap();
            assert_eq!(seq.labels, par.labels);
            assert_eq!(seq.generations, par.generations);
        }
    }

    #[test]
    fn machine_stepwise_equals_runner() {
        let g = generators::gnp(12, 0.2, 3);
        let mut m = Machine::new(&g).unwrap();
        m.init().unwrap();
        for _ in 0..ceil_log2(12) {
            m.run_iteration().unwrap();
        }
        let run = HirschbergGca::new().run(&g).unwrap();
        assert_eq!(m.labels().unwrap(), run.labels);
        assert_eq!(m.generations(), run.generations);
    }

    #[test]
    #[should_panic(expected = "already initialized")]
    fn double_init_panics() {
        let g = generators::empty(2);
        let mut m = Machine::new(&g).unwrap();
        m.init().unwrap();
        m.init().unwrap();
    }

    #[test]
    #[should_panic(expected = "call init()")]
    fn iterate_before_init_panics() {
        let g = generators::empty(2);
        let mut m = Machine::new(&g).unwrap();
        let _ = m.run_iteration();
    }

    #[test]
    fn metrics_recorded_per_generation() {
        let g = generators::gnp(8, 0.4, 5);
        let run = HirschbergGca::new().run(&g).unwrap();
        assert_eq!(run.metrics.generations() as u64, run.generations);
        assert!(run.max_congestion() >= 1);
    }

    #[test]
    fn checkpoint_and_resume() {
        let g = generators::gnp(14, 0.2, 8);
        let reference = HirschbergGca::new().run(&g).unwrap();

        // Run one iteration, checkpoint, resume in a fresh machine.
        let mut first = Machine::new(&g).unwrap();
        first.init().unwrap();
        first.run_iteration().unwrap();
        let snap = first.snapshot();

        let mut resumed = Machine::new(&g).unwrap();
        resumed.restore(&snap).unwrap();
        for _ in 1..ceil_log2(14) {
            resumed.run_iteration().unwrap();
        }
        assert_eq!(resumed.labels().unwrap(), reference.labels);
    }

    #[test]
    fn checkpoint_survives_serialization() {
        let g = generators::ring(9);
        let mut m = Machine::new(&g).unwrap();
        m.init().unwrap();
        m.run_iteration().unwrap();
        let snap = m.snapshot();
        // The snapshot is plain data: clone-equivalence stands in for a
        // serde round trip here (the JSON round trip is tested in the
        // engine crate; HCell's serde derive is exercised by it).
        let copied = snap.clone();
        let mut restored = Machine::new(&g).unwrap();
        restored.restore(&copied).unwrap();
        assert_eq!(restored.labels_raw(), m.labels_raw());
    }

    #[test]
    fn restore_rejects_wrong_shape() {
        let g9 = generators::ring(9);
        let g8 = generators::ring(8);
        let m9 = Machine::new(&g9).unwrap();
        let snap = m9.snapshot();
        let mut m8 = Machine::new(&g8).unwrap();
        assert!(m8.restore(&snap).is_err());
    }

    #[test]
    fn convenience_function() {
        let g = generators::path(6);
        let l = connected_components(&g).unwrap();
        assert_eq!(l.as_slice(), &[0, 0, 0, 0, 0, 0]);
    }

    /// SWAR row-partitioned over `workers` chunks (`0` = auto).
    fn swar_par(workers: usize) -> ExecPath {
        ExecPath::FusedSwar(crate::FusedSwar {
            parallel: Some(crate::FusedParallel::with_workers(workers)),
        })
    }

    /// A counting engine whose zero parallel threshold makes every
    /// generation of a partitioned path split, however small the field.
    fn eager_par_engine() -> Engine {
        Engine::sequential().with_min_parallel_cells(0)
    }

    fn fused_test_corpus() -> Vec<AdjacencyMatrix> {
        vec![
            generators::empty(1),
            generators::empty(5),
            generators::path(7),
            generators::ring(16),
            generators::star(9),
            generators::complete(8),
            generators::gnp(20, 0.15, 2),
            generators::gnp(13, 0.45, 11),
            generators::random_forest(18, 4, 3),
            generators::planted_components(15, 3, 0.7, 1).graph,
        ]
    }

    #[test]
    fn fused_matches_generic_labels_and_metrics() {
        for g in &fused_test_corpus() {
            let generic = HirschbergGca::new().run(g).unwrap();
            let fused = HirschbergGca::new().exec(ExecPath::Fused).run(g).unwrap();
            assert_eq!(fused.labels, generic.labels, "labels diverge on {g:?}");
            assert_eq!(fused.generations, generic.generations);
            assert_eq!(
                fused.metrics.entries(),
                generic.metrics.entries(),
                "metrics diverge on {g:?}"
            );
        }
    }

    #[test]
    fn fused_matches_generic_under_detect() {
        for g in &fused_test_corpus() {
            let generic = HirschbergGca::new()
                .convergence(Convergence::Detect)
                .run(g)
                .unwrap();
            let fused = HirschbergGca::new()
                .convergence(Convergence::Detect)
                .exec(ExecPath::Fused)
                .run(g)
                .unwrap();
            assert_eq!(fused.labels, generic.labels, "labels diverge on {g:?}");
            assert_eq!(fused.generations, generic.generations, "detect skipped differently");
            assert_eq!(fused.metrics.entries(), generic.metrics.entries());
        }
    }

    #[test]
    fn fused_stepwise_reports_match_generic() {
        // The single-step API (with full reports) must agree counter by
        // counter, not just via the metrics log.
        let g = generators::gnp(11, 0.3, 4);
        let mut a = Machine::new(&g).unwrap();
        let mut b = Machine::new(&g).unwrap().with_exec(ExecPath::Fused);
        let ra = a.init().unwrap();
        let rb = b.init().unwrap();
        assert_eq!(ra.ctx, rb.ctx);
        for _ in 0..ceil_log2(11) {
            for (gen, sub) in iteration_schedule(11) {
                let ra = a.step(gen, sub).unwrap();
                let rb = b.step(gen, sub).unwrap();
                assert_eq!(ra.ctx, rb.ctx);
                assert_eq!(ra.active_cells, rb.active_cells, "{gen:?}/{sub}");
                assert_eq!(ra.total_reads, rb.total_reads, "{gen:?}/{sub}");
                assert_eq!(ra.changed_cells, rb.changed_cells, "{gen:?}/{sub}");
                assert_eq!(ra.congestion, rb.congestion, "{gen:?}/{sub}");
            }
        }
        assert_eq!(a.labels().unwrap(), b.labels().unwrap());
    }

    #[test]
    fn fused_with_instrumentation_off_still_labels_correctly() {
        for g in &fused_test_corpus() {
            let expected = union_find_components_dense(g);
            let run = HirschbergGca::new()
                .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Off))
                .exec(ExecPath::Fused)
                .run(g)
                .unwrap();
            assert_eq!(run.labels.as_slice(), expected.as_slice());
            assert_eq!(run.metrics.generations(), 0);
        }
    }

    #[test]
    fn fused_trace_falls_back_to_generic() {
        let g = generators::gnp(9, 0.3, 6);
        let m = Machine::new(&g).unwrap().with_exec(ExecPath::Fused);
        assert!(m.fused_active(), "Counts instrumentation stays fused");
        let mut traced = Machine::with_engine(
            &g,
            Engine::sequential().with_instrumentation(Instrumentation::Trace),
        )
        .unwrap()
        .with_exec(ExecPath::Fused);
        assert!(!traced.fused_active(), "Trace falls back to generic");
        let rep = traced.init().unwrap();
        // The generic evaluator materialized per-cell accesses.
        assert!(rep.accesses.is_some());
    }

    #[test]
    fn fused_early_exit_composes() {
        for seed in 0..4 {
            let g = generators::gnp(15, 0.25, seed);
            let expected = union_find_components_dense(&g);
            let run = HirschbergGca::new()
                .exec(ExecPath::Fused)
                .convergence(Convergence::Detect)
                .early_exit(true)
                .run(&g)
                .unwrap();
            assert_eq!(run.labels.as_slice(), expected.as_slice());
        }
    }

    #[test]
    fn validate_stays_fused_and_runs_clean() {
        // The replay harness must be armed (Validate does NOT fall back to
        // the generic path) and a correct kernel set must pass it with
        // labels and metrics identical to a plain Counts run.
        for g in &fused_test_corpus() {
            let m = Machine::with_engine(
                g,
                Engine::sequential().with_instrumentation(Instrumentation::Validate),
            )
            .unwrap()
            .with_exec(ExecPath::Fused);
            assert!(m.fused_active(), "Validate must stay fused");
            let reference = HirschbergGca::new().run(g).unwrap();
            let validated = HirschbergGca::new()
                .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Validate))
                .exec(ExecPath::Fused)
                .run(g)
                .unwrap();
            assert_eq!(validated.labels, reference.labels, "on {g:?}");
            assert_eq!(validated.generations, reference.generations);
            assert_eq!(validated.metrics.entries(), reference.metrics.entries());
        }
    }

    #[test]
    fn validate_generic_path_runs_clean() {
        // The sanitizer on the generic path: HirschbergRule's domain hints
        // are honest, so a Validate run must succeed with Counts metrics.
        let g = generators::gnp(16, 0.3, 9);
        let reference = HirschbergGca::new().run(&g).unwrap();
        let validated = HirschbergGca::new()
            .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Validate))
            .run(&g)
            .unwrap();
        assert_eq!(validated.labels, reference.labels);
        assert_eq!(validated.metrics.entries(), reference.metrics.entries());
    }

    #[test]
    fn seeded_kernel_fault_is_caught_by_replay() {
        let g = generators::gnp(12, 0.3, 5);
        let mut m = Machine::with_engine(
            &g,
            Engine::sequential().with_instrumentation(Instrumentation::Validate),
        )
        .unwrap()
        .with_exec(ExecPath::Fused);
        m.init().unwrap();
        let target = 3; // a square-field cell every iteration writes
        m.set_fault_plan(Some(FaultPlan::new(FaultKind::BitFlip { bit: 0 }, 1, target)));
        let err = m.run_iteration().unwrap_err();
        match err {
            GcaError::KernelDivergence {
                cell,
                generation,
                phase,
            } => {
                assert_eq!(cell, target);
                assert_eq!(generation, 1, "fault seeded on the first post-init generation");
                assert_eq!(phase, Gen::BroadcastC.number());
            }
            other => panic!("expected KernelDivergence, got {other:?}"),
        }
    }

    #[test]
    fn dup_row_off_a_broadcast_expires_unobserved() {
        // Generation 2 (FilterNeighbors) has no counting broadcast to
        // duplicate a row in: the fault must not linger into generation
        // 5's broadcast.
        let g = generators::gnp(12, 0.3, 5);
        let engine = eager_par_engine().with_instrumentation(Instrumentation::Validate);
        let mut m = Machine::with_engine(&g, engine).unwrap().with_exec(swar_par(2));
        m.set_fault_plan(Some(FaultPlan::new(FaultKind::DuplicatedChunkRow, 2, 0)));
        m.init().unwrap();
        m.run_iteration().unwrap();
    }

    #[test]
    fn validate_detect_convergence_matches_generic() {
        for seed in 0..3 {
            let g = generators::gnp(14, 0.25, seed);
            let generic = HirschbergGca::new()
                .convergence(Convergence::Detect)
                .run(&g)
                .unwrap();
            let validated = HirschbergGca::new()
                .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Validate))
                .convergence(Convergence::Detect)
                .exec(ExecPath::Fused)
                .run(&g)
                .unwrap();
            assert_eq!(validated.labels, generic.labels);
            assert_eq!(validated.generations, generic.generations);
            assert_eq!(validated.metrics.entries(), generic.metrics.entries());
        }
    }

    #[test]
    fn swar_parallel_stepwise_reports_match_fused() {
        let g = generators::gnp(11, 0.3, 4);
        let mut a = Machine::new(&g).unwrap().with_exec(ExecPath::Fused);
        let mut b = Machine::with_engine(&g, eager_par_engine())
            .unwrap()
            .with_exec(swar_par(3));
        a.init().unwrap();
        let rb = b.init().unwrap();
        assert_eq!(rb.workers, 3, "init must split 12 rows across 3 chunks");
        for _ in 0..ceil_log2(11) {
            for (gen, sub) in iteration_schedule(11) {
                let ra = a.step(gen, sub).unwrap();
                let rb = b.step(gen, sub).unwrap();
                assert_eq!(ra.active_cells, rb.active_cells, "{gen:?}/{sub}");
                assert_eq!(ra.total_reads, rb.total_reads, "{gen:?}/{sub}");
                assert_eq!(ra.changed_cells, rb.changed_cells, "{gen:?}/{sub}");
                assert_eq!(ra.congestion, rb.congestion, "{gen:?}/{sub}");
                assert_eq!(ra.workers, 1, "sequential fused reports one worker");
            }
        }
        assert_eq!(a.labels().unwrap(), b.labels().unwrap());
    }

    #[test]
    fn swar_parallel_auto_threshold_falls_back_on_small_fields() {
        // Default threshold (engine tunable, 16 Ki cells): an n=12 field
        // never parallelizes, and the report says so.
        let g = generators::gnp(12, 0.3, 7);
        let expected = union_find_components_dense(&g);
        let mut m = Machine::new(&g).unwrap().with_exec(swar_par(4));
        let rep = m.init().unwrap();
        assert_eq!(rep.workers, 1, "below threshold must fall back");
        for _ in 0..ceil_log2(12) {
            m.run_iteration().unwrap();
        }
        assert_eq!(m.labels().unwrap().as_slice(), expected.as_slice());
    }

    #[test]
    fn swar_matches_generic_and_fused_labels_and_metrics() {
        for g in &fused_test_corpus() {
            let generic = HirschbergGca::new().run(g).unwrap();
            let fused = HirschbergGca::new().exec(ExecPath::Fused).run(g).unwrap();
            let swar = HirschbergGca::new()
                .exec(ExecPath::fused_swar())
                .run(g)
                .unwrap();
            assert_eq!(swar.labels, generic.labels, "labels diverge on {g:?}");
            assert_eq!(swar.generations, generic.generations, "on {g:?}");
            assert_eq!(
                swar.metrics.entries(),
                generic.metrics.entries(),
                "metrics diverge vs generic on {g:?}"
            );
            assert_eq!(
                swar.metrics.entries(),
                fused.metrics.entries(),
                "metrics diverge vs fused on {g:?}"
            );
        }
    }

    #[test]
    fn swar_matches_generic_under_detect() {
        for g in &fused_test_corpus() {
            let generic = HirschbergGca::new()
                .convergence(Convergence::Detect)
                .run(g)
                .unwrap();
            let swar = HirschbergGca::new()
                .convergence(Convergence::Detect)
                .exec(ExecPath::fused_swar())
                .run(g)
                .unwrap();
            assert_eq!(swar.labels, generic.labels, "labels diverge on {g:?}");
            assert_eq!(swar.generations, generic.generations, "detect skipped differently");
            assert_eq!(swar.metrics.entries(), generic.metrics.entries());
        }
    }

    #[test]
    fn swar_stepwise_reports_match_fused() {
        // Word-at-a-time kernel bodies must be invisible in every counter,
        // sub-generation by sub-generation — including multi-word rows
        // (n = 70 spans two adjacency words).
        let g = generators::gnp(70, 0.08, 21);
        let mut a = Machine::new(&g).unwrap().with_exec(ExecPath::Fused);
        let mut b = Machine::new(&g).unwrap().with_exec(ExecPath::fused_swar());
        a.init().unwrap();
        b.init().unwrap();
        for _ in 0..ceil_log2(70) {
            for (gen, sub) in iteration_schedule(70) {
                let ra = a.step(gen, sub).unwrap();
                let rb = b.step(gen, sub).unwrap();
                assert_eq!(ra.active_cells, rb.active_cells, "{gen:?}/{sub}");
                assert_eq!(ra.total_reads, rb.total_reads, "{gen:?}/{sub}");
                assert_eq!(ra.changed_cells, rb.changed_cells, "{gen:?}/{sub}");
                assert_eq!(ra.congestion, rb.congestion, "{gen:?}/{sub}");
            }
        }
        assert_eq!(a.labels().unwrap(), b.labels().unwrap());
    }

    #[test]
    fn swar_with_instrumentation_off_still_labels_correctly() {
        for g in &fused_test_corpus() {
            let expected = union_find_components_dense(g);
            let run = HirschbergGca::new()
                .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Off))
                .exec(ExecPath::fused_swar())
                .run(g)
                .unwrap();
            assert_eq!(run.labels.as_slice(), expected.as_slice());
            assert_eq!(run.metrics.generations(), 0);
        }
    }

    #[test]
    fn validate_stays_fused_swar_and_runs_clean() {
        let engine = eager_par_engine().with_instrumentation(Instrumentation::Validate);
        for exec in [ExecPath::fused_swar(), swar_par(2)] {
            for g in &fused_test_corpus() {
                let m = Machine::with_engine(g, engine.clone())
                    .unwrap()
                    .with_exec(exec);
                assert!(m.fused_active(), "Validate must stay fused-swar");
                let reference = HirschbergGca::new().run(g).unwrap();
                let validated = HirschbergGca::new()
                    .with_engine(engine.clone())
                    .exec(exec)
                    .run(g)
                    .unwrap();
                assert_eq!(validated.labels, reference.labels, "{exec:?} on {g:?}");
                assert_eq!(validated.generations, reference.generations);
                assert_eq!(validated.metrics.entries(), reference.metrics.entries());
            }
        }
    }

    #[test]
    fn swar_composes_with_parallel_chunking() {
        // SWAR inside each row chunk: the parallel driver partitions rows,
        // each chunk runs the word-parallel bodies. A zero threshold forces
        // the partitioned drivers even on tiny corpus graphs; workers 0
        // resolves to the hardware thread count (which may legitimately be
        // 1 → sequential fallback).
        for workers in [0usize, 2, 3, 7] {
            for g in &fused_test_corpus() {
                let fused = HirschbergGca::new().exec(ExecPath::Fused).run(g).unwrap();
                let par = HirschbergGca::new()
                    .with_engine(eager_par_engine())
                    .exec(swar_par(workers))
                    .run(g)
                    .unwrap();
                assert_eq!(par.labels, fused.labels, "workers={workers} on {g:?}");
                assert_eq!(par.generations, fused.generations, "workers={workers}");
                assert_eq!(
                    par.metrics.entries(),
                    fused.metrics.entries(),
                    "metrics diverge at workers={workers} on {g:?}"
                );
            }
        }
    }

    #[test]
    fn swar_composes_with_detect_and_early_exit() {
        for exec in [ExecPath::fused_swar(), swar_par(2)] {
            for seed in 0..4 {
                let g = generators::gnp(15, 0.25, seed);
                let expected = union_find_components_dense(&g);
                let run = HirschbergGca::new()
                    .with_engine(eager_par_engine())
                    .exec(exec)
                    .convergence(Convergence::Detect)
                    .early_exit(true)
                    .run(&g)
                    .unwrap();
                assert_eq!(run.labels.as_slice(), expected.as_slice(), "{exec:?}");
            }
        }
    }

    #[test]
    fn swar_structural_schedule_changes_nothing() {
        // Installing the structural schedule explicitly is a no-op: it keeps
        // every sub-generation live, so generations and metrics stay
        // bit-identical to the un-scheduled run.
        let g = generators::gnp(19, 0.2, 8);
        let plain = HirschbergGca::new().exec(ExecPath::fused_swar()).run(&g).unwrap();
        let scheduled = HirschbergGca::new()
            .exec(ExecPath::fused_swar())
            .with_swar_schedule(SwarSchedule::structural(19))
            .run(&g)
            .unwrap();
        assert_eq!(scheduled.labels, plain.labels);
        assert_eq!(scheduled.generations, plain.generations);
        assert_eq!(scheduled.metrics.entries(), plain.metrics.entries());
    }

    #[test]
    fn swar_schedule_for_wrong_size_falls_back_to_structural() {
        let g = generators::gnp(13, 0.3, 3);
        let plain = HirschbergGca::new().exec(ExecPath::fused_swar()).run(&g).unwrap();
        // Derived for n = 64, installed on an n = 13 machine: ignored.
        let mismatched = HirschbergGca::new()
            .exec(ExecPath::fused_swar())
            .with_swar_schedule(SwarSchedule::from_bounds(64, 1, 1, 1))
            .run(&g)
            .unwrap();
        assert_eq!(mismatched.labels, plain.labels);
        assert_eq!(mismatched.generations, plain.generations);
        assert_eq!(mismatched.metrics.entries(), plain.metrics.entries());
    }

    #[test]
    fn swar_short_schedule_skips_subgenerations() {
        // A deliberately truncated schedule must actually skip generations
        // (the machine's generation counter stays behind the structural
        // count) while the dropped tree-reduction tail is harmless on a
        // graph whose rows converge after one halving step.
        let n = 8;
        let g = generators::empty(n);
        let structural = HirschbergGca::new()
            .exec(ExecPath::fused_swar())
            .run(&g)
            .unwrap();
        let clamped = HirschbergGca::new()
            .exec(ExecPath::fused_swar())
            .with_swar_schedule(SwarSchedule::from_bounds(n, 1, 1, ceil_log2(n)))
            .run(&g)
            .unwrap();
        // ceil_log2(8) = 3 outer iterations, each dropping 2 MinReduce and
        // 2 MinReduceMembers sub-generations.
        assert_eq!(clamped.generations + 12, structural.generations);
        assert_eq!(clamped.labels, structural.labels);
        let expected = union_find_components_dense(&g);
        assert_eq!(clamped.labels.as_slice(), expected.as_slice());
    }

    #[test]
    fn swar_snapshot_restore_roundtrip_agrees_with_cellfield() {
        // The serde snapshot path captures the authoritative CellField, not
        // the SoA mirror: a snapshot taken mid-SWAR-run must restore into
        // both a fresh SWAR machine and a generic machine, and all three
        // must finish in the same state.
        let g = generators::gnp(20, 0.2, 6);
        let mut swar = Machine::new(&g).unwrap().with_exec(ExecPath::fused_swar());
        swar.init().unwrap();
        swar.run_iteration().unwrap();
        let snap = swar.snapshot();
        let mut resumed_swar = Machine::new(&g).unwrap().with_exec(ExecPath::fused_swar());
        resumed_swar.restore(&snap).unwrap();
        let mut resumed_generic = Machine::new(&g).unwrap();
        resumed_generic.restore(&snap).unwrap();
        for _ in 1..ceil_log2(20) {
            swar.run_iteration().unwrap();
            resumed_swar.run_iteration().unwrap();
            resumed_generic.run_iteration().unwrap();
        }
        assert_eq!(swar.labels().unwrap(), resumed_swar.labels().unwrap());
        assert_eq!(swar.labels().unwrap(), resumed_generic.labels().unwrap());
        assert_eq!(swar.field().states(), resumed_generic.field().states());
    }

    #[test]
    fn swar_reset_with_reloads_adjacency_plane() {
        // reset_with refills the AoS field in place; the row-aligned packed
        // adjacency plane must be rebuilt for the new graph on the next
        // fused step (stale bits would corrupt FilterNeighbors).
        let g1 = generators::gnp(12, 0.3, 1);
        let g2 = generators::ring(12);
        let mut m = Machine::new(&g1).unwrap().with_exec(ExecPath::fused_swar());
        m.init().unwrap();
        for _ in 0..ceil_log2(12) {
            m.run_iteration().unwrap();
        }
        m.reset_with(&g2).unwrap();
        m.init().unwrap();
        for _ in 0..ceil_log2(12) {
            m.run_iteration().unwrap();
        }
        let expected = union_find_components_dense(&g2);
        assert_eq!(m.labels().unwrap().as_slice(), expected.as_slice());
    }

    #[test]
    fn swar_survives_generic_steps_mid_run() {
        // Flipping the exec path between iterations exercises the
        // `soa_valid` protocol: generic steps dirty the AoS field behind
        // the SoA mirror, and the next SWAR step must reload both planes.
        let g = generators::gnp(14, 0.25, 9);
        let mut m = Machine::new(&g).unwrap();
        let mut reference = Machine::new(&g).unwrap();
        m = m.with_exec(ExecPath::fused_swar());
        m.init().unwrap();
        reference.init().unwrap();
        for it in 0..ceil_log2(14) {
            m = m.with_exec(if it % 2 == 0 {
                ExecPath::fused_swar()
            } else {
                ExecPath::Generic
            });
            for (gen, sub) in iteration_schedule(14) {
                let ra = m.step(gen, sub).unwrap();
                let rb = reference.step(gen, sub).unwrap();
                assert_eq!(ra.active_cells, rb.active_cells, "{gen:?}/{sub} at iter {it}");
                assert_eq!(ra.changed_cells, rb.changed_cells, "{gen:?}/{sub} at iter {it}");
                assert_eq!(ra.total_reads, rb.total_reads, "{gen:?}/{sub} at iter {it}");
            }
        }
        assert_eq!(m.labels().unwrap(), reference.labels().unwrap());
        assert_eq!(m.field().states(), reference.field().states());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "symbolic-activity schedule skipped an active sub-generation")]
    fn swar_validate_cross_checks_short_schedule() {
        // Under Validate a schedule that skips an in-schedule (and thus
        // provably active — active = n · per_row > 0 is data-independent)
        // sub-generation must trip the dynamic cross-check.
        let g = generators::gnp(13, 0.3, 2);
        let _ = HirschbergGca::new()
            .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Validate))
            .exec(ExecPath::fused_swar())
            .with_swar_schedule(SwarSchedule::from_bounds(13, 1, 1, ceil_log2(13)))
            .run(&g);
    }

    #[test]
    fn reset_with_reuses_machine() {
        let g1 = generators::gnp(12, 0.3, 1);
        let g2 = generators::ring(12);
        let mut m = Machine::new(&g1).unwrap().with_exec(ExecPath::Fused);
        m.init().unwrap();
        for _ in 0..ceil_log2(12) {
            m.run_iteration().unwrap();
        }
        m.reset_with(&g2).unwrap();
        assert_eq!(m.generations(), 0);
        assert_eq!(m.metrics().generations(), 0);
        m.init().unwrap();
        for _ in 0..ceil_log2(12) {
            m.run_iteration().unwrap();
        }
        let expected = union_find_components_dense(&g2);
        assert_eq!(m.labels().unwrap().as_slice(), expected.as_slice());
    }

    #[test]
    fn reset_with_rejects_wrong_size() {
        let mut m = Machine::new(&generators::ring(8)).unwrap();
        assert!(m.reset_with(&generators::ring(9)).is_err());
    }

    #[test]
    fn labels_into_matches_labels_raw() {
        let g = generators::gnp(10, 0.3, 2);
        let mut m = Machine::new(&g).unwrap();
        m.init().unwrap();
        m.run_iteration().unwrap();
        let mut out = vec![99; 3];
        m.labels_into(&mut out);
        assert_eq!(out, m.labels_raw());
        assert_eq!(out.len(), 10);
    }
}
