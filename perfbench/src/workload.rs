//! The three workloads and the calls that drive the library for them.
//!
//! Every call here goes through the library's public API exactly as
//! `HirschbergGca::run` does: build the machine (`Machine::new` or
//! `Machine::with_engine` plus its `with_*` calls), `init`,
//! `run_iterations(⌈log₂ n⌉)`, `labels`.

use crate::report::nproc;
use gca_engine::{Backend, Engine, GcaError, Instrumentation};
use gca_graphs::{AdjacencyMatrix, Labeling};
use gca_hirschberg::complexity::ceil_log2;
use gca_hirschberg::{
    BatchRunner, ExecPath, FusedParallel, FusedSwar, Gen, HirschbergGca, Machine, SwarSchedule,
};

/// Names of every workload, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["default-512", "counts-1024", "batch-128"];

/// Graphs per `BatchRunner::run` call on the batch workload.
pub const BATCH_SIZE: usize = 64;

/// How a workload feeds graphs to the library.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One machine per graph; an item is one graph.
    Single,
    /// `BatchRunner::run` over [`BATCH_SIZE`] graphs; an item is one call.
    Batch,
}

/// One benchmark configuration of the library.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Problem size of every graph.
    pub n: usize,
    /// Single graphs or batches.
    pub shape: Shape,
    /// Execution path of each machine.
    pub exec: ExecPath,
    /// Engine instrumentation of each machine.
    pub instrumentation: Instrumentation,
    /// Engine backend of each machine.
    pub backend: Backend,
    /// Whether setup installs `gca_analysis::swar_schedule(n)`, as
    /// `gca-cc --exec fused-swar` does.
    pub swar_schedule: bool,
    /// Whether setup is the bare `Machine::new` (the library default).
    pub library_default: bool,
    /// Threads the workload runs on.
    pub threads: usize,
}

impl Workload {
    /// The workload called `name`, sized for the hardware threads
    /// available.
    pub fn by_name(name: &str) -> Option<Workload> {
        let nproc = nproc();
        let fast = Workload {
            name: "",
            n: 0,
            shape: Shape::Single,
            exec: ExecPath::fused_swar(),
            instrumentation: Instrumentation::Counts,
            backend: Backend::Sequential,
            swar_schedule: true,
            library_default: false,
            threads: 1,
        };
        let w = match name {
            "default-512" => Workload {
                name: "default-512",
                n: 512,
                exec: ExecPath::Generic,
                swar_schedule: false,
                library_default: true,
                ..fast
            },
            "counts-1024" => Workload {
                name: "counts-1024",
                n: 1024,
                ..fast
            },
            "batch-128" => Workload {
                name: "batch-128",
                n: 128,
                shape: Shape::Batch,
                exec: ExecPath::Fused,
                instrumentation: Instrumentation::Off,
                swar_schedule: false,
                threads: nproc,
                ..fast
            },
            _ => return None,
        };
        Some(w)
    }

    /// Whether the machines account reads (Table-1 metrics).
    pub fn counting(&self) -> bool {
        !matches!(self.instrumentation, Instrumentation::Off)
    }

    /// The same configuration under another instrumentation level.
    pub fn with_instrumentation(self, instrumentation: Instrumentation) -> Workload {
        Workload {
            instrumentation,
            library_default: self.library_default && instrumentation == Instrumentation::Counts,
            ..self
        }
    }

    /// The same configuration on `workers` threads: the parallel engine
    /// backend on the generic path, row-partitioned SWAR kernels on the
    /// SWAR path, and graph-level workers on the batch workload.
    pub fn with_workers(self, workers: usize) -> Workload {
        let mut w = Workload {
            threads: workers,
            ..self
        };
        match (self.shape, self.exec) {
            (Shape::Batch, _) => {}
            (_, ExecPath::Generic) => {
                w.backend = if workers > 1 {
                    Backend::Parallel
                } else {
                    Backend::Sequential
                };
                w.library_default = self.library_default && workers == 1;
            }
            (_, ExecPath::FusedSwar(_)) => w.exec = swar_with_workers(workers),
            _ => {}
        }
        w
    }

    /// The engine every machine of this workload runs on.
    pub fn engine(&self) -> Engine {
        Engine::sequential()
            .with_backend(self.backend)
            .with_instrumentation(self.instrumentation)
    }

    /// The schedule setup installs, if any (`gca-cc`'s derivation).
    pub fn schedule(&self) -> Option<SwarSchedule> {
        self.swar_schedule
            .then(|| gca_analysis::swar_schedule(self.n))
    }

    /// Setup: builds the machine for `graph` with every `with_*` call.
    pub fn build(&self, graph: &AdjacencyMatrix) -> Result<Machine, GcaError> {
        if self.library_default {
            return Machine::new(graph);
        }
        let machine = Machine::with_engine(graph, self.engine())?.with_exec(self.exec);
        Ok(match self.schedule() {
            Some(schedule) => machine.with_swar_schedule(schedule),
            None => machine,
        })
    }

    /// The one-call API configured like [`Workload::build`].
    pub fn one_call(&self) -> HirschbergGca {
        if self.library_default {
            return HirschbergGca::new();
        }
        let gca = HirschbergGca::new()
            .with_engine(self.engine())
            .exec(self.exec);
        match self.schedule() {
            Some(schedule) => gca.with_swar_schedule(schedule),
            None => gca,
        }
    }

    /// The batch runner of this configuration: `BatchRunner::new()`
    /// defaults on the batch workload, the single-graph configuration on
    /// one graph-level worker otherwise.
    pub fn batch_runner(&self) -> BatchRunner {
        match self.shape {
            Shape::Batch if self.threads == nproc() => BatchRunner::new(),
            Shape::Batch => BatchRunner::new().workers(self.threads),
            Shape::Single => BatchRunner::new()
                .exec(self.exec)
                .instrumentation(self.instrumentation)
                .workers(1),
        }
    }

    /// Generations a complete run executes under the installed schedule.
    /// Equal to `total_generations(n)` under the structural schedule.
    pub fn expected_generations(&self) -> u64 {
        let schedule = self
            .schedule()
            .unwrap_or_else(|| SwarSchedule::structural(self.n));
        let per_iteration: u64 = Gen::ALL
            .iter()
            .skip(1)
            .map(|&g| u64::from(schedule.subgenerations(g)))
            .sum();
        1 + u64::from(ceil_log2(self.n)) * per_iteration
    }
}

/// The SWAR path, row-partitioned over `workers` when `workers > 1`.
fn swar_with_workers(workers: usize) -> ExecPath {
    ExecPath::FusedSwar(FusedSwar {
        parallel: (workers > 1).then(|| FusedParallel::with_workers(workers)),
    })
}

/// Labels and generation count of one solved graph.
pub struct Solved {
    /// Canonical labels.
    pub labels: Labeling,
    /// Generations executed, generation 0 included.
    pub generations: u64,
}

/// Solve: `init`, `run_iterations(⌈log₂ n⌉)`, `labels`.
pub fn solve(machine: &mut Machine) -> Result<Solved, GcaError> {
    machine.init()?;
    machine.run_iterations(u64::from(ceil_log2(machine.n())))?;
    Ok(Solved {
        labels: machine.labels()?,
        generations: machine.generations(),
    })
}
