//! Metric values, summary statistics, provenance and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Stable name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Human-readable context: base of a ratio, sample count, caveats.
    pub note: String,
}

impl Metric {
    /// A metric with a note.
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Default)]
pub struct Outcome {
    /// Items attempted.
    pub attempted: usize,
    /// Items that errored or failed a check.
    pub failed: usize,
    /// Every metric of the run.
    pub metrics: Vec<Metric>,
    /// Free-form report lines printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Counts one attempted item; a failed check is reported, not fatal.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.lines.push(format!("{what} failed: {e}"));
        }
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated quantile `q ∈ [0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// "median X (p95 Y), N samples": the highest percentile reported is the
/// one with at least ten samples beyond it.
pub fn describe(values: &[f64], unit: &str) -> String {
    let mut s = format!("median {:.6} {unit}", median(values));
    let n = values.len();
    if n >= 20 {
        let pct = ((1.0 - 10.0 / n as f64) * 100.0).floor();
        let _ = write!(s, ", p{pct:.0} {:.6} {unit}", quantile(values, pct / 100.0));
    }
    let _ = write!(s, ", {n} samples");
    s
}

/// A `kB` field of `/proc/self/status`, in MB.
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Commit and dirty flag of the checkout, read from `.git` in the working
/// directory only; `unknown` outside a git checkout.
fn commit() -> (String, String) {
    let unknown = || ("unknown".to_string(), "unknown".to_string());
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return unknown();
    };
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .map(|h| h.trim().to_string()),
        None => Some(head.to_string()),
    };
    let Some(hash) = hash else {
        return unknown();
    };
    let dirty = std::process::Command::new("git")
        .args([
            "--git-dir=.git",
            "--work-tree=.",
            "status",
            "--porcelain",
            "--untracked-files=no",
        ])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            (!o.stdout.is_empty()).to_string()
        });
    (hash, dirty)
}

/// The CPU model from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance stamp printed with every result.
pub fn provenance(workload: &str, seed: u64, items: usize, trace: bool) -> String {
    let (commit, dirty) = commit();
    format!(
        "{{\"commit\": \"{commit}\", \"dirty\": \"{dirty}\", \"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"workload\": \"{workload}\", \"seed\": {seed}, \"items\": {items}, \"trace\": {trace}}}",
        nproc(),
        cpu_model().replace('"', "'"),
        env!("PERFBENCH_RUSTC"),
    )
}

/// A JSON number; non-finite values become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
