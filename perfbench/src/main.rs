//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

use perfbench::report::{provenance, result_line, Outcome};
use perfbench::workload::{Workload, NAMES};
use perfbench::{e2e, traced};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {NAMES:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn print(outcome: &Outcome, stamp: &str) {
    println!("provenance: {stamp}");
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{:<32} {:>16.9} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!("{}", result_line(outcome));
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let result = if args.trace {
        traced::run(&w, args.seed).and_then(|(outcome, tracer)| {
            let dir = std::path::Path::new("target").join("perfbench");
            let path = dir.join(format!("spans-{}-seed{}.json", w.name, args.seed));
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, tracer.to_json()))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            let mut outcome = outcome;
            outcome.lines.push(format!(
                "spans: {} ({} spans)",
                path.display(),
                tracer.spans().len()
            ));
            Ok(outcome)
        })
    } else {
        e2e::run(&w, args.seed, args.seconds)
    };
    match result {
        Ok(outcome) => {
            let stamp = provenance(w.name, args.seed, outcome.attempted, args.trace);
            print(&outcome, &stamp);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
