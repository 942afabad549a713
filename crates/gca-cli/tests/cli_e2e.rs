//! End-to-end tests of the `gca-cc` binary: spawn the real executable and
//! check its output, exit codes and file handling.

use std::io::Write;
use std::process::{Command, Stdio};

fn gca_cc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gca-cc"))
}

#[test]
fn generated_workload_summary() {
    let out = gca_cc()
        .args(["ring:8", "--machine", "gca"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("graph: 8 nodes, 8 edges"), "{text}");
    assert!(text.contains("components: 1"), "{text}");
    assert!(text.contains("synchronous steps: 52"), "{text}"); // 1 + 3(9+8)
}

#[test]
fn all_machines_accept_the_same_input() {
    for machine in ["gca", "ncells", "lowcong", "twohand", "closure", "emu", "pram", "seq"] {
        let out = gca_cc()
            .args(["gnp:12:400:3", "--machine", machine, "--verify"])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "machine {machine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn json_output_parses() {
    let out = gca_cc()
        .args(["star:6", "--json", "--labels"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(v["components"], 1);
    assert_eq!(v["nodes"], 6);
    assert_eq!(v["labels"], serde_json::json!([0, 0, 0, 0, 0, 0]));
}

#[test]
fn reads_edge_list_from_stdin() {
    let mut child = gca_cc()
        .args(["-", "--labels"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"n 4\n0 1\n2 3\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("components: 2"), "{text}");
    assert!(text.contains("  1 0"), "{text}");
    assert!(text.contains("  3 2"), "{text}");
}

#[test]
fn reads_edge_list_from_file() {
    let dir = std::env::temp_dir().join("gca_cli_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.txt");
    std::fs::write(&path, "# test\nn 5\n0 4\n1 2\n").unwrap();
    let out = gca_cc()
        .args([path.to_str().unwrap(), "--machine", "pram"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("components: 3"), "{text}");
}

#[test]
fn bad_arguments_fail_with_usage() {
    let out = gca_cc().args(["--bogus"]).output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = gca_cc()
        .args(["/definitely/not/a/file.txt"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error:"), "{err}");
}

#[test]
fn malformed_edge_list_fails_cleanly() {
    let mut child = gca_cc()
        .args(["-"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"not an edge list\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
}

// Exit-code contract of the fault-injection/recovery flags:
//   0 — clean or recovered (with a report on stdout)
//   3 — recovery exhausted (every failure was detected; the policy's
//       budget ran out)
//   4 — undetected divergence (the fault escaped every detector and the
//       labels are wrong)
// `bitflip@27.5.0` lands mid-second-iteration on path:24 (23 generations
// per iteration, so generation 27 is iteration 2's filter window) — a
// site the differential replay detects under --validate.

#[test]
fn recovered_fault_exits_zero_with_report() {
    let out = gca_cc()
        .args([
            "path:24", "--exec", "fused-swar", "--validate", "--inject", "bitflip@27.5.0",
            "--recover", "retry:3", "--checkpoint-every", "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("recovered: 1 fault(s) detected"), "{text}");
    assert!(text.contains("differential-replay"), "{text}");
    assert!(text.contains("fault containment: labels match"), "{text}");
    assert!(text.contains("components: 1"), "{text}");
}

#[test]
fn exhausted_recovery_exits_three() {
    let out = gca_cc()
        .args([
            "path:24", "--exec", "fused-swar", "--validate", "--inject", "bitflip@27.5.0",
            "--recover", "fail",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("recovery exhausted"), "{text}");
}

#[test]
fn undetected_divergence_exits_four() {
    // Without the sanitizer, a label-cell flip on the last committed
    // generation (115 = total 116 minus init; cell 24 = row 1, column 0)
    // reaches the output unseen; only the exit cross-check catches it.
    let out = gca_cc()
        .args(["path:24", "--exec", "fused-swar", "--inject", "bitflip@115.24.0"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("DIVERGED"), "{text}");
}

#[test]
fn validate_turns_the_divergence_into_a_recovery() {
    // The other direction of the exit-4 test: the same fault with the
    // sanitizer on is detected, repaired, and exits 0.
    let out = gca_cc()
        .args([
            "path:24", "--exec", "fused-swar", "--validate", "--inject", "bitflip@115.24.0",
            "--recover", "retry:3",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("recovered"), "{text}");
}

#[test]
fn json_recovery_report_parses() {
    let out = gca_cc()
        .args([
            "path:24", "--json", "--exec", "fused-swar", "--validate", "--inject",
            "bitflip@27.5.0", "--recover", "degrade",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(v["recovery"]["outcome"], "recovered");
    assert_eq!(v["recovery"]["attempts"][0]["detector"], "differential-replay");
    assert_eq!(v["diverged"], false);
}

#[test]
fn fault_the_configuration_cannot_fire_exits_one() {
    // Generic has no occupancy plane; at path:24 the field (600 cells)
    // is below the parallel threshold, so two workers never partition.
    let cases: [(&[&str], &str); 2] = [
        (
            &["path:24", "--exec", "generic", "--validate", "--inject", "stale-occ"],
            "stale-occ",
        ),
        (
            &[
                "path:24", "--exec", "fused-swar", "--workers", "2", "--validate", "--inject",
                "dup-row",
            ],
            "dup-row",
        ),
    ];
    for (args, class) in cases {
        let out = gca_cc().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(&format!("--inject {class}: needs")), "{err}");
    }
}

#[test]
fn partitioned_dup_row_is_detected_and_recovered() {
    // n = 128 is the first size whose generation 1 (n(n+1) = 16 512
    // cells) clears the parallel threshold, so the duplicated chunk row
    // fires inside a real two-worker partition.
    let out = gca_cc()
        .args([
            "gnp:128:100", "--exec", "fused-swar", "--workers", "2", "--validate", "--inject",
            "dup-row", "--recover", "retry:3",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("recovered: 1 fault(s) detected"), "{text}");
    assert!(text.contains("differential-replay"), "{text}");
    assert!(text.contains("fault containment: labels match"), "{text}");
}

#[test]
fn retired_fused_exec_exits_one() {
    let out = gca_cc()
        .args(["path:8", "--exec", "fused"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown exec path 'fused' (expected generic|fused-swar)"), "{err}");
}

#[test]
fn engine_knobs_on_other_machines_exit_one() {
    // Only the gca machine honors the engine knobs; elsewhere they are
    // rejected instead of being silently dropped.
    for machine in ["pram", "ncells"] {
        for knob in [
            &["--exec", "fused-swar"][..],
            &["--backend", "par"],
            &["--convergence", "detect"],
            &["--validate"],
            &["--invariants"],
        ] {
            let mut args = vec!["gnp:8:300", "--machine", machine];
            args.extend_from_slice(knob);
            let out = gca_cc().args(&args).output().expect("spawn");
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
            let err = String::from_utf8(out.stderr).unwrap();
            assert!(err.contains(&format!("{} requires --machine gca", knob[0])), "{err}");
        }
    }
}

#[test]
fn bad_fault_spec_fails_with_usage() {
    let out = gca_cc()
        .args(["path:8", "--inject", "meltdown@1"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("fault class"), "{err}");
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = gca_cc().args(["--help"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("--machine"));
}
