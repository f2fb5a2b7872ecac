//! End-to-end coverage of the `rim-xtask` command line: rule-name
//! validation for `--rule`/`--explain`, the `--rule` filter on a clean
//! workspace, and the `lint --profile` per-rule timing report.

use std::path::Path;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rim-xtask"))
}

fn workspace_root() -> std::path::PathBuf {
    rim_xtask::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the crate dir")
}

#[test]
fn explain_prints_the_registered_explanation() {
    let out = bin().args(["lint", "--explain", "panic-freedom"]).output().expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("panic-freedom:"), "{text}");
    assert!(text.contains("`// rim-lint: root` fn"), "{text}");
}

#[test]
fn unknown_rule_names_are_rejected_up_front() {
    for args in [["lint", "--rule", "no-such-rule"], ["lint", "--explain", "panic_freedom"]] {
        let out = bin().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        // The error names the offender and lists the catalog.
        assert!(err.contains("unknown rule"), "{err}");
        assert!(err.contains("float-eq") && err.contains("dead-pub"), "{err}");
    }
}

#[test]
fn rule_filter_keeps_the_workspace_clean_run() {
    let out = bin()
        .args(["lint", "--rule", "panic-freedom", "--root"])
        .arg(workspace_root())
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("clean"), "{out:?}");
}

#[test]
fn lint_profile_reports_per_rule_wall_clock() {
    let out = bin()
        .args(["lint", "--profile", "--root"])
        .arg(workspace_root())
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("per-rule wall-clock"), "{err}");
    for span in [
        "lint.model_build",
        "lint.flow_analyze",
        "lint.rule.panic_freedom",
        "lint.rule.squared_distance_dataflow",
        "lint.rule.engine_determinism",
        "lint.token_rules",
    ] {
        assert!(err.contains(span), "missing span `{span}` in:\n{err}");
    }
    assert!(err.contains("ms"), "{err}");
    assert!(err.contains("clean"), "profiling must not change the verdict: {err}");
}
