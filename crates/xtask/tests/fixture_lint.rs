//! End-to-end lint run over the `tests/fixtures/mini` workspace: every
//! rule fires exactly where the fixture plants a violation, the pragma
//! suppresses, and the JSONL output matches the committed snapshot.

use std::path::Path;

fn fixture_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini")
}

#[test]
fn fixture_fires_every_rule_at_known_sites() {
    let diags = rim_xtask::run_lint(&fixture_root()).expect("fixture lint must run");
    let got: Vec<(&str, &str, u32)> = diags
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect();
    let want = [
        ("external-dependency", "Cargo.toml", 11),
        ("unused-dependency", "Cargo.toml", 11),
        ("forbid-unsafe", "crates/core/src/lib.rs", 1),
        ("dead-pub", "crates/core/src/lib.rs", 8),
        ("unknown-pragma-rule", "crates/core/src/lib.rs", 10),
        ("float-eq", "src/lib.rs", 5),
        ("squared-distance-mismatch", "src/lib.rs", 10),
        ("no-unwrap-in-lib", "src/lib.rs", 15),
        ("engine-determinism", "src/lib.rs", 32),
        ("power-domain-mismatch", "src/lib.rs", 37),
    ];
    assert_eq!(got, want, "full diagnostics: {diags:#?}");
}

#[test]
fn pragma_suppresses_the_annotated_comparison() {
    // src/lib.rs:21 has `x == 2.0` under a `// rim-lint: allow(float-eq)`
    // pragma; no diagnostic may point there.
    let diags = rim_xtask::run_lint(&fixture_root()).expect("fixture lint must run");
    assert!(
        !diags.iter().any(|d| d.file == "src/lib.rs" && d.line == 21),
        "pragma failed to suppress: {diags:#?}"
    );
}

#[test]
fn jsonl_output_matches_snapshot() {
    let diags = rim_xtask::run_lint(&fixture_root()).expect("fixture lint must run");
    let got: String = diags.iter().map(|d| d.jsonl() + "\n").collect();
    let snapshot_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini.snapshot.jsonl");
    let want = std::fs::read_to_string(&snapshot_path).expect("snapshot file must exist");
    assert_eq!(
        got, want,
        "JSONL output drifted from tests/fixtures/mini.snapshot.jsonl"
    );
}
