//! The workspace gates itself: linting the real repository must be
//! clean. Introducing an `f64 ==`, a panicking library path, or an
//! external dependency makes this test (and therefore `cargo test -q`)
//! fail.

use std::path::Path;

#[test]
fn real_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask always sits two levels below the workspace root");
    let diags = rim_xtask::run_lint(root).expect("lint must run on the real workspace");
    let rendered: Vec<String> = diags.iter().map(|d| d.human()).collect();
    assert!(
        diags.is_empty(),
        "workspace lint found {} diagnostic(s):\n{}",
        diags.len(),
        rendered.join("\n")
    );
}
