//! The published results are the code's results: every experiment of
//! `rim_bench::experiments::EXPERIMENTS` must reproduce its committed
//! `results/<id>.csv` byte for byte. EXPERIMENTS.md cites those files, so
//! a change that moves a figure regenerates them with
//! `cargo run --release -p rim-bench --bin figures -- --csv results/`
//! and restates the prose.

use rim_bench::experiments::EXPERIMENTS;
use rim_bench::record::to_csv;
use std::path::Path;

#[test]
fn every_experiment_reproduces_its_committed_csv() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let file = |id: &str| format!("{}.csv", id.to_lowercase());
    let mut committed: Vec<String> = std::fs::read_dir(&results)
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".csv"))
        .collect();
    committed.sort();
    let mut expected: Vec<String> = EXPERIMENTS.iter().map(|ex| file(ex.id)).collect();
    expected.sort();
    assert_eq!(committed, expected, "results/ holds one CSV per experiment");

    let stale: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|ex| {
            let path = results.join(file(ex.id));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            to_csv(&(ex.run)()) != text
        })
        .map(|ex| ex.id)
        .collect();
    assert!(
        stale.is_empty(),
        "results/ differs from the code for {stale:?}; regenerate with \
         `figures --csv results/` and restate EXPERIMENTS.md"
    );
}
