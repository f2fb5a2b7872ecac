//! Tier-1 lint gate: `cargo test -q` from the workspace root fails if
//! `cargo run -p rim-xtask -- lint` would report anything. This is the
//! enforcement point for the project's numeric discipline (no exact
//! float equality, distance-level comparisons), hermeticity (no
//! external dependencies, ever), the panic-freedom and
//! concurrency-discipline obligations on the hot paths, and the
//! differential-testing policy: the `naive-oracle-retained` audit fails
//! the gate if any `O(n²)` reference oracle ever loses its test
//! callers.
//!
//! The gate also pins the call-graph layer itself: the graph must stay
//! populated (a degenerate parse would silently disable every
//! graph-driven rule), the registries of panic-free and determinism
//! roots keep their hot-path entries, and the one full lint run must
//! stay inside a wall-clock budget so the gate remains cheap enough to
//! run on every `cargo test`.

use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The binary's one full lint run: the rendered diagnostics and the
/// wall time of the run itself. Both gates below read it, so the
/// workspace is linted once however the test harness schedules them.
fn full_lint() -> &'static (Vec<String>, Duration) {
    static RUN: OnceLock<(Vec<String>, Duration)> = OnceLock::new();
    RUN.get_or_init(|| {
        let start = Instant::now();
        let diags = rim_xtask::run_lint(root()).expect("lint must run on the workspace");
        let elapsed = start.elapsed();
        (diags.iter().map(|d| d.human()).collect(), elapsed)
    })
}

#[test]
fn workspace_lint_is_clean() {
    let (rendered, _) = full_lint();
    assert!(
        rendered.is_empty(),
        "`cargo run -p rim-xtask -- lint` would report {} diagnostic(s):\n{}\n\
         fix the findings or annotate intentional sites with `// rim-lint: allow(<rule>)`",
        rendered.len(),
        rendered.join("\n")
    );
}

#[test]
fn lint_runtime_stays_within_budget() {
    // The whole point of an in-tree linter is that it rides along with
    // `cargo test`. Parsing every file, building the call graph, running
    // the expression-level dataflow passes, and running all rules must
    // stay comfortably interactive even in debug builds; 45s is over 20x
    // the current debug-profile cost, so this only trips on accidental
    // quadratic blowups, not on slow CI machines.
    let (_, elapsed) = full_lint();
    assert!(
        *elapsed < Duration::from_secs(45),
        "full lint took {elapsed:?}; the gate must stay cheap"
    );
}

#[test]
fn every_crate_is_a_default_member() {
    // `cargo test -q` from the root only tests `default-members`; a crate
    // missing from that list silently drops out of the Tier-1 gate.
    let manifest = std::fs::read_to_string(root().join("Cargo.toml")).expect("root manifest");
    let list = manifest
        .split_once("default-members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(list, _)| list)
        .expect("the root manifest sets `default-members`");
    let listed: Vec<&str> = list
        .lines()
        .map(|l| l.trim().trim_end_matches(',').trim_matches('"'))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert!(listed.contains(&"."), "the facade package must stay a default member");
    let mut crates: Vec<String> = std::fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .map(|e| format!("crates/{}", e.file_name().to_string_lossy()))
        .collect();
    crates.sort();
    assert!(crates.len() > 10, "only {} crates found", crates.len());
    for krate in &crates {
        assert!(
            listed.contains(&krate.as_str()),
            "`{krate}` is a workspace member but not in the root `default-members`"
        );
    }
}

#[test]
fn call_graph_stays_populated() {
    let members = rim_xtask::load_workspace(root()).expect("workspace loads");
    let ws = rim_xtask::model::build(&members);
    assert!(
        ws.fns.len() > 200,
        "call graph has only {} fns; the parser or model degenerated",
        ws.fns.len()
    );
    assert!(
        ws.edges.len() > ws.fns.len(),
        "only {} edges over {} fns; call resolution degenerated",
        ws.edges.len(),
        ws.fns.len()
    );
    // Every retained oracle must be defined *and* reachable from a test
    // in the graph — the reachability side of `naive-oracle-retained`.
    let reach = ws.reachable_from_tests();
    for oracle in rim_xtask::audit::RETAINED_ORACLES {
        let reachable = ws
            .defs_named(oracle)
            .iter()
            .any(|&i| !ws.fns[i].in_test && reach[i]);
        assert!(reachable, "`{oracle}` is not test-reachable in the call graph");
    }
}

#[test]
fn physical_engine_obligations_stay_registered() {
    // The SINR layer's standing obligations: the naive SINR and coverage
    // oracles are retained differential references (so
    // `naive-oracle-retained` fails the gate if the physical differential
    // suite stops calling them), both physical kernel entry points carry
    // the panic-freedom closure check and are determinism roots, and the
    // link-budget check that guards them against outside input is
    // panic-free. Dropping any of these from the registries would
    // silently un-audit rim-phys; pin them here.
    for oracle in [
        "interference_vector_naive",
        "sinr_interference_naive",
        "coverage_vector_naive",
    ] {
        assert!(
            rim_xtask::audit::RETAINED_ORACLES.contains(&oracle),
            "`{oracle}` must stay in RETAINED_ORACLES"
        );
    }
    for root in ["physical_interference_vector", "sinr_interference_indexed", "from_link_budget"] {
        assert!(
            rim_xtask::audit::PANIC_FREE_ROOTS.contains(&root),
            "`{root}` must stay in PANIC_FREE_ROOTS"
        );
    }
    for root in ["physical_interference_vector", "sinr_interference_indexed"] {
        assert!(
            rim_xtask::flow::DETERMINISM_ROOTS.contains(&root),
            "`{root}` must stay in DETERMINISM_ROOTS"
        );
    }
    assert!(
        rim_xtask::rules::rule_known("power-domain-mismatch"),
        "the dBm/mW mixing rule must stay registered"
    );
}

#[test]
fn streaming_kernel_obligations_stay_registered() {
    // The million-node streaming path's standing obligations: the
    // counting entry points and the (max, Σ) reduction, the
    // nearest-neighbor radius and position pass and the in-degree count
    // over its positions, the grid build's parallel scatter and column
    // gather, the sharded scatter, in-place fill (one column or two)
    // and column-partition primitives, and `run_pieces`, the one
    // executor they all run on, carry the panic-freedom closure check,
    // the thread-count-invariant kernels are determinism roots,
    // and the naive oracle the streaming differential suite pins against
    // stays retained. Dropping any of these would silently un-audit the
    // SoA/streaming layer.
    const PARALLEL_BUILD: [&str; 3] = ["par_block_scatter", "gather_column", "par_fill_columns"];
    for root in [
        "interference_counts",
        "interference_counts_sharded",
        "interference_max_sum",
        "par_scatter_u32",
        "nn_radii",
        "nn_in_degree",
        "par_fill_chunks",
        "par_fill_chunk_pairs",
        "run_pieces",
    ]
    .into_iter()
    .chain(PARALLEL_BUILD)
    {
        assert!(
            rim_xtask::audit::PANIC_FREE_ROOTS.contains(&root),
            "`{root}` must stay in PANIC_FREE_ROOTS"
        );
    }
    for root in [
        "interference_counts_sharded",
        "interference_max_sum",
        "par_scatter_u32",
        "nn_radii",
        "nn_in_degree",
        "par_fill_chunks",
        "par_fill_chunk_pairs",
        "run_pieces",
    ]
    .into_iter()
    .chain(PARALLEL_BUILD)
    {
        assert!(
            rim_xtask::flow::DETERMINISM_ROOTS.contains(&root),
            "`{root}` must stay in DETERMINISM_ROOTS"
        );
    }
    assert!(
        rim_xtask::audit::RETAINED_ORACLES.contains(&"interference_vector_naive"),
        "the naive oracle anchors the streaming differential suite"
    );
}

#[test]
fn churn_hot_path_obligations_stay_registered() {
    // The churn layer's standing obligations: the whole edit hot path
    // (op application, tombstoning departures, the engine's
    // nearest-live query, its grid's overlay insert, the split-aware
    // cell scan, the arrival-coverage query and the per-cell radius
    // bound raise) plus both snapshot codec entry points are panic-free
    // roots, and the replay-equality surface (apply_edit, remove_node,
    // the nearest-live query, the grid paths, the snapshot encoder) must
    // not reach RNG draws, wall-clock reads, or atomic RMW — bit-exact
    // (seed, trace) replay and snapshot restore depend on it. Dropping
    // any of these would silently un-audit rim-churn.
    const GRID_PATHS: [&str; 3] = ["scan_split", "for_each_reaching", "raise_bound"];
    for root in [
        "remove_node",
        "apply_edit",
        "k_nearest_live",
        "push_overlay",
        "encode_snapshot",
        "decode_snapshot",
    ]
    .into_iter()
    .chain(GRID_PATHS)
    {
        assert!(
            rim_xtask::audit::PANIC_FREE_ROOTS.contains(&root),
            "`{root}` must stay in PANIC_FREE_ROOTS"
        );
    }
    for root in ["remove_node", "apply_edit", "k_nearest_live", "push_overlay", "encode_snapshot"]
        .into_iter()
        .chain(GRID_PATHS)
    {
        assert!(
            rim_xtask::flow::DETERMINISM_ROOTS.contains(&root),
            "`{root}` must stay in DETERMINISM_ROOTS"
        );
    }
    assert!(
        rim_xtask::audit::RETAINED_ORACLES.contains(&"interference_vector_naive"),
        "the naive oracle anchors the churn replay-differential suite"
    );
}

#[test]
fn pipeline_query_loops_stay_registered() {
    // The node-sized query loops of the topology-control pipeline that
    // fan out over worker threads — the UDG build, `analyze`'s UDG census,
    // the sender coverage vector with its one box scan per link and the
    // worst link found by bound — and the connectivity check must stay
    // panic-free and bitwise deterministic for every worker count.
    // Dropping any registration would silently un-audit them.
    for root in [
        "unit_disk_graph_with_range",
        "udg_census",
        "coverage_vector",
        "worst_link_coverage",
        "preserves_connectivity",
        "for_each_link_run",
    ] {
        assert!(
            rim_xtask::audit::PANIC_FREE_ROOTS.contains(&root),
            "`{root}` must stay in PANIC_FREE_ROOTS"
        );
        assert!(
            rim_xtask::flow::DETERMINISM_ROOTS.contains(&root),
            "`{root}` must stay in DETERMINISM_ROOTS"
        );
    }
}

#[test]
fn neighbour_list_kernels_and_file_parsers_stay_registered() {
    // The topology-control fast paths run off the UDG's neighbour lists:
    // the adjacency-walking edge filter, the Gabriel and RNG witness
    // scans of N(u), LMST's local MSTs from coordinates, XTC's one-list
    // blocker scan and Yao's sign-test cones. They must stay panic-free,
    // and the kernels
    // whose output the thread-invariance suite pins must stay bitwise
    // deterministic. The node and topology file parsers, the CLI's
    // `--generate`/`--trace` spec parsers and `rim generate`'s length
    // and coordinate checks face arbitrary input and must reject it with
    // an error, never a panic.
    for root in [
        "filter_edges",
        "is_gabriel_edge",
        "is_rng_edge",
        "lmst_selection",
        "keeps_edge_one_list",
        "sector_selection",
        "parse_nodes",
        "parse_topology",
        "parse_generate_spec",
        "parse_trace_spec",
        "positive_length",
        "check_generated",
    ] {
        assert!(
            rim_xtask::audit::PANIC_FREE_ROOTS.contains(&root),
            "`{root}` must stay in PANIC_FREE_ROOTS"
        );
    }
    for root in ["filter_edges", "lmst_selection", "keeps_edge_one_list", "sector_selection"] {
        assert!(
            rim_xtask::flow::DETERMINISM_ROOTS.contains(&root),
            "`{root}` must stay in DETERMINISM_ROOTS"
        );
    }
}
