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
//! graph-driven rule), the hot-path kernels stay marked
//! `// rim-lint: root`, and the one full lint run must stay inside a
//! wall-clock budget so the gate remains cheap enough to run on every
//! `cargo test`.

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

/// The sorted `FnDef::path()` strings of the fns marked
/// `// rim-lint: root`, whose call closures `panic-freedom` and
/// `engine-determinism` audit. The pins below read it, so the model is
/// built once however the test harness schedules them.
fn marked_roots() -> &'static [String] {
    static MARKED: OnceLock<Vec<String>> = OnceLock::new();
    MARKED.get_or_init(|| {
        let members = rim_xtask::load_workspace(root()).expect("workspace loads");
        let ws = rim_xtask::model::build(&members);
        let mut marked: Vec<String> = ws.fns.iter().filter(|f| f.root).map(|f| f.path()).collect();
        marked.sort();
        marked
    })
}

/// Fails with the kernels of `group` that carry no mark: a dropped mark
/// would silently un-audit its kernel.
fn assert_marked(group: &[&str]) {
    let marked = marked_roots();
    let unmarked: Vec<&&str> = group.iter().filter(|w| !marked.iter().any(|m| m == *w)).collect();
    assert!(unmarked.is_empty(), "pinned, not marked `// rim-lint: root`: {unmarked:?}");
}

/// The SINR kernel entry points and the link-budget check that guards
/// them against outside input.
const PHYSICAL_ENGINE: [&str; 3] = [
    "rim_phys::model::PhysParams::from_link_budget",
    "rim_phys::sinr::physical_interference_vector",
    "rim_phys::sinr::sinr_interference_indexed",
];

/// The million-node streaming path: the counting entry points and the
/// (max, Σ) reduction, the nearest-neighbour radius pass, the grid's
/// cell-by-cell sweep and the search it falls back to, the in-degree
/// count over their positions, the grid
/// build's parallel scatter and column gather, and `rim-par`'s
/// primitives with `run_pieces`, the one executor they all run on.
const STREAMING_KERNELS: [&str; 16] = [
    "rim_core::stream::StreamInstance::interference_counts",
    "rim_core::stream::StreamInstance::interference_counts_sharded",
    "rim_core::stream::StreamInstance::interference_max_sum",
    "rim_core::stream::StreamInstance::nn_in_degree",
    "rim_core::stream::nn_radii",
    "rim_geom::grid::par_block_scatter",
    "rim_geom::soa_grid::SoaGrid::for_each_nearest",
    "rim_geom::soa_grid::SoaGrid::nearest_at",
    "rim_geom::soa_grid::gather_column",
    "rim_par::lib::par_fill_chunk_pairs",
    "rim_par::lib::par_fill_chunks",
    "rim_par::lib::par_fill_columns",
    "rim_par::lib::par_map_ranges",
    "rim_par::lib::par_scatter_u32",
    "rim_par::lib::parallel_map",
    "rim_par::lib::run_pieces",
];

/// The churn edit hot path: op application, the dynamic engine's
/// updates and nearest-live query, its grid's overlay insert, split-aware
/// disk walk, arrival-coverage query and per-cell radius bounds, the
/// in-place compaction, and both snapshot codec entry points. Bit-exact
/// (seed, trace) replay and snapshot restore depend on them.
const CHURN_HOT_PATH: [&str; 15] = [
    "rim_churn::sim::ChurnSim::apply_edit",
    "rim_churn::snapshot::decode_snapshot",
    "rim_churn::snapshot::encode_snapshot",
    "rim_core::dynamic::DynamicInterference::compact",
    "rim_core::dynamic::DynamicInterference::insert_edge",
    "rim_core::dynamic::DynamicInterference::insert_node",
    "rim_core::dynamic::DynamicInterference::k_nearest_live",
    "rim_core::dynamic::DynamicInterference::remove_edge",
    "rim_core::dynamic::DynamicInterference::remove_node",
    "rim_geom::dyn_grid::DynGrid::fill_bounds",
    "rim_geom::dyn_grid::DynGrid::for_each_reaching",
    "rim_geom::dyn_grid::DynGrid::push_overlay",
    "rim_geom::dyn_grid::DynGrid::raise_bound",
    "rim_geom::soa_grid::SoaGrid::for_each_disk_run",
    "rim_graph::adjacency::AdjacencyList::remove_edge",
];

/// The node-sized query loops of the topology-control pipeline: the UDG
/// build and `analyze`'s UDG census, the receiver interference engine,
/// the sender coverage vector with its one box scan per link and the
/// worst link found by bound, and the connectivity check.
const PIPELINE_QUERY_LOOPS: [&str; 7] = [
    "rim_core::receiver::interference_vector_with",
    "rim_core::sender::coverage_vector",
    "rim_core::sender::worst_link_coverage",
    "rim_geom::soa_grid::SoaGrid::for_each_link_run",
    "rim_graph::traversal::preserves_connectivity",
    "rim_udg::udg::udg_census",
    "rim_udg::udg::unit_disk_graph_with_range",
];

/// The topology builders and their fast paths off the UDG's neighbour
/// lists (the edge filter, the Gabriel and RNG witness scans, LMST's
/// local MSTs, XTC's blocker scan and Yao's cones), and the file, CLI
/// spec and `rim generate` checks that must reject arbitrary input with
/// an error, never a panic.
const NEIGHBOUR_LISTS_AND_PARSERS: [&str; 16] = [
    "rim_cli::commands::check_generated",
    "rim_cli::commands::parse_generate_spec",
    "rim_cli::commands::parse_trace_spec",
    "rim_cli::commands::positive_length",
    "rim_topology_control::gabriel::gabriel_graph_with",
    "rim_topology_control::gabriel::is_gabriel_edge",
    "rim_topology_control::lmst::lmst_selection",
    "rim_topology_control::lmst::lmst_with",
    "rim_topology_control::pipeline::filter_edges",
    "rim_topology_control::rng::is_rng_edge",
    "rim_topology_control::xtc::keeps_edge_one_list",
    "rim_topology_control::xtc::xtc_with",
    "rim_topology_control::yao::sector_selection",
    "rim_topology_control::yao::yao_graph_with",
    "rim_udg::io::parse_nodes",
    "rim_udg::io::parse_topology",
];

#[test]
fn hot_path_kernels_stay_marked() {
    // Every marked kernel belongs to one of the pinned groups, and every
    // pinned kernel is marked: a renamed or new kernel updates its
    // group as well as its mark.
    let mut want: Vec<&str> = [
        PHYSICAL_ENGINE.as_slice(),
        &STREAMING_KERNELS,
        &CHURN_HOT_PATH,
        &PIPELINE_QUERY_LOOPS,
        &NEIGHBOUR_LISTS_AND_PARSERS,
    ]
    .concat();
    want.sort();
    let marked = marked_roots();
    let unpinned: Vec<&String> = marked.iter().filter(|m| !want.contains(&m.as_str())).collect();
    let unmarked: Vec<&&str> = want.iter().filter(|w| !marked.iter().any(|m| m == *w)).collect();
    assert_eq!(marked, want, "marked, not pinned: {unpinned:?}; pinned, not marked: {unmarked:?}");
}

#[test]
fn physical_engine_obligations_stay_registered() {
    // The naive SINR and coverage oracles are retained differential
    // references (so `naive-oracle-retained` fails the gate if the
    // physical differential suite stops calling them), and the dBm/mW
    // mixing rule stays registered. Dropping any of these would silently
    // un-audit rim-phys.
    assert_marked(&PHYSICAL_ENGINE);
    for oracle in
        ["interference_vector_naive", "sinr_interference_naive", "coverage_vector_naive"]
    {
        assert!(
            rim_xtask::audit::RETAINED_ORACLES.contains(&oracle),
            "`{oracle}` must stay in RETAINED_ORACLES"
        );
    }
    assert!(
        rim_xtask::rules::rule_known("power-domain-mismatch"),
        "the dBm/mW mixing rule must stay registered"
    );
}

#[test]
fn streaming_kernel_obligations_stay_registered() {
    assert_marked(&STREAMING_KERNELS);
    assert!(
        rim_xtask::audit::RETAINED_ORACLES.contains(&"interference_vector_naive"),
        "the naive oracle anchors the streaming differential suite"
    );
}

#[test]
fn churn_hot_path_obligations_stay_registered() {
    assert_marked(&CHURN_HOT_PATH);
    assert!(
        rim_xtask::audit::RETAINED_ORACLES.contains(&"interference_vector_naive"),
        "the naive oracle anchors the churn replay-differential suite"
    );
}

#[test]
fn pipeline_query_loops_stay_registered() {
    assert_marked(&PIPELINE_QUERY_LOOPS);
}

#[test]
fn neighbour_list_kernels_and_file_parsers_stay_registered() {
    assert_marked(&NEIGHBOUR_LISTS_AND_PARSERS);
}
