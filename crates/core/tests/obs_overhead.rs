//! Overhead guard for the observability layer's *disabled* path.
//!
//! Library crates call `rim_obs` hooks unconditionally; this test holds
//! the cost of those hooks — while no sink is installed — under 5% of
//! the 4096-node interference kernel (the structure-of-arrays scatter on
//! one worker). The kernel issues a constant number of span and counter
//! calls per batch; the emulation below reproduces them and also charges
//! one `rim_obs::active()` check per transmitter, the price of a
//! per-query hook like the one in `SoaGrid::for_each_in_disk`, and times
//! that against the kernel itself. The churn edit path gets the same
//! bound: the hooks one edit can reach, against a stream of edits on the
//! dynamic engine.
//!
//! CRUCIAL: nothing in this test binary may call
//! `rim_obs::install_recorder()` — the whole point is measuring the
//! uninstalled fast path.

use rim_core::{DynamicInterference, StreamInstance};
use rim_geom::Point;
use rim_udg::{udg::unit_disk_graph_with_range, NodeSet, Topology};
use std::hint::black_box;
use std::time::{Duration, Instant};

const N: usize = 4096;

/// Deterministic uniform instance: 4096 nodes in a 16x16 square with a
/// connection range giving an average UDG degree around 12.
fn uniform_4096() -> Topology {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rnd = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pts: Vec<Point> = (0..N).map(|_| Point::new(rnd() * 16.0, rnd() * 16.0)).collect();
    let ns = NodeSet::new(pts);
    let graph = unit_disk_graph_with_range(&ns, 0.5);
    Topology::from_graph(ns, graph)
}

fn median_of<F: FnMut() -> Duration>(samples: usize, mut f: F) -> Duration {
    let mut times: Vec<Duration> = (0..samples).map(|_| f()).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

#[test]
fn disabled_obs_path_stays_under_five_percent_of_the_kernel() {
    assert!(
        !rim_obs::active(),
        "this test must run without an installed sink; something in this \
         binary enabled collection"
    );
    let t = uniform_4096();

    // Warm up caches and verify the kernel actually does work.
    let warm = StreamInstance::from_topology(&t).interference_counts();
    assert!(warm.iter().copied().max().unwrap_or(0) > 0);

    let kernel = median_of(5, || {
        let start = Instant::now();
        black_box(StreamInstance::from_topology(black_box(&t)).interference_counts());
        start.elapsed()
    });

    // The kernel's per-run obs footprint while disabled: the build,
    // index-build and scatter spans, the grid-build and disk-query
    // counters, plus one `active()` branch per transmitter (N of them).
    let obs = median_of(5, || {
        let start = Instant::now();
        let _build_span = rim_obs::span(black_box("stream/build_from_topology"));
        let _index_span = rim_obs::span(black_box("interference/index_build"));
        rim_obs::counter_add(black_box("geom.index.grid_builds"), black_box(1));
        let _scatter_span = rim_obs::span(black_box("interference/streaming"));
        for _ in 0..N {
            black_box(rim_obs::active());
        }
        rim_obs::counter_add(black_box("core.disk_queries"), black_box(N as u64));
        black_box(start.elapsed())
    });

    assert!(
        obs * 20 <= kernel,
        "disabled obs path too expensive: obs={obs:?} vs kernel={kernel:?} \
         (limit: 5%)"
    );
}

/// A random live slot: a uniform slot, then the next live one up.
fn pick_live(d: &DynamicInterference, rnd: &mut impl FnMut() -> f64) -> usize {
    let mut v = (rnd() * d.len() as f64) as usize % d.len();
    while !d.is_live(v) {
        v = (v + 1) % d.len();
    }
    v
}

/// A node arrives at `p` and links to its nearest live node.
fn arrive(d: &mut DynamicInterference, p: Point, near: &mut Vec<(f64, usize)>) {
    d.k_nearest_live(p, 1, None, near);
    let v = d.insert_node(p);
    if let Some(&(_, w)) = near.first() {
        d.insert_edge(v, w);
    }
}

/// `edits` churn edits on the dynamic engine, as `rim_churn::ChurnSim`
/// applies them (that crate sits above this one): an arrival links to
/// its nearest live node, a departure tombstones a random live node, a
/// relink toggles the link to one of a node's four nearest, and the
/// tombstones are compacted once they outnumber the live nodes.
fn churn_edits(d: &mut DynamicInterference, rnd: &mut impl FnMut() -> f64, edits: usize) {
    let mut near = Vec::new();
    for _ in 0..edits {
        let op = rnd();
        if op < 0.3 || d.live_count() < 2 {
            arrive(d, Point::new(rnd() * 16.0, rnd() * 16.0), &mut near);
        } else if op < 0.6 {
            let v = pick_live(d, rnd);
            d.remove_node(v);
        } else {
            let a = pick_live(d, rnd);
            d.k_nearest_live(d.position(a), 1 + (rnd() * 4.0) as usize, Some(a), &mut near);
            if let Some(&(_, b)) = near.last() {
                if !d.remove_edge(a, b) {
                    d.insert_edge(a, b);
                }
            }
        }
        if d.len() - d.live_count() > d.live_count().max(256) {
            d.compact();
        }
    }
}

#[test]
fn disabled_obs_path_stays_under_five_percent_of_churn_edits() {
    assert!(!rim_obs::active(), "this test must run without an installed sink");
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    // Bootstrap to N live nodes through arrivals, then churn from there.
    let mut base = DynamicInterference::new(NodeSet::new(Vec::new()));
    let mut near = Vec::new();
    for _ in 0..N {
        arrive(&mut base, Point::new(rnd() * 16.0, rnd() * 16.0), &mut near);
    }
    let edits = 4 * N;
    let churn = median_of(5, || {
        let mut d = base.clone();
        let start = Instant::now();
        churn_edits(black_box(&mut d), &mut rnd, edits);
        let elapsed = start.elapsed();
        assert!(d.graph_interference() > 0);
        elapsed
    });

    // The most one edit reaches while disabled, counted over a move (a
    // departure unlinking two neighbours, then an arrival that links):
    // six counters, ten `active()` checks (one per coverage patch and
    // per grid query), and both stall spans, which the real path opens
    // only at a compaction or an index rebuild.
    let obs = median_of(5, || {
        let start = Instant::now();
        for _ in 0..edits {
            let _compact = rim_obs::span(black_box("churn.compact"));
            let _rebuild = rim_obs::span(black_box("dynamic.index_rebuild"));
            for _ in 0..6 {
                rim_obs::counter_add(black_box("dynamic.edge_inserts"), black_box(1));
            }
            for _ in 0..10 {
                black_box(rim_obs::active());
            }
        }
        black_box(start.elapsed())
    });

    assert!(
        obs * 20 <= churn,
        "disabled obs path too expensive on churn edits: obs={obs:?} vs \
         edits={churn:?} (limit: 5%)"
    );
}
