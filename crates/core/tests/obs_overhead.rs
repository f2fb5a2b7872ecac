//! Overhead guard for the observability layer's *disabled* path.
//!
//! Library crates call `rim_obs` hooks unconditionally; this test holds
//! the cost of those hooks — while no sink is installed — under 5% of
//! the 4096-node interference kernel (the structure-of-arrays scatter on
//! one worker). The kernel issues a constant number of span and counter
//! calls per batch; the emulation below reproduces them and also charges
//! one `rim_obs::active()` check per transmitter, the price of a
//! per-query hook like the one in `SoaGrid::for_each_in_disk`, and times
//! that against the kernel itself.
//!
//! CRUCIAL: nothing in this test binary may call
//! `rim_obs::install_recorder()` — the whole point is measuring the
//! uninstalled fast path.

use rim_core::StreamInstance;
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
