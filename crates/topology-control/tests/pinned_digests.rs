//! Pins the constructions above the parallel gate: an FNV-1a digest of
//! [`io::format_topology`] for GG, RNG, LMST (both variants), XTC, Yao6
//! and MST on a 4096-node uniform instance and a 4096-node clustered
//! one. The differential families sit below
//! [`rim_par::AUTO_PARALLEL_MIN`], where `Auto` runs inline; these two
//! run the fanned-out paths. The digests are those of the Prim LMST, the
//! merged-list XTC and the `atan2` Yao, so a kernel that moves one edge
//! fails here.

use rim_geom::Point;
use rim_rng::SmallRng;
use rim_topology_control::lmst::{lmst, LmstVariant};
use rim_topology_control::Baseline;
use rim_udg::udg::unit_disk_graph;
use rim_udg::{io, NodeSet, Topology};

/// FNV-1a 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 4096 nodes: twice the parallel gate.
const N: usize = 2 * rim_par::AUTO_PARALLEL_MIN;

/// Uniform on a square of side `√n / 2`, the benchmark's density.
fn uniform() -> NodeSet {
    let side = (N as f64).sqrt() / 2.0;
    let mut rng = SmallRng::seed_from_u64(1);
    NodeSet::new(
        (0..N)
            .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect(),
    )
}

/// 64 square clusters of 64 nodes, side 0.8, centres uniform on the
/// same square: dense neighbourhoods joined by sparse gaps.
fn clustered() -> NodeSet {
    let side = (N as f64).sqrt() / 2.0;
    let mut rng = SmallRng::seed_from_u64(2);
    let mut pts = Vec::with_capacity(N);
    for _ in 0..64 {
        let (cx, cy) = (rng.gen_range(0.0..side), rng.gen_range(0.0..side));
        for _ in 0..64 {
            pts.push(Point::new(
                cx + rng.gen_range(0.0..0.8),
                cy + rng.gen_range(0.0..0.8),
            ));
        }
    }
    NodeSet::new(pts)
}

#[test]
fn constructions_above_the_parallel_gate_are_pinned() {
    let pinned: [(&str, [u64; 7]); 2] = [
        (
            "uniform",
            [
                0x9aad7ec2a24614e9,
                0xc0045eba16a7dc94,
                0xf6fc9626807880f8,
                0x2072c91d0ea6bd07,
                0xc0045eba16a7dc94,
                0x8292e85b01287bba,
                0xcc7b808434e2f994,
            ],
        ),
        (
            "clustered",
            [
                0xe4840c5dc6e06169,
                0x9ba3991ca1e48223,
                0x7655ef1c3953d00c,
                0x97261a4ef1ac7e78,
                0x9ba3991ca1e48223,
                0xce8a71bfe2cf42bf,
                0x7655ef1c3953d00c,
            ],
        ),
    ];
    for ((family, want), ns) in pinned.into_iter().zip([uniform(), clustered()]) {
        let udg = unit_disk_graph(&ns);
        let built: [(&str, Topology); 7] = [
            ("gg", Baseline::Gabriel.build(&ns, &udg)),
            ("rng", Baseline::Rng.build(&ns, &udg)),
            ("lmst", lmst(&ns, &udg, LmstVariant::Intersection)),
            ("lmst-union", lmst(&ns, &udg, LmstVariant::Union)),
            ("xtc", Baseline::Xtc.build(&ns, &udg)),
            ("yao6", Baseline::Yao6.build(&ns, &udg)),
            ("mst", Baseline::Emst.build(&ns, &udg)),
        ];
        let got = built.map(|(algo, t)| (algo, fnv1a64(io::format_topology(&t).as_bytes())));
        for ((algo, g), w) in got.into_iter().zip(want) {
            assert_eq!(g, w, "family={family} algo={algo}: digest moved");
        }
    }
}
