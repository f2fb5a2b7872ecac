//! Property tests for snapshot/restore: interrupting a run at *any*
//! edit and restoring from bytes must be observationally invisible.
//!
//! For random `(family, n0, seed, k, suffix)` the suite runs `k` edits,
//! snapshots, restores, replays the suffix on both the original and the
//! restored sim, and requires bit-identical results on the whole
//! equality surface: live interference vector, `I(G')`, the coverage
//! histogram, deterministic op counters, and the final snapshot bytes
//! themselves (which cover positions, radii, liveness, edges, the
//! pending-overlay boundary, and the RNG stream position).

use rim_churn::{decode_snapshot, encode_snapshot, ChurnConfig, ChurnSim, Family};
use rim_core::receiver::interference_vector_naive;
use rim_rng::prop::check;
use rim_rng::{prop_ensure, prop_ensure_eq, SmallRng};

#[derive(Debug)]
struct Case {
    cfg: ChurnConfig,
    snapshot_at: u64,
    suffix: u64,
}

fn gen_case(rng: &mut SmallRng) -> Case {
    let family = Family::ALL[rng.gen_range(0usize..Family::ALL.len())];
    let cfg = ChurnConfig {
        family,
        n0: rng.gen_range(4usize..80),
        seed: rng.next_u64(),
    };
    Case {
        cfg,
        snapshot_at: rng.gen_range(0u64..900),
        suffix: rng.gen_range(1u64..400),
    }
}

#[test]
fn snapshot_restore_replay_is_bit_identical() {
    check(
        "snapshot_restore_replay_is_bit_identical",
        96,
        gen_case,
        |case| {
            let budget = case.snapshot_at + case.suffix;
            // The uninterrupted reference run.
            let mut whole = ChurnSim::new(case.cfg, budget);
            whole.run_to_end();

            // The interrupted run: k edits, freeze to bytes, restore,
            // finish.
            let mut prefix = ChurnSim::new(case.cfg, budget);
            for _ in 0..case.snapshot_at {
                prefix.step();
            }
            let frozen = encode_snapshot(&prefix);
            let mut resumed = decode_snapshot(&frozen)
                .map_err(|e| format!("own snapshot failed to decode: {e}"))?;
            // Restoring must itself be invisible: same bytes out.
            prop_ensure_eq!(encode_snapshot(&resumed), frozen);
            resumed.run_to_end();

            prop_ensure_eq!(resumed.live_interference(), whole.live_interference());
            prop_ensure_eq!(resumed.graph_interference(), whole.graph_interference());
            prop_ensure_eq!(
                resumed.engine().coverage_histogram(),
                whole.engine().coverage_histogram()
            );
            prop_ensure_eq!(resumed.counts(), whole.counts());
            prop_ensure!(
                encode_snapshot(&resumed) == encode_snapshot(&whole),
                "final snapshots differ after an interrupted run"
            );
            Ok(())
        },
    );
}

#[test]
fn double_interruption_composes() {
    // Snapshot/restore twice mid-run: the composition must still equal
    // the uninterrupted run (restore is idempotent state transfer, not
    // an approximation that degrades).
    let cfg = ChurnConfig { family: Family::Clustered, n0: 40, seed: 1234 };
    let mut whole = ChurnSim::new(cfg, 1_500);
    whole.run_to_end();

    let mut s = ChurnSim::new(cfg, 1_500);
    for _ in 0..400 {
        s.step();
    }
    let mut s = decode_snapshot(&encode_snapshot(&s)).expect("first freeze");
    for _ in 0..600 {
        s.step();
    }
    let mut s = decode_snapshot(&encode_snapshot(&s)).expect("second freeze");
    s.run_to_end();
    assert_eq!(encode_snapshot(&s), encode_snapshot(&whole));
}

#[test]
fn snapshots_at_every_early_edit_decode() {
    // The encoder must be total over reachable states — including the
    // awkward early ones (empty instance, mid-bootstrap, first
    // departures).
    let cfg = ChurnConfig { family: Family::Duplicate, n0: 12, seed: 77 };
    let mut s = ChurnSim::new(cfg, 80);
    for edit in 0..=80 {
        let bytes = encode_snapshot(&s);
        let r = decode_snapshot(&bytes)
            .unwrap_or_else(|e| panic!("undecodable snapshot at edit {edit}: {e}"));
        assert_eq!(encode_snapshot(&r), bytes, "unstable encoding at edit {edit}");
        if s.step().is_none() {
            break;
        }
    }
}

/// FNV-1a 64-bit, the snapshot trailer's checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One way to damage a snapshot.
#[derive(Debug)]
enum Damage {
    /// Flip one bit anywhere, trailer included.
    Flip { at: usize, bit: u8 },
    /// Keep only the first `len` bytes.
    Truncate { len: usize },
    /// Append bytes after the trailer.
    Append { bytes: Vec<u8> },
    /// Overwrite body bytes from `at` and recompute the checksum, so the
    /// decoder's structural checks and the engine's `from_state`
    /// validation are what must catch it.
    Body { at: usize, bytes: Vec<u8> },
}

/// Adversarial 8-byte values: zero, all ones, the count bounds, and
/// floats that break naive arithmetic.
const NASTY: [u64; 10] = [
    0,
    u64::MAX,
    1 << 32,
    (1 << 32) + 1,
    1 << 63,
    1,
    0x7ff8_0000_0000_0000, // NaN
    0x7ff0_0000_0000_0000, // +inf
    0x8000_0000_0000_0000, // -0.0
    0x7e37_e43c_8800_759c, // 1e300
];

#[derive(Debug)]
struct Damaged {
    cfg: ChurnConfig,
    edits: u64,
    damage: Vec<Damage>,
}

/// Byte offsets of the engine-state fields of a snapshot with `n` slots
/// and `m` edges: the node count, a slot's x, radius and liveness, the
/// edge count, an edge endpoint, `indexed_len`, `radius_bound` and the
/// reserved byte.
fn field_offsets(n: usize, m: usize, slot: usize, edge: usize) -> [usize; 9] {
    let nodes = 8 + 1 + 16 + 32 + 17 + 64; // header up to the node count
    let after_nodes = nodes + 8 + 25 * n;
    let after_edges = after_nodes + 8 + 8 * m;
    [
        nodes,
        nodes + 8 + 16 * slot,
        nodes + 8 + 16 * n + 8 * slot,
        nodes + 8 + 24 * n + slot,
        after_nodes,
        after_nodes + 8 + 8 * edge,
        after_edges,
        after_edges + 8,
        after_edges + 16,
    ]
}

fn gen_damaged(rng: &mut SmallRng) -> Damaged {
    let cfg = ChurnConfig {
        family: Family::ALL[rng.gen_range(0usize..Family::ALL.len())],
        n0: rng.gen_range(2usize..48),
        seed: rng.next_u64(),
    };
    let edits = rng.gen_range(0u64..700);
    let sim = sim_after(cfg, edits);
    let len = encode_snapshot(&sim).len();
    let (n, m) = (sim.engine().len(), sim.engine().graph().num_edges());
    let mut damage = Vec::new();
    for _ in 0..rng.gen_range(1usize..4) {
        damage.push(match rng.gen_range(0u32..6) {
            0 => Damage::Flip { at: rng.gen_range(0..len), bit: rng.gen_range(0u32..8) as u8 },
            1 => Damage::Truncate { len: rng.gen_range(0..len) },
            2 => Damage::Append {
                bytes: (0..rng.gen_range(1usize..40)).map(|_| rng.next_u64() as u8).collect(),
            },
            3 => Damage::Body {
                at: rng.gen_range(0..len - 8),
                bytes: vec![rng.next_u64() as u8],
            },
            _ => {
                let slot = rng.gen_range(0..n.max(1));
                let edge = rng.gen_range(0..m.max(1));
                let fields = field_offsets(n, m, slot, edge);
                let at = fields[rng.gen_range(0..fields.len())];
                let value = if rng.gen_bool(0.5) {
                    NASTY[rng.gen_range(0..NASTY.len())]
                } else {
                    rng.next_u64() >> rng.gen_range(0u32..64)
                };
                Damage::Body { at, bytes: value.to_le_bytes().to_vec() }
            }
        });
    }
    Damaged { cfg, edits, damage }
}

fn sim_after(cfg: ChurnConfig, edits: u64) -> ChurnSim {
    let mut sim = ChurnSim::new(cfg, edits);
    sim.run_to_end();
    sim
}

/// Applies `d` to `bytes`.
fn damage(mut bytes: Vec<u8>, d: &Damage) -> Vec<u8> {
    match d {
        Damage::Flip { at, bit } => {
            if let Some(b) = bytes.get_mut(*at) {
                *b ^= 1 << bit;
            }
        }
        Damage::Truncate { len } => bytes.truncate(*len),
        Damage::Append { bytes: extra } => bytes.extend_from_slice(extra),
        Damage::Body { at, bytes: patch } => {
            let body = bytes.len().saturating_sub(8);
            for (i, &b) in patch.iter().enumerate() {
                if at + i < body {
                    bytes[at + i] = b;
                }
            }
            let sum = fnv1a64(&bytes[..body]);
            bytes.truncate(body);
            bytes.extend_from_slice(&sum.to_le_bytes());
        }
    }
    bytes
}

#[test]
fn damaged_snapshots_fail_cleanly_or_restore_a_consistent_sim() {
    // Every damaged snapshot must either be rejected with an error or
    // restore a sim whose maintained counts equal the naive oracle over
    // its live topology. A panic or an abort fails the test.
    let mut rejected = 0;
    check(
        "damaged_snapshots_fail_cleanly_or_restore_a_consistent_sim",
        384,
        gen_damaged,
        |case| {
            let mut bytes = encode_snapshot(&sim_after(case.cfg, case.edits));
            for d in &case.damage {
                bytes = damage(bytes, d);
            }
            let Ok(sim) = decode_snapshot(&bytes) else {
                rejected += 1;
                return Ok(());
            };
            let (t, slots) = sim.engine().live_topology();
            let want = interference_vector_naive(&t);
            let got: Vec<usize> = slots.iter().map(|&v| sim.engine().interference_at(v)).collect();
            prop_ensure_eq!(got, want);
            prop_ensure_eq!(sim.live_count(), slots.len());
            Ok(())
        },
    );
    // Most damage must be caught; a few body patches land on fields any
    // value is valid for (seeds, counters, trace position).
    assert!(rejected > 300, "only {rejected} of 384 damaged snapshots were rejected");
}

#[test]
fn oversized_counts_are_rejected_before_allocating() {
    // A node or edge count far beyond the file's size, with a valid
    // checksum, must be an error — not a multi-gigabyte allocation.
    let sim = sim_after(ChurnConfig { family: Family::Uniform, n0: 16, seed: 3 }, 200);
    let bytes = encode_snapshot(&sim);
    let (n, m) = (sim.engine().len(), sim.engine().graph().num_edges());
    let [nodes, .., edges_at, _, _, _, _] = field_offsets(n, m, 0, 0);
    let patches = [(nodes, 1u64 << 32), (nodes, n as u64 + 1), (edges_at, 1 << 32), (edges_at, m as u64 + 1)];
    for (at, value) in patches {
        let bad = damage(bytes.clone(), &Damage::Body { at, bytes: value.to_le_bytes().to_vec() });
        let err = decode_snapshot(&bad).err();
        let err = err.unwrap_or_else(|| panic!("count {value} at {at} decoded"));
        assert!(!err.contains("checksum"), "the checksum was recomputed: {err}");
    }
}
