//! Pins the churn simulator's whole observable output: for every
//! instance family, an FNV-1a digest of the checkpoint JSONL and of the
//! final `RIMCHRN1` snapshot bytes. The digests are those of the
//! simulator that kept its own live-node grid and rebuilt the engine by
//! replaying edges at every compaction, so any change that moves a
//! checkpoint field, an edge, a radius bit, the pending-overlay boundary
//! or the compaction schedule fails here.
//!
//! Each run is small enough for the debug profile but long enough to
//! cross several overlay merges and compactions (asserted).

use rim_churn::{encode_snapshot, ChurnConfig, ChurnSim, Family};

/// FNV-1a 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Target population and edit budget of every pinned run.
const N0: usize = 96;
const EDITS: u64 = 6_000;
/// Checkpoint cadence, in edits.
const EVERY: u64 = 250;

/// Runs one family and returns `(jsonl digest, snapshot digest)`, after
/// checking that the run crossed an overlay merge and a compaction.
fn digests(family: Family) -> (u64, u64) {
    let mut sim = ChurnSim::new(ChurnConfig { family, n0: N0, seed: 7 }, EDITS);
    let mut jsonl = sim.checkpoint_record();
    jsonl.push('\n');
    // A merge shows as a new pending-overlay boundary between two
    // checkpoints that no compaction separates.
    let mut merges = 0;
    let mut last = (sim.engine().export_state().indexed_len, 0);
    while sim.step().is_some() {
        if sim.counts().edits % EVERY == 0 {
            jsonl.push_str(&sim.checkpoint_record());
            jsonl.push('\n');
            let now = (sim.engine().export_state().indexed_len, sim.counts().compactions);
            if now.1 == last.1 && now.0 != last.0 {
                merges += 1;
            }
            last = now;
        }
    }
    assert!(merges >= 1, "family {family}: no overlay merge between checkpoints");
    assert!(sim.counts().compactions >= 2, "family {family}: {:?}", sim.counts());
    (fnv1a64(jsonl.as_bytes()), fnv1a64(&encode_snapshot(&sim)))
}

#[test]
fn checkpoint_and_snapshot_digests_are_pinned() {
    let pinned: [(Family, u64, u64); 5] = [
        (Family::Uniform, 0xcfc803073e84669e, 0x08be11a197d6ea05),
        (Family::Clustered, 0x76c013ed4e1f1c21, 0x49ea0a2bc44d9cb9),
        (Family::ExpChain, 0x5ffa138b9fe82e05, 0xf3be1be7cd8868cb),
        (Family::Collinear, 0xfa1f43d8fa7d3bab, 0x31e61708ef75ff6f),
        (Family::Duplicate, 0x70d44a8fa9554431, 0x841aac7076c2d5d9),
    ];
    for (family, jsonl, snapshot) in pinned {
        let got = digests(family);
        assert_eq!(got, (jsonl, snapshot), "family {family}: digests moved");
    }
}
