//! Compact binary snapshot of the full churn-sim state.
//!
//! Layout (all integers little-endian, floats as IEEE-754 bit
//! patterns):
//!
//! ```text
//! magic    "RIMCHRN1"                                    8 bytes
//! config   family u8, n0 u64, seed u64
//! trace    rng [u64; 4], live u64, remaining u64, bootstrapped u8
//! counts   8 × u64   (OpCounts::fields order)
//! engine   n u64,
//!          points   n × (f64, f64),
//!          radii    n × f64,
//!          alive    n × u8,
//!          m u64, edges m × (u32, u32),
//!          indexed_len u64, radius_bound f64, reserved u8 (= 0)
//! trailer  fnv1a-64 checksum of everything above          u64
//! ```
//!
//! The encoding is *complete and minimal*: everything a restored run
//! needs to continue bit-identically (RNG stream position, the engine's
//! amortization state — `indexed_len` pins the pending overlay,
//! `radius_bound` the candidate bound — and the deterministic op
//! counters), and nothing derivable (coverage counts, histogram, grid,
//! live-id list, edge weights — all recomputed on restore from the
//! fields above). A flipped bit anywhere fails the checksum; a
//! structurally invalid body with a valid checksum fails the decoder's
//! own checks (node and edge counts must fit in the bytes that follow,
//! the reserved byte must be 0) or the
//! engine's [`rim_core::DynamicInterference::from_state`] validation.
//! Decode never panics and never allocates more than the file holds.

use crate::sim::{ChurnSim, OpCounts};
use crate::trace::{ChurnConfig, ChurnTrace, Family};
use rim_core::{DynState, DynamicInterference};
use rim_geom::Point;

/// Snapshot format magic + version. Bump the trailing digit on any
/// layout change.
pub const MAGIC: [u8; 8] = *b"RIMCHRN1";

/// FNV-1a 64-bit, the workspace's standard tiny checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializes the full sim state. The output is a pure function of the
/// sim's observable state: two sims that behave identically encode
/// identically (the property-test equality surface).
// rim-lint: root
pub fn encode_snapshot(sim: &ChurnSim) -> Vec<u8> {
    let cfg = sim.config();
    let s = sim.engine().export_state();
    let n = s.points.len();
    let mut out = Vec::with_capacity(64 + n * 33 + s.edges.len() * 8);
    out.extend_from_slice(&MAGIC);
    out.push(cfg.family.code());
    out.extend_from_slice(&(cfg.n0 as u64).to_le_bytes());
    out.extend_from_slice(&cfg.seed.to_le_bytes());
    let (rng, live, remaining, bootstrapped) = sim.trace().parts();
    for w in rng {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&live.to_le_bytes());
    out.extend_from_slice(&remaining.to_le_bytes());
    out.push(u8::from(bootstrapped));
    for (_, v) in sim.counts().fields() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(n as u64).to_le_bytes());
    for p in &s.points {
        out.extend_from_slice(&p.x.to_bits().to_le_bytes());
        out.extend_from_slice(&p.y.to_bits().to_le_bytes());
    }
    for r in &s.radii {
        out.extend_from_slice(&r.to_bits().to_le_bytes());
    }
    for &a in &s.alive {
        out.push(u8::from(a));
    }
    out.extend_from_slice(&(s.edges.len() as u64).to_le_bytes());
    for &(u, v) in &s.edges {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(s.indexed_len as u64).to_le_bytes());
    out.extend_from_slice(&s.radius_bound.to_bits().to_le_bytes());
    out.push(0); // reserved
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Bounds-checked little-endian reader; every failure is an `Err`.
struct Rd<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        match self.b.get(self.at..self.at + n) {
            Some(s) => {
                self.at += n;
                Ok(s)
            }
            None => Err(format!("snapshot truncated at byte {}", self.at)),
        }
    }

    fn u8(&mut self) -> Result<u8, String> {
        self.take(1)?
            .first()
            .copied()
            .ok_or_else(|| "internal: empty take(1)".to_string())
    }

    fn u32(&mut self) -> Result<u32, String> {
        let s = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(s);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let s = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` count that must fit comfortably in memory. (The checksum
    /// is verified first, but a file can carry a valid checksum over any
    /// body, so counts are checked on their own.)
    fn count(&mut self, what: &str) -> Result<usize, String> {
        let v = self.u64()?;
        if v > (1 << 32) {
            return Err(format!("implausible {what} count {v}"));
        }
        Ok(v as usize)
    }

    /// A count of records `bytes_each` long that must follow: it may not
    /// exceed what the rest of the body can hold, so no count can
    /// preallocate more memory than the file itself occupies.
    fn records(&mut self, what: &str, bytes_each: usize) -> Result<usize, String> {
        let v = self.u64()?;
        let room = self.b.len().saturating_sub(self.at) / bytes_each;
        if v > room as u64 {
            return Err(format!(
                "snapshot declares {v} {what}s but the rest of the body holds at most {room}"
            ));
        }
        Ok(v as usize)
    }
}

/// Deserializes a snapshot produced by [`encode_snapshot`], validating
/// the magic, the checksum, and every structural invariant. The
/// restored sim continues the run bit-identically (property-tested).
// rim-lint: root
pub fn decode_snapshot(bytes: &[u8]) -> Result<ChurnSim, String> {
    let split = bytes
        .len()
        .checked_sub(8)
        .filter(|&b| b >= MAGIC.len())
        .ok_or_else(|| "snapshot shorter than header + trailer".to_string())?;
    let (body, trailer) = bytes.split_at(split);
    let mut sum = [0u8; 8];
    sum.copy_from_slice(trailer);
    if u64::from_le_bytes(sum) != fnv1a64(body) {
        return Err("snapshot checksum mismatch (corrupted or foreign file)".to_string());
    }
    let mut rd = Rd { b: body, at: 0 };
    if rd.take(MAGIC.len())? != MAGIC {
        return Err("bad snapshot magic (not a RIMCHRN1 file)".to_string());
    }
    let family = Family::from_code(rd.u8()?).ok_or("unknown instance family code")?;
    let n0 = rd.count("population")?;
    let seed = rd.u64()?;
    let cfg = ChurnConfig { family, n0, seed };
    if n0 == 0 {
        return Err("target population must be >= 1".to_string());
    }
    let rng = [rd.u64()?, rd.u64()?, rd.u64()?, rd.u64()?];
    let live = rd.u64()?;
    let remaining = rd.u64()?;
    let bootstrapped = rd.u8()? != 0;
    let trace = ChurnTrace::from_parts(cfg, rng, live, remaining, bootstrapped)
        .ok_or("degenerate (all-zero) RNG state")?;
    // Fields are read in the order written, which is the encoding order.
    let counts = OpCounts {
        edits: rd.u64()?,
        arrivals: rd.u64()?,
        departures: rd.u64()?,
        moves: rd.u64()?,
        relinks: rd.u64()?,
        links_added: rd.u64()?,
        links_removed: rd.u64()?,
        compactions: rd.u64()?,
    };
    // Per node: a position (16 bytes), a radius (8) and a liveness byte.
    let n = rd.records("node", 25)?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let (x, y) = (rd.f64()?, rd.f64()?);
        points.push(Point::new(x, y));
    }
    let mut radii = Vec::with_capacity(n);
    for _ in 0..n {
        radii.push(rd.f64()?);
    }
    let mut alive = Vec::with_capacity(n);
    for _ in 0..n {
        alive.push(rd.u8()? != 0);
    }
    let m = rd.records("edge", 8)?;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (u, v) = (rd.u32()?, rd.u32()?);
        edges.push((u, v));
    }
    let indexed_len = rd.count("indexed prefix")?;
    let radius_bound = rd.f64()?;
    if rd.u8()? != 0 {
        return Err("reserved engine byte is not 0".to_string());
    }
    if rd.at != body.len() {
        return Err(format!(
            "{} trailing bytes after the engine state",
            body.len().saturating_sub(rd.at)
        ));
    }
    let engine = DynamicInterference::from_state(DynState {
        points,
        radii,
        alive,
        edges,
        indexed_len,
        radius_bound,
    })?;
    if engine.live_count() as u64 != live {
        return Err(format!(
            "trace population model ({live}) disagrees with the engine ({})",
            engine.live_count()
        ));
    }
    Ok(ChurnSim::from_parts(cfg, trace, engine, counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_after(edits: u64) -> ChurnSim {
        let cfg = ChurnConfig { family: Family::Uniform, n0: 48, seed: 21 };
        let mut s = ChurnSim::new(cfg, edits + 10_000);
        for _ in 0..edits {
            s.step();
        }
        s
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let s = sim_after(700);
        let bytes = encode_snapshot(&s);
        let r = decode_snapshot(&bytes).expect("own snapshot decodes");
        assert_eq!(encode_snapshot(&r), bytes, "re-encode must be identical");
        assert_eq!(r.live_interference(), s.live_interference());
        assert_eq!(r.counts(), s.counts());
        assert_eq!(r.graph_interference(), s.graph_interference());
    }

    #[test]
    fn restored_run_continues_identically() {
        let mut a = sim_after(500);
        let mut b = decode_snapshot(&encode_snapshot(&a)).expect("decodes");
        for i in 0..800 {
            let oa = a.step();
            let ob = b.step();
            assert_eq!(oa, ob, "op stream diverged at +{i}");
            if i % 97 == 0 {
                assert_eq!(a.graph_interference(), b.graph_interference(), "+{i}");
            }
        }
        assert_eq!(a.live_interference(), b.live_interference());
        assert_eq!(encode_snapshot(&a), encode_snapshot(&b), "final snapshots differ");
    }

    #[test]
    fn corruption_is_rejected_loudly() {
        let bytes = encode_snapshot(&sim_after(300));
        assert!(decode_snapshot(&[]).is_err());
        assert!(decode_snapshot(&bytes[..bytes.len() - 1]).is_err(), "truncated");
        for at in [0usize, 8, 20, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(decode_snapshot(&bad).is_err(), "flip at {at} went unnoticed");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_snapshot(&extra).is_err(), "appended byte went unnoticed");
    }

    #[test]
    fn snapshot_size_is_compact() {
        let s = sim_after(400);
        let bytes = encode_snapshot(&s);
        // ~33 bytes per slot + 8 per edge + fixed header: sanity-bound
        // the encoding so it never silently grows a redundant section.
        let n = s.engine().len();
        let m = s.engine().graph().num_edges();
        assert!(bytes.len() <= 200 + 33 * n + 8 * m, "{} bytes for n={n} m={m}", bytes.len());
    }
}
