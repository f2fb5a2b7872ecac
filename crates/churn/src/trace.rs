//! Seeded churn traces: a deterministic op stream over an instance family.
//!
//! A [`ChurnTrace`] is an [`Iterator`] of [`ChurnOp`]s drawn from one
//! `rim_rng::SmallRng`. The stream tracks its own live-population model
//! (arrivals add one, departures remove one, moves and relinks are
//! neutral) and biases the arrival/departure weights toward the target
//! population `n0`, so long runs hover around `n0` live nodes without
//! ever consulting the simulator — which keeps the trace a pure
//! function of `(config, edit budget)` and makes `(seed, trace)` replay
//! exact by construction.
//!
//! Node picks are emitted as raw `u64`s and resolved by the simulator
//! against its sorted live-id list (`pick % live`); both sides maintain
//! the same population count, so resolution never fails mid-stream.

use rim_geom::Point;
use rim_rng::SmallRng;

/// The five adversarial instance families the differential suite uses,
/// here as *churn* families: the family shapes both the bootstrap
/// instance and every later arrival/move coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Uniform in the `side × side` square at unit density — the
    /// Devroye–Morin regime where max `I` must track `Θ(√(log n))`.
    Uniform,
    /// Gaussian clusters around seed-derived centers.
    Clustered,
    /// Exponentially multiscale positions on a line (the `A_exp` shape:
    /// nested gaps spanning ~7 orders of magnitude).
    ExpChain,
    /// Dense collinear instance.
    Collinear,
    /// Coordinates snapped to a coarse lattice, so exact duplicates (and
    /// zero-length links) occur constantly.
    Duplicate,
}

impl Family {
    /// Every family, in the canonical order used by tests and encoding.
    pub const ALL: [Family; 5] = [
        Family::Uniform,
        Family::Clustered,
        Family::ExpChain,
        Family::Collinear,
        Family::Duplicate,
    ];

    /// Stable wire/CLI tag.
    pub fn tag(self) -> &'static str {
        match self {
            Family::Uniform => "uniform",
            Family::Clustered => "clustered",
            Family::ExpChain => "exp-chain",
            Family::Collinear => "collinear",
            Family::Duplicate => "duplicate",
        }
    }

    /// Parses a CLI/wire tag.
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.tag() == s)
    }

    /// Stable single-byte encoding for snapshots.
    pub fn code(self) -> u8 {
        match self {
            Family::Uniform => 0,
            Family::Clustered => 1,
            Family::ExpChain => 2,
            Family::Collinear => 3,
            Family::Duplicate => 4,
        }
    }

    /// Inverse of [`Family::code`].
    pub fn from_code(c: u8) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.code() == c)
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Static parameters of a churn scenario. Everything else — the op
/// stream, the coordinates, the picks — derives deterministically from
/// these three values plus the edit budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Instance family.
    pub family: Family,
    /// Target live population; the trace bootstraps to `n0` and then
    /// biases arrivals/departures to hover around it.
    pub n0: usize,
    /// Root seed of the op stream.
    pub seed: u64,
}

impl ChurnConfig {
    /// Side length of the scenario domain: `√n0`, i.e. unit density for
    /// the uniform family (the envelope regime); the other families map
    /// their coordinates into the same square.
    pub fn side(&self) -> f64 {
        (self.n0 as f64).sqrt().max(1.0)
    }
}

/// One churn edit. Coordinates are final positions (already
/// family-shaped); picks are raw draws the simulator resolves against
/// its sorted live-id list as `pick % live`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnOp {
    /// A node arrives at `(x, y)` and links to its nearest live node.
    Arrival {
        /// Arrival x coordinate.
        x: f64,
        /// Arrival y coordinate.
        y: f64,
    },
    /// A live node departs with all its links.
    Departure {
        /// Raw pick, resolved as `pick % live`.
        pick: u64,
    },
    /// A mobility step: the picked node departs and re-arrives at
    /// `(x, y)` (positions are immutable in the engine, so motion is
    /// modeled as depart + arrive; the node gets a fresh slot id).
    Move {
        /// Raw pick, resolved as `pick % live`.
        pick: u64,
        /// Destination x coordinate.
        x: f64,
        /// Destination y coordinate.
        y: f64,
    },
    /// Radius re-assignment (Korman's bounded-radius edit class, in
    /// link-derived form): toggle the link between the picked node and
    /// its `k`-th nearest live neighbor, which moves the picked node's
    /// radius `r_u = max` incident weight up or down.
    Relink {
        /// Raw pick, resolved as `pick % live`.
        pick: u64,
        /// Neighbor rank to toggle against, `1..=4`.
        k: u8,
    },
}

/// Deterministic op stream — see the module docs. Construct with
/// [`ChurnTrace::new`], resume mid-stream with [`ChurnTrace::from_parts`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnTrace {
    cfg: ChurnConfig,
    rng: SmallRng,
    /// Gaussian cluster centers ([`Family::Clustered`] only); derived
    /// from the seed alone, so never serialized.
    centers: Vec<Point>,
    /// The stream's own live-population model.
    live: u64,
    /// Ops left in the budget.
    remaining: u64,
    /// Whether the initial ramp to `n0` live nodes has completed; until
    /// then every op is an arrival.
    bootstrapped: bool,
}

/// Cluster-center count for [`Family::Clustered`]: enough clusters that
/// they stay distinct, few enough that each is dense.
fn cluster_count(n0: usize) -> usize {
    (n0 / 64).clamp(1, 64)
}

impl ChurnTrace {
    /// Opens the op stream for `cfg` with a budget of `edits` ops
    /// (bootstrap arrivals included).
    pub fn new(cfg: ChurnConfig, edits: u64) -> Self {
        assert!(cfg.n0 >= 1, "target population must be >= 1");
        // Centers come from a separate splitmix expansion so they are a
        // pure function of the seed, independent of stream position.
        let mut crng = SmallRng::seed_from_u64(cfg.seed ^ 0xC1E5_7E25_34DE_7A1B);
        let side = cfg.side();
        let centers = match cfg.family {
            Family::Clustered => (0..cluster_count(cfg.n0))
                .map(|_| Point::new(crng.gen::<f64>() * side, crng.gen::<f64>() * side))
                .collect(),
            _ => Vec::new(),
        };
        ChurnTrace {
            cfg,
            rng: SmallRng::seed_from_u64(cfg.seed),
            centers,
            live: 0,
            remaining: edits,
            bootstrapped: false,
        }
    }

    /// Rebuilds a stream mid-flight from snapshotted parts; returns
    /// `None` for a degenerate (all-zero) RNG state.
    pub fn from_parts(
        cfg: ChurnConfig,
        rng_state: [u64; 4],
        live: u64,
        remaining: u64,
        bootstrapped: bool,
    ) -> Option<Self> {
        let rng = SmallRng::from_state(rng_state)?;
        let mut t = ChurnTrace::new(cfg, remaining);
        t.rng = rng;
        t.live = live;
        t.bootstrapped = bootstrapped;
        Some(t)
    }

    /// The stream's configuration.
    pub fn config(&self) -> ChurnConfig {
        self.cfg
    }

    /// Snapshot of the stream state: `(rng_state, live, remaining,
    /// bootstrapped)` — exactly what [`ChurnTrace::from_parts`] takes.
    pub fn parts(&self) -> ([u64; 4], u64, u64, bool) {
        (self.rng.state(), self.live, self.remaining, self.bootstrapped)
    }

    /// The stream's live-population model (mirrors the simulator's
    /// live count at every step — asserted there).
    pub fn live_model(&self) -> u64 {
        self.live
    }

    /// Ops left in the budget.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Extends the budget by `extra` ops. The op stream is a pure
    /// function of `(rng state, live, bootstrapped)` — the budget only
    /// truncates it — so extending a resumed stream replays exactly the
    /// suffix an uninterrupted longer-budget stream would produce.
    pub fn extend_budget(&mut self, extra: u64) {
        self.remaining = self.remaining.saturating_add(extra);
    }

    /// One family-shaped coordinate pair.
    // rim-lint: allow(panic-freedom) — Clustered (the only arm touching centers) allocates >= 1 center
    fn position(&mut self) -> (f64, f64) {
        let side = self.cfg.side();
        let u1 = self.rng.gen::<f64>();
        let u2 = self.rng.gen::<f64>();
        match self.cfg.family {
            Family::Uniform => (u1 * side, u2 * side),
            Family::Clustered => {
                let k = self.centers.len() as f64;
                let scaled = u1 * k;
                let c = (scaled as usize).min(self.centers.len() - 1);
                // The fractional part is an independent uniform; turn it
                // into a Rayleigh radius so (r, θ) is an isotropic
                // Gaussian around the center, σ = side/20.
                let frac = (scaled - c as f64).clamp(0.0, 1.0 - 1e-12);
                let r = (side / 20.0) * (-2.0 * (1.0 - frac).ln()).sqrt();
                let a = std::f64::consts::TAU * u2;
                let p = self.centers[c];
                (p.x + r * a.cos(), p.y + r * a.sin())
            }
            // 2^-24 spans ~7 orders of magnitude of pairwise gaps.
            Family::ExpChain => (side * (-(u1 * 24.0)).exp2(), 0.0),
            Family::Collinear => (u1 * side, 0.0),
            Family::Duplicate => (
                (u1 * 16.0).floor() / 16.0 * side,
                (u2 * 8.0).floor() / 8.0 * side * 0.25,
            ),
        }
    }

    fn arrival(&mut self) -> ChurnOp {
        let (x, y) = self.position();
        ChurnOp::Arrival { x, y }
    }

    fn draw_op(&mut self) -> ChurnOp {
        if self.live == 0 || !self.bootstrapped {
            // Initial ramp (and recovery from an empty instance).
            self.live += 1;
            if self.live >= self.cfg.n0 as u64 {
                self.bootstrapped = true;
            }
            return self.arrival();
        }
        // Deficit-biased weights pull the population toward n0; the
        // rest splits evenly between mobility and relinking.
        let deficit = (self.cfg.n0 as f64 - self.live as f64) / self.cfg.n0 as f64;
        let p_arr = (0.12 + 0.4 * deficit).clamp(0.02, 0.75);
        let p_dep = (0.12 - 0.4 * deficit).clamp(0.02, 0.75);
        let r = self.rng.gen::<f64>();
        if r < p_arr {
            self.live += 1;
            self.arrival()
        } else if r < p_arr + p_dep {
            self.live -= 1;
            ChurnOp::Departure { pick: self.rng.next_u64() }
        } else if r < p_arr + p_dep + (1.0 - p_arr - p_dep) * 0.5 {
            let pick = self.rng.next_u64();
            let (x, y) = self.position();
            ChurnOp::Move { pick, x, y }
        } else {
            ChurnOp::Relink {
                pick: self.rng.next_u64(),
                k: (self.rng.next_u64() % 4) as u8 + 1,
            }
        }
    }
}

impl Iterator for ChurnTrace {
    type Item = ChurnOp;

    fn next(&mut self) -> Option<ChurnOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.draw_op())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (r, Some(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(family: Family) -> ChurnConfig {
        ChurnConfig { family, n0: 64, seed: 7 }
    }

    #[test]
    fn stream_is_deterministic_and_budgeted() {
        let a: Vec<ChurnOp> = ChurnTrace::new(cfg(Family::Uniform), 500).collect();
        let b: Vec<ChurnOp> = ChurnTrace::new(cfg(Family::Uniform), 500).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        let c: Vec<ChurnOp> = ChurnTrace::new(ChurnConfig { seed: 8, ..cfg(Family::Uniform) }, 500)
            .collect();
        assert_ne!(a, c, "different seeds must give different streams");
    }

    #[test]
    fn bootstrap_ramps_to_target_then_hovers() {
        let mut t = ChurnTrace::new(cfg(Family::Uniform), 5_000);
        for (i, op) in t.by_ref().take(64).enumerate() {
            assert!(matches!(op, ChurnOp::Arrival { .. }), "op {i} during bootstrap");
        }
        for _ in t.by_ref() {}
        let live = t.live_model() as i64;
        assert!((live - 64).abs() < 48, "population drifted to {live}");
    }

    #[test]
    fn parts_roundtrip_resumes_the_same_stream() {
        let mut a = ChurnTrace::new(cfg(Family::Clustered), 1_000);
        for _ in 0..257 {
            a.next();
        }
        let (rng, live, remaining, boot) = a.parts();
        let b = ChurnTrace::from_parts(cfg(Family::Clustered), rng, live, remaining, boot)
            .expect("live rng state");
        let rest_a: Vec<ChurnOp> = a.collect();
        let rest_b: Vec<ChurnOp> = b.collect();
        assert_eq!(rest_a, rest_b, "resumed stream diverged");
    }

    #[test]
    fn family_tags_and_codes_roundtrip() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.tag()), Some(f));
            assert_eq!(Family::from_code(f.code()), Some(f));
        }
        assert_eq!(Family::parse("nope"), None);
        assert_eq!(Family::from_code(200), None);
    }

    #[test]
    fn duplicate_family_actually_duplicates() {
        let ops: Vec<ChurnOp> = ChurnTrace::new(cfg(Family::Duplicate), 200).collect();
        let mut coords: Vec<(u64, u64)> = ops
            .iter()
            .filter_map(|op| match op {
                ChurnOp::Arrival { x, y } => Some((x.to_bits(), y.to_bits())),
                _ => None,
            })
            .collect();
        let total = coords.len();
        coords.sort_unstable();
        coords.dedup();
        assert!(coords.len() < total, "no coincident arrivals in {total} draws");
    }

    #[test]
    fn line_families_stay_on_the_line() {
        for fam in [Family::Collinear, Family::ExpChain] {
            for op in ChurnTrace::new(cfg(fam), 300) {
                if let ChurnOp::Arrival { y, .. } | ChurnOp::Move { y, .. } = op {
                    assert_eq!(y.to_bits(), 0, "{fam} arrival off the line");
                }
            }
        }
    }
}
