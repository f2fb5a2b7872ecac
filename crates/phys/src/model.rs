//! The physical model: parameters, per-node derived state, and the
//! disk-equivalent construction.

use crate::pathloss::{
    coverage_range, db_to_linear, dbm_to_mw, standard_normal, standard_normal_max,
};
use rim_geom::Point;
use rim_rng::SmallRng;
use rim_udg::Topology;

/// Parameters of the log-distance SINR model. All power-like fields
/// are **linear milliwatts** (`_mw`); log-domain figures carry `_db`.
/// Build one from radio-style dBm/dB figures with
/// [`PhysParams::from_link_budget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysParams {
    /// Path-loss exponent `α` (2 = free space, 3–4 = indoor/urban).
    pub alpha: f64,
    /// Near-field clamp: received power at distances below this is
    /// evaluated at this distance, keeping `p/d^α` finite for
    /// coincident nodes.
    pub near_field: f64,
    /// Coverage threshold `θ` in mW: `u` covers `v` iff the received
    /// power meets it — the step function the disk model takes to its
    /// `r_u` limit.
    pub theta_mw: f64,
    /// Noise floor `N` in mW. Also the interference cutoff level: a
    /// transmitter whose signal arrives below the floor is absorbed
    /// into it rather than summed (see `DESIGN.md` §11).
    pub noise_mw: f64,
    /// SINR acceptance threshold `β` (linear ratio): a frame is
    /// received iff `S ≥ β·(N + I)`.
    pub beta: f64,
    /// Log-normal shadowing spread `σ` in dB; 0 disables shadowing.
    pub sigma_db: f64,
    /// Seed of the per-node shadowing draws ([`rim_rng::SmallRng`],
    /// never the wall clock).
    pub shadow_seed: u64,
}

impl Default for PhysParams {
    /// An indoor-flavoured default: `α = 3`, −85 dBm sensitivity,
    /// −100 dBm noise floor, 10 dB SINR margin, no shadowing.
    fn default() -> Self {
        PhysParams {
            alpha: 3.0,
            near_field: 1e-3,
            theta_mw: crate::pathloss::dbm_to_mw(-85.0),
            noise_mw: crate::pathloss::dbm_to_mw(-100.0),
            beta: db_to_linear(10.0),
            sigma_db: 0.0,
            shadow_seed: 0,
        }
    }
}

/// Headroom every received power keeps below `f64::MAX`: a SINR sum
/// adds fewer than `2^32` of them (the grid's id range), and twice that
/// leaves room for the sum's rounding.
const SUM_HEADROOM: f64 = (1u64 << 33) as f64;

/// A link budget [`PhysParams::from_link_budget`] rejects: the figure
/// at fault, by its flag name (`alpha`, `power-dbm`, `theta-dbm`,
/// `noise-dbm`, `beta-db` or `sigma-db`), and why.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkBudgetError {
    /// The rejected figure.
    pub figure: &'static str,
    /// Why it was rejected.
    pub reason: String,
}

impl std::fmt::Display for LinkBudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.figure, self.reason)
    }
}

impl std::error::Error for LinkBudgetError {}

/// `to_linear(level)`, if `level` is finite and its linear value is
/// positive and finite.
fn linear(
    figure: &'static str,
    level: f64,
    to_linear: fn(f64) -> f64,
) -> Result<f64, LinkBudgetError> {
    let value = to_linear(level);
    if level.is_finite() && value > 0.0 && value.is_finite() {
        Ok(value)
    } else {
        Err(LinkBudgetError {
            figure,
            reason: "must be finite, with a positive, finite linear value".to_string(),
        })
    }
}

impl PhysParams {
    /// Builds parameters from radio-style log-domain figures — every
    /// node's transmit power, the sensitivity and the noise floor in
    /// dBm, the SINR threshold and the shadowing spread in dB — and
    /// rejects any budget under which a model quantity would leave the
    /// f64 range:
    ///
    /// * `alpha` must be finite and positive, and the near-field path
    ///   gain `near_field^-α` finite with room to sum received powers;
    /// * every dBm and dB figure must be finite, with a positive,
    ///   finite linear value, and `sigma_db >= 0`;
    /// * the strongest received power — the transmit power, raised by
    ///   the largest shadowing draw [`standard_normal`] can return and
    ///   received at the near-field distance — must leave the same
    ///   room, so every effective power, received power and SINR sum of
    ///   the model is finite. (A tiny `alpha` can still make a coverage
    ///   radius infinite: that node covers every other.)
    ///
    /// This is the one place link-budget figures from outside the
    /// program are checked; [`PhysModel::with_params`] asserts that the
    /// parameters and powers it is handed meet the same bounds.
    // rim-lint: root
    pub fn from_link_budget(
        alpha: f64,
        power_dbm: f64,
        theta_dbm: f64,
        noise_dbm: f64,
        beta_db: f64,
        sigma_db: f64,
        shadow_seed: u64,
    ) -> Result<PhysParams, LinkBudgetError> {
        let near_field = PhysParams::default().near_field;
        let near_gain = near_field.powf(-alpha);
        if !(alpha.is_finite() && alpha > 0.0 && (near_gain * SUM_HEADROOM).is_finite()) {
            return Err(LinkBudgetError {
                figure: "alpha",
                reason: format!(
                    "must be finite and > 0, with a finite path gain at the near-field \
                     distance {near_field}"
                ),
            });
        }
        let power_mw = linear("power-dbm", power_dbm, dbm_to_mw)?;
        let theta_mw = linear("theta-dbm", theta_dbm, dbm_to_mw)?;
        let noise_mw = linear("noise-dbm", noise_dbm, dbm_to_mw)?;
        let beta = linear("beta-db", beta_db, db_to_linear)?;
        if !(sigma_db.is_finite() && sigma_db >= 0.0) {
            return Err(LinkBudgetError {
                figure: "sigma-db",
                reason: "must be finite and >= 0".to_string(),
            });
        }
        let strongest_mw = power_mw * db_to_linear(sigma_db * standard_normal_max());
        for (figure, tx_mw) in [("power-dbm", power_mw), ("sigma-db", strongest_mw)] {
            if !(tx_mw * near_gain * SUM_HEADROOM).is_finite() {
                return Err(LinkBudgetError {
                    figure,
                    reason: format!(
                        "transmit powers up to {tx_mw:e} mW would be received past the f64 \
                         range at the near-field distance {near_field} for this alpha"
                    ),
                });
            }
        }
        Ok(PhysParams {
            alpha,
            theta_mw,
            noise_mw,
            beta,
            sigma_db,
            shadow_seed,
            ..PhysParams::default()
        })
    }
}

/// A topology instantiated under [`PhysParams`]: per-node effective
/// powers with shadowing folded in, and the two derived radii every
/// kernel shares — the coverage radius `ρ_u` and the noise-floor
/// cutoff `c_u ≥ ρ_u`.
///
/// Transmit gating mirrors the disk kernels: a node transmits iff it
/// has at least one neighbor, regardless of its power (a zero-length
/// link between coincident nodes still carries traffic).
#[derive(Debug, Clone)]
pub struct PhysModel {
    params: PhysParams,
    points: Vec<Point>,
    transmits: Vec<bool>,
    power_mw: Vec<f64>,
    rho: Vec<f64>,
    cutoff: Vec<f64>,
}

impl PhysModel {
    /// Instantiates the model with explicit per-node transmit powers
    /// (mW). With `sigma_db > 0`, each node's power is scaled by an
    /// independent log-normal factor `10^(X_u/10)`, `X_u ~ N(0, σ²)`,
    /// drawn from a [`SmallRng`] seeded with `shadow_seed` — one draw
    /// per node in index order, so the same seed always yields the
    /// same fading landscape.
    ///
    /// Panics unless `params` and the powers meet the bounds
    /// [`PhysParams::from_link_budget`] guarantees: `alpha`,
    /// `near_field`, `theta_mw`, `noise_mw` and `beta` finite and > 0,
    /// `sigma_db` finite and >= 0, every power finite and >= 0, and the
    /// strongest received power of each (raised by the largest shadowing
    /// draw, at the near-field distance) with room to sum `2^32` of
    /// them. The fields are `pub`, so a struct literal can break them,
    /// and a NaN coverage radius would otherwise count as silence.
    pub fn with_params(t: &Topology, params: PhysParams, tx_power_mw: &[f64]) -> PhysModel {
        assert_eq!(t.num_nodes(), tx_power_mw.len(), "one transmit power per node");
        assert!(params.alpha.is_finite() && params.alpha > 0.0, "alpha must be finite and > 0");
        for (field, value) in [
            ("near_field", params.near_field),
            ("theta_mw", params.theta_mw),
            ("noise_mw", params.noise_mw),
            ("beta", params.beta),
        ] {
            assert!(value.is_finite() && value > 0.0, "{field} must be finite and > 0");
        }
        assert!(
            params.sigma_db.is_finite() && params.sigma_db >= 0.0,
            "sigma_db must be finite and >= 0"
        );
        let near_gain = params.near_field.powf(-params.alpha);
        let strongest_draw = db_to_linear(params.sigma_db * standard_normal_max());
        let mut rng = SmallRng::seed_from_u64(params.shadow_seed);
        let effective_mw: Vec<f64> = tx_power_mw
            .iter()
            .map(|&p_mw| {
                assert!(p_mw >= 0.0 && p_mw.is_finite(), "powers must be finite and >= 0");
                assert!(
                    (p_mw * strongest_draw * near_gain * SUM_HEADROOM).is_finite(),
                    "received powers must leave room to sum 2^32 of them"
                );
                if params.sigma_db > 0.0 {
                    p_mw * db_to_linear(params.sigma_db * standard_normal(&mut rng))
                } else {
                    p_mw
                }
            })
            .collect();
        PhysModel::assemble(t, params, effective_mw)
    }

    /// The disk-limit instantiation (`DESIGN.md` §11): `α = 2`,
    /// `θ = 1 mW`, zero shadowing, and `p_u = r_u²`. Then
    /// `ρ_u = √(p_u/θ) = √(r_u·r_u) = r_u` **exactly** (IEEE-754
    /// round-to-nearest: the square root of an exact square rounds
    /// back to its root, and dividing by 1.0 is the identity), so
    /// physical coverage coincides bit-for-bit with the paper's disk
    /// coverage — the contract the differential layer pins.
    pub fn disk_equivalent(t: &Topology) -> PhysModel {
        let params = PhysParams {
            alpha: 2.0,
            near_field: 1e-6,
            theta_mw: 1.0,
            noise_mw: 1e-12,
            beta: 1.0,
            sigma_db: 0.0,
            shadow_seed: 0,
        };
        let power_mw: Vec<f64> = t.radii().iter().map(|&r| r * r).collect();
        PhysModel::assemble(t, params, power_mw)
    }

    /// Shared tail of the constructors: derive gating and the two
    /// radii. `ρ_u` solves `p_u/d^α = θ`; the cutoff solves the same
    /// equation at the noise floor and is clamped to at least `ρ_u` so
    /// the coverage disk is always inside the cutoff disk.
    fn assemble(t: &Topology, params: PhysParams, power_mw: Vec<f64>) -> PhysModel {
        let n = t.num_nodes();
        let mut transmits = Vec::with_capacity(n);
        let mut rho = Vec::with_capacity(n);
        let mut cutoff = Vec::with_capacity(n);
        for (u, &p_mw) in power_mw.iter().enumerate() {
            transmits.push(t.graph().degree(u) > 0);
            let rho_u = coverage_range(p_mw, params.theta_mw, params.alpha);
            rho.push(rho_u);
            cutoff.push(rho_u.max(coverage_range(p_mw, params.noise_mw, params.alpha)));
        }
        PhysModel {
            params,
            points: t.nodes().points().to_vec(),
            transmits,
            power_mw,
            rho,
            cutoff,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` for the empty node set.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The model parameters.
    pub fn params(&self) -> &PhysParams {
        &self.params
    }

    /// Every node's position, in node order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Position of node `u`.
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the structure
    pub fn pos(&self, u: usize) -> Point {
        self.points[u]
    }

    /// Whether node `u` transmits (has at least one neighbor).
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the structure
    pub fn transmits(&self, u: usize) -> bool {
        self.transmits[u]
    }

    /// Effective transmit power of `u` in mW (shadowing folded in).
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the structure
    pub fn power_mw(&self, u: usize) -> f64 {
        self.power_mw[u]
    }

    /// Coverage radius `ρ_u`: the largest distance at which `u`'s
    /// signal still meets the coverage threshold `θ`.
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the structure
    pub fn coverage_radius(&self, u: usize) -> f64 {
        self.rho[u]
    }

    /// Interference cutoff `c_u ≥ ρ_u`: beyond it `u`'s signal falls
    /// below the noise floor and is absorbed into it.
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the structure
    pub fn cutoff(&self, u: usize) -> f64 {
        self.cutoff[u]
    }

    /// Received power (mW) at distance `d` from transmitter `u` under
    /// the log-distance law, with the near-field clamp applied.
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the structure
    pub fn rx_power_mw(&self, u: usize, d: f64) -> f64 {
        let clamped = d.max(self.params.near_field);
        // rim-lint: allow(float-eq) — same exact-α fast path as coverage_range
        let loss = if self.params.alpha == 2.0 {
            clamped * clamped
        } else {
            clamped.powf(self.params.alpha)
        };
        self.power_mw[u] / loss
    }

    /// Received power (mW) at node `v` from transmitter `u`.
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the structure
    pub fn link_rx_mw(&self, u: usize, v: usize) -> f64 {
        self.rx_power_mw(u, self.points[u].dist(&self.points[v]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_udg::NodeSet;

    fn chain() -> Topology {
        Topology::from_pairs(
            NodeSet::on_line(&[0.0, 0.3, 0.6, 0.9]),
            &[(0, 1), (1, 2), (2, 3)],
        )
    }

    #[test]
    fn disk_equivalent_reproduces_the_radii_exactly() {
        let t = chain();
        let m = PhysModel::disk_equivalent(&t);
        for u in 0..t.num_nodes() {
            assert_eq!(m.coverage_radius(u).to_bits(), t.radius(u).to_bits(), "u={u}");
            assert!(m.cutoff(u) >= m.coverage_radius(u));
            assert_eq!(m.transmits(u), t.graph().degree(u) > 0);
        }
    }

    #[test]
    fn shadowing_is_seed_deterministic_and_sigma_zero_is_identity() {
        let t = chain();
        let powers_mw = vec![1.0; 4];
        let mut params = PhysParams { sigma_db: 6.0, shadow_seed: 11, ..PhysParams::default() };
        let a = PhysModel::with_params(&t, params, &powers_mw);
        let b = PhysModel::with_params(&t, params, &powers_mw);
        for u in 0..4 {
            assert_eq!(a.power_mw(u).to_bits(), b.power_mw(u).to_bits(), "same seed");
        }
        params.shadow_seed = 12;
        let c = PhysModel::with_params(&t, params, &powers_mw);
        assert!(
            (0..4).any(|u| a.power_mw(u).to_bits() != c.power_mw(u).to_bits()),
            "different seed must move some power"
        );
        params.sigma_db = 0.0;
        let plain = PhysModel::with_params(&t, params, &powers_mw);
        for u in 0..4 {
            assert_eq!(plain.power_mw(u).to_bits(), 1.0f64.to_bits(), "σ=0 leaves powers");
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be finite and > 0")]
    fn with_params_rejects_a_nan_path_loss_exponent() {
        let params = PhysParams { alpha: f64::NAN, ..PhysParams::default() };
        PhysModel::with_params(&chain(), params, &[1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "theta_mw must be finite and > 0")]
    fn with_params_rejects_a_zero_threshold() {
        // θ = N = 0 made every coverage radius of a zero power 0/0 = NaN.
        let params = PhysParams { theta_mw: 0.0, noise_mw: 0.0, ..PhysParams::default() };
        PhysModel::with_params(&chain(), params, &[0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "room to sum")]
    fn with_params_rejects_powers_past_the_headroom() {
        PhysModel::with_params(&chain(), PhysParams::default(), &[1e300; 4]);
    }

    #[test]
    fn near_field_keeps_coincident_nodes_finite() {
        let ns = NodeSet::new(vec![Point::ORIGIN, Point::ORIGIN]);
        let t = Topology::from_pairs(ns, &[(0, 1)]);
        let m = PhysModel::with_params(&t, PhysParams::default(), &[1.0, 1.0]);
        assert!(m.link_rx_mw(0, 1).is_finite());
        assert!(m.link_rx_mw(0, 1) > 0.0);
    }
}
