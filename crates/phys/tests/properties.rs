//! Property suite for the SINR model: monotonicity in the receiver
//! thresholds and exact invariance under power-of-two rescaling of the
//! whole power domain.

use rim_phys::{
    coverage_vector_naive, sinr_interference_indexed, sinr_interference_naive, PhysModel,
    PhysParams, SinrTable,
};
use rim_geom::Point;
use rim_rng::prop::check;
use rim_rng::{prop_ensure, SmallRng};
use rim_udg::{NodeSet, Topology};

/// Random topology with random per-node powers and a generic link
/// budget (α = 3, no shadowing so both sides of each comparison see the
/// same effective powers).
fn gen_instance(rng: &mut SmallRng) -> (Topology, Vec<f64>, PhysParams) {
    let n = rng.gen_range(2usize..32);
    let side = rng.gen_range(0.5f64..4.0);
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let mut seen = std::collections::HashSet::new();
    let mut pairs = Vec::new();
    for _ in 0..rng.gen_range(1usize..2 * n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b && seen.insert((a.min(b), a.max(b))) {
            pairs.push((a, b));
        }
    }
    let t = Topology::from_pairs(NodeSet::new(pts), &pairs);
    let power_mw: Vec<f64> = (0..n).map(|_| 10f64.powf(rng.gen_range(-2.0f64..2.0))).collect();
    let params = PhysParams {
        theta_mw: 10f64.powf(rng.gen_range(-9.0f64..-3.0)),
        noise_mw: 10f64.powf(rng.gen_range(-13.0f64..-10.0)),
        sigma_db: 0.0,
        ..PhysParams::default()
    };
    (t, power_mw, params)
}

/// Raising the coverage threshold `θ` can only shrink coverage disks,
/// so no node's coverage count may increase.
#[test]
fn raising_theta_never_increases_coverage() {
    check(
        "raising_theta_never_increases_coverage",
        192,
        |rng| {
            let (t, p, params) = gen_instance(rng);
            let factor = 10f64.powf(rng.gen_range(0.0f64..3.0));
            (t, p, params, factor)
        },
        |(t, power_mw, params, factor)| {
            let lo = PhysModel::with_params(t, *params, power_mw);
            let hi_params = PhysParams { theta_mw: params.theta_mw * factor, ..*params };
            let hi = PhysModel::with_params(t, hi_params, power_mw);
            let cov_lo = coverage_vector_naive(&lo);
            let cov_hi = coverage_vector_naive(&hi);
            for (v, (&c_hi, &c_lo)) in cov_hi.iter().zip(&cov_lo).enumerate() {
                prop_ensure!(
                    c_hi <= c_lo,
                    "coverage at {v} grew from {c_lo} to {c_hi} when θ rose by ×{factor}"
                );
            }
            Ok(())
        },
    );
}

/// Raising the noise floor can only shrink the interference cutoff
/// disks, so every per-node interference sum can only lose (non-
/// negative) addends.
#[test]
fn raising_noise_floor_never_increases_interference() {
    check(
        "raising_noise_floor_never_increases_interference",
        192,
        |rng| {
            let (t, p, params) = gen_instance(rng);
            let factor = 10f64.powf(rng.gen_range(0.0f64..4.0));
            (t, p, params, factor)
        },
        |(t, power_mw, params, factor)| {
            let lo = PhysModel::with_params(t, *params, power_mw);
            let hi_params = PhysParams { noise_mw: params.noise_mw * factor, ..*params };
            let hi = PhysModel::with_params(t, hi_params, power_mw);
            let sums_lo = sinr_interference_naive(&lo);
            let sums_hi = sinr_interference_naive(&hi);
            for (v, (&s_hi, &s_lo)) in sums_hi.iter().zip(&sums_lo).enumerate() {
                prop_ensure!(
                    s_hi <= s_lo,
                    "interference at {v} grew from {s_lo} to {s_hi} mW when N rose by ×{factor}"
                );
            }
            Ok(())
        },
    );
}

/// Raising the SINR acceptance threshold `β` (or the noise floor) can
/// only turn received frames into lost ones, never the reverse.
#[test]
fn raising_beta_never_accepts_new_frames() {
    check(
        "raising_beta_never_accepts_new_frames",
        192,
        |rng| {
            let (t, p, params) = gen_instance(rng);
            let factor = 10f64.powf(rng.gen_range(0.0f64..2.0));
            let pattern: u64 = rng.gen_range(0..u64::MAX);
            (t, p, params, factor, pattern)
        },
        |(t, power_mw, params, factor, pattern)| {
            let n = t.num_nodes();
            let lo = PhysModel::with_params(t, *params, power_mw);
            let hi_params = PhysParams { beta: params.beta * factor, ..*params };
            let hi = PhysModel::with_params(t, hi_params, power_mw);
            let table_lo = SinrTable::of(&lo);
            let table_hi = SinrTable::of(&hi);
            let is_tx: Vec<bool> = (0..n).map(|i| pattern >> (i % 64) & 1 == 1).collect();
            for u in 0..n {
                for v in 0..n {
                    if u == v {
                        continue;
                    }
                    prop_ensure!(
                        !table_hi.received(&hi, u, v, &is_tx)
                            || table_lo.received(&lo, u, v, &is_tx),
                        "frame {u}->{v} received under β×{factor} but lost under β"
                    );
                }
            }
            Ok(())
        },
    );
}

/// Scaling every power-domain quantity (transmit powers, θ, noise) by
/// the same power of two is float-exact, so coverage counts are
/// identical and interference sums scale *bitwise* exactly.
#[test]
fn power_of_two_rescaling_is_exact() {
    check(
        "power_of_two_rescaling_is_exact",
        192,
        |rng| {
            let (t, p, params) = gen_instance(rng);
            let k = rng.gen_range(0u32..81) as i32 - 40; // 2^-40 .. 2^40
            (t, p, params, k)
        },
        |(t, power_mw, params, k)| {
            let scale = 2f64.powi(*k);
            let base = PhysModel::with_params(t, *params, power_mw);
            let scaled_params = PhysParams {
                theta_mw: params.theta_mw * scale,
                noise_mw: params.noise_mw * scale,
                ..*params
            };
            let scaled_power: Vec<f64> = power_mw.iter().map(|&p| p * scale).collect();
            let scaled = PhysModel::with_params(t, scaled_params, &scaled_power);
            prop_ensure!(
                coverage_vector_naive(&base) == coverage_vector_naive(&scaled),
                "coverage counts changed under a 2^{k} rescale"
            );
            let sums = sinr_interference_naive(&base);
            let scaled_sums = sinr_interference_indexed(&scaled);
            for (v, (&s, &ss)) in sums.iter().zip(&scaled_sums).enumerate() {
                prop_ensure!(
                    // rim-lint: allow(float-eq) — comparing u64 bit patterns; exactness is the property
                    (s * scale).to_bits() == ss.to_bits(),
                    "sum at {v} not exactly rescaled: {s} * 2^{k} != {ss}"
                );
            }
            Ok(())
        },
    );
}
