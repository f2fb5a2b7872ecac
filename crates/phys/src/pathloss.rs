//! dB/linear conversions, the log-distance path-loss law, and the
//! Gaussian sampler behind log-normal shadowing.
//!
//! Naming convention (machine-enforced by the `rim-xtask` units
//! lattice): log-domain quantities carry a `_db`/`_dbm` suffix, linear
//! powers a `_mw` suffix. The two domains must never meet in an
//! addition or comparison without an explicit conversion through
//! [`dbm_to_mw`] / [`db_to_linear`] — adding dBm to mW is the classic
//! link-budget bug this convention exists to prevent.

use rim_rng::SmallRng;

/// Linear power in milliwatts of a dBm level: `10^(dbm/10)`.
pub fn dbm_to_mw(level_dbm: f64) -> f64 {
    10f64.powf(level_dbm / 10.0)
}

/// dBm level of a linear milliwatt power. Returns `-inf` for zero
/// power (a silent node); callers that print levels gate on that.
pub fn mw_to_dbm(power_mw: f64) -> f64 {
    10.0 * power_mw.log10()
}

/// Dimensionless linear ratio of a dB figure: `10^(db/10)`.
pub fn db_to_linear(gain_db: f64) -> f64 {
    10f64.powf(gain_db / 10.0)
}

/// Largest distance at which a transmit power of `power_mw` still
/// meets `threshold_mw` under the log-distance law with exponent
/// `alpha`: the `d` solving `power_mw / d^α = threshold_mw`, i.e.
/// `(power_mw/threshold_mw)^(1/α)`.
///
/// The `α = 2` case is computed as a square root rather than a generic
/// `powf`: IEEE-754 round-to-nearest square roots of exact squares
/// round back to their root, which is precisely what makes the
/// disk-equivalent model (`p_u = r_u²`, `θ = 1`) reproduce the disk
/// radius `r_u` **exactly** — see `DESIGN.md` §11.
pub fn coverage_range(power_mw: f64, threshold_mw: f64, alpha: f64) -> f64 {
    let ratio = power_mw / threshold_mw;
    // rim-lint: allow(float-eq) — exact-α fast path: α is configuration, not a computed float, and the sqrt form carries the disk-limit exactness argument
    if alpha == 2.0 {
        ratio.sqrt()
    } else {
        ratio.powf(alpha.recip())
    }
}

/// The largest magnitude [`standard_normal`] returns, about 8.57: its
/// radial term at the smallest argument the logarithm sees, `2^-53`.
pub(crate) fn standard_normal_max() -> f64 {
    (-2.0 * (f64::EPSILON / 2.0).ln()).sqrt()
}

/// One standard-normal draw (Box–Muller, cosine branch).
///
/// `u1` is reflected to `(0, 1]` before the logarithm so the argument
/// is never zero; the draw consumes exactly two generator outputs, so
/// sequences of draws are seed-reproducible position by position.
pub fn standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen();
    let u2: f64 = rng.gen();
    let radial = (-2.0 * (1.0 - u1).ln()).sqrt();
    radial * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_roundtrips_through_mw() {
        for level_dbm in [-100.0, -85.0, -30.0, 0.0, 10.0, 20.0] {
            let back_dbm = mw_to_dbm(dbm_to_mw(level_dbm));
            assert!((back_dbm - level_dbm).abs() < 1e-9, "{level_dbm} -> {back_dbm}");
        }
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12, "0 dBm is 1 mW");
        assert!((dbm_to_mw(10.0) - 10.0).abs() < 1e-9, "10 dBm is 10 mW");
        assert!(mw_to_dbm(0.0) == f64::NEG_INFINITY); // rim-lint: allow(float-eq) — exact IEEE semantics of log10(0) under test
    }

    #[test]
    fn coverage_range_inverts_the_path_loss() {
        // d = coverage_range(p, θ, α) must satisfy p/d^α ≈ θ.
        for (p_mw, theta_mw, alpha) in [(4.0, 1.0, 2.0), (10.0, 0.5, 3.0), (0.09, 1.0, 2.0)] {
            let d = coverage_range(p_mw, theta_mw, alpha);
            let rx_mw = p_mw / d.powf(alpha);
            assert!((rx_mw - theta_mw).abs() < 1e-9 * theta_mw, "{p_mw}/{theta_mw}/{alpha}");
        }
    }

    #[test]
    fn alpha_two_range_of_a_square_is_exact() {
        // The disk-limit identity: √(r·r) = r bit-for-bit, including
        // across many magnitudes (the exp-chain stress family).
        for i in -60..=60 {
            let r = 1.37f64 * 2f64.powi(i);
            let rho = coverage_range(r * r, 1.0, 2.0);
            assert_eq!(rho.to_bits(), r.to_bits(), "r = {r}");
        }
    }

    #[test]
    fn standard_normal_moments_and_determinism() {
        let mut rng = SmallRng::seed_from_u64(2005);
        let n = 50_000;
        let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            assert!(x.abs() <= standard_normal_max());
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
        // Same seed, same stream.
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(standard_normal(&mut a).to_bits(), standard_normal(&mut b).to_bits());
        }
    }
}
