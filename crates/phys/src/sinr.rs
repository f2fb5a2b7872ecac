//! Coverage and SINR kernels over a [`PhysModel`], plus the
//! precomputed [`SinrTable`] SINR-threshold reception uses.
//!
//! Exactness contract (mirrors `rim-core::receiver`): the naive and
//! fast kernels evaluate the *same closed predicate at distance level*
//! (`dist(u,v) <= ρ_u`, resp. `<= c_u`), so their outputs are
//! bit-identical. The coverage counts are integers, so
//! [`physical_interference_vector`] runs the disk model's own scatter
//! ([`StreamInstance`]) over the radii `ρ_u`. The SINR kernels
//! accumulate per receiver in the *same ascending-sender order*, so the
//! additions into each `out[v]` slot happen in the identical sequence
//! with identical addends.

use crate::model::PhysModel;
use rim_core::parallel::num_threads;
use rim_core::receiver::build_index;
use rim_core::StreamInstance;
use rim_geom::SoaGrid;

/// The grid the cutoff-disk kernels scan: the disk kernels' index
/// heuristic ([`build_index`]) over the cutoff radii `c_u`.
fn build_phys_index(m: &PhysModel) -> SoaGrid {
    build_index(m.points(), (0..m.len()).map(|u| m.cutoff(u)))
}

/// Physical coverage counts, reference `O(n²)` implementation:
/// `out[v] = #{u != v : u transmits and dist(u,v) <= ρ_u}` — the
/// physical generalization of `interference_vector_naive`.
pub fn coverage_vector_naive(m: &PhysModel) -> Vec<usize> {
    let n = m.len();
    let mut out = vec![0usize; n];
    for u in 0..n {
        if !m.transmits(u) {
            continue; // silent nodes cover nothing
        }
        let rho_u = m.coverage_radius(u);
        let pu = m.pos(u);
        for (v, iv) in out.iter_mut().enumerate() {
            if v != u && pu.dist(&m.pos(v)) <= rho_u {
                *iv += 1;
            }
        }
    }
    out
}

/// Physical coverage counts, the fast kernel: the disk model's
/// structure-of-arrays scatter ([`StreamInstance::with_radii`]) on all
/// cores, with transmitter `u` at radius `ρ_u` and every node that
/// does not transmit silent. Equal to [`coverage_vector_naive`] on
/// every model (differential-tested).
// rim-lint: root
pub fn physical_interference_vector(m: &PhysModel) -> Vec<usize> {
    let _span = rim_obs::span("phys/coverage");
    let radii: Vec<Option<f64>> =
        (0..m.len()).map(|u| m.transmits(u).then(|| m.coverage_radius(u))).collect();
    StreamInstance::with_radii(m.points(), &radii)
        .interference_counts_sharded(num_threads())
        .into_iter()
        .map(|c| c as usize)
        .collect()
}

/// Per-node interference power (mW), reference `O(n²)` implementation:
/// `out[v] = Σ p_rx(u → v)` over transmitters `u != v` whose signal at
/// `v` is above the noise floor (`dist(u,v) <= c_u`).
///
/// This is the **permanent SINR oracle** (registered in the
/// `naive-oracle-retained` audit): every faster SINR kernel is
/// differential-tested against it, bit-for-bit.
pub fn sinr_interference_naive(m: &PhysModel) -> Vec<f64> {
    let n = m.len();
    let mut out = vec![0.0f64; n];
    for u in 0..n {
        if !m.transmits(u) {
            continue;
        }
        let cutoff_u = m.cutoff(u);
        let pu = m.pos(u);
        for (v, acc) in out.iter_mut().enumerate() {
            if v == u {
                continue;
            }
            let d = pu.dist(&m.pos(v));
            if d <= cutoff_u {
                *acc += m.rx_power_mw(u, d);
            }
        }
    }
    out
}

/// Per-node interference power via one closed-disk query of the
/// conservative cutoff radius `c_u` per transmitter, over a grid built
/// for the cutoffs.
///
/// Correctness of the cutoff: `c_u` is *model semantics*, not an
/// approximation knob — both kernels drop exactly the contributions
/// below the noise floor, so the indexed sums equal the naive oracle's
/// bit-for-bit (identical addends, identical per-receiver order; see
/// the module docs and `DESIGN.md` §11).
// rim-lint: root
pub fn sinr_interference_indexed(m: &PhysModel) -> Vec<f64> {
    let _span = rim_obs::span("phys/sinr_indexed");
    let index = build_phys_index(m);
    let n = m.len();
    let mut out = vec![0.0f64; n];
    let mut queries = 0u64;
    for u in 0..n {
        if !m.transmits(u) {
            continue;
        }
        queries += 1;
        let pu = m.pos(u);
        index.for_each_in_disk(pu, m.cutoff(u), |v| {
            if v != u {
                out[v] += m.rx_power_mw(u, pu.dist(&m.pos(v)));
            }
        });
    }
    rim_obs::counter_add("phys.cutoff_queries", queries);
    out
}

/// Precomputed SINR reception state: for each receiver, every
/// transmitter whose signal clears the noise floor, with its received
/// power — the physical analogue of the simulator's `Coverage` lists.
#[derive(Debug, Clone)]
pub struct SinrTable {
    /// `sources[v]` = ascending-`u` list of `(u, p_rx(u → v) in mW)`
    /// over transmitters `u != v` with `dist(u,v) <= c_u`.
    sources: Vec<Vec<(u32, f64)>>,
    noise_mw: f64,
    beta: f64,
}

impl SinrTable {
    /// Builds the reception table with one cutoff-disk query per
    /// transmitter (output-sensitive, like `Coverage::of`).
    pub fn of(m: &PhysModel) -> SinrTable {
        let _span = rim_obs::span("phys/sinr_table");
        let n = m.len();
        let index = build_phys_index(m);
        let mut sources: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for u in 0..n {
            if !m.transmits(u) {
                continue;
            }
            let pu = m.pos(u);
            index.for_each_in_disk(pu, m.cutoff(u), |v| {
                if v != u {
                    sources[v].push((u as u32, m.rx_power_mw(u, pu.dist(&m.pos(v)))));
                }
            });
        }
        SinrTable { sources, noise_mw: m.params().noise_mw, beta: m.params().beta }
    }

    /// The interference sources recorded for receiver `v` (ascending
    /// sender id, received power in mW).
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the structure
    pub fn sources(&self, v: usize) -> &[(u32, f64)] {
        &self.sources[v]
    }

    /// Decides whether a frame `u → v` transmitted in a slot is
    /// received, given the set of nodes transmitting in that slot —
    /// the SINR generalization of the boolean `Coverage::received`.
    ///
    /// Reception fails iff `v` itself transmits (half duplex) or the
    /// signal misses the SINR threshold: `S < β·(N + I)`, where `I`
    /// sums the recorded powers of every *other* concurrent
    /// transmitter. The comparison is multiplied out rather than
    /// divided so a zero denominator never arises.
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the structure
    pub fn received(&self, m: &PhysModel, u: usize, v: usize, is_tx: &[bool]) -> bool {
        if is_tx[v] {
            return false;
        }
        let signal_mw = m.link_rx_mw(u, v);
        let mut interference_mw = 0.0f64;
        for &(w, p_mw) in &self.sources[v] {
            if w as usize != u && is_tx[w as usize] {
                interference_mw += p_mw;
            }
        }
        signal_mw >= self.beta * (self.noise_mw + interference_mw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PhysModel, PhysParams};
    use rim_udg::{NodeSet, Topology};

    fn chain_model() -> PhysModel {
        let t = Topology::from_pairs(
            NodeSet::on_line(&[0.0, 0.3, 0.6, 0.9]),
            &[(0, 1), (1, 2), (2, 3)],
        );
        PhysModel::disk_equivalent(&t)
    }

    #[test]
    fn indexed_kernels_match_naive_bitwise() {
        let m = chain_model();
        assert_eq!(coverage_vector_naive(&m), physical_interference_vector(&m));
        let naive: Vec<u64> = sinr_interference_naive(&m).iter().map(|x| x.to_bits()).collect();
        let fast: Vec<u64> = sinr_interference_indexed(&m).iter().map(|x| x.to_bits()).collect();
        assert_eq!(naive, fast);
    }

    #[test]
    fn disk_limit_vector_matches_the_oracle_on_a_chain() {
        let t = Topology::from_pairs(
            NodeSet::on_line(&[0.0, 0.3, 0.6, 0.9]),
            &[(0, 1), (1, 2), (2, 3)],
        );
        let m = PhysModel::disk_equivalent(&t);
        let oracle = rim_core::interference_vector_naive(&t);
        assert_eq!(coverage_vector_naive(&m), oracle);
        assert_eq!(physical_interference_vector(&m), oracle);
    }

    #[test]
    fn silent_nodes_contribute_nothing() {
        let t = Topology::empty(NodeSet::on_line(&[0.0, 0.5, 1.0]));
        let m = PhysModel::with_params(&t, PhysParams::default(), &[1.0, 1.0, 1.0]);
        assert_eq!(coverage_vector_naive(&m), vec![0, 0, 0]);
        assert_eq!(physical_interference_vector(&m), vec![0, 0, 0]);
        assert!(sinr_interference_naive(&m).iter().all(|&p_mw| p_mw == 0.0)); // rim-lint: allow(float-eq) — exact zero: no addend was ever summed
    }

    #[test]
    fn lone_transmission_is_received_and_interference_destroys_it() {
        let m = chain_model();
        let table = SinrTable::of(&m);
        let mut tx = vec![false; 4];
        tx[0] = true;
        assert!(table.received(&m, 0, 1, &tx), "lone frame clears β");
        tx[2] = true;
        assert!(!table.received(&m, 0, 1, &tx), "equal-power coverer at node 1 destroys it");
        assert!(!table.received(&m, 0, 0, &tx), "half duplex: a transmitter cannot listen");
    }
}
