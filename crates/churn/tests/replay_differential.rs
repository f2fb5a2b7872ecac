//! Replay-differential layer: the incrementally maintained churn state
//! is pinned against from-scratch recomputation, across all five
//! instance families, at sampled checkpoints of long seeded traces.
//!
//! Five pins:
//! * **Checkpointed exact equality** — maintained counts vs
//!   `interference_vector_naive` over the live topology, per family.
//! * **Engine invariance under churn** — the `Auto` engine (the SoA
//!   scatter) agrees with the naive oracle on churned instances (spot
//!   checks; full engine matrices live in `rim-core`'s own suite).
//! * **In-place compaction** — at every compaction of random traces on
//!   every family, `DynamicInterference::compact` equals replaying the
//!   live topology through `DynamicInterference::from_topology`.
//! * **√(ln n) envelope** — on the uniform family, `I(G')` stays inside
//!   the Devroye–Morin band across the *whole* trace (post-bootstrap).
//! * **Long-trace smoke** — a ≥10⁵-edit run, `#[ignore]`d so
//!   `cargo test -q` stays fast; run it in release mode with
//!   `--ignored`.

use rim_churn::{ChurnConfig, ChurnOp, ChurnSim, ChurnTrace, Family};
use rim_core::receiver::{interference_vector_naive, interference_vector_with, Engine};
use rim_core::DynamicInterference;
use rim_geom::Point;
use rim_rng::{prop, prop_ensure, prop_ensure_eq};
use rim_udg::NodeSet;

fn cfg(family: Family, n0: usize, seed: u64) -> ChurnConfig {
    ChurnConfig { family, n0, seed }
}

/// Maintained counts must equal a naive from-scratch recompute of the
/// live topology — the core differential invariant, here exercised by
/// real churn traces instead of synthetic edit lists.
fn assert_checkpoint_exact(s: &ChurnSim, context: &str) {
    let (t, slots) = s.engine().live_topology();
    let want = interference_vector_naive(&t);
    let got: Vec<usize> = slots.iter().map(|&v| s.engine().interference_at(v)).collect();
    assert_eq!(got, want, "maintained counts diverged ({context})");
    assert_eq!(
        s.graph_interference(),
        want.iter().copied().max().unwrap_or(0),
        "histogram max diverged ({context})"
    );
}

#[test]
fn checkpointed_equality_across_all_families() {
    for family in Family::ALL {
        for seed in [1u64, 2] {
            let mut s = ChurnSim::new(cfg(family, 96, seed), 4_000);
            let mut checkpoints = 0;
            while s.step().is_some() {
                if s.counts().edits % 500 == 0 {
                    assert_checkpoint_exact(
                        &s,
                        &format!("family={family} seed={seed} edit={}", s.counts().edits),
                    );
                    checkpoints += 1;
                }
            }
            assert_checkpoint_exact(&s, &format!("family={family} seed={seed} final"));
            assert!(checkpoints >= 8, "family {family}: checkpoints did not sample the trace");
        }
    }
}

#[test]
fn engines_agree_on_churned_instances() {
    // Duplicate and exp-chain are the families that historically break
    // spatial indexes (coincident points, multiscale gaps); uniform is
    // the volume case. Spot-check the engine matrix on churned states.
    for family in [Family::Uniform, Family::Duplicate, Family::ExpChain] {
        let mut s = ChurnSim::new(cfg(family, 80, 5), 2_500);
        s.run_to_end();
        let (t, _slots) = s.engine().live_topology();
        let want = interference_vector_naive(&t);
        for engine in [Engine::Naive, Engine::Auto] {
            assert_eq!(
                interference_vector_with(&t, engine),
                want,
                "{engine:?} diverged from naive on churned {family}"
            );
        }
    }
}

/// Every per-slot observable of an engine: position and radius bits,
/// coverage count and liveness.
fn slots(d: &DynamicInterference) -> Vec<(u64, u64, u64, usize, bool)> {
    (0..d.len())
        .map(|v| {
            let (p, r) = (d.position(v), d.radius(v));
            (p.x.to_bits(), p.y.to_bits(), r.to_bits(), d.interference_at(v), d.is_live(v))
        })
        .collect()
}

/// Drives one trace straight through the engine, as `ChurnSim` does,
/// but compacts whenever dead slots outnumber live ones past a floor of
/// 16 (the sim's floor of 256 would rarely compact a short trace). At
/// every compaction the engine compacted in place must equal the live
/// topology replayed edge by edge, and carry the maintained counts.
/// Returns the number of compactions.
fn compactions_match_the_replay(cfg: ChurnConfig, edits: u64) -> Result<u32, String> {
    let mut d = DynamicInterference::new(NodeSet::new(Vec::new()));
    let (mut live, mut near, mut compactions) = (Vec::<usize>::new(), Vec::new(), 0);
    let resolve = |live: &[usize], pick: u64| {
        pick.checked_rem(live.len() as u64).and_then(|i| live.get(i as usize)).copied()
    };
    let arrive = |d: &mut DynamicInterference, live: &mut Vec<usize>, near: &mut Vec<_>, p| {
        d.k_nearest_live(p, 1, None, near);
        let v = d.insert_node(p);
        if let Some(&(_, w)) = near.first() {
            d.insert_edge(v, w);
        }
        live.push(v);
    };
    let depart = |d: &mut DynamicInterference, live: &mut Vec<usize>, v: usize| {
        d.remove_node(v);
        live.retain(|&w| w != v);
    };
    for op in ChurnTrace::new(cfg, cfg.n0 as u64 + edits) {
        match op {
            ChurnOp::Arrival { x, y } => arrive(&mut d, &mut live, &mut near, Point::new(x, y)),
            ChurnOp::Departure { pick } => {
                if let Some(v) = resolve(&live, pick) {
                    depart(&mut d, &mut live, v);
                }
            }
            ChurnOp::Move { pick, x, y } => {
                if let Some(v) = resolve(&live, pick) {
                    depart(&mut d, &mut live, v);
                    arrive(&mut d, &mut live, &mut near, Point::new(x, y));
                }
            }
            ChurnOp::Relink { pick, k } => {
                if let Some(a) = resolve(&live, pick) {
                    d.k_nearest_live(d.position(a), k as usize, Some(a), &mut near);
                    if let Some(&(_, b)) = near.last() {
                        if !d.remove_edge(a, b) {
                            d.insert_edge(a, b);
                        }
                    }
                }
            }
        }
        if d.len() - d.live_count() <= d.live_count().max(16) {
            continue;
        }
        let (t, kept) = d.live_topology();
        let counts: Vec<usize> = kept.iter().map(|&v| d.interference_at(v)).collect();
        let replayed = DynamicInterference::from_topology(&t);
        d.compact();
        compactions += 1;
        prop_ensure_eq!(d.export_state(), replayed.export_state());
        prop_ensure_eq!(slots(&d), slots(&replayed));
        prop_ensure_eq!(d.coverage_histogram(), replayed.coverage_histogram());
        prop_ensure_eq!(d.graph_interference(), replayed.graph_interference());
        prop_ensure_eq!((0..d.len()).map(|v| d.interference_at(v)).collect::<Vec<_>>(), counts);
        live = (0..d.len()).collect();
    }
    let (t, kept) = d.live_topology();
    let got: Vec<usize> = kept.iter().map(|&v| d.interference_at(v)).collect();
    prop_ensure_eq!(got, interference_vector_naive(&t));
    Ok(compactions)
}

#[test]
fn in_place_compaction_matches_the_replayed_live_topology() {
    prop::check(
        "in_place_compaction_matches_the_replayed_live_topology",
        8,
        |rng| (rng.gen_range(16..80usize), rng.next_u64(), rng.gen_range(400..1200u64)),
        |&(n0, seed, edits)| {
            for family in Family::ALL {
                let cfg = ChurnConfig { family, n0, seed };
                let compactions = compactions_match_the_replay(cfg, edits)
                    .map_err(|e| format!("{family}: {e}"))?;
                prop_ensure!(compactions >= 2, "{family}: {compactions} compactions");
            }
            Ok(())
        },
    );
}

/// Devroye–Morin: on unit-density uniform instances with
/// nearest-neighbor-scale radii, max interference is Θ(√(log n)) w.h.p.
/// Churn keeps radii NN-*scale* but not NN-*minimal*: relink ops attach
/// k-th-nearest links (k ≤ 4), lifting the constant above the pure-NN
/// band of `rim_core::sqrt_log_envelope` — so the upper constant gets a
/// calibrated 1.35× allowance here (measured headroom ~1.25× at
/// n₀ = 4096 across seeds). A violation means churn broke either the
/// generator's uniformity or the maintained maximum.
fn churn_envelope(live: usize) -> (f64, f64) {
    let (lo, hi) = rim_core::sqrt_log_envelope(live);
    (lo, hi * 1.35)
}

#[test]
fn uniform_family_holds_the_envelope_across_the_trace() {
    for seed in [1u64, 2, 3] {
        let n0 = 1024;
        let mut s = ChurnSim::new(cfg(Family::Uniform, n0, seed), 20_000);
        while s.step().is_some() {
            let past_bootstrap = s.counts().edits > n0 as u64;
            if past_bootstrap && s.counts().edits % 500 == 0 {
                let (lo, hi) = churn_envelope(s.live_count());
                let max = s.graph_interference() as f64;
                assert!(
                    (lo..=hi).contains(&max),
                    "sqrt(log n) gate violated under churn: seed={seed} \
                     edit={} live={} max I = {max} outside [{lo:.2}, {hi:.2}]",
                    s.counts().edits,
                    s.live_count()
                );
            }
        }
    }
}

/// ≥10⁵-edit smoke at a service-sized population. Opt in with
/// `cargo test --release -p rim-churn --test replay_differential --
/// --ignored`; the `churn-uniform` workload of `benchmark/` times the
/// same engine over longer runs.
#[test]
#[ignore = "long-running; run in release mode with --ignored"]
fn long_trace_smoke() {
    let edits = 120_000u64;
    let mut s = ChurnSim::new(cfg(Family::Uniform, 4_096, 42), edits);
    while s.step().is_some() {
        if s.counts().edits % 20_000 == 0 {
            assert_checkpoint_exact(&s, &format!("edit {}", s.counts().edits));
            // Flat memory: slots bounded by the compaction invariant.
            let dead = s.engine().len() - s.engine().live_count();
            assert!(dead <= s.engine().live_count().max(256), "tombstones leaked: {dead}");
        }
    }
    assert_eq!(s.counts().edits, edits);
    assert_checkpoint_exact(&s, "final");
    let (lo, hi) = churn_envelope(s.live_count());
    let max = s.graph_interference() as f64;
    assert!((lo..=hi).contains(&max), "final max I {max} outside [{lo:.2}, {hi:.2}]");
}
