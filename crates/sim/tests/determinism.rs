//! Determinism of the simulation loop, pinned through the observability
//! counters.
//!
//! Two claims:
//!
//! 1. Same seed + same thread count ⇒ byte-identical metrics across two
//!    runs (the `Debug` rendering is compared, so even float formatting
//!    must match bit for bit).
//! 2. Different thread counts — exercised by building the input topology
//!    under the naive, indexed, and parallel construction engines, which
//!    use 0, 0, and N worker threads respectively — ⇒ identical metrics
//!    AND identical event-count counters. This pins down any hidden
//!    iteration-order dependence that the obs counters themselves could
//!    otherwise mask.
//!
//! Everything runs in ONE test function: the obs recorder is process-wide
//! and counter deltas would race against a concurrently running sibling
//! test that also drives the simulator.

use rim_core::receiver::Engine;
use rim_geom::Point;
use rim_sim::{MacConfig, SimConfig, Simulator, TrafficConfig};
use rim_topology_control::Baseline;
use rim_udg::udg::unit_disk_graph;
use rim_udg::NodeSet;

fn nodes() -> NodeSet {
    let mut state = 0xD1B5_4A32_D192_ED03u64;
    let mut rnd = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    NodeSet::new((0..40).map(|_| Point::new(rnd() * 2.0, rnd() * 2.0)).collect())
}

fn config() -> SimConfig {
    SimConfig {
        slots: 4_000,
        mac: MacConfig::csma(),
        traffic: TrafficConfig::Poisson { rate: 0.3 },
        alpha: 2.0,
        seed: 1234,
    }
}

/// Churn extension of the same two claims, against the long-horizon
/// workload: same `(seed, trace)` ⇒ byte-identical checkpoint JSONL,
/// and the churned end state reads identically under every batch
/// engine (naive / indexed / parallel — 0, 0, and N worker threads).
///
/// This test deliberately touches neither the obs recorder's installed
/// state nor the `sim.events` counter, so it can coexist with the
/// recorder-owning test below (churn increments only `churn.*` /
/// `dynamic.*` counters, which that test never reads).
#[test]
fn churn_runs_are_deterministic_and_engine_invariant() {
    use rim_churn::{ChurnConfig, ChurnSim, Family};
    use rim_core::receiver::{interference_vector_naive, interference_vector_with};

    let cfg = ChurnConfig { family: Family::Uniform, n0: 72, seed: 9_001 };
    let jsonl_of = |edits: u64| {
        let mut sim = ChurnSim::new(cfg, edits);
        let mut out = Vec::new();
        while sim.step().is_some() {
            if sim.counts().edits % 400 == 0 {
                out.push(sim.checkpoint_record());
            }
        }
        out.push(sim.checkpoint_record());
        (out.join("\n"), sim)
    };

    // Claim 1: replay from the same (seed, trace) is byte-identical.
    let (a, sim_a) = jsonl_of(3_000);
    let (b, sim_b) = jsonl_of(3_000);
    assert_eq!(a, b, "same (seed, trace): checkpoint JSONL must be byte-identical");
    assert!(a.lines().count() >= 8, "checkpoints did not sample the run");

    // Claim 2: the churned end state reads the same under every engine
    // (the fast engine shards across worker threads internally).
    let (t, slots) = sim_a.engine().live_topology();
    let want = interference_vector_naive(&t);
    for engine in [Engine::Naive, Engine::Auto] {
        assert_eq!(
            interference_vector_with(&t, engine),
            want,
            "engine {} diverged on the churned instance",
            engine.name()
        );
    }
    let got: Vec<usize> = slots.iter().map(|&v| sim_a.engine().interference_at(v)).collect();
    assert_eq!(got, want, "maintained churn counts diverged from the batch oracle");
    drop(sim_b);
}

#[test]
fn runs_are_deterministic_and_thread_count_invariant() {
    let ns = nodes();
    let udg = unit_disk_graph(&ns);
    let cfg = config();

    // Claim 1: identical seed and thread count ⇒ byte-identical metrics.
    let topology = Baseline::Gabriel.build_with(&ns, &udg, Engine::Auto);
    let first = Simulator::new(topology.clone(), cfg).run();
    let second = Simulator::new(topology, cfg).run();
    assert!(first.generated > 0, "traffic must actually flow");
    assert_eq!(
        format!("{first:?}"),
        format!("{second:?}"),
        "same seed, same thread count: metrics must be byte-identical"
    );

    // Claim 2: the construction path must not leak into the run. The
    // engines build the topology differently, so the metrics AND the
    // simulator's event counters must agree across them.
    let rec = rim_obs::install_recorder();
    let mut outcomes: Vec<(String, u64)> = Vec::new();
    for engine in [Engine::Naive, Engine::Auto] {
        let topology = Baseline::Gabriel.build_with(&ns, &udg, engine);
        let before = rec.counter("sim.events");
        let metrics = Simulator::new(topology, cfg).run();
        let events = rec.counter("sim.events") - before;
        assert!(events > 0, "engine {}: no events recorded", engine.name());
        outcomes.push((format!("{metrics:?}"), events));
    }
    assert!(
        outcomes.windows(2).all(|w| w[0] == w[1]),
        "metrics or event counters differ across construction engines: {outcomes:#?}"
    );
}
