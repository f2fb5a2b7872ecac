//! The churn simulator: applies a [`ChurnTrace`] to the incremental
//! interference engine, keeping memory flat over million-edit horizons.
//!
//! The hot path is [`ChurnSim::apply_edit`]: resolve the op against the
//! sorted live-id list and mutate [`DynamicInterference`]
//! (`O(affected)`). Arrivals and relinks find their partners with the
//! engine's own nearest-live query, [`DynamicInterference::k_nearest_live`],
//! so the sim keeps no index of its own. Departures tombstone their
//! slot; once dead slots outnumber live ones the sim **compacts** —
//! moves the engine's live slots down to dense ids in place, carrying
//! their maintained counts ([`DynamicInterference::compact`]) — so a
//! sustained run's footprint tracks the live population, not the edit
//! count. Compaction is a deterministic function of the edit sequence,
//! so replays (and snapshot restores) reproduce it exactly. It and the
//! engine's index rebuild are the two stalls of an edit stream, traced
//! as the `churn.compact` and `dynamic.index_rebuild` spans.
//!
//! Everything observable is deterministic: op resolution uses the
//! sorted id list, nearest-neighbor queries tie-break on `(distance,
//! id)`, and the op counters ([`OpCounts`]) travel inside snapshots.
//! Wall-clock latency is measured by callers (CLI / bench harness),
//! never here.

use crate::trace::{ChurnConfig, ChurnOp, ChurnTrace};
use rim_core::DynamicInterference;
use rim_geom::Point;
use rim_udg::NodeSet;

/// Deterministic op counters — the part of the SLO surface that must be
/// bit-identical under replay (latency histograms are the
/// nondeterministic part and live in rim-obs). Snapshots carry these,
/// so a restored run's final counts equal an uninterrupted run's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Ops applied (every kind).
    pub edits: u64,
    /// Arrival ops.
    pub arrivals: u64,
    /// Departure ops.
    pub departures: u64,
    /// Mobility ops (depart + re-arrive).
    pub moves: u64,
    /// Relink ops (whether they linked or unlinked).
    pub relinks: u64,
    /// Relinks that inserted an edge.
    pub links_added: u64,
    /// Relinks that removed an edge.
    pub links_removed: u64,
    /// Tombstone compactions (the engine re-packed over its live slots).
    pub compactions: u64,
}

impl OpCounts {
    /// The counters as ordered `(name, value)` pairs — the snapshot
    /// encoding order and the JSONL field order.
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        [
            ("edits", self.edits),
            ("arrivals", self.arrivals),
            ("departures", self.departures),
            ("moves", self.moves),
            ("relinks", self.relinks),
            ("links_added", self.links_added),
            ("links_removed", self.links_removed),
            ("compactions", self.compactions),
        ]
    }
}

/// Churn scenario state: trace stream + incremental engine + live-id
/// bookkeeping. See the module docs.
#[derive(Debug, Clone)]
pub struct ChurnSim {
    cfg: ChurnConfig,
    trace: ChurnTrace,
    engine: DynamicInterference,
    /// Live slot ids, ascending (slot ids are allocated monotonically,
    /// so arrivals append in order and the list stays sorted).
    live_ids: Vec<u32>,
    counts: OpCounts,
    /// Result buffer of the nearest-live queries, kept so an edit does
    /// not allocate one.
    nearby: Vec<(f64, usize)>,
}

impl ChurnSim {
    /// A fresh scenario with an `edits`-op budget. The instance starts
    /// empty; the trace's bootstrap phase (its first `n0` ops) grows it
    /// to the target population through ordinary arrivals.
    pub fn new(cfg: ChurnConfig, edits: u64) -> Self {
        ChurnSim {
            cfg,
            trace: ChurnTrace::new(cfg, edits),
            engine: DynamicInterference::new(NodeSet::new(Vec::new())),
            live_ids: Vec::new(),
            counts: OpCounts::default(),
            nearby: Vec::new(),
        }
    }

    /// Reassembles a sim from snapshotted parts (the snapshot codec's
    /// constructor). `engine` must already be restored; the live-id list
    /// is derived from it, never serialized.
    pub(crate) fn from_parts(
        cfg: ChurnConfig,
        trace: ChurnTrace,
        engine: DynamicInterference,
        counts: OpCounts,
    ) -> Self {
        let live_ids: Vec<u32> = (0..engine.len() as u32)
            .filter(|&v| engine.is_live(v as usize))
            .collect();
        ChurnSim { cfg, trace, engine, live_ids, counts, nearby: Vec::new() }
    }

    /// Scenario configuration.
    pub fn config(&self) -> ChurnConfig {
        self.cfg
    }

    /// The maintained engine (counts, histogram, `I(G')`).
    pub fn engine(&self) -> &DynamicInterference {
        &self.engine
    }

    /// The trace stream (for snapshotting its parts).
    pub fn trace(&self) -> &ChurnTrace {
        &self.trace
    }

    /// Deterministic op counters.
    pub fn counts(&self) -> &OpCounts {
        &self.counts
    }

    /// Live node count.
    pub fn live_count(&self) -> usize {
        self.live_ids.len()
    }

    /// Ops left in the trace budget.
    pub fn remaining(&self) -> u64 {
        self.trace.remaining()
    }

    /// Extends the trace budget by `extra` ops (see
    /// [`ChurnTrace::extend_budget`]) — how a run resumed from an
    /// end-of-budget snapshot keeps going.
    pub fn extend_budget(&mut self, extra: u64) {
        self.trace.extend_budget(extra);
    }

    /// Current `I(G')` — `O(1)` from the engine's histogram.
    pub fn graph_interference(&self) -> usize {
        self.engine.graph_interference()
    }

    /// The live interference vector in ascending slot-id order, paired
    /// with the ids: the replay-equality surface the differential tests
    /// compare (dead slots carry no information).
    pub fn live_interference(&self) -> Vec<(u32, u32)> {
        self.live_ids
            .iter()
            .map(|&v| (v, self.engine.interference_at(v as usize) as u32))
            .collect()
    }

    /// One deterministic checkpoint record as a JSONL object — the
    /// metrics surface the CLI writes and the determinism tests compare
    /// byte-for-byte. Deliberately excludes anything nondeterministic
    /// (latency lives in rim-obs, reported separately).
    pub fn checkpoint_record(&self) -> String {
        let c = self.counts();
        let mut s = format!(
            "{{\"record\":\"churn_checkpoint\",\"family\":\"{}\",\"n0\":{},\"seed\":{},\
             \"edit\":{},\"live\":{},\"slots\":{},\"max_interference\":{}",
            self.cfg.family,
            self.cfg.n0,
            self.cfg.seed,
            c.edits,
            self.live_count(),
            self.engine.len(),
            self.graph_interference(),
        );
        for (name, v) in c.fields() {
            if name != "edits" {
                s.push_str(&format!(",\"{name}\":{v}"));
            }
        }
        s.push('}');
        s
    }

    /// Draws the next op from the trace and applies it. Returns the op,
    /// or `None` when the budget is exhausted.
    pub fn step(&mut self) -> Option<ChurnOp> {
        let op = self.trace.next()?;
        self.apply_edit(op);
        debug_assert_eq!(
            self.trace.live_model(),
            self.live_ids.len() as u64,
            "trace population model diverged from the sim"
        );
        Some(op)
    }

    /// Runs the whole remaining budget; returns how many ops ran.
    pub fn run_to_end(&mut self) -> u64 {
        let mut n = 0;
        while self.step().is_some() {
            n += 1;
        }
        n
    }

    /// Applies one churn op — the hot path. `O(affected)` through the
    /// engine, whose grid also answers the nearest-live queries; no wall
    /// clock, no randomness (the op carries every draw).
    // rim-lint: root
    pub fn apply_edit(&mut self, op: ChurnOp) {
        self.counts.edits += 1;
        match op {
            ChurnOp::Arrival { x, y } => {
                self.counts.arrivals += 1;
                rim_obs::counter_add("churn.arrivals", 1);
                self.arrive(Point::new(x, y));
            }
            ChurnOp::Departure { pick } => {
                self.counts.departures += 1;
                rim_obs::counter_add("churn.departures", 1);
                if let Some(v) = self.resolve(pick) {
                    self.depart(v);
                }
            }
            ChurnOp::Move { pick, x, y } => {
                self.counts.moves += 1;
                rim_obs::counter_add("churn.moves", 1);
                if let Some(v) = self.resolve(pick) {
                    self.depart(v);
                    self.arrive(Point::new(x, y));
                }
            }
            ChurnOp::Relink { pick, k } => {
                self.counts.relinks += 1;
                rim_obs::counter_add("churn.relinks", 1);
                if let Some(v) = self.resolve(pick) {
                    self.relink(v, k as usize);
                }
            }
        }
        self.maybe_compact();
    }

    /// Resolves a raw pick against the sorted live-id list (`None` while
    /// it is empty).
    fn resolve(&self, pick: u64) -> Option<u32> {
        let at = pick.checked_rem(self.live_ids.len() as u64)?;
        self.live_ids.get(at as usize).copied()
    }

    /// A node arrives: one link to the nearest live node (if any), then
    /// id-list bookkeeping.
    fn arrive(&mut self, p: Point) {
        self.engine.k_nearest_live(p, 1, None, &mut self.nearby);
        let v = self.engine.insert_node(p);
        if let Some(&(_, w)) = self.nearby.first() {
            self.engine.insert_edge(v, w);
        }
        self.live_ids.push(v as u32);
    }

    /// A node departs: engine tombstone + id-list bookkeeping.
    fn depart(&mut self, v: u32) {
        self.engine.remove_node(v as usize);
        if let Ok(i) = self.live_ids.binary_search(&v) {
            self.live_ids.remove(i);
        }
    }

    /// Toggles the link between `v` and its `k`-th nearest live
    /// neighbor (or the farthest available when fewer than `k` exist) —
    /// the radius-reassignment edit class in link-derived form.
    fn relink(&mut self, v: u32, k: usize) {
        let a = v as usize;
        let p = self.engine.position(a);
        self.engine.k_nearest_live(p, k, Some(a), &mut self.nearby);
        if let Some(&(_, b)) = self.nearby.last() {
            if self.engine.graph().has_edge(a, b) {
                self.engine.remove_edge(a, b);
                self.counts.links_removed += 1;
            } else {
                self.engine.insert_edge(a, b);
                self.counts.links_added += 1;
            }
        }
    }

    /// Re-packs the engine's live state once tombstones outnumber live
    /// nodes (with a floor so small scenarios never compact): amortized
    /// `O(1)` per edit, and the footprint tracks the live population
    /// instead of the edit count. The schedule depends
    /// only on the edit sequence, so replays reproduce it exactly.
    fn maybe_compact(&mut self) {
        let dead = self.engine.len().saturating_sub(self.engine.live_count());
        if dead <= self.engine.live_count().max(256) {
            return;
        }
        self.counts.compactions += 1;
        rim_obs::counter_add("churn.compactions", 1);
        let _span = rim_obs::span("churn.compact");
        self.engine.compact();
        // Compaction keeps ascending slot order, which is exactly the
        // order of live_ids — so dense ids 0..live map one-to-one onto
        // the old list and pick resolution is unchanged.
        self.live_ids.clear();
        self.live_ids.extend(0..self.engine.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Family;

    fn cfg(family: Family, n0: usize, seed: u64) -> ChurnConfig {
        ChurnConfig { family, n0, seed }
    }

    #[test]
    fn replay_is_deterministic() {
        let c = cfg(Family::Uniform, 48, 3);
        let mut a = ChurnSim::new(c, 2_000);
        let mut b = ChurnSim::new(c, 2_000);
        a.run_to_end();
        b.run_to_end();
        assert_eq!(a.live_interference(), b.live_interference());
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.graph_interference(), b.graph_interference());
    }

    #[test]
    fn population_hovers_near_target() {
        let mut s = ChurnSim::new(cfg(Family::Uniform, 64, 9), 4_000);
        s.run_to_end();
        let live = s.live_count() as i64;
        assert!((live - 64).abs() < 48, "population drifted to {live}");
        assert_eq!(s.counts().edits, 4_000);
        assert_eq!(
            s.counts().arrivals + s.counts().departures + s.counts().moves + s.counts().relinks,
            4_000
        );
    }

    #[test]
    fn compaction_keeps_slots_bounded_and_state_exact() {
        // A tiny population with heavy churn forces many compactions.
        let mut s = ChurnSim::new(cfg(Family::Uniform, 24, 5), 12_000);
        let mut checked = 0;
        while let Some(_op) = s.step() {
            if s.counts().edits % 1_500 == 0 {
                // Engine slots must stay within compaction bounds:
                // dead <= max(live, 256) after every edit.
                let dead = s.engine().len() - s.engine().live_count();
                assert!(dead <= s.engine().live_count().max(256), "tombstones leaked: {dead}");
                // And the maintained counts must match a from-scratch
                // recompute of the live topology.
                let (t, slots) = s.engine().live_topology();
                let want = rim_core::receiver::interference_vector_naive(&t);
                let got: Vec<usize> = slots
                    .iter()
                    .map(|&v| s.engine().interference_at(v))
                    .collect();
                assert_eq!(got, want, "diverged at edit {}", s.counts().edits);
                checked += 1;
            }
        }
        assert!(s.counts().compactions > 0, "scenario never compacted");
        assert!(checked >= 4, "checkpoints did not run");
    }

    #[test]
    fn moves_preserve_population_and_relinks_toggle() {
        let mut s = ChurnSim::new(cfg(Family::Clustered, 40, 11), 3_000);
        s.run_to_end();
        let c = s.counts();
        assert!(c.moves > 0 && c.relinks > 0, "op mix degenerate: {c:?}");
        assert_eq!(c.links_added + c.links_removed, c.relinks);
        assert_eq!(
            s.live_count() as u64,
            c.arrivals - c.departures,
            "moves must be population-neutral"
        );
    }

    #[test]
    fn all_families_run_and_stay_consistent() {
        for family in Family::ALL {
            let mut s = ChurnSim::new(cfg(family, 32, 17), 1_200);
            s.run_to_end();
            let (t, slots) = s.engine().live_topology();
            let want = rim_core::receiver::interference_vector_naive(&t);
            let got: Vec<usize> = slots.iter().map(|&v| s.engine().interference_at(v)).collect();
            assert_eq!(got, want, "family {family} diverged");
        }
    }
}
