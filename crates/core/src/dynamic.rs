//! Incrementally maintained interference under link and node updates.
//!
//! Topology-control algorithms (and dynamic networks) repeatedly tweak an
//! edge set and re-ask for `I(G')`. Recomputing from scratch is `O(n²)`
//! per query; [`DynamicInterference`] maintains the per-node coverage
//! counts across updates:
//!
//! * a node covers `v` iff it has at least one neighbor and
//!   `|uv| <= r_u` — the same rule as the batch kernels;
//! * an edge update changes at most the two endpoints' radii (and whether
//!   they transmit at all), so only the *symmetric difference of the old
//!   and new disks* `D(u, r_old) Δ D(u, r_new)` needs patching. A spatial
//!   index over the node positions turns that patch into one disk query
//!   of radius `max(r_old, r_new)` — `O(affected)` for bounded densities
//!   instead of `O(n)`;
//! * [`DynamicInterference::insert_node`] appends a node and charges only
//!   the transmitters whose disks reach it (found through the index's
//!   per-cell radius bounds), keeping arrivals `O(affected)` too;
//! * `I(G') = max_v I(v)` is answered in `O(1)` from a frequency
//!   histogram over the coverage counts, maintained at every ±1 change.
//!
//! The index is a [`DynGrid`](rim_geom::DynGrid), rebuilt lazily: newly inserted nodes
//! accumulate in its pending overlay, bucketed into the cells of the last
//! build, so a query reads only the overlay entries of the cells it
//! scans. Once the overlay outgrows a fraction of the merged set the grid
//! is rebuilt in one `O(n)` pass — classic amortization, no query ever
//! misses a node. Every build (rebuild, compaction, restore) re-tightens
//! the per-cell radius bounds to the current radii, filled in one pass
//! over the grid's bucket-order id column. The same grid answers
//! [`DynamicInterference::k_nearest_live`], the nearest-live-node query
//! of the churn simulator.
//!
//! Departed nodes leave tombstones, which
//! [`DynamicInterference::compact`] drops in place: the live slots move
//! down to dense ids with the counts they hold, which are exact, so a
//! compaction costs one grid build and one pass over the slots and the
//! lists — no disk query. Only a restore from a [`DynState`], which
//! carries no counts, recomputes them. The equivalence with the batch
//! [`crate::receiver`] kernels is property-tested, including full
//! edit-trace replays.

use rim_geom::{DynGrid, Point};
use rim_graph::AdjacencyList;
use rim_udg::{NodeSet, Topology};

/// Interference counts maintained across edge and node updates.
#[derive(Debug, Clone)]
pub struct DynamicInterference {
    points: Vec<Point>,
    graph: AdjacencyList,
    radii: Vec<f64>,
    cov: Vec<u32>,
    /// Liveness per slot. Departed nodes are tombstoned — the slot keeps
    /// its position (ids stay stable, the spatial index never needs a
    /// deletion path) but is dead: it accepts no edges, receives no
    /// coverage, and leaves the histogram. Long-churn callers drop the
    /// tombstones with [`DynamicInterference::compact`].
    alive: Vec<bool>,
    /// Number of live slots (`alive.iter().filter(|a| **a).count()`).
    live: usize,
    /// Whether each node was transmitting (degree > 0) at the last
    /// coverage update — needed to patch coverage when a node's degree
    /// crosses zero without its radius changing (zero-length links).
    was_transmitting: Vec<bool>,
    /// Grid over every slot: `points[..grid.merged_len()]` in its SoA
    /// base, the nodes inserted since the last rebuild in its overlay.
    grid: DynGrid,
    /// Histogram of the live coverage counts.
    hist: CoverageHistogram,
    /// Monotone upper bound on every current radius, the outer range of
    /// [`DynamicInterference::insert_node`]'s search. Radius shrinkage
    /// only loosens the bound (still correct, just a wider range); it is
    /// re-tightened to the exact maximum at every index rebuild.
    radius_bound: f64,
}

impl DynamicInterference {
    /// Starts from the empty topology over `nodes`.
    pub fn new(nodes: NodeSet) -> Self {
        let n = nodes.len();
        let points = nodes.points().to_vec();
        let grid = DynGrid::build(&points, initial_cell_hint(&points));
        DynamicInterference {
            points,
            graph: AdjacencyList::new(n),
            radii: vec![0.0; n],
            cov: vec![0; n],
            alive: vec![true; n],
            live: n,
            was_transmitting: vec![false; n],
            grid,
            hist: CoverageHistogram { freq: vec![n as u32], max: 0 },
            radius_bound: 0.0,
        }
    }

    /// Starts from an existing topology.
    pub fn from_topology(t: &Topology) -> Self {
        let mut d = DynamicInterference::new(t.nodes().clone());
        for e in t.edges() {
            d.insert_edge(e.u, e.v);
        }
        d
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` for the empty node set.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Whether slot `v` holds a live (non-departed) node; `false` past
    /// the last slot.
    pub fn is_live(&self, v: usize) -> bool {
        self.alive.get(v).copied().unwrap_or(false)
    }

    /// Number of live nodes: [`DynamicInterference::len`] minus
    /// tombstoned departures.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Current interference of `v`.
    pub fn interference_at(&self, v: usize) -> usize {
        self.cov[v] as usize
    }

    /// Current graph interference `I(G')`, answered in `O(1)` from the
    /// maintained coverage-count histogram.
    pub fn graph_interference(&self) -> usize {
        self.hist.max
    }

    /// The maintained coverage-count histogram: entry `c` is the number
    /// of **live** nodes with coverage count exactly `c`, trimmed so no
    /// trailing zero entries leak representation details (the internal
    /// vector only ever grows). Departed nodes are not counted.
    pub fn coverage_histogram(&self) -> Vec<u32> {
        let mut h = self.hist.freq.clone();
        while h.len() > 1 && h.last() == Some(&0) {
            h.pop();
        }
        h
    }

    /// Current radius of `u`.
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the structure
    pub fn radius(&self, u: usize) -> f64 {
        self.radii[u]
    }

    /// Position of slot `u` (stable for the slot's lifetime; positions
    /// are never mutated in place — mobility is depart + arrive).
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the structure
    pub fn position(&self, u: usize) -> Point {
        self.points[u]
    }

    /// The maintained edge structure.
    pub fn graph(&self) -> &AdjacencyList {
        &self.graph
    }

    /// Materializes the live state as a compacted [`Topology`], plus the
    /// slot id behind each compacted node (ascending slot order). Dead
    /// slots are dropped entirely, so a batch recompute over the result
    /// is directly comparable with the maintained counts — this is the
    /// view the replay-differential tests use.
    // rim-lint: allow(panic-freedom) — compact[] covers every slot; edges connect live slots
    pub fn live_topology(&self) -> (Topology, Vec<usize>) {
        let slots: Vec<usize> = (0..self.len()).filter(|&v| self.alive[v]).collect();
        let mut compact = vec![usize::MAX; self.len()];
        for (i, &v) in slots.iter().enumerate() {
            compact[v] = i;
        }
        let pts: Vec<Point> = slots.iter().map(|&v| self.points[v]).collect();
        let mut g = AdjacencyList::new(slots.len());
        for e in self.graph.edges() {
            g.add_edge(compact[e.u], compact[e.v], e.weight);
        }
        (Topology::from_graph(NodeSet::new(pts), g), slots)
    }

    /// Drops the tombstones in place, renumbering the live slots densely
    /// as `0..live_count()` in ascending slot order — how long-churn
    /// callers keep the footprint at the live population. Each live slot
    /// moves down to its dense id with its position, radius, coverage
    /// count and transmit flag; the adjacency lists are renamed in place
    /// ([`AdjacencyList::compact_vertices`]); the histogram stays as it
    /// is; the grid is rebuilt over the live points with its radius
    /// bounds filled in one pass; and the radius bound drops to the
    /// largest radius. Nothing is recomputed, because nothing changes:
    /// the maintained counts of live slots are exact, dead slots hold no
    /// coverage and no histogram entry, a live slot transmits exactly
    /// when it has a link, and dead radii are 0. The result is the state
    /// `from_topology(&self.live_topology().0)` reaches by replaying
    /// every edge through two disk queries (property-tested).
    // rim-lint: root
    // rim-lint: allow(panic-freedom) — `dense[v]` and the moves run over `v < len()` of per-slot vectors of one length, and the cursor `live` never passes `v`
    pub fn compact(&mut self) {
        let n = self.len();
        let mut dense = vec![u32::MAX; n];
        let mut live = 0;
        // Every slot is copied down and only a live one advances the
        // cursor, so the loop takes no branch on liveness (about half the
        // slots are dead, in no order a predictor can learn).
        for v in 0..n {
            let keep = self.alive[v];
            dense[v] = if keep { live as u32 } else { u32::MAX };
            self.points[live] = self.points[v];
            self.radii[live] = self.radii[v];
            self.cov[live] = self.cov[v];
            self.was_transmitting[live] = self.was_transmitting[v];
            live += usize::from(keep);
        }
        self.points.truncate(live);
        self.radii.truncate(live);
        self.cov.truncate(live);
        self.was_transmitting.truncate(live);
        self.alive.truncate(live);
        self.alive.fill(true);
        self.graph.compact_vertices(&dense);
        self.rebuild_grid();
    }

    /// Writes to `out` the `k` live slots nearest to `p`, leaving out
    /// `exclude`, ascending by `(dist, id)` with `dist` the
    /// [`Point::dist`] value — a total order, so the answer does not
    /// depend on the grid's history. Pending slots are found in the
    /// overlay; dead slots are skipped. Fewer than `k` entries come back
    /// when fewer live slots qualify. `out` is a caller-owned buffer, so
    /// a query allocates nothing once it has held `k` entries.
    // rim-lint: root
    pub fn k_nearest_live(
        &self,
        p: Point,
        k: usize,
        exclude: Option<usize>,
        out: &mut Vec<(f64, usize)>,
    ) {
        let alive = &self.alive;
        self.grid.k_nearest_where(
            p,
            k,
            |id| Some(id) != exclude && alive.get(id).copied().unwrap_or(false),
            out,
        );
    }

    /// Inserts `{u, v}`; returns `false` if the edge already existed or
    /// either endpoint has departed. Costs one disk query per endpoint
    /// whose radius (or transmit status) changed — `O(affected)`.
    // rim-lint: root
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the structure
    pub fn insert_edge(&mut self, u: usize, v: usize) -> bool {
        if !self.alive[u] || !self.alive[v] {
            return false;
        }
        let d = self.points[u].dist(&self.points[v]);
        if !self.graph.add_edge(u, v, d) {
            return false;
        }
        rim_obs::counter_add("dynamic.edge_inserts", 1);
        self.set_radius(u, self.radii[u].max(d));
        self.set_radius(v, self.radii[v].max(d));
        true
    }

    /// Removes `{u, v}`; returns `false` if the edge was absent.
    // rim-lint: root
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if !self.graph.remove_edge(u, v) {
            return false;
        }
        rim_obs::counter_add("dynamic.edge_removes", 1);
        let ru = self.graph.max_incident_weight(u).unwrap_or(0.0);
        let rv = self.graph.max_incident_weight(v).unwrap_or(0.0);
        self.set_radius(u, ru);
        self.set_radius(v, rv);
        true
    }

    /// Appends a new isolated node at `p` and returns its index.
    ///
    /// The arrival is charged `O(affected)`: the new node starts with the
    /// coverage it receives from existing transmitters (one pass over the
    /// cells whose radius bound reaches it, via the index) and, being
    /// isolated, contributes nothing itself until an edge arrives. The
    /// spatial index absorbs the node lazily — see the module docs.
    // rim-lint: root
    // rim-lint: allow(panic-freedom) — grid ids index the per-slot vectors, which grow in lockstep with it
    pub fn insert_node(&mut self, p: Point) -> usize {
        assert!(p.is_finite(), "node positions must be finite");
        rim_obs::counter_add("dynamic.node_inserts", 1);
        // Coverage received by the newcomer: every transmitter whose disk
        // reaches p, from the cells whose radius bound reaches p.
        let (radii, transmitting) = (&self.radii, &self.was_transmitting);
        let mut covered_by = 0u32;
        self.grid.for_each_reaching(p, self.radius_bound, |u, d| {
            if transmitting[u] && d <= radii[u] {
                covered_by += 1;
            }
        });
        let v = self.graph.add_vertex();
        self.points.push(p);
        self.grid.push_overlay(p);
        self.radii.push(0.0);
        self.alive.push(true);
        self.live += 1;
        self.was_transmitting.push(false);
        self.cov.push(covered_by);
        self.hist.enter(covered_by as usize);
        self.maybe_rebuild_index();
        v
    }

    /// Removes (tombstones) node `v`: drops each incident edge through
    /// the usual symmetric-difference patch — so neighbors' radii
    /// re-tighten and every count `v`'s disk was charging is released —
    /// then retires the coverage `v` itself was receiving from the
    /// histogram and marks the slot dead. Departures are `O(affected)`
    /// like every other edit. Returns `false` if `v` had already
    /// departed.
    ///
    /// Slot ids stay stable: the dead slot keeps its position but
    /// accepts no edges, receives no coverage, and is excluded from
    /// [`DynamicInterference::live_topology`]. Insert-then-remove is an
    /// exact no-op on the surviving nodes' counts and on the histogram
    /// (regression-tested).
    // rim-lint: root
    // rim-lint: allow(panic-freedom) — v is a maintained node id; per-node vectors grow in lockstep
    pub fn remove_node(&mut self, v: usize) -> bool {
        if !self.alive[v] {
            return false;
        }
        rim_obs::counter_add("dynamic.node_removes", 1);
        // Neighbor lists are sorted, so unlinking the first neighbor until
        // none is left drops the edges in ascending order.
        loop {
            let Some(w) = self.graph.neighbors(v).next() else { break };
            self.remove_edge(v, w);
        }
        // v is now silent (degree 0 ⇒ not transmitting); what remains is
        // the coverage it was *receiving*, which leaves the histogram
        // with the node. Its emptied list is freed now, one free per
        // departure, so a compaction frees no lists.
        self.graph.release_isolated(v);
        self.hist.leave(self.cov[v] as usize);
        self.cov[v] = 0;
        self.alive[v] = false;
        self.live -= 1;
        true
    }

    /// Rebuilds the grid once the pending overlay outgrows half the
    /// merged set (with a constant floor so small structures never
    /// rebuild): `O(n)` per rebuild, amortized `O(1)` per insertion.
    fn maybe_rebuild_index(&mut self) {
        let merged = self.grid.merged_len();
        if self.points.len().saturating_sub(merged) > (merged / 2).max(64) {
            rim_obs::counter_add("dynamic.index_rebuilds", 1);
            let _span = rim_obs::span("dynamic.index_rebuild");
            self.rebuild_grid();
        }
    }

    /// Rebuilds the grid over every slot, merged, with the radius bound
    /// of each cell filled from the transmitters in it, and re-tightens
    /// `radius_bound` to the largest radius while it pays `O(n)` anyway.
    fn rebuild_grid(&mut self) {
        self.grid = DynGrid::build(&self.points, initial_cell_hint(&self.points));
        let (radii, tx) = (&self.radii, &self.was_transmitting);
        self.grid.fill_bounds(|u| transmit_radius(radii, tx, u));
        self.radius_bound = self.radii.iter().copied().fold(0.0, f64::max);
    }

    /// Adjusts `u`'s radius and patches the coverage counts over the
    /// symmetric difference of the old and new disks.
    ///
    /// Coverage is `deg(u) > 0 && d <= r_u` (a node transmits iff it has a
    /// neighbor — matching the batch kernels, including the coincident-node
    /// case where a zero-length link gives `r_u = 0` but still covers its
    /// endpoint). Both disks are contained in the disk of the larger
    /// radius, so one index query of radius `max(old, new)` visits every
    /// node whose membership can differ; comparing covered-before vs
    /// covered-after per node is immune to boundary subtleties at `d = 0`.
    // rim-lint: allow(panic-freedom) — u is a maintained node id; per-node vectors grow in lockstep
    fn set_radius(&mut self, u: usize, new_r: f64) {
        let old_r = self.radii[u];
        let was_tx = self.was_transmitting[u];
        let is_tx = self.graph.degree(u) > 0;
        self.was_transmitting[u] = is_tx;
        // rim-lint: allow(float-eq) — exact no-op check: radii are dist() copies
        if new_r == old_r && was_tx == is_tx {
            return;
        }
        self.radii[u] = new_r;
        self.radius_bound = self.radius_bound.max(new_r);
        let pu = self.points[u];
        // A transmitter's cell bound already covers its old radius.
        if is_tx && (!was_tx || new_r > old_r) {
            self.grid.raise_bound(pu, new_r);
        }
        let query_r = match (was_tx, is_tx) {
            (true, true) => old_r.max(new_r),
            (true, false) => old_r,
            (false, true) => new_r,
            (false, false) => return, // silent before and after: no disk at all
        };
        // Counts are patched in place as the query visits them: each node
        // is visited once, and the histogram maximum is exact after every
        // single move, so the result does not depend on visit order.
        let (cov, alive, hist) = (&mut self.cov, &self.alive, &mut self.hist);
        let (mut affected, mut patched) = (0u64, 0u64);
        self.grid.for_each_within(pu, query_r, |w, d| {
            if w == u || !alive[w] {
                return; // dead slots receive no coverage
            }
            affected += 1;
            let before = was_tx && d <= old_r;
            let after = is_tx && d <= new_r;
            if before != after {
                let old_c = cov[w] as usize;
                let new_c = if after { old_c + 1 } else { old_c - 1 };
                cov[w] = new_c as u32;
                hist.enter(new_c);
                hist.leave(old_c);
                patched += 1;
            }
        });
        if rim_obs::active() {
            // affected = candidates the symmetric-difference query visited;
            // patch_size = nodes whose coverage actually changed.
            rim_obs::record("dynamic.affected_candidates", affected);
            rim_obs::record("dynamic.patch_size", patched);
        }
    }

    /// Exports the maintained state for snapshotting. The result is
    /// complete: [`DynamicInterference::from_state`] rebuilds a structure
    /// whose observable behavior — counts, histogram, `I(G')`, *and* the
    /// amortization schedule of future edits — is bit-identical to this
    /// one's. `indexed_len` pins the grid's era (the pending overlay is
    /// exactly the slots past it) and `radius_bound` the monotone
    /// candidate bound; everything else (coverage counts, histogram,
    /// transmit gating, edge weights) is derivable and is recomputed on
    /// restore.
    pub fn export_state(&self) -> DynState {
        DynState {
            points: self.points.clone(),
            radii: self.radii.clone(),
            alive: self.alive.clone(),
            edges: self
                .graph
                .edges()
                .iter()
                .map(|e| (e.u as u32, e.v as u32))
                .collect(),
            indexed_len: self.grid.merged_len(),
            radius_bound: self.radius_bound,
        }
    }

    /// Rebuilds a structure from a previously exported [`DynState`],
    /// validating every field (a corrupted snapshot yields an error, not
    /// a panic or a silently wrong structure). Every radius must be
    /// bit-equal to its slot's longest link (0 without links), the
    /// invariant the edge updates maintain.
    ///
    /// Restoration is exact because the grid is a pure function of
    /// `points[..indexed_len]` and the arrival order of the rest —
    /// positions are never mutated in place, only appended (mobility is
    /// modeled as depart + arrive) — so rebuilding it over that prefix
    /// and replaying the overlay reproduces the original. Coverage counts
    /// are recomputed from the same predicate the incremental patches
    /// maintain, which the differential tests pin equal.
    // rim-lint: allow(panic-freedom) — every index below is validated before use
    pub fn from_state(s: DynState) -> Result<Self, String> {
        let n = s.points.len();
        if s.radii.len() != n || s.alive.len() != n {
            return Err(format!(
                "state vectors disagree: {n} points, {} radii, {} alive flags",
                s.radii.len(),
                s.alive.len()
            ));
        }
        if s.indexed_len > n {
            return Err(format!("indexed_len {} exceeds node count {n}", s.indexed_len));
        }
        if s.points.iter().any(|p| !p.is_finite()) {
            return Err("non-finite node position".to_string());
        }
        let mut max_r = 0.0f64;
        for &r in &s.radii {
            if !(r.is_finite() && r >= 0.0) {
                return Err(format!("radius {r} must be finite and >= 0"));
            }
            max_r = max_r.max(r);
        }
        if !(s.radius_bound.is_finite() && s.radius_bound >= max_r) {
            return Err(format!(
                "radius_bound {} below the maximum radius {max_r}",
                s.radius_bound
            ));
        }
        let mut graph = AdjacencyList::new(n);
        for &(eu, ev) in &s.edges {
            let (u, v) = (eu as usize, ev as usize);
            if u >= n || v >= n || u == v {
                return Err(format!("edge ({u}, {v}) out of range"));
            }
            if !s.alive[u] || !s.alive[v] {
                return Err(format!("edge ({u}, {v}) touches a departed slot"));
            }
            // Weights are re-derived: dist() is a pure function of the
            // (validated) positions, so nothing else needs encoding.
            if !graph.add_edge(u, v, s.points[u].dist(&s.points[v])) {
                return Err(format!("duplicate edge ({u}, {v})"));
            }
        }
        for (u, &r) in s.radii.iter().enumerate() {
            let longest = graph.max_incident_weight(u).unwrap_or(0.0);
            if r.to_bits() != longest.to_bits() {
                return Err(format!("radius {r} of slot {u} is not its longest link {longest}"));
            }
        }
        Ok(Self::assemble(s.points, graph, s.radii, s.alive, s.indexed_len, s.radius_bound))
    }

    /// The structure over already-consistent parts: the grid over
    /// `points[..indexed_len]` with the rest replayed into its overlay,
    /// the radius bounds filled over the merged prefix in one pass and
    /// raised for each transmitter in the overlay, and coverage from one
    /// disk query per transmitter — the counting rule the incremental
    /// patches maintain. A snapshot carries no counts, so restore is the
    /// one path that recomputes them.
    // rim-lint: allow(panic-freedom) — callers pass per-slot vectors of one length and indexed_len <= points.len(); grid ids are slots
    fn assemble(
        points: Vec<Point>,
        graph: AdjacencyList,
        radii: Vec<f64>,
        alive: Vec<bool>,
        indexed_len: usize,
        radius_bound: f64,
    ) -> Self {
        let n = points.len();
        let merged = &points[..indexed_len];
        let mut grid = DynGrid::build(merged, initial_cell_hint(merged));
        for &p in &points[indexed_len..] {
            grid.push_overlay(p);
        }
        let was_transmitting: Vec<bool> = (0..n).map(|u| alive[u] && graph.degree(u) > 0).collect();
        grid.fill_bounds(|u| transmit_radius(&radii, &was_transmitting, u));
        for u in (indexed_len..n).filter(|&u| was_transmitting[u]) {
            grid.raise_bound(points[u], radii[u]);
        }
        let mut cov = vec![0u32; n];
        for u in (0..n).filter(|&u| was_transmitting[u]) {
            grid.for_each_within(points[u], radii[u], |w, _| {
                if w != u && alive[w] {
                    cov[w] += 1;
                }
            });
        }
        let mut hist = CoverageHistogram { freq: vec![0], max: 0 };
        for v in (0..n).filter(|&v| alive[v]) {
            hist.enter(cov[v] as usize);
        }
        DynamicInterference {
            live: alive.iter().filter(|&&a| a).count(),
            points,
            graph,
            radii,
            cov,
            alive,
            was_transmitting,
            grid,
            hist,
            radius_bound,
        }
    }
}

/// Frequency histogram of the live coverage counts: `freq[c]` live nodes
/// have count `c`, and `max` is the largest `c` with `freq[c] > 0` (0 when
/// every count is 0). `max` is exact after every single update, so a
/// batch of updates ends in the same state in any order. A count moving
/// from `old` to `new` is `enter(new)` then `leave(old)`: amortized
/// `O(1)`, since `max` only walks down past counts that just emptied.
#[derive(Debug, Clone)]
struct CoverageHistogram {
    freq: Vec<u32>,
    max: usize,
}

impl CoverageHistogram {
    /// Counts a node at coverage `c`.
    // rim-lint: allow(panic-freedom) — freq is resized to cover `c` before indexing
    fn enter(&mut self, c: usize) {
        if c >= self.freq.len() {
            self.freq.resize(c + 1, 0);
        }
        self.freq[c] += 1;
        self.max = self.max.max(c);
    }

    /// Uncounts a node at coverage `c`, which must have entered.
    // rim-lint: allow(panic-freedom) — `c` entered before, so freq[c] exists and is > 0
    fn leave(&mut self, c: usize) {
        self.freq[c] -= 1;
        if c == self.max {
            while self.max > 0 && self.freq[self.max] == 0 {
                self.max -= 1;
            }
        }
    }
}

/// Raw maintained state of a [`DynamicInterference`] — everything a
/// snapshot needs to rebuild the structure exactly, produced by
/// [`DynamicInterference::export_state`] and consumed by
/// [`DynamicInterference::from_state`]. Derived state (coverage counts,
/// histogram, transmit gating, edge weights) is deliberately absent: it
/// is recomputed on restore from the same predicates that maintain it,
/// so a snapshot cannot encode an inconsistent structure.
#[derive(Debug, Clone, PartialEq)]
pub struct DynState {
    /// Every slot's position, dead slots included (ids are stable).
    pub points: Vec<Point>,
    /// Per-slot radius: the slot's longest link, 0 without links.
    pub radii: Vec<f64>,
    /// Per-slot liveness; dead slots have no edges, no disk, and no
    /// histogram entry.
    pub alive: Vec<bool>,
    /// Undirected edges between live slots.
    pub edges: Vec<(u32, u32)>,
    /// How many leading slots the spatial index covers; the rest are the
    /// pending overlay.
    pub indexed_len: usize,
    /// Monotone upper bound on every radius since the last index rebuild.
    pub radius_bound: f64,
}

/// The radius slot `u` raises its grid cells' bounds to: its radius
/// while it transmits, −∞ (nothing) while it is silent.
fn transmit_radius(radii: &[f64], transmitting: &[bool], u: usize) -> f64 {
    match (transmitting.get(u), radii.get(u)) {
        (Some(true), Some(&r)) => r,
        _ => f64::NEG_INFINITY,
    }
}

/// Cell hint for the dynamic structure's index: the node-set diagonal
/// scaled to roughly √n cells per axis. Radii are unknown at build time
/// (edges come later), so a density-based hint is the best available;
/// the grid build sanitizes degenerate values, and splits the cells a
/// skewed spread overloads.
fn initial_cell_hint(points: &[Point]) -> f64 {
    let bbox = rim_geom::Aabb::of_points(points);
    if bbox.is_empty() {
        return 1.0;
    }
    let diag = Point::new(bbox.width(), bbox.height()).norm();
    let per_axis = (points.len() as f64).sqrt().max(1.0);
    diag / per_axis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::interference_vector;
    use rim_geom::Point;

    fn check_consistent(d: &DynamicInterference) {
        let (t, slots) = d.live_topology();
        let want = interference_vector(&t);
        let got: Vec<usize> = slots.iter().map(|&v| d.interference_at(v)).collect();
        assert_eq!(got, want, "dynamic counts diverged from batch kernel");
        assert_eq!(
            d.graph_interference(),
            want.iter().copied().max().unwrap_or(0),
            "histogram max diverged"
        );
        // Dead slots must hold no coverage and take no histogram space.
        for v in 0..d.len() {
            if !d.is_live(v) {
                assert_eq!(d.interference_at(v), 0, "dead slot {v} holds coverage");
            }
        }
        assert_eq!(
            d.coverage_histogram().iter().map(|&c| c as usize).sum::<usize>(),
            d.live_count(),
            "histogram mass != live node count"
        );
    }

    #[test]
    fn insert_then_remove_roundtrips() {
        let ns = NodeSet::on_line(&[0.0, 0.2, 0.5, 0.9]);
        let mut d = DynamicInterference::new(ns);
        assert!(d.insert_edge(0, 1));
        check_consistent(&d);
        assert!(d.insert_edge(1, 3));
        check_consistent(&d);
        assert!(d.insert_edge(2, 3));
        check_consistent(&d);
        assert!(!d.insert_edge(0, 1), "duplicate");
        assert!(d.remove_edge(1, 3));
        check_consistent(&d);
        assert!(!d.remove_edge(1, 3), "already gone");
        assert!(d.remove_edge(0, 1));
        assert!(d.remove_edge(2, 3));
        check_consistent(&d);
        assert_eq!(d.graph_interference(), 0);
    }

    #[test]
    fn matches_from_topology_constructor() {
        let ns = NodeSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.4, 0.3),
            Point::new(0.9, 0.1),
            Point::new(0.5, 0.8),
        ]);
        let t = Topology::from_pairs(ns, &[(0, 1), (1, 2), (1, 3)]);
        let d = DynamicInterference::from_topology(&t);
        check_consistent(&d);
        assert_eq!(d.graph_interference(), crate::receiver::graph_interference(&t));
    }

    #[test]
    fn random_update_sequences_stay_consistent() {
        let mut state = 5u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let n = 9;
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new((i % 3) as f64 * 0.4 + (rnd() % 100) as f64 * 0.001, (i / 3) as f64 * 0.4))
            .collect();
        let mut d = DynamicInterference::new(NodeSet::new(pts));
        for step in 0..200 {
            let (a, b) = (rnd() % n, rnd() % n);
            if a == b {
                continue;
            }
            if d.graph().has_edge(a, b) {
                d.remove_edge(a, b);
            } else {
                d.insert_edge(a, b);
            }
            if step % 10 == 0 {
                check_consistent(&d);
            }
        }
        check_consistent(&d);
    }

    #[test]
    fn coincident_nodes_stay_consistent() {
        // Zero-length links: radius stays 0 but the endpoints transmit.
        let ns = NodeSet::new(vec![Point::ORIGIN, Point::ORIGIN, Point::new(0.5, 0.0)]);
        let mut d = DynamicInterference::new(ns);
        assert!(d.insert_edge(0, 1));
        check_consistent(&d); // 0 and 1 cover each other at d = 0
        assert!(d.insert_edge(0, 2));
        check_consistent(&d);
        assert!(d.remove_edge(0, 2)); // radius shrinks back to 0, still transmitting
        check_consistent(&d);
        assert!(d.remove_edge(0, 1)); // now silent again
        check_consistent(&d);
        assert_eq!(d.graph_interference(), 0);
    }

    #[test]
    fn node_insertion_is_absorbed() {
        let mut d = DynamicInterference::new(NodeSet::on_line(&[0.0, 0.3]));
        d.insert_edge(0, 1);
        // The new node lands inside both existing disks.
        let v = d.insert_node(Point::on_line(0.15));
        assert_eq!(v, 2);
        assert_eq!(d.interference_at(v), 2);
        check_consistent(&d);
        // Link it up; radii of 2 and 0 change, counts follow.
        d.insert_edge(2, 0);
        check_consistent(&d);
        // A far-away arrival sees nothing and changes nothing.
        let w = d.insert_node(Point::on_line(100.0));
        assert_eq!(d.interference_at(w), 0);
        check_consistent(&d);
    }

    #[test]
    fn many_insertions_cross_the_rebuild_threshold() {
        // Push enough nodes through the pending overlay to force at least
        // one index rebuild, checking consistency as we go.
        let mut d = DynamicInterference::new(NodeSet::on_line(&[0.0, 0.01]));
        d.insert_edge(0, 1);
        for i in 0..150usize {
            let v = d.insert_node(Point::new((i % 25) as f64 * 0.05, (i / 25) as f64 * 0.05));
            if i % 3 == 0 {
                d.insert_edge(v, i % 2);
            }
            if i % 40 == 0 {
                check_consistent(&d);
            }
        }
        check_consistent(&d);
    }

    /// Satellite regression for the `remove_node` asymmetry fix:
    /// arriving, linking up, unlinking, and departing must restore the
    /// *exact* prior state — per-node counts, radii, `I(G')`, and the
    /// full coverage-count histogram.
    #[test]
    fn insert_then_remove_node_restores_prior_state() {
        let ns = NodeSet::on_line(&[0.0, 0.2, 0.5, 0.9]);
        let mut d = DynamicInterference::new(ns);
        d.insert_edge(0, 1);
        d.insert_edge(1, 2);
        d.insert_edge(2, 3);
        let counts: Vec<usize> = (0..4).map(|v| d.interference_at(v)).collect();
        let radii: Vec<f64> = (0..4).map(|v| d.radius(v)).collect();
        let max = d.graph_interference();
        let hist = d.coverage_histogram();

        // A well-connected arrival right in the middle of the instance.
        let v = d.insert_node(Point::on_line(0.45));
        d.insert_edge(v, 1);
        d.insert_edge(v, 2);
        d.insert_edge(v, 3);
        check_consistent(&d);
        assert_ne!(d.coverage_histogram(), hist, "the arrival must be visible");

        assert!(d.remove_node(v));
        check_consistent(&d);
        assert!(!d.remove_node(v), "double departure");
        assert!(!d.is_live(v));
        assert_eq!(d.live_count(), 4);
        assert!(!d.insert_edge(v, 0), "dead slots accept no edges");

        let counts_after: Vec<usize> = (0..4).map(|u| d.interference_at(u)).collect();
        let radii_after: Vec<f64> = (0..4).map(|u| d.radius(u)).collect();
        assert_eq!(counts_after, counts, "counts must be restored exactly");
        assert_eq!(d.graph_interference(), max);
        assert_eq!(d.coverage_histogram(), hist, "histogram must be restored exactly");
        for (a, b) in radii_after.iter().zip(&radii) {
            // rim-lint: allow(float-eq) — radii are dist() copies; restoration must be exact
            assert!(a == b, "radius drifted: {a} vs {b}");
        }
    }

    #[test]
    fn removing_a_hub_patches_every_neighbor() {
        // A star: the hub's disk covers everyone; removing it must
        // release all of that coverage and re-tighten leaf radii to 0.
        let ns = NodeSet::on_line(&[0.0, -0.3, 0.3, -0.6, 0.6]);
        let mut d = DynamicInterference::new(ns);
        for leaf in 1..5 {
            d.insert_edge(0, leaf);
        }
        check_consistent(&d);
        assert!(d.remove_node(0));
        check_consistent(&d);
        assert_eq!(d.graph_interference(), 0, "leaves are isolated now");
        for leaf in 1..5 {
            // rim-lint: allow(float-eq) — exact: radius re-derived from an empty edge set
            assert!(d.radius(leaf) == 0.0);
        }
        // Surviving nodes keep editing normally around the tombstone.
        assert!(d.insert_edge(1, 2));
        check_consistent(&d);
        let w = d.insert_node(Point::on_line(0.05));
        assert!(d.insert_edge(w, 1));
        check_consistent(&d);
    }

    #[test]
    fn churning_updates_stay_consistent_with_departures() {
        let mut state = 11u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let pts: Vec<Point> = (0..12)
            .map(|i| Point::new((i % 4) as f64 * 0.3, (i / 4) as f64 * 0.3))
            .collect();
        let mut d = DynamicInterference::new(NodeSet::new(pts));
        for step in 0..300 {
            match rnd() % 10 {
                0 => {
                    let x = (rnd() % 100) as f64 * 0.012;
                    let y = (rnd() % 100) as f64 * 0.012;
                    d.insert_node(Point::new(x, y));
                }
                1 if d.live_count() > 3 => {
                    // Depart a random live slot.
                    let mut v = rnd() % d.len();
                    while !d.is_live(v) {
                        v = (v + 1) % d.len();
                    }
                    d.remove_node(v);
                }
                _ => {
                    let (a, b) = (rnd() % d.len(), rnd() % d.len());
                    if a != b && d.is_live(a) && d.is_live(b) {
                        if d.graph().has_edge(a, b) {
                            d.remove_edge(a, b);
                        } else {
                            d.insert_edge(a, b);
                        }
                    }
                }
            }
            if step % 25 == 0 {
                check_consistent(&d);
            }
        }
        check_consistent(&d);
    }

    #[test]
    fn export_restore_roundtrips_exactly() {
        // Build a structure with edges, arrivals past the rebuild
        // threshold, and departures; restore must reproduce it exactly
        // and then *behave* identically on further edits.
        let mut d = DynamicInterference::new(NodeSet::on_line(&[0.0, 0.1, 0.25]));
        d.insert_edge(0, 1);
        d.insert_edge(1, 2);
        for i in 0..90usize {
            let v = d.insert_node(Point::new((i % 10) as f64 * 0.07, (i / 10) as f64 * 0.07));
            if i % 4 == 0 {
                d.insert_edge(v, i % 3);
            }
            if i % 7 == 0 && d.live_count() > 5 {
                d.remove_node(3 + (i % 30));
            }
        }
        check_consistent(&d);

        let s = d.export_state();
        let mut r = DynamicInterference::from_state(s.clone()).expect("exported state is valid");
        assert_eq!(r.export_state(), s, "restore must re-export identically");
        assert_eq!(r.live_count(), d.live_count());
        assert_eq!(r.graph_interference(), d.graph_interference());
        assert_eq!(r.coverage_histogram(), d.coverage_histogram());
        let dc: Vec<usize> = (0..d.len()).map(|v| d.interference_at(v)).collect();
        let rc: Vec<usize> = (0..r.len()).map(|v| r.interference_at(v)).collect();
        assert_eq!(rc, dc, "restored counts diverge");

        // Drive both copies through the same edit tail: every observable
        // must stay in lockstep (this is the bit-exact replay property
        // the churn snapshot layer builds on).
        for i in 0..40usize {
            let p = Point::new(0.03 * i as f64, 0.5);
            assert_eq!(d.insert_node(p), r.insert_node(p));
            if i % 3 == 0 {
                let v = d.len() - 1;
                assert_eq!(d.insert_edge(v, 0), r.insert_edge(v, 0));
            }
            if i % 5 == 0 {
                let v = 4 + i;
                assert_eq!(d.remove_node(v), r.remove_node(v));
            }
            assert_eq!(d.graph_interference(), r.graph_interference());
        }
        assert_eq!(d.export_state(), r.export_state(), "divergence after the edit tail");
        check_consistent(&d);
        check_consistent(&r);
    }

    #[test]
    fn from_state_rejects_corrupted_snapshots() {
        let mut d = DynamicInterference::new(NodeSet::on_line(&[0.0, 0.4]));
        d.insert_edge(0, 1);
        d.remove_node(1);
        let good = d.export_state();
        assert!(DynamicInterference::from_state(good.clone()).is_ok());

        let mut bad = good.clone();
        bad.radii.pop();
        assert!(DynamicInterference::from_state(bad).is_err(), "length mismatch");

        let mut bad = good.clone();
        bad.indexed_len = 99;
        assert!(DynamicInterference::from_state(bad).is_err(), "indexed_len overflow");

        let mut bad = good.clone();
        bad.edges.push((0, 1));
        assert!(DynamicInterference::from_state(bad).is_err(), "edge to a dead slot");

        let mut bad = good.clone();
        bad.edges.push((0, 7));
        assert!(DynamicInterference::from_state(bad).is_err(), "edge out of range");

        let mut bad = good.clone();
        bad.radius_bound = f64::NAN;
        assert!(DynamicInterference::from_state(bad).is_err(), "NaN bound");

        let mut bad = good.clone();
        bad.radii[0] = -1.0;
        assert!(DynamicInterference::from_state(bad).is_err(), "negative radius");

        let mut bad = good.clone();
        bad.radius_bound = 0.0; // below the surviving radius
        bad.radii[0] = 0.5;
        assert!(DynamicInterference::from_state(bad).is_err(), "bound below max radius");

        let mut bad = good;
        bad.radii[0] = 0.25; // within the bound, but slot 0 has no link
        assert!(DynamicInterference::from_state(bad).is_err(), "radius without a link");

        let mut linked = DynamicInterference::new(NodeSet::on_line(&[0.0, 0.4, 0.5]));
        linked.insert_edge(0, 1);
        let mut bad = linked.export_state();
        bad.radii[0] = 0.3;
        assert!(DynamicInterference::from_state(bad).is_err(), "radius below the longest link");
    }

    /// Six points: a duplicate pair (slots 2 and 3) and one far from the
    /// rest.
    fn knn_points() -> Vec<Point> {
        vec![
            Point::new(0.1, 0.1),
            Point::new(0.9, 0.9),
            Point::new(0.5, 0.52),
            Point::new(0.5, 0.52),
            Point::new(0.52, 0.5),
            Point::new(3.5, 3.5),
        ]
    }

    /// A nearest-live answer: `(dist, id)` pairs.
    type Knn = Vec<(f64, usize)>;

    /// `k_nearest_live` into a fresh buffer.
    fn knn(d: &DynamicInterference, p: Point, k: usize, exclude: Option<usize>) -> Knn {
        let mut out = Vec::new();
        d.k_nearest_live(p, k, exclude, &mut out);
        out
    }

    /// Brute force over the live slots, with the same `(dist, id)` order.
    fn brute_knn(d: &DynamicInterference, p: Point, k: usize, exclude: Option<usize>) -> Knn {
        let mut all: Vec<(f64, usize)> = (0..d.len())
            .filter(|&v| d.is_live(v) && Some(v) != exclude)
            .map(|v| (d.position(v).dist(&p), v))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    #[test]
    fn nearest_live_matches_brute_force() {
        let d = DynamicInterference::new(NodeSet::new(knn_points()));
        for q in 0..d.len() {
            for k in 1..=4 {
                let p = d.position(q);
                assert_eq!(knn(&d, p, k, Some(q)), brute_knn(&d, p, k, Some(q)), "query {q} k={k}");
            }
        }
        // Fewer live slots than asked for: every one of them comes back.
        assert_eq!(knn(&d, Point::ORIGIN, 9, None).len(), 6);
    }

    #[test]
    fn nearest_live_breaks_ties_by_id() {
        let d = DynamicInterference::new(NodeSet::new(knn_points()));
        let dup = Point::new(0.5, 0.52);
        // Each duplicate finds the other at distance 0; with neither
        // excluded, the lower id comes first.
        assert_eq!(knn(&d, dup, 1, Some(3)), vec![(0.0, 2)]);
        assert_eq!(knn(&d, dup, 1, Some(2)), vec![(0.0, 3)]);
        assert_eq!(knn(&d, dup, 2, None), vec![(0.0, 2), (0.0, 3)]);
    }

    #[test]
    fn nearest_live_ignores_grid_history() {
        // The same slots, all merged in one build or arrived one by one
        // through the overlay (and two rebuilds), answer identically.
        let pts: Vec<Point> = (0..150)
            .map(|i| Point::new((i * 37 % 101) as f64 * 0.03, (i * 53 % 89) as f64 * 0.03))
            .collect();
        let merged = DynamicInterference::new(NodeSet::new(pts.clone()));
        let mut arrived = DynamicInterference::new(NodeSet::new(vec![]));
        for &p in &pts {
            arrived.insert_node(p);
        }
        assert_ne!(merged.export_state().indexed_len, arrived.export_state().indexed_len);
        for q in [Point::new(1.5, 1.3), Point::new(-1.0, 0.2), pts[17], pts[149]] {
            for k in [1, 4] {
                let (a, b) = (knn(&merged, q, k, None), knn(&arrived, q, k, None));
                assert_eq!(a, b, "query {q:?} k={k}");
            }
        }
    }

    #[test]
    fn nearest_live_skips_dead_and_finds_pending_slots() {
        let mut d = DynamicInterference::new(NodeSet::new(knn_points()));
        assert!(d.remove_node(2));
        let dup = Point::new(0.5, 0.52);
        assert_eq!(knn(&d, dup, 1, None), vec![(0.0, 3)], "the surviving duplicate wins");
        // Arrivals sit in the grid's overlay until the next rebuild.
        let (p, q) = (Point::new(0.5, 0.5), Point::new(0.5, 0.49));
        let v = d.insert_node(p);
        assert_eq!(knn(&d, q, 1, None), vec![(p.dist(&q), v)]);
        assert!(d.remove_node(v));
        assert_eq!(knn(&d, q, 1, None)[0].1, 4);
        for q in [dup, Point::new(2.0, 2.0), Point::new(0.1, 0.1)] {
            assert_eq!(knn(&d, q, 3, Some(4)), brute_knn(&d, q, 3, Some(4)));
        }
    }

    #[test]
    fn nearest_live_handles_points_outside_the_grid() {
        let ns = NodeSet::new(vec![Point::new(0.2, 0.2), Point::new(0.8, 0.7)]);
        let mut d = DynamicInterference::new(ns);
        // Arrivals far outside the bounding box of the last build land in
        // its border cells; queries from outside still rank correctly.
        d.insert_node(Point::new(-5.0, -5.0));
        d.insert_node(Point::new(9.0, 9.0));
        let queries = [Point::ORIGIN, Point::new(-6.0, -4.0), Point::new(20.0, 0.0), Point::new(9.0, 8.0)];
        for q in queries {
            assert_eq!(knn(&d, q, 2, None), brute_knn(&d, q, 2, None), "query {q:?}");
        }
        assert_eq!(knn(&d, Point::ORIGIN, 1, None)[0].1, 0);
    }

    #[test]
    fn nearest_live_on_an_empty_structure_is_empty() {
        let mut d = DynamicInterference::new(NodeSet::new(vec![]));
        assert!(knn(&d, Point::ORIGIN, 3, None).is_empty());
        let v = d.insert_node(Point::new(1.0, 1.0));
        assert!(knn(&d, Point::ORIGIN, 0, None).is_empty(), "k = 0");
        assert!(knn(&d, Point::ORIGIN, 2, Some(v)).is_empty(), "only the excluded slot");
        d.remove_node(v);
        assert!(knn(&d, Point::ORIGIN, 1, None).is_empty(), "only a dead slot");
    }

    #[test]
    fn compaction_matches_the_replayed_live_topology() {
        let mut d = DynamicInterference::new(NodeSet::on_line(&[0.0, 0.1, 0.25, 0.4]));
        d.insert_edge(0, 1);
        d.insert_edge(1, 2);
        d.insert_edge(2, 3);
        for i in 0..120usize {
            let v = d.insert_node(Point::new((i % 12) as f64 * 0.05, (i / 12) as f64 * 0.05));
            d.insert_edge(v, i % 4);
            if i % 3 == 0 {
                d.remove_node(4 + i / 2);
            }
        }
        let (t, slots) = d.live_topology();
        let want: Vec<usize> = slots.iter().map(|&v| d.interference_at(v)).collect();
        d.compact();
        let replayed = DynamicInterference::from_topology(&t);
        assert_eq!(d.export_state(), replayed.export_state());
        assert_eq!(d.coverage_histogram(), replayed.coverage_histogram());
        let got: Vec<usize> = (0..d.len()).map(|v| d.interference_at(v)).collect();
        assert_eq!(got, want);
        check_consistent(&d);
    }

    #[test]
    fn empty_structure() {
        let d = DynamicInterference::new(NodeSet::new(vec![]));
        assert!(d.is_empty());
        assert_eq!(d.graph_interference(), 0);
    }
}
