//! Differential-oracle suite: every fast interference engine is tested
//! for *exact* agreement with [`interference_vector_naive`] — the
//! permanent `O(n²)` oracle that transcribes Definition 3.1 literally —
//! across adversarial instance families, and the incremental structure
//! is replayed edit-by-edit against from-scratch recomputation.
//!
//! The families are chosen to stress different failure modes of the
//! spatial index: uniform (the grid's home turf), clustered (uneven
//! bucket population), exponential chains (radius spreads that defeat
//! any uniform cell and make the grid split cells), collinear instances
//! (degenerate bounding boxes), and duplicate coordinates (zero-length
//! links, boundary ties at `d = 0`).

use rim_core::receiver::{
    graph_interference_with, interference_vector_naive, interference_vector_with, Engine,
};
use rim_core::DynamicInterference;
use rim_geom::Point;
use rim_rng::prop::check;
use rim_rng::{prop_ensure, prop_ensure_eq, SmallRng};
use rim_udg::{NodeSet, Topology};

/// Random edge selection over `n` nodes: up to `2n` draws, deduped.
fn arb_pairs(rng: &mut SmallRng, n: usize) -> Vec<(usize, usize)> {
    let mut seen = std::collections::HashSet::new();
    let mut pairs = Vec::new();
    if n < 2 {
        return pairs;
    }
    for _ in 0..rng.gen_range(0usize..2 * n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b && seen.insert((a.min(b), a.max(b))) {
            pairs.push((a, b));
        }
    }
    pairs
}

fn topology_from(rng: &mut SmallRng, points: Vec<Point>) -> Topology {
    let n = points.len();
    let pairs = arb_pairs(rng, n);
    Topology::from_pairs(NodeSet::new(points), &pairs)
}

/// Uniform points in a square.
fn gen_uniform(rng: &mut SmallRng) -> Topology {
    let n = rng.gen_range(2usize..48);
    let side = rng.gen_range(0.5f64..4.0);
    let pts = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    topology_from(rng, pts)
}

/// A few tight clusters far apart: grid buckets are wildly uneven.
fn gen_clustered(rng: &mut SmallRng) -> Topology {
    let clusters = rng.gen_range(1usize..5);
    let per = rng.gen_range(2usize..10);
    let mut pts = Vec::new();
    for _ in 0..clusters {
        let cx = rng.gen_range(0.0f64..20.0);
        let cy = rng.gen_range(0.0f64..20.0);
        for _ in 0..per {
            pts.push(Point::new(
                cx + rng.gen_range(-0.05f64..0.05),
                cy + rng.gen_range(-0.05f64..0.05),
            ));
        }
    }
    topology_from(rng, pts)
}

/// Exponentially growing gaps (the paper's Figure 7 instance shape):
/// radii spread over many orders of magnitude, the split-cell trigger.
fn gen_exponential_chain(rng: &mut SmallRng) -> Topology {
    let n = rng.gen_range(3usize..24);
    let scale = 2f64.powi(-(rng.gen_range(0u32..30) as i32));
    let pts: Vec<Point> = (0..n)
        .map(|i| Point::on_line((2f64.powi(i as i32) - 1.0) * scale))
        .collect();
    // Always include the linear chain so the huge radii actually occur,
    // then add random extra links.
    let mut pairs: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    for (a, b) in arb_pairs(rng, n) {
        if b != a + 1 && a != b + 1 {
            pairs.push((a, b));
        }
    }
    Topology::from_pairs(NodeSet::new(pts), &pairs)
}

/// Collinear points: a degenerate (height-zero) bounding box.
fn gen_collinear(rng: &mut SmallRng) -> Topology {
    let n = rng.gen_range(2usize..32);
    let pts = (0..n)
        .map(|_| Point::on_line(rng.gen_range(0.0f64..3.0)))
        .collect();
    topology_from(rng, pts)
}

/// Duplicate coordinates: coincident nodes, zero-length links, exact
/// boundary ties at `d = 0`.
fn gen_duplicates(rng: &mut SmallRng) -> Topology {
    let distinct = rng.gen_range(1usize..8);
    let sites: Vec<Point> = (0..distinct)
        .map(|_| Point::new(rng.gen_range(0.0f64..1.0), rng.gen_range(0.0f64..1.0)))
        .collect();
    let n = rng.gen_range(distinct..3 * distinct + 2);
    let pts = (0..n).map(|i| sites[i % distinct]).collect();
    topology_from(rng, pts)
}

/// Asserts that every engine reproduces the oracle exactly — not within
/// a tolerance: the counts are integers and the predicate is identical.
fn engines_match_oracle(t: &Topology) -> Result<(), String> {
    let oracle = interference_vector_naive(t);
    for engine in [Engine::Naive, Engine::Auto] {
        let got = interference_vector_with(t, engine);
        prop_ensure!(
            got == oracle,
            "engine {} diverged from the naive oracle\n  got:    {:?}\n  oracle: {:?}",
            engine.name(),
            got,
            oracle
        );
        prop_ensure_eq!(
            graph_interference_with(t, engine),
            oracle.iter().copied().max().unwrap_or(0)
        );
    }
    Ok(())
}

#[test]
fn differential_uniform() {
    check("differential_uniform", 256, gen_uniform, engines_match_oracle);
}

#[test]
fn differential_clustered() {
    check("differential_clustered", 256, gen_clustered, engines_match_oracle);
}

#[test]
fn differential_exponential_chain() {
    check(
        "differential_exponential_chain",
        256,
        gen_exponential_chain,
        engines_match_oracle,
    );
}

#[test]
fn differential_collinear() {
    check("differential_collinear", 256, gen_collinear, engines_match_oracle);
}

#[test]
fn differential_duplicate_coordinates() {
    check(
        "differential_duplicate_coordinates",
        256,
        gen_duplicates,
        engines_match_oracle,
    );
}

/// One edit of a dynamic-interference trace.
#[derive(Debug, Clone)]
enum Edit {
    InsertEdge(usize, usize),
    RemoveEdge(usize, usize),
    InsertNode(Point),
    RemoveNode(usize),
}

/// A random edit trace over a random starting instance. Node indices in
/// edge edits address the *current* node count, which only grows.
fn gen_trace(rng: &mut SmallRng) -> (Topology, Vec<Edit>) {
    let t = gen_uniform(rng);
    let mut n = t.num_nodes();
    let steps = rng.gen_range(1usize..24);
    let mut edits = Vec::with_capacity(steps);
    for _ in 0..steps {
        match rng.gen_range(0u32..5) {
            0 => {
                edits.push(Edit::InsertNode(Point::new(
                    rng.gen_range(0.0f64..4.0),
                    rng.gen_range(0.0f64..4.0),
                )));
                n += 1;
            }
            1 => {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    edits.push(Edit::RemoveEdge(a, b));
                }
            }
            // Departures address any slot, dead or alive — replays must
            // prove the second removal is a clean no-op.
            2 => edits.push(Edit::RemoveNode(rng.gen_range(0..n))),
            _ => {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    edits.push(Edit::InsertEdge(a, b));
                }
            }
        }
    }
    (t, edits)
}

/// Replays a full edit trace through [`DynamicInterference`], comparing
/// the incrementally maintained counts against a from-scratch batch
/// recomputation (both the naive oracle and the indexed engine) after
/// *every* step — the incremental structure may never drift, not even
/// transiently.
#[test]
fn differential_incremental_trace_replay() {
    check(
        "differential_incremental_trace_replay",
        192,
        gen_trace,
        |(t0, edits)| {
            let mut d = DynamicInterference::from_topology(t0);
            for (step, edit) in edits.iter().enumerate() {
                match *edit {
                    Edit::InsertEdge(u, v) => {
                        let had = d.graph().has_edge(u, v);
                        let legal = d.is_live(u) && d.is_live(v);
                        prop_ensure_eq!(d.insert_edge(u, v), !had && legal);
                    }
                    Edit::RemoveEdge(u, v) => {
                        let had = d.graph().has_edge(u, v);
                        prop_ensure_eq!(d.remove_edge(u, v), had);
                    }
                    Edit::InsertNode(p) => {
                        let v = d.insert_node(p);
                        prop_ensure_eq!(v, d.len() - 1);
                    }
                    Edit::RemoveNode(v) => {
                        let was_live = d.is_live(v);
                        prop_ensure_eq!(d.remove_node(v), was_live);
                        prop_ensure!(!d.is_live(v));
                    }
                }
                // Compare over the *live* view: a tombstoned slot is
                // invisible to the maintained structure, but a batch
                // kernel run over the raw slot set would still charge
                // coverage to it.
                let (rebuilt, slots) = d.live_topology();
                let oracle = interference_vector_naive(&rebuilt);
                let got: Vec<usize> = slots.iter().map(|&v| d.interference_at(v)).collect();
                prop_ensure!(
                    got == oracle,
                    "after step {step} ({edit:?}) incremental counts diverged\n  \
                     got:    {got:?}\n  oracle: {oracle:?}"
                );
                prop_ensure_eq!(
                    interference_vector_with(&rebuilt, Engine::Auto),
                    oracle
                );
                prop_ensure_eq!(
                    d.graph_interference(),
                    oracle.iter().copied().max().unwrap_or(0)
                );
            }
            Ok(())
        },
    );
}
