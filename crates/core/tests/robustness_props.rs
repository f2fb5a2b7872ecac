//! Robustness properties of the receiver-centric measure (the paper's
//! Section 3 motivation): a single node arriving — with any radius that
//! leaves existing radii untouched — changes every *other* node's
//! interference by at most 1, and its departure undoes the change
//! symmetrically. Checked for both the batch engines and the
//! incremental [`DynamicInterference`] structure.

use rim_core::receiver::{interference_vector_naive, interference_vector_with, Engine};
use rim_core::DynamicInterference;
use rim_geom::Point;
use rim_rng::prop::check;
use rim_rng::{prop_ensure, prop_ensure_eq, SmallRng};
use rim_udg::{NodeSet, Topology};

/// Random topology plus one arrival point.
fn gen_instance(rng: &mut SmallRng) -> (Topology, Point) {
    let n = rng.gen_range(2usize..20);
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0f64..2.0), rng.gen_range(0.0f64..2.0)))
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
    let p = Point::new(rng.gen_range(0.0f64..2.0), rng.gen_range(0.0f64..2.0));
    (t, p)
}

/// A transmitter of `t` whose disk already covers `p`, if any. Linking
/// the newcomer to such a node cannot grow that node's radius, so the
/// *only* disk the arrival adds to the plane is the newcomer's own.
fn covering_anchor(t: &Topology, p: Point) -> Option<usize> {
    (0..t.num_nodes()).find(|&w| {
        t.graph().degree(w) > 0 && t.nodes().pos(w).dist(&p) <= t.radius(w)
    })
}

/// Batch form: adding one node (anchored so no existing radius changes)
/// raises every old node's interference by at most 1, under every
/// engine.
#[test]
fn batch_arrival_changes_each_count_by_at_most_one() {
    check(
        "batch_arrival_changes_each_count_by_at_most_one",
        256,
        gen_instance,
        |(t, p)| {
            let before = interference_vector_naive(t);
            let old_n = t.num_nodes();
            let grown_nodes = t.nodes().with_node(*p);
            let mut pairs: Vec<(usize, usize)> = t.edges().iter().map(|e| e.pair()).collect();
            let anchored = covering_anchor(t, *p);
            if let Some(w) = anchored {
                pairs.push((w, old_n));
            }
            let grown = Topology::from_pairs(grown_nodes, &pairs);
            for engine in [Engine::Naive, Engine::Auto] {
                let after = interference_vector_with(&grown, engine);
                for v in 0..old_n {
                    let delta = after[v] as isize - before[v] as isize;
                    prop_ensure!(
                        (0..=1).contains(&delta),
                        "engine {}: I({v}) moved by {delta} on arrival",
                        engine.name()
                    );
                }
                if anchored.is_none() {
                    // Isolated newcomer: transmits nothing, changes nothing.
                    for v in 0..old_n {
                        prop_ensure_eq!(after[v], before[v]);
                    }
                }
            }
            Ok(())
        },
    );
}

/// Incremental form: the same bound through [`DynamicInterference`],
/// plus the symmetric statement — detaching the newcomer again restores
/// every old node's count exactly (departure is bounded by the same 1).
#[test]
fn incremental_arrival_and_departure_are_bounded() {
    check(
        "incremental_arrival_and_departure_are_bounded",
        256,
        gen_instance,
        |(t, p)| {
            let mut d = DynamicInterference::from_topology(t);
            let old_n = t.num_nodes();
            let before: Vec<usize> = (0..old_n).map(|v| d.interference_at(v)).collect();

            // Arrival of an isolated node: no old count moves at all.
            let v = d.insert_node(*p);
            for (w, &was) in before.iter().enumerate() {
                prop_ensure_eq!(d.interference_at(w), was);
            }

            // Anchor it to a transmitter already covering it (if any):
            // no existing radius changes, so each old count moves by at
            // most the newcomer's own contribution — exactly 0 or 1.
            let Some(anchor) = covering_anchor(t, *p) else {
                return Ok(());
            };
            prop_ensure!(d.insert_edge(v, anchor));
            let mut after = Vec::with_capacity(old_n);
            for (w, &was) in before.iter().enumerate() {
                let now = d.interference_at(w);
                let delta = now as isize - was as isize;
                prop_ensure!(
                    (0..=1).contains(&delta),
                    "I({w}) moved by {delta} on incremental arrival"
                );
                after.push(now);
            }

            // Departure (detach): bounded by the same 1 per node, and
            // since the newcomer's disk was the only change, the counts
            // return to their pre-arrival values exactly.
            prop_ensure!(d.remove_edge(v, anchor));
            for w in 0..old_n {
                let now = d.interference_at(w);
                let delta = after[w] as isize - now as isize;
                prop_ensure!(
                    (0..=1).contains(&delta),
                    "I({w}) moved by {delta} on incremental departure"
                );
                prop_ensure_eq!(now, before[w]);
            }
            Ok(())
        },
    );
}
