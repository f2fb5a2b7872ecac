//! The engine's nearest-live query against brute force over the live
//! slots, on churned states of all five instance families: dead slots,
//! pending overlay slots, duplicates, collinear and exponential spreads
//! and arrivals outside the grid's last bounding box all occur.

use rim_churn::{ChurnConfig, ChurnSim, Family};
use rim_geom::Point;
use rim_rng::prop::check;
use rim_rng::{prop_ensure_eq, SmallRng};

#[derive(Debug)]
struct Case {
    cfg: ChurnConfig,
    edits: u64,
    /// Query points: a slot's position, live or dead, or an offset from
    /// it.
    queries: Vec<(usize, Option<(f64, f64)>)>,
    k: usize,
}

fn gen_case(rng: &mut SmallRng) -> Case {
    let cfg = ChurnConfig {
        family: Family::ALL[rng.gen_range(0usize..Family::ALL.len())],
        n0: rng.gen_range(2usize..120),
        seed: rng.next_u64(),
    };
    let queries = (0..8)
        .map(|_| {
            let offset = rng
                .gen_bool(0.5)
                .then(|| (rng.gen_range(-20.0f64..20.0), rng.gen_range(-2.0f64..2.0)));
            (rng.next_u64() as usize, offset)
        })
        .collect();
    Case { cfg, edits: rng.gen_range(1u64..1_500), queries, k: rng.gen_range(1usize..6) }
}

#[test]
fn nearest_live_matches_brute_force_on_churned_states() {
    check("nearest_live_matches_brute_force_on_churned_states", 160, gen_case, |case| {
        let mut sim = ChurnSim::new(case.cfg, case.edits);
        sim.run_to_end();
        let engine = sim.engine();
        let mut got = Vec::new();
        for &(slot, offset) in &case.queries {
            let slot = slot % engine.len();
            let base = engine.position(slot);
            let (p, exclude) = match offset {
                Some((dx, dy)) => (Point::new(base.x + dx, base.y + dy), None),
                None => (base, engine.is_live(slot).then_some(slot)),
            };
            engine.k_nearest_live(p, case.k, exclude, &mut got);
            let mut want: Vec<(f64, usize)> = (0..engine.len())
                .filter(|&v| engine.is_live(v) && Some(v) != exclude)
                .map(|v| (engine.position(v).dist(&p), v))
                .collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            want.truncate(case.k);
            let bits = |v: &[(f64, usize)]| -> Vec<(u64, usize)> {
                v.iter().map(|&(d, id)| (d.to_bits(), id)).collect()
            };
            prop_ensure_eq!(bits(&got), bits(&want));
        }
        Ok(())
    });
}
