//! Traced runs: repetitions of one traced operation, the `rim-obs`
//! counters they move, and the per-layer breakdown.

use crate::env::Env;
use crate::report::Tally;
use crate::tracer::{self, Span};
use std::collections::BTreeMap;
use std::time::Instant;

/// Most traced repetitions in one run. All their spans stay in memory
/// until the median one is known.
pub const MAX_REPS: usize = 7;

/// One traced repetition of a workload's operation.
#[derive(Debug)]
pub struct Rep {
    /// Spans; the first is the root span around the whole operation.
    pub spans: Vec<Span>,
    /// Counts, which must repeat exactly from one repetition to the next.
    pub counts: BTreeMap<String, f64>,
    /// Whether the repetition's outputs checked out.
    pub ok: Result<(), String>,
}

impl Rep {
    /// Traced wall time of the operation: the root span's duration.
    pub fn wall_ns(&self) -> u64 {
        self.spans.first().map_or(0, |s| s.end_ns - s.start_ns)
    }
}

/// Runs per untraced reference measurement.
pub const REFS: usize = 3;

/// Median of the wall times (seconds) `f` returns over [`REFS`] calls,
/// with the output of the last call.
pub fn median_of<T>(mut f: impl FnMut() -> Result<(f64, T), String>) -> Result<(f64, T), String> {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..REFS {
        let (wall, out) = f()?;
        walls.push(wall);
        last = Some(out);
    }
    Ok((
        crate::stats::median(&walls),
        last.expect("REFS is positive"),
    ))
}

/// Runs `rep` once, then again until `seconds` have passed or
/// [`MAX_REPS`] ran, and returns the repetition with the median traced
/// wall time with the number run. A repetition whose outputs are wrong,
/// or whose counts differ from the first one's, counts as failed.
pub fn median_rep(
    seconds: f64,
    tally: &mut Tally,
    mut rep: impl FnMut() -> Result<Rep, String>,
) -> Result<(Rep, u64), String> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.is_empty() || (reps.len() < MAX_REPS && start.elapsed().as_secs_f64() < seconds) {
        let r = rep()?;
        let same = match reps.first() {
            Some(first) if first.counts != r.counts => Err(format!(
                "counts changed between repetitions: {:?} then {:?}",
                first.counts, r.counts
            )),
            _ => Ok(()),
        };
        tally.check("traced operation", 1, r.ok.clone().and(same));
        reps.push(r);
    }
    let n = reps.len() as u64;
    reps.sort_by_key(Rep::wall_ns);
    Ok((reps.swap_remove(crate::stats::rank(n, 5_000) as usize), n))
}

/// The per-layer values of `rep`: each layer's self time as
/// `<layer>_s`, the traced wall time, the unattributed remainder (so the
/// layers and it sum to the wall exactly), and the counts.
pub fn breakdown(rep: &Rep) -> BTreeMap<String, f64> {
    let mut out = rep.counts.clone();
    let totals = tracer::layer_totals(&rep.spans);
    let attributed: u64 = totals.values().sum();
    for (name, ns) in totals {
        out.insert(format!("{name}_s"), ns as f64 / 1e9);
    }
    let wall = rep.wall_ns();
    out.insert("traced_wall_s".into(), wall as f64 / 1e9);
    out.insert(
        "unattributed_s".into(),
        wall.saturating_sub(attributed) as f64 / 1e9,
    );
    out
}

/// Writes `rep`'s spans to `spans.jsonl` in the scratch directory.
pub fn write_spans(env: &Env, rep: &Rep) -> Result<(), String> {
    let path = env.file("spans.jsonl");
    let mut buf = Vec::new();
    tracer::write_jsonl(&rep.spans, 0, &mut buf).map_err(|e| e.to_string())?;
    crate::env::write(&path, buf)?;
    println!("spans: {}", path.display());
    Ok(())
}

/// `rim-obs` counters reported per layer: (metric, counter).
const COUNTERS: [(&str, &str); 6] = [
    ("geom.grid_builds", "geom.index.grid_builds"),
    ("geom.kd_builds", "geom.index.kd_builds"),
    ("core.disk_queries", "core.disk_queries"),
    ("dynamic.index_rebuilds", "dynamic.index_rebuilds"),
    ("dynamic.edge_inserts", "dynamic.edge_inserts"),
    ("dynamic.edge_removes", "dynamic.edge_removes"),
];

/// Current totals of the reported `rim-obs` counters, plus the sums of
/// the spatial index's per-query hit and candidate histograms (empty
/// while no recorder is installed).
pub fn obs_totals() -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    let Some(rec) = rim_obs::global() else {
        return out;
    };
    for (metric, counter) in COUNTERS {
        out.insert(metric, rec.counter(counter));
    }
    let snap = rec.snapshot();
    let sum = |h: &str| snap.histograms.get(h).map_or(0, |h| h.sum);
    out.insert("query_hits", sum("geom.index.query_hits"));
    out.insert("query_candidates", sum("geom.index.query_candidates"));
    out
}

/// Counts accrued between two [`obs_totals`] readings, with the hit
/// sums folded into `geom.query_hit_ratio` (hits ÷ candidates; kd-tree
/// queries report hits but no candidates).
pub fn obs_delta(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
) -> BTreeMap<String, f64> {
    let d = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    let mut out: BTreeMap<String, f64> = COUNTERS
        .iter()
        .map(|(metric, _)| (metric.to_string(), d(metric) as f64))
        .collect();
    let candidates = d("query_candidates");
    let ratio = if candidates == 0 {
        0.0
    } else {
        d("query_hits") as f64 / candidates as f64
    };
    out.insert("geom.query_hit_ratio".into(), ratio);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall: u64, count: f64) -> Rep {
        let mut counts = BTreeMap::new();
        counts.insert("x".to_string(), count);
        let spans = vec![
            Span {
                name: "op",
                layer: false,
                parent: None,
                start_ns: 0,
                end_ns: wall,
            },
            Span {
                name: "a",
                layer: true,
                parent: Some(0),
                start_ns: 1,
                end_ns: 3,
            },
        ];
        Rep {
            spans,
            counts,
            ok: Ok(()),
        }
    }

    #[test]
    fn median_rep_picks_the_middle_wall_and_flags_changed_counts() {
        let walls = [50, 10, 30, 70, 20, 60, 40];
        let mut i = 0;
        let mut tally = Tally::default();
        let (mid, n) = median_rep(1e9, &mut tally, || {
            i += 1;
            Ok(rep(walls[i - 1], if i == 3 { 2.0 } else { 1.0 }))
        })
        .unwrap();
        assert_eq!(n, MAX_REPS as u64);
        assert_eq!(mid.wall_ns(), 40);
        assert_eq!(
            tally,
            Tally {
                attempted: 7,
                failed: 1
            }
        );
        // With no time left, one repetition is still run.
        let (one, n) = median_rep(0.0, &mut tally, || Ok(rep(5, 1.0))).unwrap();
        assert_eq!((one.wall_ns(), n), (5, 1));
    }

    #[test]
    fn breakdown_sums_to_the_wall() {
        let b = breakdown(&rep(10, 1.0));
        assert_eq!(b["a_s"], 2e-9);
        assert_eq!(b["traced_wall_s"], 10e-9);
        assert_eq!(b["unattributed_s"], 8e-9);
        assert_eq!(b["x"], 1.0);
    }

    #[test]
    fn obs_delta_folds_hits_into_a_ratio() {
        let before = BTreeMap::from([("query_hits", 5), ("query_candidates", 10)]);
        let after = BTreeMap::from([
            ("geom.grid_builds", 2),
            ("query_hits", 35),
            ("query_candidates", 70),
        ]);
        let d = obs_delta(&before, &after);
        assert_eq!(d["geom.grid_builds"], 2.0);
        assert_eq!(d["geom.query_hit_ratio"], 0.5);
        assert!(!d.contains_key("query_hits"));
        assert_eq!(obs_delta(&after, &after)["geom.query_hit_ratio"], 0.0);
    }
}
