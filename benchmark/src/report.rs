//! Metric names, operation accounting, and the printed result.

use crate::stats::{self, LatencyHist};
use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with tracing off. An
/// operation is a `pipeline` pass, a `stream` run or a churn edit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with tracing on; a
/// layer the workload does not reach reads 0. Names ending in `_s` are
/// self times of one traced operation (`…_s` of a span named `…`).
pub const PER_LAYER: [(&str, &str); 47] = [
    ("udg.parse_s", "s"),
    ("udg.build_s", "s"),
    ("udg.connectivity_s", "s"),
    ("udg.format_s", "s"),
    ("udg.summary_s", "s"),
    ("udg.edges", "count"),
    ("tc.gg_s", "s"),
    ("tc.rng_s", "s"),
    ("tc.lmst_s", "s"),
    ("tc.xtc_s", "s"),
    ("tc.yao6_s", "s"),
    ("tc.mst_s", "s"),
    ("core.interference_s", "s"),
    ("core.sender_s", "s"),
    ("core.disk_queries", "count"),
    ("geom.grid_builds", "count"),
    ("geom.kd_builds", "count"),
    ("geom.query_hit_ratio", "ratio"),
    ("workloads.uniform_soa_s", "s"),
    ("geom.soa_build_s", "s"),
    ("core.build_nn_s", "s"),
    ("core.nn_radii_s", "s"),
    ("core.count_s", "s"),
    ("core.count_hits", "count"),
    ("core.count_bytes", "bytes"),
    ("churn.trace_s", "s"),
    ("churn.arrival_s", "s"),
    ("churn.departure_s", "s"),
    ("churn.move_s", "s"),
    ("churn.relink_s", "s"),
    ("churn.arrivals", "count"),
    ("churn.departures", "count"),
    ("churn.moves", "count"),
    ("churn.relinks", "count"),
    ("churn.compact_s", "s"),
    ("churn.compactions", "count"),
    ("dynamic.index_rebuilds", "count"),
    ("churn.relink_toggle_ratio", "ratio"),
    ("dynamic.edge_inserts", "count"),
    ("dynamic.edge_removes", "count"),
    ("churn.decode_s", "s"),
    ("churn.snapshot_bytes", "bytes"),
    ("churn.restore_s", "s"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("process_s", "s"),
    ("tracing_overhead_s", "s"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: u64,
    /// Extra context for the human line (e.g. which percentile).
    pub note: &'static str,
}

/// Attempted and failed operations. A failure is an operation that
/// errored or whose output did not check out; it is counted, logged to
/// stderr, and the run goes on.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts `weight` operations whose outcome is `result`.
    pub fn check(&mut self, what: &str, weight: u64, result: Result<(), String>) {
        self.attempted += weight;
        if let Err(e) = result {
            if self.failed < 5 {
                eprintln!("rim-benchmark: {what} failed: {e}");
            }
            self.failed += weight;
        }
    }
}

/// Timings of the measured operations of a run.
#[derive(Debug, Default)]
pub struct Measure {
    /// Per-operation latency.
    pub hist: LatencyHist,
    /// Wall time the throughput divides by.
    pub timed: Duration,
    /// Highest peak RSS seen, kB.
    pub peak_kb: u64,
}

impl Measure {
    /// Records one operation that took `wall`.
    pub fn op(&mut self, wall: Duration) {
        self.hist.record(wall.as_nanos() as u64);
        self.timed += wall;
    }
}

/// The five end-to-end metrics of a run, from its measured operations
/// and its set-up times in seconds.
pub fn end_to_end(m: &Measure, setup: &[f64]) -> Result<Vec<Metric>, String> {
    let n = m.hist.len();
    let q = |per10k| {
        m.hist
            .quantile_ns(per10k)
            .map(|ns| ns as f64 / 1e6)
            .ok_or("no operation was measured")
    };
    let (tail, rung) = stats::tail_rung(n);
    let metric = |name, value, unit, samples, note| Metric {
        name,
        value,
        unit,
        samples,
        note,
    };
    Ok(vec![
        metric("op_p50_ms", q(5_000)?, "ms", n, "p50"),
        metric("op_tail_ms", q(tail)?, "ms", n, rung),
        metric("ops_per_s", n as f64 / m.timed.as_secs_f64(), "1/s", n, ""),
        metric(
            "setup_s",
            stats::median(setup),
            "s",
            setup.len() as u64,
            "median",
        ),
        metric("peak_rss_mb", m.peak_kb as f64 / 1024.0, "MB", n, "max"),
    ])
}

/// Every per-layer metric, taking `values` where given and 0 elsewhere.
/// A value under a name outside [`PER_LAYER`] is an error, so the list
/// and the workloads cannot drift apart.
pub fn per_layer(values: &BTreeMap<String, f64>, samples: u64) -> Result<Vec<Metric>, String> {
    if let Some(stray) = values
        .keys()
        .find(|k| !PER_LAYER.iter().any(|(n, _)| n == k))
    {
        return Err(format!("per-layer value {stray} is not a listed metric"));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
            samples,
            note: "",
        })
        .collect())
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Operation accounting.
    pub tally: Tally,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every checked output was correct.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// One `workload metric value unit n=samples` line per metric.
    pub fn human(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            s.push_str(&format!(
                "{} {} {} {} n={}",
                self.workload, m.name, m.value, m.unit, m.samples
            ));
            if !m.note.is_empty() {
                s.push_str(&format!(" ({})", m.note));
            }
            s.push('\n');
        }
        s
    }

    /// The single-line JSON result; fails on a non-finite value.
    pub fn json(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("{} is not finite ({})", m.name, m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_counts_against_the_run() {
        let mut t = Tally::default();
        t.check("op", 1, Ok(()));
        t.check("op", 3, Err("wrong output".into()));
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
        let r = Report {
            workload: "w",
            tally: t,
            metrics: Vec::new(),
        };
        assert!(!r.correct());
        assert_eq!(
            r.json().unwrap(),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 3, \"metrics\": {}}"
        );
    }

    #[test]
    fn end_to_end_reports_every_listed_metric() {
        let mut m = Measure::default();
        // Microsecond latencies sit in the histogram's exact range.
        for us in 1..=40u64 {
            m.op(Duration::from_micros(us));
        }
        m.peak_kb = 2048;
        let got = end_to_end(&m, &[0.5, 0.25, 0.75]).unwrap();
        let names: Vec<_> = got.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, END_TO_END.to_vec());
        assert_eq!(got[0].value, 0.02);
        // 40 samples: p90 has 4 beyond, so the median is also the tail.
        assert_eq!((got[1].value, got[1].note), (0.02, "p50"));
        assert!((got[2].value - 40.0 / 820e-6).abs() < 1e-6);
        assert_eq!(got[3].value, 0.5);
        assert_eq!(got[4].value, 2.0);
        assert!(end_to_end(&Measure::default(), &[1.0]).is_err());
    }

    #[test]
    fn per_layer_fills_gaps_and_rejects_unknown_names() {
        let mut v = BTreeMap::new();
        v.insert("udg.parse_s".to_string(), 0.5);
        let got = per_layer(&v, 3).unwrap();
        assert_eq!(got.len(), PER_LAYER.len());
        assert_eq!(got[0].value, 0.5);
        assert!(got[1..].iter().all(|m| m.value == 0.0));
        v.insert("udg.typo_s".to_string(), 1.0);
        assert!(per_layer(&v, 3).is_err());
    }
}
