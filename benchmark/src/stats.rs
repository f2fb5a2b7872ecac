//! Latency samples and the percentile ladder.
//!
//! Latencies go into a [`LatencyHist`]: exact to the nanosecond below
//! 65.5 µs and within 1/4096 above, in a fixed 640 KiB of counters. A
//! fixed footprint matters here because the churn workload measures its
//! own peak RSS: a sample vector would grow with the number of edits a
//! commit manages in the run, so a faster commit would read as a fatter
//! one.

/// Percentile rungs, in parts per ten thousand: p50, p90, p99, p99.9
/// and p99.99.
pub const LADDER: [(u64, &str); 5] = [
    (5_000, "p50"),
    (9_000, "p90"),
    (9_900, "p99"),
    (9_990, "p99.9"),
    (9_999, "p99.99"),
];

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_BEYOND: u64 = 10;

/// Zero-based nearest-rank index of rung `per10k` among `n >= 1` sorted
/// samples: `ceil(q·n) − 1`, in integers so that p99.99 of 10⁶ samples
/// is exactly index 999 899.
pub fn rank(n: u64, per10k: u64) -> u64 {
    let r = (u128::from(per10k) * u128::from(n)).div_ceil(10_000);
    (r as u64).saturating_sub(1)
}

/// Samples ranked strictly above rung `per10k` among `n >= 1` samples.
pub fn beyond(n: u64, per10k: u64) -> u64 {
    n.saturating_sub(1).saturating_sub(rank(n, per10k))
}

/// The highest rung with at least [`MIN_BEYOND`] samples beyond it. With
/// fewer than 20 samples no rung qualifies and the median stands in.
pub fn tail_rung(n: u64) -> (u64, &'static str) {
    LADDER
        .iter()
        .rev()
        .find(|&&(p, _)| beyond(n, p) >= MIN_BEYOND)
        .copied()
        .unwrap_or(LADDER[0])
}

/// Nearest-rank median of a small sample (the middle value, the lower
/// one for an even count); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len() as u64, 5_000) as usize]
}

const EXACT: usize = 1 << 16;
const SUB_BITS: u32 = 12;
const SUB: usize = 1 << SUB_BITS;
/// Values at or above 2^40 ns (18 minutes) share the top bucket.
const MAX_LOG2: u32 = 40;
const BUCKETS: usize = EXACT + (MAX_LOG2 as usize - 16) * SUB;

/// Fixed-size latency histogram over nanoseconds; see the module docs.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < EXACT as u64 {
            return ns as usize;
        }
        let log2 = 63 - ns.leading_zeros();
        if log2 >= MAX_LOG2 {
            return BUCKETS - 1;
        }
        let top = (ns >> (log2 - SUB_BITS)) as usize;
        EXACT + (log2 as usize - 16) * SUB + (top - SUB)
    }

    fn lower_bound(i: usize) -> u64 {
        if i < EXACT {
            return i as u64;
        }
        let j = i - EXACT;
        let log2 = 16 + (j / SUB) as u32;
        ((SUB + j % SUB) as u64) << (log2 - SUB_BITS)
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nearest-rank value of rung `per10k`, as the lower edge of its
    /// bucket (exact below 65.5 µs); `None` when empty.
    pub fn quantile_ns(&self, per10k: u64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let want = rank(self.n, per10k);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen > want {
                return Some(Self::lower_bound(i));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_ranks_match_the_issue_counts() {
        // 10⁶ churn-uniform edits leave 100 samples beyond p99.99 and
        // 2.5×10⁵ churn-expchain edits leave 25.
        assert_eq!(rank(1_000_000, 9_999), 999_899);
        assert_eq!(beyond(1_000_000, 9_999), 100);
        assert_eq!(beyond(250_000, 9_999), 25);
        assert_eq!(rank(1, 5_000), 0);
        assert_eq!(beyond(1, 9_999), 0);
        assert_eq!(rank(4, 5_000), 1);
    }

    #[test]
    fn tail_is_the_highest_rung_with_ten_beyond() {
        assert_eq!(tail_rung(1_000_000).1, "p99.99");
        assert_eq!(tail_rung(250_000).1, "p99.99");
        // 99 999 samples: p99.99 has 9 beyond, p99.9 has 99.
        assert_eq!(beyond(99_999, 9_999), 9);
        assert_eq!(tail_rung(99_999).1, "p99.9");
        assert_eq!(tail_rung(1_000).1, "p99");
        assert_eq!(tail_rung(100).1, "p90");
        assert_eq!(beyond(99, 9_000), 9);
        assert_eq!(tail_rung(99).1, "p50");
        // Below 20 samples even the median has fewer than ten beyond;
        // it is reported anyway, as the ladder's floor.
        assert_eq!(beyond(19, 5_000), 9);
        assert_eq!(tail_rung(19).1, "p50");
        assert_eq!(tail_rung(1).1, "p50");
    }

    #[test]
    fn histogram_is_exact_below_the_cutoff_and_tight_above() {
        let mut h = LatencyHist::new();
        assert_eq!(h.quantile_ns(5_000), None);
        for ns in 1..=1_000u64 {
            h.record(ns * 7);
        }
        assert_eq!(h.len(), 1_000);
        assert_eq!(h.quantile_ns(5_000), Some(500 * 7));
        assert_eq!(h.quantile_ns(9_900), Some(990 * 7));
        for ns in [65_536u64, 1_000_003, 3_000_000_007, 123_456_789_012] {
            let lo = LatencyHist::lower_bound(LatencyHist::index(ns));
            assert!(lo <= ns, "{lo} > {ns}");
            assert!((ns - lo) as f64 <= ns as f64 / 4096.0, "{ns} -> {lo}");
        }
        // Every bucket edge maps back to its own bucket.
        for i in [0, EXACT - 1, EXACT, EXACT + SUB, BUCKETS - 1] {
            assert_eq!(LatencyHist::index(LatencyHist::lower_bound(i)), i);
        }
        assert_eq!(LatencyHist::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn median_takes_the_lower_middle() {
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
