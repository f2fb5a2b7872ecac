//! Weighted undirected edges.

use std::cmp::Ordering;

/// An undirected edge `{u, v}` with a real weight (typically a Euclidean
/// distance).
///
/// Endpoints are stored normalized (`u <= v`) so that edges compare and
/// hash structurally. The ordering is by weight, then endpoints — the
/// deterministic order Kruskal-style algorithms rely on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Edge weight; must be finite.
    pub weight: f64,
}

impl Edge {
    /// Creates a normalized edge. Panics in debug builds on self-loops or
    /// non-finite weights.
    #[inline]
    pub fn new(a: usize, b: usize, weight: f64) -> Self {
        debug_assert!(a != b, "self-loop {a}");
        debug_assert!(weight.is_finite(), "non-finite weight {weight}");
        Edge {
            u: a.min(b),
            v: a.max(b),
            weight,
        }
    }

    /// Returns the endpoint different from `x`; panics if `x` is not an
    /// endpoint.
    #[inline]
    pub fn other(&self, x: usize) -> usize {
        if x == self.u {
            self.v
        } else {
            assert_eq!(x, self.v, "vertex {x} not on edge {self:?}");
            self.u
        }
    }

    /// Returns `true` if `x` is an endpoint.
    #[inline]
    pub fn touches(&self, x: usize) -> bool {
        self.u == x || self.v == x
    }

    /// The endpoint pair `(u, v)` with `u < v`.
    #[inline]
    pub fn pair(&self) -> (usize, usize) {
        (self.u, self.v)
    }

    /// Total order: by weight, then endpoints. Deterministic for any input.
    #[inline]
    pub fn cmp_by_weight(&self, other: &Edge) -> Ordering {
        self.weight
            .total_cmp(&other.weight)
            .then(self.u.cmp(&other.u))
            .then(self.v.cmp(&other.v))
    }
}

/// Packs the vertex pair `{a, b}` (ids below 2³²) as `min << 32 | max`.
/// Sorted keys list the pairs in `(u, v)` order with `u < v`, and equal
/// pairs, in either orientation, have equal keys.
#[inline]
pub fn pair_key(a: usize, b: usize) -> u64 {
    (a.min(b) as u64) << 32 | a.max(b) as u64
}

/// The pair `(u, v)`, `u <= v`, packed by [`pair_key`].
#[inline]
pub fn key_pair(key: u64) -> (usize, usize) {
    ((key >> 32) as usize, (key & u64::from(u32::MAX)) as usize)
}

impl Eq for Edge {}

impl PartialOrd for Edge {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Edge {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_by_weight(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_are_normalized() {
        let e = Edge::new(5, 2, 1.0);
        assert_eq!(e.pair(), (2, 5));
        assert_eq!(e.other(2), 5);
        assert_eq!(e.other(5), 2);
        assert!(e.touches(2) && e.touches(5) && !e.touches(3));
    }

    #[test]
    #[should_panic]
    fn other_panics_for_non_endpoint() {
        Edge::new(0, 1, 1.0).other(2);
    }

    #[test]
    fn ordering_is_by_weight_then_endpoints() {
        let mut edges = [Edge::new(0, 3, 2.0),
            Edge::new(1, 2, 1.0),
            Edge::new(0, 1, 2.0),
            Edge::new(0, 2, 2.0)];
        edges.sort_unstable();
        assert_eq!(
            edges.iter().map(Edge::pair).collect::<Vec<_>>(),
            vec![(1, 2), (0, 1), (0, 2), (0, 3)]
        );
    }

    #[test]
    fn pair_keys_sort_like_normalized_pairs() {
        let pairs = [(3, 1), (0, u32::MAX as usize), (1, 3), (0, 2), (2, 0), (7, 5)];
        let mut keys: Vec<u64> = pairs.iter().map(|&(a, b)| pair_key(a, b)).collect();
        keys.sort_unstable();
        let decoded: Vec<(usize, usize)> = keys.into_iter().map(key_pair).collect();
        let mut want: Vec<(usize, usize)> =
            pairs.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        want.sort_unstable();
        assert_eq!(decoded, want);
    }

    #[test]
    fn negative_zero_weight_sorts_before_positive_zero() {
        // total_cmp distinguishes -0.0 < +0.0; the order stays total either way.
        let a = Edge::new(0, 1, -0.0);
        let b = Edge::new(0, 1, 0.0);
        assert!(a < b);
    }
}
