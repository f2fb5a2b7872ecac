//! Immutable sets of node positions.

use rim_geom::{Aabb, Point};

/// An immutable set of node positions, indexed `0..n`.
///
/// All algorithms in the workspace identify nodes by their index into a
/// `NodeSet`; positions never change after construction (mobility is
/// modelled by constructing a new `NodeSet`, matching the paper's static
/// analysis).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSet {
    points: Vec<Point>,
}

impl NodeSet {
    /// Creates a node set from explicit positions.
    ///
    /// Panics if any coordinate is non-finite.
    pub fn new(points: Vec<Point>) -> Self {
        assert!(
            points.iter().all(Point::is_finite),
            "non-finite node position"
        );
        NodeSet { points }
    }

    /// Creates a one-dimensional (highway) node set from x-coordinates.
    pub fn on_line(xs: &[f64]) -> Self {
        NodeSet::new(xs.iter().map(|&x| Point::on_line(x)).collect())
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if there are no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Position of node `i`.
    #[inline]
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the set
    pub fn pos(&self, i: usize) -> Point {
        self.points[i]
    }

    /// All positions.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Euclidean distance between nodes `i` and `j`.
    #[inline]
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the set
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        self.points[i].dist(&self.points[j])
    }

    /// Squared Euclidean distance between nodes `i` and `j`.
    #[inline]
    // rim-lint: allow(panic-freedom) — node ids are caller-validated against the set
    pub fn dist_sq(&self, i: usize, j: usize) -> f64 {
        self.points[i].dist_sq(&self.points[j])
    }

    /// Returns `true` if every node lies on the x-axis (highway model).
    pub fn is_highway(&self) -> bool {
        // rim-lint: allow(float-eq) — exact on-axis membership defines the highway model
        self.points.iter().all(|p| p.y == 0.0)
    }

    /// Bounding box of the node positions.
    pub fn bbox(&self) -> Aabb {
        Aabb::of_points(&self.points)
    }

    /// Indices sorted by x-coordinate (then y, then index) — the scan
    /// order used by the highway algorithms.
    pub fn order_by_x(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.points.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            self.points[a]
                .lex_cmp(&self.points[b])
                .then(a.cmp(&b))
        });
        order
    }

    /// Returns a new node set with `p` appended (used by the robustness
    /// experiments, which add a single node to an instance).
    #[must_use]
    pub fn with_node(&self, p: Point) -> NodeSet {
        let mut points = self.points.clone();
        points.push(p);
        NodeSet::new(points)
    }

}

impl From<Vec<Point>> for NodeSet {
    fn from(points: Vec<Point>) -> Self {
        NodeSet::new(points)
    }
}

impl std::ops::Index<usize> for NodeSet {
    type Output = Point;
    #[inline]
    // rim-lint: allow(panic-freedom) — Index impls forward the slice's own contract
    fn index(&self, i: usize) -> &Point {
        &self.points[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let ns = NodeSet::new(vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)]);
        assert_eq!(ns.len(), 2);
        assert_eq!(ns.dist(0, 1), 5.0);
        assert_eq!(ns.dist_sq(1, 0), 25.0);
        assert_eq!(ns[1], Point::new(3.0, 4.0));
    }

    #[test]
    fn highway_detection() {
        assert!(NodeSet::on_line(&[0.0, 0.5, 0.25]).is_highway());
        assert!(!NodeSet::new(vec![Point::new(0.0, 0.1)]).is_highway());
        assert!(NodeSet::new(vec![]).is_highway());
    }

    #[test]
    fn order_by_x_is_deterministic() {
        let ns = NodeSet::on_line(&[0.5, 0.1, 0.9, 0.1]);
        assert_eq!(ns.order_by_x(), vec![1, 3, 0, 2]);
    }

    #[test]
    fn add_and_remove_nodes() {
        let ns = NodeSet::on_line(&[0.0, 1.0]);
        let grown = ns.with_node(Point::on_line(2.0));
        assert_eq!(grown.len(), 3);
        assert_eq!(grown.pos(2), Point::on_line(2.0));
        // Original unchanged.
        assert_eq!(ns.len(), 2);
    }

    #[test]
    #[should_panic]
    fn non_finite_positions_rejected() {
        NodeSet::new(vec![Point::new(f64::NAN, 0.0)]);
    }
}
