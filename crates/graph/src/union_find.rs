//! Disjoint sets with union by rank and path compression.

/// A union-find structure over elements `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "too many elements");
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    #[inline]
    pub fn components(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s set (with path halving).
    // rim-lint: allow(panic-freedom) — elements are caller-validated against len(); parents are elements
    pub fn find(&mut self, mut x: usize) -> usize {
        loop {
            let p = self.parent[x] as usize;
            if p == x {
                return x;
            }
            let gp = self.parent[p] as usize;
            self.parent[x] = gp as u32;
            x = gp;
        }
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    // rim-lint: allow(panic-freedom) — roots come from find(), so they are elements below len()
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.rank[ra] < self.rank[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        if self.rank[ra] == self.rank[rb] {
            self.rank[ra] += 1;
        }
        self.components -= 1;
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.components(), 5);
        assert!(!uf.connected(0, 1));
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(1, 2));
        assert_eq!(uf.components(), 3);
        assert!(uf.union(1, 3));
        assert!(uf.connected(0, 2));
        assert_eq!(uf.components(), 2);
        assert!(!uf.union(0, 3), "already connected");
        assert_eq!(uf.components(), 2);
    }

    #[test]
    fn long_chain_compresses() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 1..n {
            uf.union(i - 1, i);
        }
        assert_eq!(uf.components(), 1);
        for i in 0..n {
            assert!(uf.connected(0, i));
        }
    }

    #[test]
    fn empty_structure() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.components(), 0);
    }
}
