//! Union-find (disjoint set union) with path halving and union by size.
//!
//! The exact sequential reference for connectivity: every Monte-Carlo output
//! of the distributed algorithm is checked against labels produced here.

/// Disjoint-set forest over `0..n`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Finds the representative of `x` (path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets remaining.
    pub fn count(&self) -> usize {
        self.components
    }

    /// Canonical labels: `label[v]` is the minimum vertex id in `v`'s set.
    /// Using the minimum id makes labels comparable across implementations.
    pub fn canonical_labels(&mut self) -> Vec<u32> {
        let n = self.parent.len();
        let root: Vec<u32> = (0..n as u32).map(|v| self.find(v)).collect();
        let mut min_of_root = vec![u32::MAX; n];
        for (v, &r) in root.iter().enumerate() {
            min_of_root[r as usize] = min_of_root[r as usize].min(v as u32);
        }
        root.iter().map(|&r| min_of_root[r as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0), "repeat union is a no-op");
        assert_eq!(uf.count(), 3);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
    }

    #[test]
    fn canonical_labels_use_min_vertex() {
        let mut uf = UnionFind::new(6);
        uf.union(4, 2);
        uf.union(2, 5);
        uf.union(0, 1);
        let labels = uf.canonical_labels();
        assert_eq!(labels[4], 2);
        assert_eq!(labels[5], 2);
        assert_eq!(labels[2], 2);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[1], 0);
        assert_eq!(labels[3], 3);
    }

    #[test]
    fn chain_unions_single_component() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 0..n as u32 - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.count(), 1);
        let labels = uf.canonical_labels();
        assert!(labels.iter().all(|&l| l == 0));
    }
}
