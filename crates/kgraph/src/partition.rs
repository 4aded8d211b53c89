//! Input partitions: random vertex partition (RVP, §1.1) and random edge
//! partition (REP, §1.3).
//!
//! RVP is the model's default: each vertex is hashed to a home machine, and
//! the home machine knows the vertex's full adjacency (neighbor ids, weights,
//! and — because hashing is public — the home machines of all neighbors).
//! REP assigns each *edge* independently; it is only used by the §1.3
//! comparison experiments (E12).

use crate::graph::{Edge, Graph, VertexId};
use krand::prf::Prf;

/// Which partition model to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionKind {
    /// Random vertex partition: vertices hashed to machines (the default).
    Rvp,
    /// Random edge partition: edges assigned independently at random.
    Rep,
}

/// A materialized partition of a graph across `k` machines.
#[derive(Clone, Debug)]
pub struct Partition {
    kind: PartitionKind,
    k: usize,
    /// RVP: `home[v]` = machine of vertex `v`.
    home: Vec<u16>,
    /// REP only: `edge_home[e]` = machine of edge index `e` in `g.edges()`.
    edge_home: Vec<u16>,
}

impl Partition {
    /// Hash-based RVP, as real systems do it (paper §1.1): the home machine
    /// of a vertex is a public hash of its id, so any machine can compute
    /// any vertex's home locally.
    pub fn random_vertex(g: &Graph, k: usize, seed: u64) -> Self {
        Self::random_vertex_n(g.n(), k, seed)
    }

    /// Hash-based RVP over a bare vertex universe `0..n` — the streaming
    /// ingestion path ([`crate::sharded::ShardedGraph::from_stream`]) needs
    /// a partition before any graph exists.
    pub fn random_vertex_n(n: usize, k: usize, seed: u64) -> Self {
        assert!(k >= 2, "the model requires k >= 2");
        let prf = Prf::new(seed).derive(0x9A57);
        let home = (0..n as u64)
            .map(|v| prf.eval_mod(0, v, k as u64) as u16)
            .collect();
        Partition {
            kind: PartitionKind::Rvp,
            k,
            home,
            edge_home: Vec::new(),
        }
    }

    /// Random edge partition (REP): each edge lands on a uniform machine,
    /// determined by [`Partition::rep_edge_owner`] — a public hash of the
    /// canonical edge key, so any machine can recompute any edge's owner
    /// locally. Vertex "homes" are still defined by hashing (needed to
    /// address messages about vertices), but adjacency knowledge follows
    /// edges.
    pub fn random_edge(g: &Graph, k: usize, seed: u64) -> Self {
        assert!(k >= 2);
        let prf = Prf::new(seed).derive(0x9A57);
        let home = (0..g.n() as u64)
            .map(|v| prf.eval_mod(0, v, k as u64) as u16)
            .collect();
        let rep_prf = Self::rep_owner_prf(seed);
        let edge_home = g
            .edges()
            .iter()
            .map(|e| Self::rep_edge_owner(&rep_prf, g.n(), k, e.u, e.v) as u16)
            .collect();
        Partition {
            kind: PartitionKind::Rep,
            k,
            home,
            edge_home,
        }
    }

    /// The PRF behind REP edge ownership, derived from the master seed.
    /// Public hashing, exactly like vertex homes: every machine derives the
    /// same function with zero communication.
    pub fn rep_owner_prf(seed: u64) -> Prf {
        Prf::new(seed).derive(0x4EB)
    }

    /// REP owner of the canonical edge `(u, v)` on an `n`-vertex graph over
    /// `k` machines — a hash of the edge *key*, not of any global edge
    /// index, so the streamed sharded path (which never sees an indexed
    /// edge list) computes exactly the same assignment as
    /// [`Partition::random_edge`].
    pub fn rep_edge_owner(prf: &Prf, n: usize, k: usize, u: VertexId, v: VertexId) -> usize {
        prf.eval_mod(1, u as u64 * n as u64 + v as u64, k as u64) as usize
    }

    /// The partition model.
    pub fn kind(&self) -> PartitionKind {
        self.kind
    }

    /// Number of machines.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Home machine of vertex `v`.
    #[inline]
    pub fn home(&self, v: VertexId) -> usize {
        self.home[v as usize] as usize
    }

    /// Home machine of edge index `e` (REP only).
    pub fn edge_owner(&self, e: usize) -> usize {
        debug_assert_eq!(self.kind, PartitionKind::Rep);
        self.edge_home[e] as usize
    }

    /// The edges owned by machine `i` under REP.
    pub fn edges_of(&self, g: &Graph, i: usize) -> Vec<Edge> {
        debug_assert_eq!(self.kind, PartitionKind::Rep);
        g.edges()
            .iter()
            .enumerate()
            .filter(|&(e, _)| self.edge_home[e] as usize == i)
            .map(|(_, e)| *e)
            .collect()
    }

    /// Per-machine vertex counts (balance diagnostics; w.h.p. Θ~(n/k) each).
    pub fn vertex_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.k];
        for &h in &self.home {
            loads[h as usize] += 1;
        }
        loads
    }

    /// A partition of the bipartite double cover `D(G)` (on `2n` vertices)
    /// that keeps both lifts `v` and `v + n` on vertex `v`'s home machine,
    /// so the distributed double-cover construction needs no communication
    /// (Theorem 4's bipartiteness reduction).
    pub fn lifted_double_cover(&self) -> Partition {
        let mut home = Vec::with_capacity(2 * self.home.len());
        home.extend_from_slice(&self.home);
        home.extend_from_slice(&self.home);
        Partition {
            kind: self.kind,
            k: self.k,
            home,
            edge_home: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn rvp_is_balanced_whp() {
        let g = generators::gnp(4000, 0.002, 3);
        let k = 8;
        let p = Partition::random_vertex(&g, k, 42);
        let loads = p.vertex_loads();
        assert_eq!(loads.iter().sum::<usize>(), g.n());
        let mean = g.n() / k;
        for (i, &l) in loads.iter().enumerate() {
            assert!(
                l > mean / 2 && l < mean * 2,
                "machine {i} load {l} vs mean {mean}"
            );
        }
    }

    #[test]
    fn rep_covers_all_edges_once() {
        let g = generators::gnm(200, 500, 5);
        let p = Partition::random_edge(&g, 5, 11);
        let total: usize = (0..5).map(|i| p.edges_of(&g, i).len()).sum();
        assert_eq!(total, g.m());
    }

    #[test]
    fn partitions_are_deterministic_in_seed() {
        let g = generators::gnm(100, 200, 1);
        let a = Partition::random_vertex(&g, 4, 9);
        let b = Partition::random_vertex(&g, 4, 9);
        for v in 0..g.n() as u32 {
            assert_eq!(a.home(v), b.home(v));
        }
        let c = Partition::random_vertex(&g, 4, 10);
        assert!((0..g.n() as u32).any(|v| a.home(v) != c.home(v)));
    }
}
