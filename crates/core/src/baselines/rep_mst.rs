//! MST under the random edge partition (paper §1.3, footnote 5).
//!
//! In the REP model `Θ~(n/k)` rounds are tight for MST. The upper bound:
//!
//! 1. **Filter.** Each machine applies the cycle property to its local edge
//!    set (local Kruskal): any edge that closes a cycle among lighter local
//!    edges cannot be in the global MST. At most `n − 1` edges survive per
//!    machine.
//! 2. **Convert REP → RVP.** Surviving edges are routed to the home machine
//!    (hash) of their smaller endpoint: ≤ `n − 1` edges per source machine,
//!    spread over `k` links — `O~(n/k)` rounds. This is the dominant term.
//! 3. **Finish.** Run the fast RVP MST algorithm on the filtered union.
//!
//! Like the other baselines it runs on the cluster's RVP shards
//! ([`crate::session::RepMst`]): REP edge ownership is a public hash of the
//! canonical edge key, so each machine re-routes the edges its RVP shard
//! owns to their REP owners without any global edge list.
//!
//! Experiment E12 contrasts the measured `Θ~(n/k)` here with the RVP
//! model's `Θ~(n/k²)`.

use crate::engine::EngineConfig;
use crate::messages::Payload;
use crate::mst::{minimum_spanning_tree_sharded, MstOutput};
use crate::net::Net;
use crate::session::{Cluster, Problem, RepMst};
use kgraph::graph::Edge;
use kgraph::unionfind::UnionFind;
use kgraph::{Graph, Partition, ShardedGraph};
use kmachine::metrics::CommStats;

/// Result of the REP-model MST (same shape as the RVP result, plus the
/// number of edges that survived filtering).
#[derive(Clone, Debug)]
pub struct RepMstOutput {
    /// The MST computation result (edges, weight, combined stats).
    pub mst: MstOutput,
    /// Edges surviving the local cycle-property filters.
    pub filtered_edges: usize,
    /// The REP→RVP routing stage in isolation — the `Θ~(n/k)` term that
    /// separates the REP model from RVP (experiment E12): its rounds scale
    /// as `1/k` while the post-filter core run scales as `1/k²`.
    pub routing: CommStats,
}

impl Problem for RepMst {
    type Output = RepMstOutput;
    const NAME: &'static str = "rep-mst";

    fn with(cfg: EngineConfig) -> Self {
        RepMst { cfg }
    }

    fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The model's random *edge* partition is realized by a public hash of
    /// the canonical edge key (streamed shards have no global edge index),
    /// so every machine can compute any edge's REP owner locally — the same
    /// shared-hashing device the RVP home partition uses.
    fn solve(&self, cluster: &Cluster) -> RepMstOutput {
        let (sg, seed, cfg) = (cluster.sharded(), cluster.seed(), &self.cfg);
        let rvp = sg.partition();
        let k = sg.k();
        let n = sg.n();
        // Step 0 (ingestion): each RVP shard re-routes the edges it owns to
        // their hashed REP owners — one pass over per-machine storage, no
        // machine ever sees the full edge set. This models the §1.3 input
        // assignment itself and is therefore not charged. Ownership is the
        // same public hash `Partition::random_edge` uses, so the REP partition
        // abstraction and this streamed path cannot drift apart.
        let rep_prf = Partition::rep_owner_prf(seed);
        let mut local: Vec<Vec<Edge>> = vec![Vec::new(); k];
        for m in 0..k {
            for e in sg.view(m).local_edges() {
                local[Partition::rep_edge_owner(&rep_prf, n, k, e.u, e.v)].push(e);
            }
        }
        // Step 1: local cycle-property filtering (free local computation).
        let mut kept: Vec<Vec<Edge>> = Vec::with_capacity(k);
        for mut shard in local {
            shard.sort_unstable_by_key(Graph::edge_key);
            let mut uf = UnionFind::new(n);
            let mut keep = Vec::new();
            for e in shard {
                if uf.union(e.u, e.v) {
                    keep.push(e);
                }
            }
            kept.push(keep);
        }
        // Step 2: route surviving edges to RVP homes (one superstep, counted).
        let mut net = Net::new(cfg, k, n);
        for (m, edges) in kept.iter().enumerate() {
            let mut per_dst: Vec<Vec<(u32, u32, u64)>> = vec![Vec::new(); k];
            for e in edges {
                per_dst[rvp.home(e.u)].push((e.u, e.v, e.w));
            }
            for (dst, batch) in per_dst.into_iter().enumerate() {
                if dst != m && !batch.is_empty() {
                    net.send(m, dst, Payload::EdgeList { edges: batch });
                }
            }
        }
        net.exchange();
        let routing = net.finish(Some("rep_routing"));
        // Step 3: the RVP algorithm on the filtered union (MST-preserving by
        // the cycle property; REP assigns each edge once so there are no dups).
        let union: Vec<Edge> = kept.into_iter().flatten().collect();
        let filtered_edges = union.len();
        let filtered = Graph::from_dedup_edges(n, union);
        let mut mst = minimum_spanning_tree_sharded(
            &ShardedGraph::from_graph(&filtered, rvp),
            seed ^ 0x9E9,
            cfg,
        );
        let mut combined = routing.clone();
        combined.absorb(&mst.stats);
        mst.stats = combined;
        RepMstOutput {
            mst,
            filtered_edges,
            routing,
        }
    }

    fn stats(out: &RepMstOutput) -> &CommStats {
        &out.mst.stats
    }

    fn phases(out: &RepMstOutput) -> u32 {
        out.mst.phases
    }

    fn sketch_builds(out: &RepMstOutput) -> u64 {
        out.mst.sketch_builds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::{generators, refalgo};

    #[test]
    fn filtering_preserves_the_mst() {
        let g = generators::randomize_weights(&generators::random_connected(120, 300, 1), 500, 2);
        let cluster = Cluster::builder(4).seed(3).ingest_graph(&g);
        let out = cluster.run(RepMst::default()).output;
        let reference = refalgo::kruskal(&g);
        assert!(refalgo::is_spanning_forest(&g, &out.mst.edges));
        assert_eq!(out.mst.total_weight, refalgo::forest_weight(&reference));
    }

    #[test]
    fn filtering_shrinks_dense_graphs() {
        let g = generators::randomize_weights(&generators::gnm(200, 8000, 4), 300, 5);
        let cluster = Cluster::builder(8).seed(6).ingest_graph(&g);
        let out = cluster.run(RepMst::default()).output;
        // Each of 8 machines keeps < n edges.
        assert!(out.filtered_edges < 8 * 200);
        assert!(out.filtered_edges < g.m());
    }

    #[test]
    fn disconnected_inputs_yield_spanning_forests() {
        let g = generators::randomize_weights(&generators::planted_components(100, 4, 5, 7), 50, 8);
        let cluster = Cluster::builder(4).seed(9).ingest_graph(&g);
        let out = cluster.run(RepMst::default()).output;
        assert_eq!(out.mst.edges.len(), 100 - 4);
        assert!(refalgo::is_spanning_forest(&g, &out.mst.edges));
    }

    #[test]
    fn rep_ownership_covers_every_edge_exactly_once() {
        // On a forest input no machine's local Kruskal can drop anything
        // (there are no cycles to close), so the filtered union size equals
        // m exactly iff the hashed REP assignment gave every edge exactly
        // one owner: a dropped edge would shrink it, a double assignment
        // would inflate it.
        let g = generators::randomize_weights(&generators::random_tree(240, 15), 100, 16);
        let cluster = Cluster::builder(4).seed(17).ingest_graph(&g);
        let out = cluster.run(RepMst::default()).output;
        assert_eq!(
            out.filtered_edges,
            g.m(),
            "every forest edge must reach exactly one REP owner"
        );
        assert!(refalgo::is_spanning_forest(&g, &out.mst.edges));
        // And the ownership function agrees with the REP Partition
        // abstraction edge for edge.
        let (k, seed) = (4usize, 17u64);
        let rep = Partition::random_edge(&g, k, seed);
        let prf = Partition::rep_owner_prf(seed);
        for (i, e) in g.edges().iter().enumerate() {
            assert_eq!(
                rep.edge_owner(i),
                Partition::rep_edge_owner(&prf, g.n(), k, e.u, e.v),
                "edge ({}, {})",
                e.u,
                e.v
            );
        }
    }
}
