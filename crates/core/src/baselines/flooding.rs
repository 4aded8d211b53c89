//! Flooding connectivity: the `Θ(n/k + D)` baseline (paper §1.2).
//!
//! Every vertex floods the smallest label it has seen. Within a machine
//! propagation is free (local computation costs nothing), so each
//! *graph-round* consists of: intra-machine fixpoint, then one superstep
//! carrying every improved label across inter-machine edges (deduplicated
//! per link), then a counted convergence check. The number of graph-rounds
//! is the machine-quotient diameter ≤ D; congestion adds the `n/k` term
//! the Conversion Theorem of \[22\] predicts.
//!
//! Runs against [`kgraph::ShardedGraph`] views: a machine knows only its
//! own vertices' adjacency. Applying a remote vertex's improved label needs
//! the *local* neighbors of that remote vertex — which the machine derives
//! from its own shard (a reverse index built once, for free, at start-up),
//! never by peeking at remote adjacency.

use crate::engine::EngineConfig;
use crate::messages::{Label, Payload};
use crate::net::Net;
use crate::session::{Cluster, Flooding, Problem};
use kgraph::ShardedGraph;
use kmachine::det;
use kmachine::metrics::CommStats;
use rustc_hash::{FxHashMap, FxHashSet};

/// Flooding result.
#[derive(Clone, Debug)]
pub struct FloodingOutput {
    /// Final per-vertex labels (min vertex id of the component).
    pub labels: Vec<Label>,
    /// Communication statistics.
    pub stats: CommStats,
    /// Graph-rounds until global convergence (≈ diameter).
    pub graph_rounds: u32,
}

impl FloodingOutput {
    /// Number of distinct final labels.
    pub fn component_count(&self) -> usize {
        let mut set = self.labels.clone();
        set.sort_unstable();
        set.dedup();
        set.len()
    }
}

/// Per-machine reverse index: remote vertex → local neighbors. Derived
/// from the machine's own shard (its side of every cross edge).
fn remote_in_index(sg: &ShardedGraph, m: usize) -> FxHashMap<u32, Vec<u32>> {
    let part = sg.partition();
    let mut idx: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    for (u, nbrs) in sg.view(m).adjacency() {
        for &(nb, _) in nbrs {
            if part.home(nb) != m {
                idx.entry(nb).or_default().push(u);
            }
        }
    }
    idx
}

impl Problem for Flooding {
    type Output = FloodingOutput;
    const NAME: &'static str = "flooding";

    fn with(cfg: EngineConfig) -> Self {
        Flooding { cfg }
    }

    fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    #[allow(clippy::needless_range_loop)] // machine ids index several parallel structures
    fn solve(&self, cluster: &Cluster) -> FloodingOutput {
        let sg = cluster.sharded();
        let part = sg.partition();
        let k = part.k();
        let n = sg.n();
        let mut net = Net::new(&self.cfg, k, n);
        let mut labels: Vec<Label> = (0..n as Label).collect();
        let remote_in: Vec<FxHashMap<u32, Vec<u32>>> =
            (0..k).map(|m| remote_in_index(sg, m)).collect();
        // Per machine: the frontier of vertices whose labels changed.
        let mut frontier: Vec<Vec<u32>> = vec![Vec::new(); k];
        for m in 0..k {
            frontier[m].extend_from_slice(sg.view(m).verts());
        }
        let mut graph_rounds = 0;
        loop {
            graph_rounds += 1;
            // Intra-machine fixpoint over each machine's frontier (free).
            for m in 0..k {
                let view = sg.view(m);
                let mut queue = std::mem::take(&mut frontier[m]);
                let mut pos = 0;
                while pos < queue.len() {
                    let v = queue[pos];
                    pos += 1;
                    let lv = labels[v as usize];
                    for &(nb, _) in view.neighbors(v) {
                        if part.home(nb) == m && labels[nb as usize] > lv {
                            labels[nb as usize] = lv;
                            queue.push(nb);
                        }
                    }
                }
                frontier[m] = queue;
            }
            // Cross-machine announcements: for every frontier vertex, tell each
            // remote neighbor machine its (possibly improved) label, dedup per
            // (destination, vertex).
            for m in 0..k {
                let view = sg.view(m);
                let mut per_dst: FxHashMap<usize, FxHashMap<u32, Label>> = FxHashMap::default();
                let mut seen: FxHashSet<u32> = FxHashSet::default();
                for &v in &frontier[m] {
                    if !seen.insert(v) {
                        continue;
                    }
                    let lv = labels[v as usize];
                    for &(nb, _) in view.neighbors(v) {
                        let h = part.home(nb);
                        if h != m {
                            per_dst.entry(h).or_default().insert(v, lv);
                        }
                    }
                }
                for (dst, updates) in det::into_sorted_entries(per_dst) {
                    let payload = Payload::FloodLabels {
                        updates: det::into_sorted_entries(updates),
                    };
                    net.send(m, dst, payload);
                }
                frontier[m].clear();
            }
            if net.idle() {
                // Convergence: one final counted flag exchange (all machines
                // report "no change" to M0, M0 confirms).
                net.flag_exchange();
                break;
            }
            for (m, inbox) in net.exchange().into_iter().enumerate() {
                for env in inbox {
                    if let Payload::FloodLabels { updates } = env.payload {
                        for (v, lab) in updates {
                            // Apply to the local neighbors of the remote vertex
                            // `v`, found through this machine's reverse index.
                            if let Some(locals) = remote_in[m].get(&v) {
                                for &nb in locals {
                                    if labels[nb as usize] > lab {
                                        labels[nb as usize] = lab;
                                        frontier[m].push(nb);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            // Per-graph-round convergence flag (counted).
            net.flag_exchange();
        }
        FloodingOutput {
            labels,
            stats: net.finish(None),
            graph_rounds,
        }
    }

    fn stats(out: &FloodingOutput) -> &CommStats {
        &out.stats
    }

    fn phases(out: &FloodingOutput) -> u32 {
        out.graph_rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::{generators, refalgo, Graph};

    fn check(g: &Graph, k: usize, seed: u64) -> FloodingOutput {
        let cluster = Cluster::builder(k).seed(seed).ingest_graph(g);
        let out = cluster.run(Flooding::default()).output;
        let truth = refalgo::connected_components(g);
        for (v, &t) in truth.iter().enumerate() {
            assert_eq!(out.labels[v], t as Label, "vertex {v}");
        }
        out
    }

    #[test]
    fn flooding_matches_reference_on_paths_and_cycles() {
        check(&generators::path(50), 4, 1);
        check(&generators::cycle(64), 4, 2);
    }

    #[test]
    fn flooding_matches_reference_on_random_graphs() {
        check(&generators::gnp(300, 0.015, 3), 6, 4);
        check(&generators::planted_components(200, 4, 3, 5), 4, 6);
    }

    #[test]
    fn flooding_runs_directly_from_a_stream() {
        // End-to-end streamed ingestion: no materialized Graph anywhere on
        // the flooding path.
        let stream = generators::random_connected_stream(500, 400, 7);
        let cluster = Cluster::builder(5).seed(8).ingest_stream(stream);
        let out = cluster.run(Flooding::default()).output;
        assert_eq!(out.component_count(), 1);
        // Cross-check against the materialized oracle.
        let g = generators::random_connected(500, 400, 7);
        let truth = refalgo::connected_components(&g);
        for (v, &t) in truth.iter().enumerate() {
            assert_eq!(out.labels[v], t as Label, "vertex {v}");
        }
    }

    #[test]
    fn graph_rounds_track_diameter() {
        let path = generators::path(200);
        let out = check(&path, 4, 7);
        // Label 0 must travel ~n hops; machine-quotient shortens it only by
        // the free intra-machine hops.
        assert!(
            out.graph_rounds >= 20,
            "a long path needs many graph-rounds, got {}",
            out.graph_rounds
        );
        let clique = generators::complete(64);
        let out2 = check(&clique, 4, 8);
        assert!(
            out2.graph_rounds <= 4,
            "a clique floods in O(1) graph-rounds, got {}",
            out2.graph_rounds
        );
    }

    #[test]
    fn isolated_vertices_keep_their_labels() {
        let g = Graph::unweighted(10, [(3, 7)]);
        let out = check(&g, 2, 9);
        assert_eq!(out.component_count(), 9);
    }
}
