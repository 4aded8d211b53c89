//! The referee baseline (paper §2 warm-up): ship the whole graph to one
//! machine and solve locally. The referee has `k−1` incident links, so
//! collection costs `Ω(m/k)` rounds — the bound the fast algorithms beat.
//!
//! Each machine ships exactly the edges its shard *owns* (smaller endpoint
//! homed there, so no edge is sent twice); the referee reassembles a local
//! graph from what it received plus its own shard and solves for free.

use crate::engine::EngineConfig;
use crate::messages::Payload;
use crate::net::Net;
use crate::session::{Cluster, Problem, Referee};
use kgraph::graph::Edge;
use kgraph::{refalgo, Graph};
use kmachine::metrics::CommStats;

/// Referee-collection result.
#[derive(Clone, Debug)]
pub struct RefereeOutput {
    /// Component labels computed at the referee.
    pub labels: Vec<u32>,
    /// Communication statistics (dominated by the collection).
    pub stats: CommStats,
}

impl Problem for Referee {
    type Output = RefereeOutput;
    const NAME: &'static str = "referee";

    fn with(cfg: EngineConfig) -> Self {
        Referee { cfg }
    }

    fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Collects all edges at machine 0 and solves connectivity there.
    fn solve(&self, cluster: &Cluster) -> RefereeOutput {
        let sg = cluster.sharded();
        let k = sg.k();
        let n = sg.n();
        let mut net = Net::new(&self.cfg, k, n);
        // Each machine batches the edges its shard owns; the referee's own
        // slice stays local (free).
        let mut collected: Vec<Edge> = sg.view(0).local_edges().collect();
        for m in 1..k {
            let edges: Vec<(u32, u32, u64)> =
                sg.view(m).local_edges().map(|e| (e.u, e.v, e.w)).collect();
            if !edges.is_empty() {
                net.send(m, 0, Payload::EdgeList { edges });
            }
        }
        for env in net.exchange().into_iter().flatten() {
            if let Payload::EdgeList { edges } = env.payload {
                collected.extend(edges.into_iter().map(|(u, v, w)| Edge::new(u, v, w)));
            }
        }
        // Local solve at the referee is free in the model.
        let assembled = Graph::from_dedup_edges(n, collected);
        let labels = refalgo::connected_components(&assembled);
        RefereeOutput {
            labels,
            stats: net.finish(None),
        }
    }

    fn stats(out: &RefereeOutput) -> &CommStats {
        &out.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::generators;
    use kmachine::bandwidth::Bandwidth;

    /// The referee at a fixed per-link budget of `bits`.
    fn at(bits: u64) -> Referee {
        Referee::with(EngineConfig {
            bandwidth: Bandwidth::Bits(bits),
            ..EngineConfig::default()
        })
    }

    #[test]
    fn referee_answers_correctly_and_pays_collection() {
        let g = generators::gnm(400, 2000, 1);
        let cluster = Cluster::builder(8).seed(2).ingest_graph(&g);
        let out = cluster.run(at(256)).output;
        assert_eq!(out.labels, kgraph::refalgo::connected_components(&g));
        // Machine 0 receives ~all edges over 7 links.
        assert!(out.stats.recv_bits[0] > 0);
        assert_eq!(out.stats.recv_bits[0], out.stats.total_bits);
    }

    #[test]
    fn referee_rounds_scale_with_m_over_k() {
        let g1 = generators::gnm(500, 2000, 3);
        let g2 = generators::gnm(500, 8000, 4);
        let builder = Cluster::builder(8).seed(5);
        let rounds = |g| {
            let cluster = builder.ingest_graph(g);
            cluster.run(at(512)).output.stats.rounds
        };
        let (r1, r2) = (rounds(&g1), rounds(&g2));
        assert!(
            r2 > 3 * r1,
            "4x the edges should cost ~4x the rounds: {r1} vs {r2}"
        );
    }
}
