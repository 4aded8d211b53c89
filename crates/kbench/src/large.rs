//! The large-scale streamed scenario family (DESIGN.md §4, E20).
//!
//! Scenarios up to `n = 10^6` vertices and `k = 64` machines, ingested
//! end-to-end through the streaming path: a lazy
//! [`kgraph::stream::EdgeStream`] feeds [`kgraph::ShardedGraph`] directly,
//! so no `Vec<Edge>` of the whole graph ever exists — the regime the
//! central-storage design could not reach. The `tables` binary runs the
//! full family (E20); `tests/large_scale.rs` pins the 10^6-edge scenario
//! in CI.

use kconn::session::Cluster;
use kgraph::stream::DynEdgeStream;
use kgraph::{generators, ShardedGraph};

/// One large-scale streamed scenario.
#[derive(Clone, Debug)]
pub struct LargeScenario {
    /// Human-readable id.
    pub id: String,
    /// Vertex count.
    pub n: usize,
    /// Extra non-tree edges fed to `random_connected_stream` (so
    /// `m = n - 1 + extra`).
    pub extra: usize,
    /// Machine count.
    pub k: usize,
    /// Master seed.
    pub seed: u64,
}

impl LargeScenario {
    fn new(n: usize, extra: usize, k: usize, seed: u64) -> Self {
        LargeScenario {
            id: format!("stream/n{n}/m{}/k{k}/seed{seed}", n - 1 + extra),
            n,
            extra,
            k,
            seed,
        }
    }

    /// Total edges of the scenario graph.
    pub fn m(&self) -> usize {
        self.n - 1 + self.extra
    }

    /// The lazy edge stream (connected graph: tree + extras).
    pub fn stream(&self) -> DynEdgeStream {
        generators::random_connected_stream(self.n, self.extra, self.seed ^ 0x5CA1E)
    }

    /// Ingests the stream into sharded storage.
    pub fn shard(&self) -> ShardedGraph {
        ShardedGraph::from_stream(self.stream(), self.k, self.seed)
    }

    /// Ingests the stream into a reusable session [`Cluster`]: the shards
    /// are built once and any number of algorithms run against them.
    pub fn cluster(&self) -> Cluster {
        Cluster::builder(self.k)
            .seed(self.seed)
            .ingest_stream(self.stream())
    }
}

/// The scenario family. `quick` keeps the ladder short of the top rung;
/// the full family climbs to `n = 10^6` vertices on `k = 64` machines.
pub fn family(quick: bool) -> Vec<LargeScenario> {
    let mut out = vec![
        LargeScenario::new(50_000, 75_000, 16, 3),
        LargeScenario::new(200_000, 300_000, 32, 5),
    ];
    if !quick {
        out.push(LargeScenario::new(1_000_000, 1_000_000, 64, 7));
    }
    out
}

/// The 10^6-edge scenario pinned by CI (`tests/large_scale.rs`): ~half a
/// million vertices, a million edges, 64 shards.
pub fn ci_scenario() -> LargeScenario {
    LargeScenario::new(500_000, 500_001, 64, 11)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_reaches_the_million_scale() {
        let full = family(false);
        assert!(full.iter().any(|s| s.n >= 1_000_000 && s.k >= 64));
        assert!(family(true).iter().all(|s| s.n < 1_000_000));
        assert!(ci_scenario().m() >= 1_000_000);
    }

    #[test]
    fn scenario_stream_matches_declared_size() {
        let s = &family(true)[0];
        let sg = s.shard();
        assert_eq!(sg.n(), s.n);
        assert_eq!(sg.m(), s.m());
        assert_eq!(sg.k(), s.k);
        assert_eq!(sg.total_half_edges(), 2 * s.m());
    }
}
