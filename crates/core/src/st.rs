//! Spanning forest in `O~(n/k²)` rounds (paper §1, §3.1).
//!
//! The paper's introduction lists "computing a spanning tree" among the
//! problems the fast connectivity algorithm unlocks: the connectivity
//! engine already merges along one verified outgoing edge per component per
//! phase — recording those merge edges yields a spanning forest with *no*
//! weight-elimination overhead (unlike MST, which pays a `Θ(log n)` factor
//! for MWOEs). Output follows Theorem 2(a)'s relaxed criterion: each forest
//! edge is output by at least one machine (the proxy that chose it).
//!
//! ```
//! use kconn::session::{Cluster, Problem, SpanningForest};
//! use kconn::MstConfig;
//! use kgraph::{generators, refalgo};
//!
//! let g = generators::cycle(40);
//! let cluster = Cluster::builder(4).seed(1).ingest_graph(&g);
//! let out = cluster.run(SpanningForest::with(MstConfig::default())).output;
//! assert_eq!(out.edges.len(), 39);
//! assert!(refalgo::is_spanning_forest(&g, &out.edges));
//! ```

use crate::engine::{Engine, EngineConfig, Mode};
use crate::session::{Cluster, Problem, SpanningForest};
use kgraph::graph::Edge;
use kmachine::metrics::CommStats;

/// The result of a spanning-forest run.
#[derive(Clone, Debug)]
pub struct SpanningForestOutput {
    /// The forest edges (canonical, deduplicated, sorted).
    pub edges: Vec<Edge>,
    /// Full communication accounting.
    pub stats: CommStats,
    /// Borůvka-style phases executed.
    pub phases: u32,
    /// How many edges each machine output.
    pub edges_per_machine: Vec<usize>,
    /// Part sketches hashed from edges, where the part lives or at its proxy.
    pub sketch_builds: u64,
}

impl Problem for SpanningForest {
    type Output = SpanningForestOutput;
    const NAME: &'static str = "st";

    fn with(cfg: EngineConfig) -> Self {
        SpanningForest { cfg }
    }

    fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    fn solve(&self, cluster: &Cluster) -> SpanningForestOutput {
        let engine_cfg = EngineConfig {
            run_output_protocol: false,
            ..self.cfg.clone()
        };
        let result = Engine::new(
            cluster.sharded(),
            Mode::SpanningForest,
            cluster.seed(),
            engine_cfg,
        )
        .run();
        let mut edges: Vec<Edge> = result
            .mst_edges
            .iter()
            .map(|&(u, v, w)| Edge::new(u, v, w))
            .collect();
        edges.sort_unstable_by_key(|e| (e.u, e.v));
        edges.dedup();
        SpanningForestOutput {
            edges,
            stats: result.stats,
            phases: result.phases,
            edges_per_machine: result.mst_edges_per_machine,
            sketch_builds: result.sketch_builds,
        }
    }

    fn stats(out: &SpanningForestOutput) -> &CommStats {
        &out.stats
    }

    fn phases(out: &SpanningForestOutput) -> u32 {
        out.phases
    }

    fn sketch_builds(out: &SpanningForestOutput) -> u64 {
        out.sketch_builds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Mst;
    use kgraph::{generators, refalgo, Graph};

    fn check(g: &Graph, k: usize, seed: u64) -> SpanningForestOutput {
        let cluster = Cluster::builder(k).seed(seed).ingest_graph(g);
        let out = cluster.run(SpanningForest::default()).output;
        assert!(
            refalgo::is_spanning_forest(g, &out.edges),
            "output must span each component acyclically"
        );
        assert_eq!(out.edges.len(), g.n() - refalgo::component_count(g));
        out
    }

    #[test]
    fn spans_connected_graphs() {
        check(&generators::random_connected(200, 150, 1), 4, 2);
        check(&generators::grid(9, 11), 4, 3);
        check(&generators::cycle(64), 2, 4);
    }

    #[test]
    fn spans_each_component_of_disconnected_graphs() {
        let g = generators::planted_components(180, 3, 4, 5);
        let out = check(&g, 4, 6);
        assert_eq!(out.edges.len(), 180 - 3);
    }

    #[test]
    fn cheaper_than_mst_on_weighted_graphs() {
        // No elimination loop: the spanning forest must cost well under the
        // MST run on the same input.
        let g = generators::randomize_weights(&generators::gnm(1024, 4096, 7), 1_000_000, 8);
        let cluster = Cluster::builder(8).seed(9).ingest_graph(&g);
        let st = cluster.run(SpanningForest::default()).output;
        let mst = cluster.run(Mst::default()).output;
        assert!(
            2 * st.stats.rounds < mst.stats.rounds,
            "ST {} rounds should be ≪ MST {} rounds",
            st.stats.rounds,
            mst.stats.rounds
        );
    }

    #[test]
    fn handles_isolated_vertices() {
        let g = Graph::unweighted(30, [(0, 1), (1, 2)]);
        let out = check(&g, 2, 10);
        assert_eq!(out.edges.len(), 2);
    }
}
