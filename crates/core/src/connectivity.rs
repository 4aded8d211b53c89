//! The `O~(n/k²)`-round connected-components algorithm (paper §2,
//! Theorem 1).
//!
//! Monte-Carlo in time, not in the answer: a failed sample only delays a
//! merge, and a run stops once every merged sketch is zero, so the labels
//! are exact unless the phase cap stops it first. Every output is cheap to
//! validate against [`kgraph::refalgo::connected_components`].
//!
//! ```
//! use kconn::session::{Cluster, Connectivity, Problem};
//! use kconn::ConnectivityConfig;
//! use kgraph::generators;
//!
//! // Two planted components over 4 machines.
//! let g = generators::planted_components(120, 2, 3, 7);
//! let cluster = Cluster::builder(4).seed(7).ingest_graph(&g);
//! let out = cluster.run(Connectivity::with(ConnectivityConfig::default())).output;
//! assert_eq!(out.component_count(), 2);
//! assert!(out.stats.rounds > 0); // every round is accounted
//! ```

use crate::engine::{Engine, EngineConfig, EngineResult, Mode};
use crate::messages::Label;
use crate::session::{Cluster, Connectivity, Problem};
use kgraph::ShardedGraph;
use kmachine::metrics::CommStats;

/// Configuration for a connectivity run: the engine's own knobs, all of
/// them (Theorem 1 *is* the engine in [`Mode::Connectivity`]).
pub type ConnectivityConfig = EngineConfig;

/// The result of a connectivity run.
#[derive(Clone, Debug)]
pub struct ConnectivityOutput {
    /// Final component label per vertex (labels are representative ids).
    pub labels: Vec<Label>,
    /// Full communication accounting (rounds = the model's cost).
    pub stats: CommStats,
    /// Phases executed (Lemma 7: `O(log n)` w.h.p.).
    pub phases: u32,
    /// Distinct labels at the start of each phase.
    pub phase_components: Vec<usize>,
    /// Max DRR tree depth per phase (Lemma 6: `O(log n)` w.h.p.).
    pub drr_depths: Vec<u32>,
    /// Component count from the §2.6 output protocol, if run.
    pub counted_components: Option<u64>,
    /// Part sketches hashed from edges, where the part lives or at its proxy.
    pub sketch_builds: u64,
}

impl ConnectivityOutput {
    /// Number of distinct final labels.
    pub fn component_count(&self) -> usize {
        let mut set = self.labels.clone();
        set.sort_unstable();
        set.dedup();
        set.len()
    }

    /// Whether two vertices ended in the same component.
    pub fn same_component(&self, a: u32, b: u32) -> bool {
        self.labels[a as usize] == self.labels[b as usize]
    }
}

impl From<EngineResult> for ConnectivityOutput {
    fn from(r: EngineResult) -> Self {
        ConnectivityOutput {
            labels: r.labels,
            stats: r.stats,
            phases: r.phases,
            phase_components: r.phase_components,
            drr_depths: r.drr_depths,
            counted_components: r.counted_components,
            sketch_builds: r.sketch_builds,
        }
    }
}

/// Runs the connectivity algorithm on sharded storage. Crate-private: the
/// way in is [`Cluster::run`]; min cut's probes and the verification
/// problems compose it directly on shards they build themselves.
pub(crate) fn connected_components_sharded(
    sg: &ShardedGraph,
    seed: u64,
    cfg: &ConnectivityConfig,
) -> ConnectivityOutput {
    Engine::new(sg, Mode::Connectivity, seed, cfg.clone())
        .run()
        .into()
}

impl Problem for Connectivity {
    type Output = ConnectivityOutput;
    const NAME: &'static str = "conn";

    fn with(cfg: EngineConfig) -> Self {
        Connectivity { cfg }
    }

    fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    fn solve(&self, cluster: &Cluster) -> ConnectivityOutput {
        connected_components_sharded(cluster.sharded(), cluster.seed(), &self.cfg)
    }

    fn stats(out: &ConnectivityOutput) -> &CommStats {
        &out.stats
    }

    fn phases(out: &ConnectivityOutput) -> u32 {
        out.phases
    }

    fn sketch_builds(out: &ConnectivityOutput) -> u64 {
        out.sketch_builds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::{generators, refalgo, Graph};

    fn check(g: &Graph, k: usize, seed: u64) -> ConnectivityOutput {
        let cluster = Cluster::builder(k).seed(seed).ingest_graph(g);
        let out = cluster.run(Connectivity::default()).output;
        let truth = refalgo::connected_components(g);
        // Labels must induce exactly the true partition into components.
        for e in g.edges() {
            assert_eq!(
                out.labels[e.u as usize], out.labels[e.v as usize],
                "edge ({}, {}) endpoints must share a label",
                e.u, e.v
            );
        }
        let mut seen: std::collections::HashMap<Label, u32> = Default::default();
        for (v, &t) in truth.iter().enumerate() {
            let rep = seen.entry(out.labels[v]).or_insert(t);
            assert_eq!(*rep, t, "label classes must match true components");
        }
        assert_eq!(out.component_count(), refalgo::component_count(g));
        if let Some(c) = out.counted_components {
            assert_eq!(c as usize, refalgo::component_count(g));
        }
        out
    }

    #[test]
    fn single_edge_graph() {
        let g = Graph::unweighted(4, [(0, 1)]);
        let out = check(&g, 2, 7);
        assert_eq!(out.component_count(), 3);
    }

    #[test]
    fn path_graph_small() {
        let g = generators::path(40);
        check(&g, 4, 1);
    }

    #[test]
    fn cycle_graph() {
        let g = generators::cycle(64);
        check(&g, 4, 2);
    }

    #[test]
    fn planted_components_various_k() {
        for (parts, k, seed) in [(1usize, 2usize, 3u64), (3, 4, 4), (7, 8, 5)] {
            let g = generators::planted_components(200, parts, 4, seed);
            let out = check(&g, k, seed * 11 + 1);
            assert_eq!(out.component_count(), parts);
        }
    }

    #[test]
    fn random_gnp_graph() {
        let g = generators::gnp(300, 0.01, 9);
        check(&g, 6, 10);
    }

    #[test]
    fn graph_with_isolated_vertices() {
        let g = Graph::unweighted(50, [(0, 1), (1, 2), (40, 41)]);
        let out = check(&g, 4, 11);
        assert_eq!(out.component_count(), 50 - 3 + 1 - 1 + 1 - 1);
    }

    #[test]
    fn phases_scale_logarithmically() {
        let g = generators::random_connected(512, 512, 13);
        let out = check(&g, 8, 14);
        let log = 9; // log2(512)
        assert!(
            out.phases <= 4 * log,
            "phases {} should be O(log n)",
            out.phases
        );
    }

    #[test]
    fn drr_depths_stay_logarithmic() {
        let g = generators::random_connected(400, 200, 15);
        let out = check(&g, 4, 16);
        for &d in &out.drr_depths {
            assert!(d <= 40, "DRR depth {d} should be O(log n)");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generators::gnp(200, 0.02, 17);
        let cluster = Cluster::builder(4).seed(42).ingest_graph(&g);
        let a = cluster.run(Connectivity::default()).output;
        let b = cluster.run(Connectivity::default()).output;
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.stats.rounds, b.stats.rounds);
    }

    #[test]
    fn rounds_drop_superlinearly_with_k() {
        // The headline claim (E1 smoke test), on what Theorem 1 bounds per
        // link: quadrupling k must cut the mean bits a directed link carries
        // by much more than 4. Rounds fall too, but only ≈ 2× here — most
        // of them are the additive one round per superstep (DESIGN.md §4),
        // now that part sketches no longer dominate.
        let g = generators::gnm(4000, 12_000, 19);
        let run = |k: usize| {
            let cluster = Cluster::builder(k).seed(21).ingest_graph(&g);
            let stats = cluster.run(Connectivity::default()).report.stats;
            let links = (k * (k - 1)) as f64;
            (stats.rounds, stats.total_bits as f64 / links)
        };
        let ((r4, link4), (r16, link16)) = (run(4), run(16));
        assert!(
            r16 < r4,
            "rounds(k=16)={r16} should be below rounds(k=4)={r4}"
        );
        assert!(
            link4 > 8.0 * link16,
            "mean link bits at k=4 ({link4:.0}) should be superlinearly above k=16's ({link16:.0})"
        );
    }

    #[test]
    fn empty_graph_terminates_immediately() {
        let g = Graph::unweighted(10, []);
        let out = check(&g, 2, 23);
        assert_eq!(out.component_count(), 10);
        assert_eq!(out.phases, 1, "no outgoing edges anywhere: one probe phase");
    }
}
