//! Minimum spanning tree in the k-machine model (paper §3.1, Theorem 2).
//!
//! Sketch-based Borůvka: each phase every component finds its minimum-weight
//! outgoing edge (MWOE) by the `Θ(log n)`-iteration edge-elimination loop —
//! sample a uniform outgoing edge, broadcast its weight as a threshold,
//! rebuild sketches restricted to strictly lighter edges, resample — then
//! merges along MWOEs with the same DRR machinery as connectivity.
//!
//! Output criteria (Theorem 2):
//! * **(a) `AnyMachine`** — every MST edge is output by at least one machine
//!   (the proxy that chose it). `O~(n/k²)` rounds.
//! * **(b) `BothEndpoints`** — every MST edge is additionally routed to the
//!   home machines of both endpoints. This is the regime with the
//!   `Ω~(n/k)` lower bound of \[22\] (a machine hosting a high-degree vertex
//!   must receive the status of all its edges); the extra routing step
//!   reproduces exactly that bottleneck on star-like graphs (E8).
//!
//! ```
//! use kconn::session::{Cluster, Mst, Problem};
//! use kconn::MstConfig;
//! use kgraph::{generators, refalgo};
//!
//! let g = generators::randomize_weights(&generators::grid(5, 6), 100, 3);
//! let cluster = Cluster::builder(4).seed(3).ingest_graph(&g);
//! let out = cluster.run(Mst::with(MstConfig::default())).output;
//! assert!(refalgo::is_spanning_forest(&g, &out.edges));
//! let kruskal = refalgo::kruskal(&g);
//! assert_eq!(out.total_weight, refalgo::forest_weight(&kruskal));
//! ```

use crate::engine::{Engine, EngineConfig, EngineResult, Mode};
use crate::messages::Payload;
use crate::net::Net;
use crate::session::{Cluster, Mst, Problem};
use kgraph::graph::Edge;
use kgraph::ShardedGraph;
use kmachine::metrics::CommStats;

/// Which output criterion of Theorem 2 to satisfy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputCriterion {
    /// Theorem 2(a): each MST edge known by at least one machine.
    AnyMachine,
    /// Theorem 2(b): each MST edge known by both endpoint home machines.
    BothEndpoints,
}

/// Configuration for an MST run: the engine's knobs, of which MST reads
/// [`EngineConfig::criterion`] on top and ignores `run_output_protocol`.
pub type MstConfig = EngineConfig;

/// The result of an MST run.
#[derive(Clone, Debug)]
pub struct MstOutput {
    /// The spanning-forest edges (canonical, deduplicated, sorted).
    pub edges: Vec<Edge>,
    /// Total weight of the output forest.
    pub total_weight: u128,
    /// Full communication accounting.
    pub stats: CommStats,
    /// Borůvka phases executed.
    pub phases: u32,
    /// How many edges each machine output (criterion (a) distribution).
    pub edges_per_machine: Vec<usize>,
    /// The isolated cost of the Theorem 2(b) endpoint-routing stage
    /// (`None` under criterion (a)). On star-like inputs this stage
    /// concentrates Θ(n) receive bits at one machine — the Ω~(n/k)
    /// bottleneck of \[22\] (experiment E8).
    pub endpoint_routing: Option<CommStats>,
    /// Part sketches hashed from edges, where the part lives or at its proxy.
    pub sketch_builds: u64,
}

impl Problem for Mst {
    type Output = MstOutput;
    const NAME: &'static str = "mst";

    fn with(cfg: EngineConfig) -> Self {
        Mst { cfg }
    }

    fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    fn solve(&self, cluster: &Cluster) -> MstOutput {
        minimum_spanning_tree_sharded(cluster.sharded(), cluster.seed(), &self.cfg)
    }

    fn stats(out: &MstOutput) -> &CommStats {
        &out.stats
    }

    fn phases(out: &MstOutput) -> u32 {
        out.phases
    }

    fn sketch_builds(out: &MstOutput) -> u64 {
        out.sketch_builds
    }
}

/// Runs the MST algorithm on sharded storage. Crate-private: the way in is
/// [`Cluster::run`]; the dynamic layer's full re-solve and the REP
/// baseline's post-filter core run compose it directly.
pub(crate) fn minimum_spanning_tree_sharded(
    sg: &ShardedGraph,
    seed: u64,
    cfg: &MstConfig,
) -> MstOutput {
    let engine_cfg = EngineConfig {
        run_output_protocol: false,
        ..cfg.clone()
    };
    let result = Engine::new(sg, Mode::Mst, seed, engine_cfg).run();
    let mut stats = result.stats.clone();
    let mut endpoint_routing = None;
    if cfg.criterion == OutputCriterion::BothEndpoints {
        let routing = route_edges_to_endpoints(sg, &sourced_edges(&result), cfg);
        stats.absorb(&routing);
        endpoint_routing = Some(routing);
    }
    let mut edges: Vec<Edge> = result
        .mst_edges
        .iter()
        .map(|&(u, v, w)| Edge::new(u, v, w))
        .collect();
    edges.sort_unstable_by_key(|e| (e.u, e.v));
    edges.dedup();
    let total_weight = edges.iter().map(|e| e.w as u128).sum();
    MstOutput {
        edges,
        total_weight,
        stats,
        phases: result.phases,
        edges_per_machine: result.mst_edges_per_machine,
        endpoint_routing,
        sketch_builds: result.sketch_builds,
    }
}

/// A run's forest edges, each with the machine that output it (machine
/// order matches the flattening in [`EngineResult`]).
pub(crate) fn sourced_edges(result: &EngineResult) -> Vec<(usize, (u32, u32, u64))> {
    let per_machine = result.mst_edges_per_machine.iter().enumerate();
    per_machine
        .flat_map(|(machine, &cnt)| std::iter::repeat_n(machine, cnt))
        .zip(result.mst_edges.iter().copied())
        .collect()
}

/// Theorem 2(b): route every chosen edge to both endpoint home machines —
/// each `(source machine, edge)` record over the reliable superstep layer;
/// shared with the dynamic layer's incremental MST path. The per-machine
/// receive load is Θ(deg) edge records — on a star this is the Ω~(n/k)
/// bottleneck the paper proves unavoidable.
pub(crate) fn route_edges_to_endpoints(
    sg: &ShardedGraph,
    sourced: &[(usize, (u32, u32, u64))],
    cfg: &MstConfig,
) -> CommStats {
    let part = sg.partition();
    let mut net = Net::new(cfg, part.k(), sg.n());
    for &(machine, (u, v, w)) in sourced {
        for dst in [part.home(u), part.home(v)] {
            let edges = vec![(u, v, w)];
            net.send(machine, dst, Payload::EdgeList { edges });
        }
    }
    net.exchange();
    net.finish(Some("endpoint_routing"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::{generators, refalgo, Graph};

    fn check(g: &Graph, k: usize, seed: u64) -> MstOutput {
        let cluster = Cluster::builder(k).seed(seed).ingest_graph(g);
        let out = cluster.run(Mst::default()).output;
        let reference = refalgo::kruskal(g);
        assert!(
            refalgo::is_spanning_forest(g, &out.edges),
            "output must be a spanning forest"
        );
        assert_eq!(
            out.total_weight,
            refalgo::forest_weight(&reference),
            "forest weight must equal Kruskal's"
        );
        out
    }

    #[test]
    fn tiny_weighted_square() {
        let g = Graph::from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4), (0, 2, 10)]);
        let out = check(&g, 2, 3);
        assert_eq!(out.edges.len(), 3);
        assert_eq!(out.total_weight, 6);
    }

    #[test]
    fn weighted_grid() {
        let g = generators::randomize_weights(&generators::grid(6, 7), 1000, 5);
        check(&g, 4, 6);
    }

    #[test]
    fn weighted_random_connected() {
        let g = generators::randomize_weights(&generators::random_connected(150, 200, 7), 500, 8);
        check(&g, 6, 9);
    }

    #[test]
    fn disconnected_graph_yields_spanning_forest() {
        let g =
            generators::randomize_weights(&generators::planted_components(120, 3, 5, 10), 99, 11);
        let out = check(&g, 4, 12);
        assert_eq!(out.edges.len(), 120 - 3);
    }

    #[test]
    fn uniform_weights_still_give_minimum_forest() {
        // All weights 1: any spanning tree is minimum; the tie-free key
        // keeps the algorithm deterministic and the forest valid.
        let g = generators::random_connected(80, 60, 13);
        check(&g, 4, 14);
    }

    #[test]
    fn star_graph_mwoe_everywhere() {
        let g = generators::randomize_weights(&generators::star(64), 100, 15);
        let out = check(&g, 4, 16);
        assert_eq!(out.edges.len(), 63);
    }

    #[test]
    fn both_endpoints_criterion_costs_more() {
        let g = generators::randomize_weights(&generators::star(256), 50, 17);
        let cluster = Cluster::builder(8).seed(18).ingest_graph(&g);
        let run = |criterion| {
            let cfg = MstConfig {
                criterion,
                ..MstConfig::default()
            };
            cluster.run(Mst::with(cfg)).output
        };
        let a = run(OutputCriterion::AnyMachine);
        let b = run(OutputCriterion::BothEndpoints);
        assert_eq!(a.total_weight, b.total_weight);
        assert!(
            b.stats.rounds > a.stats.rounds,
            "criterion (b) must pay the endpoint routing: {} vs {}",
            b.stats.rounds,
            a.stats.rounds
        );
        // The star's hub home machine receives Θ(n) bits under (b).
        assert!(b.stats.max_machine_recv_bits() > a.stats.max_machine_recv_bits());
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generators::randomize_weights(&generators::gnm(100, 300, 19), 77, 20);
        let cluster = Cluster::builder(4).seed(21).ingest_graph(&g);
        let a = cluster.run(Mst::default()).output;
        let b = cluster.run(Mst::default()).output;
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.stats.rounds, b.stats.rounds);
    }
}
