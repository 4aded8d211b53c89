//! The session API: ingest a graph into a cluster once, run many
//! algorithms on it.
//!
//! The k-machine model (paper §1.1) fixes a cluster — `k` machines, a
//! per-link bandwidth budget, a random vertex partition — and then runs
//! algorithms *on* that cluster. This module mirrors that shape in the
//! API: a [`ClusterBuilder`] captures the model parameters and ingests any
//! [`EdgeStream`] or `&Graph` into a reusable [`Cluster`] (the per-machine
//! [`ShardedGraph`] shards plus the public partition), and every algorithm
//! is a [`Problem`] value the cluster executes:
//!
//! ```
//! use kconn::session::{Cluster, Connectivity, Mst, Problem, SpanningForest};
//! use kconn::{ConnectivityConfig, MstConfig};
//! use kgraph::generators;
//!
//! let g = generators::randomize_weights(&generators::grid(6, 7), 100, 3);
//! // Ingest once: O(m/k) per machine, paid a single time …
//! let cluster = Cluster::builder(4).seed(7).ingest_graph(&g);
//! // … then run as many problems as needed on the same shards.
//! let conn = cluster.run(Connectivity::with(ConnectivityConfig::default()));
//! let mst = cluster.run(Mst::with(MstConfig::default()));
//! let st = cluster.run(SpanningForest::with(MstConfig::default()));
//! assert_eq!(conn.output.component_count(), 1);
//! assert_eq!(st.output.edges.len(), g.n() - 1);
//! assert!(mst.report.stats.rounds > st.report.stats.rounds);
//! ```
//!
//! Every run returns its problem-typed output alongside a common
//! [`RunReport`] (rounds, full [`CommStats`], sketch cache counters, wall
//! time), so harness code — the CLI, the benchmark suite, the conformance
//! tests — dispatches generically over `P: Problem` instead of hand-rolling
//! one match arm per algorithm.
//!
//! **Determinism.** A run is a pure function of the cluster's shards, its
//! `seed` and the problem's config — so running several algorithms against
//! one ingested cluster is bit-identical to running each on a fresh
//! single-use cluster built with the same `(k, seed)`, which is pinned
//! across the scenario matrix in `tests/session.rs`.
//!
//! [`Cluster::run`] is the only way in. Each problem's `impl Problem` —
//! its `solve` is the algorithm — lives in the algorithm's own module
//! ([`crate::connectivity`], [`crate::mst`], [`crate::st`],
//! [`crate::mincut`], [`crate::baselines`]); this module declares the
//! problem types so they all import from one place.

use crate::baselines::edge_boruvka::CheckMode;
use crate::connectivity::ConnectivityConfig;
use crate::engine::EngineConfig;
use crate::mincut::MinCutConfig;
use crate::mst::MstConfig;
use kgraph::stream::EdgeStream;
use kgraph::{Graph, Partition, ShardedGraph};
use kmachine::metrics::CommStats;
use kmachine::trace::{PhaseSummary, Stopwatch};
use std::time::Duration;

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Builds a [`Cluster`]: the model parameters `k` and seed plus one
/// ingestion call. Every other knob belongs to the run: a [`Problem`]
/// carries its own [`EngineConfig`] ([`Problem::with`]).
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    k: usize,
    seed: u64,
}

impl ClusterBuilder {
    /// Starts a builder for a `k`-machine cluster (the model needs
    /// `k ≥ 2`). Seed defaults to `0`; set it with [`ClusterBuilder::seed`].
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "the k-machine model requires k >= 2");
        ClusterBuilder { k, seed: 0 }
    }

    /// Master seed: drives the vertex partition, the shared randomness and
    /// every Monte-Carlo choice.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Ingests a materialized graph: shards it under the hash-based random
    /// vertex partition derived from `(k, seed)`.
    pub fn ingest_graph(&self, g: &Graph) -> Cluster {
        let part = Partition::random_vertex(g, self.k, self.seed);
        self.adopt(ShardedGraph::from_graph(g, &part))
    }

    /// Ingests a lazy edge stream straight into per-machine shards — the
    /// scalable path: no central edge list is ever materialized.
    pub fn ingest_stream(&self, stream: impl EdgeStream) -> Cluster {
        self.adopt(ShardedGraph::from_stream(stream, self.k, self.seed))
    }

    /// Adopts pre-sharded storage (must match the builder's `k`) — the path
    /// for callers that carry their own partition:
    /// `adopt(ShardedGraph::from_graph(g, &part))`.
    pub fn adopt(&self, sg: ShardedGraph) -> Cluster {
        assert_eq!(
            sg.k(),
            self.k,
            "adopted shards were built for a different machine count"
        );
        Cluster {
            sg,
            seed: self.seed,
        }
    }
}

// ---------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------

/// A fixed k-machine cluster with an ingested input: per-machine shards,
/// the public vertex partition and the master seed.
///
/// Build one with [`Cluster::builder`], then [`Cluster::run`] any number of
/// [`Problem`]s against it — ingestion is paid exactly once per cluster
/// (pinned by the `kgraph::sharded::ingest_count` counter in
/// `tests/session.rs`). A cluster's shards are immutable through this API;
/// when the edge set itself evolves, wrap the cluster into a
/// [`crate::dynamic::DynamicCluster`], which stages updates in place
/// instead of re-ingesting snapshots.
#[derive(Clone, Debug)]
pub struct Cluster {
    sg: ShardedGraph,
    seed: u64,
}

impl Cluster {
    /// Starts a [`ClusterBuilder`] for `k` machines.
    pub fn builder(k: usize) -> ClusterBuilder {
        ClusterBuilder::new(k)
    }

    /// Runs `problem` on this cluster, returning its typed output plus the
    /// common [`RunReport`]. Reusing a cluster is bit-identical to a fresh
    /// one: the shards, partition and seed are the same.
    pub fn run<P: Problem>(&self, problem: P) -> Run<P::Output> {
        let trace = problem.cfg().trace.clone();
        let mark = trace.mark();
        let started = Stopwatch::start();
        let output = problem.solve(self);
        let wall = started.elapsed();
        let phase_breakdown = trace
            .is_on()
            .then(|| kmachine::trace::phase_breakdown(&trace.events_since(mark)))
            .filter(|rows| !rows.is_empty());
        let report = RunReport {
            problem: P::NAME,
            phases: P::phases(&output),
            sketch_builds: P::sketch_builds(&output),
            stats: P::stats(&output).clone(),
            update: CommStats::default(),
            wall,
            phase_breakdown,
        };
        Run { output, report }
    }

    /// Number of machines `k`.
    pub fn k(&self) -> usize {
        self.sg.k()
    }

    /// Number of vertices `n`.
    pub fn n(&self) -> usize {
        self.sg.n()
    }

    /// Number of edges `m`.
    pub fn m(&self) -> usize {
        self.sg.m()
    }

    /// The master seed every run is keyed by.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The ingested per-machine shards.
    pub fn sharded(&self) -> &ShardedGraph {
        &self.sg
    }

    /// Mutable shard access for the dynamic update layer
    /// ([`crate::dynamic::DynamicCluster`]), which stages edge deltas and
    /// compacts in place instead of re-ingesting. Crate-internal: a plain
    /// session cluster's shards are immutable by contract.
    pub(crate) fn sharded_mut(&mut self) -> &mut ShardedGraph {
        &mut self.sg
    }

    /// The public vertex partition (home hashing).
    pub fn partition(&self) -> &Partition {
        self.sg.partition()
    }
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// The common accounting every [`Cluster::run`] returns alongside the
/// problem-typed output.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The problem's CLI/report name ([`Problem::NAME`]).
    pub problem: &'static str,
    /// Full communication accounting (rounds are the model's cost).
    pub stats: CommStats,
    /// Phase-like progress count: Borůvka phases for the engine problems,
    /// probes for min cut, graph-rounds for flooding, `0` where the notion
    /// does not apply (e.g. the referee's single collection).
    pub phases: u32,
    /// Part sketches hashed from edges, anywhere (`0` for sketch-free problems).
    pub sketch_builds: u64,
    /// The update phase before this solve: what routing dynamic update
    /// batches cost since the previous solve on the same
    /// [`crate::dynamic::DynamicCluster`], fault counters included. Not
    /// part of `stats`; empty for static runs, since a plain `Cluster` has
    /// no update phase.
    pub update: CommStats,
    /// Wall-clock time of the simulated run (host-side, not a model cost).
    pub wall: Duration,
    /// Per-phase cost breakdown derived from the run's logical trace
    /// (DESIGN.md §3.14): one row per setup/phase/rollback/output segment,
    /// tiling `stats` exactly. `None` when tracing was off or the run
    /// emitted no segment events.
    pub phase_breakdown: Option<Vec<PhaseSummary>>,
}

/// One finished run: the problem's typed output plus its [`RunReport`].
#[derive(Clone, Debug)]
pub struct Run<O> {
    /// The problem-specific output (labels, forest edges, estimate, …).
    pub output: O,
    /// The common accounting.
    pub report: RunReport,
}

// ---------------------------------------------------------------------
// The Problem trait
// ---------------------------------------------------------------------

/// An algorithm the cluster can execute: an [`EngineConfig`] in, a typed
/// output out, plus the hooks [`Cluster::run`] uses to fill the
/// [`RunReport`].
///
/// Implemented by the four headliners ([`Connectivity`], [`Mst`],
/// [`SpanningForest`], [`MinCut`]) and the four baselines ([`Flooding`],
/// [`Referee`], [`EdgeBoruvka`], [`RepMst`]).
pub trait Problem {
    /// The problem's output type.
    type Output;
    /// Name used by the CLI, reports and error messages.
    const NAME: &'static str;

    /// Constructs the problem under `cfg`.
    fn with(cfg: EngineConfig) -> Self
    where
        Self: Sized;

    /// The run configuration. [`Cluster::run`] brackets the solve with its
    /// tracer to derive [`RunReport::phase_breakdown`] (DESIGN.md §3.14).
    fn cfg(&self) -> &EngineConfig;

    /// Executes the problem against the cluster's shards and seed.
    fn solve(&self, cluster: &Cluster) -> Self::Output;

    /// The run's communication statistics.
    fn stats(output: &Self::Output) -> &CommStats;

    /// The run's phase-like progress count (see [`RunReport::phases`]).
    fn phases(_output: &Self::Output) -> u32 {
        0
    }

    /// Part sketches the run hashed from edges (`0` where not applicable).
    fn sketch_builds(_output: &Self::Output) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------
// Headliner problems
// ---------------------------------------------------------------------

/// Theorem 1: connected components in `O~(n/k²)` rounds.
#[derive(Clone, Debug, Default)]
pub struct Connectivity {
    /// The run configuration.
    pub cfg: ConnectivityConfig,
}

/// Theorem 2: minimum spanning tree (criterion (a) or (b)).
#[derive(Clone, Debug, Default)]
pub struct Mst {
    /// The run configuration.
    pub cfg: MstConfig,
}

/// §3.1: a spanning forest without the MWOE elimination overhead.
#[derive(Clone, Debug, Default)]
pub struct SpanningForest {
    /// The run configuration (shares [`MstConfig`]; the output criterion is
    /// always Theorem 2(a)'s relaxed one).
    pub cfg: MstConfig,
}

/// Theorem 3: `O(log n)`-approximate min cut via sampling probes.
#[derive(Clone, Debug, Default)]
pub struct MinCut {
    /// The run configuration.
    pub cfg: MinCutConfig,
}

// ---------------------------------------------------------------------
// Baseline problems
// ---------------------------------------------------------------------

/// §1.2 baseline: label-propagation flooding, `Θ(n/k + D)` rounds.
#[derive(Clone, Debug, Default)]
pub struct Flooding {
    /// The run configuration (only its network knobs apply).
    pub cfg: EngineConfig,
}

/// §2 warm-up baseline: collect the whole graph at one machine, `Ω(m/k)`.
#[derive(Clone, Debug, Default)]
pub struct Referee {
    /// The run configuration (only its network knobs apply).
    pub cfg: EngineConfig,
}

/// §1.2 baseline: GHS-style edge-checking Borůvka MST.
#[derive(Clone, Debug, Default)]
pub struct EdgeBoruvka {
    /// The run configuration (only its network knobs apply).
    pub cfg: EngineConfig,
    /// How edge states are learned ([`Problem::with`] picks batched
    /// pushes).
    pub mode: CheckMode,
}

/// §1.3 baseline: MST under the random *edge* partition (REP), `Θ~(n/k)`.
#[derive(Clone, Debug, Default)]
pub struct RepMst {
    /// The run configuration (shares [`MstConfig`]).
    pub cfg: MstConfig,
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::{generators, refalgo};
    use kmachine::bandwidth::{Bandwidth, CostModel};

    #[test]
    fn cluster_reuse_matches_fresh_clusters() {
        let g = generators::randomize_weights(&generators::gnm(150, 400, 3), 500, 4);
        let builder = Cluster::builder(4).seed(9);
        let cluster = builder.ingest_graph(&g);
        let conn = cluster.run(Connectivity::default());
        let mst = cluster.run(Mst::default());
        let fresh_mst = builder.ingest_graph(&g).run(Mst::default());
        assert_eq!(conn.output.component_count(), refalgo::component_count(&g));
        assert_eq!(mst.output.edges, fresh_mst.output.edges);
        assert_eq!(
            mst.report.stats.total_bits,
            fresh_mst.report.stats.total_bits
        );
    }

    #[test]
    fn stream_ingestion_matches_graph_ingestion() {
        let (k, seed) = (5, 21);
        let builder = Cluster::builder(k).seed(seed);
        let a = builder.ingest_stream(generators::gnm_stream(300, 900, 17));
        let b = builder.ingest_graph(&generators::gnm(300, 900, 17));
        let ra = a.run(Connectivity::default());
        let rb = b.run(Connectivity::default());
        assert_eq!(ra.output.labels, rb.output.labels);
        assert_eq!(ra.report.stats.rounds, rb.report.stats.rounds);
    }

    /// `P` at a tight budget must price differently per machine than per
    /// link: the config reached its `Net`.
    fn assert_cost_model_arrives<P: Problem>(cluster: &Cluster) {
        let rounds = |cost_model| {
            let cfg = EngineConfig {
                bandwidth: Bandwidth::Bits(64),
                cost_model,
                ..EngineConfig::default()
            };
            cluster.run(P::with(cfg)).report.stats.rounds
        };
        assert_ne!(
            rounds(CostModel::PerMachine),
            rounds(CostModel::PerLink),
            "{}: the cost model never arrived",
            P::NAME
        );
    }

    #[test]
    fn every_problem_honours_its_config() {
        let g = generators::randomize_weights(&generators::random_connected(160, 320, 3), 100, 4);
        let cluster = Cluster::builder(4).seed(5).ingest_graph(&g);
        assert_cost_model_arrives::<Connectivity>(&cluster);
        assert_cost_model_arrives::<Mst>(&cluster);
        assert_cost_model_arrives::<SpanningForest>(&cluster);
        assert_cost_model_arrives::<MinCut>(&cluster);
        assert_cost_model_arrives::<Flooding>(&cluster);
        assert_cost_model_arrives::<Referee>(&cluster);
        assert_cost_model_arrives::<EdgeBoruvka>(&cluster);
        assert_cost_model_arrives::<RepMst>(&cluster);
    }

    #[test]
    fn engine_config_defaults_are_pinned() {
        // Exhaustive on purpose (no `..`): a new knob cannot land without
        // touching this pin and DESIGN.md §3.15's knob table.
        let EngineConfig {
            bandwidth,
            reps,
            charge_shared_randomness,
            run_output_protocol,
            max_phases,
            merge,
            cost_model,
            faults,
            contract,
            encoding,
            transport,
            trace,
            criterion,
        } = EngineConfig::default();
        assert_eq!(bandwidth, Bandwidth::default());
        assert_eq!(reps, 5);
        assert!(charge_shared_randomness);
        assert!(run_output_protocol);
        assert_eq!(max_phases, None);
        assert_eq!(merge, crate::engine::MergeStrategy::Drr);
        assert_eq!(cost_model, CostModel::PerLink);
        assert!(faults.is_none());
        assert!(!contract);
        assert_eq!(encoding, kmachine::message::Encoding::Naive);
        assert_eq!(transport, kmachine::transport::TransportSel::Sim);
        assert!(!trace.is_on());
        assert_eq!(criterion, crate::mst::OutputCriterion::AnyMachine);
    }

    #[test]
    fn report_carries_problem_metadata() {
        let g = generators::planted_components(90, 3, 4, 7);
        let cluster = Cluster::builder(3).seed(11).ingest_graph(&g);
        let run = cluster.run(Connectivity::default());
        assert_eq!(run.report.problem, "conn");
        assert_eq!(run.report.phases, run.output.phases);
        assert!(run.report.sketch_builds > 0);
        assert_eq!(run.report.sketch_builds, run.output.sketch_builds);
        assert!(run.report.stats.rounds > 0);
        let mst = cluster.run(Mst::default());
        assert!(mst.report.sketch_builds > 0);
        assert_eq!(mst.report.sketch_builds, mst.output.sketch_builds);
        let st = cluster.run(SpanningForest::default());
        assert!(st.report.sketch_builds > 0);
        assert_eq!(st.report.sketch_builds, st.output.sketch_builds);
        let cut = cluster.run(MinCut::default());
        assert!(cut.report.sketch_builds > 0);
        assert_eq!(cut.report.sketch_builds, cut.output.sketch_builds);
        let flood = cluster.run(Flooding::default());
        assert_eq!(flood.report.problem, "flooding");
        assert_eq!(flood.output.component_count(), refalgo::component_count(&g));
    }

    #[test]
    #[should_panic(expected = "different machine count")]
    fn adopting_mismatched_shards_panics() {
        let g = generators::path(20);
        let sg = ShardedGraph::from_graph(&g, &Partition::random_vertex(&g, 4, 1));
        let _ = Cluster::builder(3).adopt(sg);
    }
}
