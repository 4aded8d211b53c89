#![warn(missing_docs)]
//! # kmm — the k-machine model, connectivity & MST in large graphs
//!
//! Umbrella crate for the reproduction of Pandurangan, Robinson and
//! Scquizzato, *Fast Distributed Algorithms for Connectivity and MST in
//! Large Graphs* (SPAA 2016).
//!
//! Re-exports the workspace crates:
//!
//! * [`graph`] — input graphs, generators, partitions, sequential references.
//! * [`machine`] — the k-machine model simulator (rounds, bandwidth, metrics).
//! * [`sketch`] — linear graph sketches (ℓ₀-samplers).
//! * [`randomness`] — hash families and shared-randomness modelling.
//! * [`algo`] — the paper's distributed algorithms, baselines, and the
//!   lower-bound harness.
//! * [`check`] — the `kmm check` invariant linter (DESIGN.md §3.13).
//!
//! and adds one module of its own, [`repro`]: the paper's claims as one
//! pinned table, behind `kmm repro` (DESIGN.md §4).
//!
//! ## Quickstart: sessions
//!
//! The primary API mirrors the model: fix a cluster (k machines, seed,
//! bandwidth), ingest the input once, then run any number of algorithms on
//! it ([`algo::session`], DESIGN.md §3.8).
//!
//! ```
//! use kmm::prelude::*;
//!
//! // A graph with two planted components, ingested over k = 4 machines.
//! let g = kmm::graph::generators::planted_components(200, 2, 3, 7);
//! let cluster = Cluster::builder(4).seed(7).ingest_graph(&g);
//! let conn = cluster.run(Connectivity::default());
//! let st = cluster.run(SpanningForest::default());
//! assert_eq!(conn.output.component_count(), 2);
//! assert_eq!(st.output.edges.len(), 200 - 2);
//! // Every run carries the common report; rounds are fully accounted:
//! assert!(conn.report.stats.rounds > 0);
//! ```
//!
//! ## Streaming ingestion at scale
//!
//! Large inputs never need a central edge list: a lazy
//! [`graph::stream::EdgeStream`] feeds the cluster's per-machine
//! [`graph::ShardedGraph`] shards directly (DESIGN.md §3.7).
//!
//! ```
//! use kmm::prelude::*;
//!
//! // Stream a connected workload straight into 8 per-machine shards.
//! let stream = kmm::graph::generators::random_connected_stream(2_000, 1_500, 5);
//! let cluster = Cluster::builder(8).seed(5).ingest_stream(stream);
//! let out = cluster.run(Connectivity::default()).output;
//! assert_eq!(out.component_count(), 1);
//! ```

pub use kcheck as check;
pub use kconn as algo;
pub use kgraph as graph;
pub use kmachine as machine;
pub use krand as randomness;
pub use ksketch as sketch;

pub mod repro;

/// Common imports for examples and downstream users.
pub mod prelude {
    pub use kconn::connectivity::{ConnectivityConfig, ConnectivityOutput};
    pub use kconn::dynamic::{
        DynConfig, DynamicCluster, RefreshKind, UpdateBatch, UpdateError, UpdateOp, UpdateReport,
    };
    pub use kconn::engine::EngineConfig;
    pub use kconn::mincut::MinCutConfig;
    pub use kconn::mst::{MstConfig, OutputCriterion};
    pub use kconn::session::{
        Cluster, ClusterBuilder, Connectivity, EdgeBoruvka, Flooding, MinCut, Mst, Problem,
        Referee, RepMst, Run, RunReport, SpanningForest,
    };
    pub use kconn::verify;
    pub use kgraph::stream::{DynEdgeStream, EdgeStream};
    pub use kgraph::{generators, refalgo, Graph, Partition, PartitionKind, ShardedGraph};
    pub use kmachine::fault::{CrashEvent, FaultPlan};
    pub use kmachine::message::Encoding;
    pub use kmachine::metrics::CommStats;
    pub use kmachine::trace::{JsonlSink, TraceEvent, TraceRecord, TraceSink, Tracer};
    pub use kmachine::transport::TransportSel;
    pub use kmachine::{Bandwidth, CostModel};
}
