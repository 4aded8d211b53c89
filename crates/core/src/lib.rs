#![warn(missing_docs)]
//! The paper's algorithms in the k-machine model.
//!
//! All algorithms run against [`kgraph::ShardedGraph`] views — each
//! simulated machine holds only its `~n/k` home vertices and their
//! incident edges, never a copy of the graph (DESIGN.md §3.7).
//!
//! The one way in is the [`session`] API, which mirrors the model itself:
//! build a [`session::Cluster`] once (k machines, seed, one ingestion of a
//! graph or edge stream into per-machine shards — or
//! [`session::ClusterBuilder::adopt`] shards built under a partition of
//! your own), then run any number of [`session::Problem`]s against it —
//! every run returns its typed output plus a common
//! [`session::RunReport`].
//!
//! * [`session`] — the cluster/problem session layer: ingest once, run
//!   many algorithms, one report shape for all of them.
//! * [`dynamic`] — the live-cluster update layer: batched edge
//!   insertions/deletions with delta-logged shards, in-place incidence
//!   sketch maintenance, and incremental re-solves spliced against the
//!   surviving component structure.
//! * [`connectivity`] — the headline `O~(n/k²)`-round connected-components
//!   algorithm (§2): linear sketches + randomized proxies + distributed
//!   random ranking.
//! * [`mst`] — Theorem 2: minimum spanning tree via sketch-based Borůvka
//!   with the edge-elimination MWOE loop, under both output criteria.
//! * [`mincut`] — Theorem 3: `O(log n)`-approximate min-cut by Karger-style
//!   geometric edge sampling plus connectivity probes.
//! * [`verify`] — Theorem 4: the eight graph verification problems.
//! * [`baselines`] — the comparison algorithms: flooding (`Θ(n/k + D)`),
//!   edge-checking Borůvka (GHS-style, the `Θ(m)`-bits-per-phase regime),
//!   referee collection (`Θ(m/k)`), and the §1.3 REP-model filtering MST.
//! * [`lowerbound`] — §4: random-partition set disjointness, the Figure-1
//!   spanning-connected-subgraph gadget, and the 2-party Alice/Bob
//!   simulation harness that counts bits across the machine cut.

pub mod baselines;
pub mod connectivity;
pub mod dynamic;
pub mod engine;
pub mod lowerbound;
pub mod messages;
pub mod mincut;
pub mod mst;
mod net;
pub mod proxy;
pub mod session;
pub mod st;
pub mod verify;

pub use connectivity::{ConnectivityConfig, ConnectivityOutput};
pub use dynamic::{DynConfig, DynamicCluster, UpdateBatch, UpdateError, UpdateOp};
pub use mincut::{MinCutConfig, MinCutOutput};
pub use mst::{MstConfig, MstOutput, OutputCriterion};
pub use session::{Cluster, ClusterBuilder, Problem, Run, RunReport};
pub use st::SpanningForestOutput;
