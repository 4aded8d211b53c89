//! The dynamic update subsystem: batched edge insertions/deletions on a
//! live cluster, with answers maintained incrementally (DESIGN.md §3.9).
//!
//! The paper's algorithms are built on *linear* graph sketches, which
//! support deletions for free — yet a plain [`Cluster`] can only solve
//! static snapshots. [`DynamicCluster`] closes that gap: it wraps an
//! ingested cluster and accepts [`UpdateBatch`]es of edge insertions and
//! deletions, which are validated, routed to the owning shards (one
//! comm-accounted superstep per batch), staged into per-shard delta logs
//! ([`kgraph::ShardedGraph::stage_insert`]), and folded into the CSRs by
//! periodic compaction — so per-machine storage stays `O(m/k + Δ)` plus
//! the bounded pending log, and a batch never re-ingests the graph.
//!
//! Three layers make the updates cheap:
//!
//! 1. **Storage.** Delta-log + compaction, as above. Compacted shards are
//!    bit-identical to fresh ingestion of the mutated edge sequence, so
//!    every static algorithm runs on them unchanged.
//! 2. **Sketches.** Each vertex's home maintains a linear incidence
//!    sketch, updated *in place* by adding the inserted (or subtracting
//!    the deleted) edge contribution — sketch linearity, the property the
//!    paper's §2.3 machinery is built on. After an incremental re-solve
//!    the refreshed component labels are *certified* with one exchange
//!    round: machines ship per-label sketch sums to the label's referee,
//!    where a true component cancels to exactly zero; a non-zero sum
//!    exposes a label that is not a closed component and escalates to a
//!    full re-solve.
//! 3. **Answers.** [`DynamicCluster::connectivity`] and
//!    [`DynamicCluster::spanning_forest`] re-solve *incrementally*: only
//!    the components touched by updates since the last solve are re-run
//!    (on [`kgraph::ShardedGraph::induced`]), and the surviving component
//!    structure — labels and forest edges of untouched components — is
//!    spliced through unchanged. Because the engine's per-component
//!    trajectory is keyed entirely by vertex ids, labels and shared
//!    randomness, the spliced answer is bit-identical to a fresh static
//!    [`Cluster::run`] on the mutated graph (pinned across the scenario
//!    matrix in `tests/dynamic.rs`). [`DynamicCluster::mst`] maintains
//!    the MST forest the same way, but per *net update class*: inserts by
//!    cycle replacement at the component owner, single tree-deletions by
//!    sketch replacement-edge search over the split halves, everything
//!    else by a restricted engine re-run — exact in every tier because
//!    the tie-free edge key makes the MST unique. Min cut has no such
//!    decomposition here; [`DynamicCluster::run_full`] re-solves it on
//!    the compacted shards through the ordinary [`Problem`] plumbing.
//!
//! ```
//! use kconn::dynamic::{DynConfig, DynamicCluster, UpdateBatch};
//! use kconn::session::Cluster;
//! use kconn::ConnectivityConfig;
//! use kgraph::Graph;
//!
//! // Two disjoint paths: 0–…–9 and 10–…–19.
//! let g = Graph::unweighted(20, (0..9).map(|i| (i, i + 1)).chain((10..19).map(|i| (i, i + 1))));
//! let cluster = Cluster::builder(3).seed(7).ingest_graph(&g);
//! let mut dynamic = DynamicCluster::wrap(cluster, DynConfig::default());
//! let before = dynamic.connectivity(&ConnectivityConfig::default());
//! assert_eq!(before.output.component_count(), 2);
//! // Bridge the two paths; the next solve re-runs only the touched
//! // components and reports the update phase on its `RunReport`.
//! let bridge = UpdateBatch::new().insert(9, 10, 5);
//! dynamic.apply(&bridge).unwrap();
//! let after = dynamic.connectivity(&ConnectivityConfig::default());
//! assert_eq!(after.output.component_count(), 1);
//! assert_eq!(dynamic.batches(), 1);
//! ```

use crate::connectivity::{ConnectivityConfig, ConnectivityOutput};
use crate::engine::{Engine, EngineConfig, EngineResult, Mode};
use crate::messages::{id_bits, EdgeKey, Label, Payload};
use crate::mst::{route_edges_to_endpoints, sourced_edges, MstConfig, OutputCriterion};
use crate::net::{Mail, Net};
use crate::session::{Cluster, Problem, Run, RunReport};
use crate::st::SpanningForestOutput;
use kgraph::graph::Edge;
use kgraph::{Partition, UnionFind};
use kmachine::det;
use kmachine::metrics::CommStats;
use kmachine::trace::{phase_breakdown, Stopwatch, TraceEvent, Tracer};
use krand::shared::SharedRandomness;
use ksketch::{L0Sketch, SketchFns, SketchParams};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// Sketch-function tag of the dynamic incidence sketches: disjoint from
/// every engine tag (`phase·64 + iter` elimination tags and the `2³⁰`-based
/// epoch tags), so the maintained sketches never alias a solve's.
const DYN_CERT_TAG: u32 = u32::MAX;

/// The machine that receives the external update stream and routes each
/// update to the endpoint home shards (the ingest coordinator).
const COORDINATOR: usize = 0;

// ---------------------------------------------------------------------
// Updates
// ---------------------------------------------------------------------

/// One edge mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert edge `{u, v}` with weight `w`. The edge must not exist.
    Insert {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
        /// The edge weight.
        w: u64,
    },
    /// Delete edge `{u, v}`. The edge must exist.
    Delete {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
}

impl UpdateOp {
    /// The endpoints of the op.
    pub fn endpoints(&self) -> (u32, u32) {
        match *self {
            UpdateOp::Insert { u, v, .. } | UpdateOp::Delete { u, v } => (u, v),
        }
    }
}

/// A batch of edge mutations, applied atomically by
/// [`DynamicCluster::apply`]: either every op validates (in sequence, so a
/// batch may delete an edge it inserted) or nothing is staged.
#[derive(Clone, Debug, Default)]
pub struct UpdateBatch {
    ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Builder-style: appends an insertion.
    pub fn insert(mut self, u: u32, v: u32, w: u64) -> Self {
        self.ops.push(UpdateOp::Insert { u, v, w });
        self
    }

    /// Builder-style: appends a deletion.
    pub fn delete(mut self, u: u32, v: u32) -> Self {
        self.ops.push(UpdateOp::Delete { u, v });
        self
    }

    /// Appends an op.
    pub fn push(&mut self, op: UpdateOp) {
        self.ops.push(op);
    }

    /// The ops, in application order.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch carries no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Applies the batch to a plain edge list under the *reference
    /// semantics* every implementation must match: a deletion removes the
    /// edge's current list position (later edges keep their relative
    /// order), an insertion appends. Fresh ingestion of the resulting list
    /// is what compacted shards are pinned bit-identical to. Used by the
    /// differential harness to maintain the oracle graph.
    pub fn apply_to_edge_list(&self, n: usize, edges: &mut Vec<Edge>) -> Result<(), UpdateError> {
        for op in &self.ops {
            let (u, v) = op.endpoints();
            validate_endpoints(n, u, v)?;
            let key = (u.min(v), u.max(v));
            let pos = edges.iter().position(|e| (e.u, e.v) == key);
            match (op, pos) {
                (UpdateOp::Insert { u, v, .. }, Some(_)) => {
                    return Err(UpdateError::DuplicateEdge { u: *u, v: *v });
                }
                (UpdateOp::Insert { u, v, w }, None) => edges.push(Edge::new(*u, *v, *w)),
                (UpdateOp::Delete { u, v }, None) => {
                    return Err(UpdateError::MissingEdge { u: *u, v: *v });
                }
                (UpdateOp::Delete { .. }, Some(p)) => {
                    edges.remove(p);
                }
            }
        }
        Ok(())
    }

    /// Parses an update trace into batches (the `kmm dyn --trace FILE`
    /// format). One op per line; `---` ends the current batch:
    ///
    /// ```text
    /// # churn trace
    /// + 0 9 5     <- insert {0, 9} with weight 5 (weight defaults to 1)
    /// - 3 4       <- delete {3, 4}
    /// ---         <- batch boundary
    /// + 3 4 2
    /// ```
    pub fn parse_trace(text: &str) -> Result<Vec<UpdateBatch>, TraceError> {
        let mut batches = Vec::new();
        let mut cur = UpdateBatch::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let t = raw.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            if t == "---" {
                if !cur.is_empty() {
                    batches.push(std::mem::take(&mut cur));
                }
                continue;
            }
            let mut fields = t.split_whitespace();
            let sigil = fields.next().expect("nonempty line has a first field");
            let mut vertex = |name: &str| -> Result<u32, TraceError> {
                fields
                    .next()
                    .ok_or_else(|| TraceError::new(line, format!("missing {name}")))?
                    .parse::<u32>()
                    .map_err(|_| TraceError::new(line, format!("bad vertex id {name}")))
            };
            let op = match sigil {
                "+" => {
                    let (u, v) = (vertex("u")?, vertex("v")?);
                    let w = match fields.next() {
                        Some(s) => s
                            .parse()
                            .map_err(|_| TraceError::new(line, "bad weight".into()))?,
                        None => 1,
                    };
                    UpdateOp::Insert { u, v, w }
                }
                "-" => UpdateOp::Delete {
                    u: vertex("u")?,
                    v: vertex("v")?,
                },
                other => {
                    return Err(TraceError::new(
                        line,
                        format!("expected `+`, `-` or `---`, found `{other}`"),
                    ));
                }
            };
            if fields.next().is_some() {
                return Err(TraceError::new(line, "trailing fields".into()));
            }
            cur.push(op);
        }
        if !cur.is_empty() {
            batches.push(cur);
        }
        Ok(batches)
    }
}

fn validate_endpoints(n: usize, u: u32, v: u32) -> Result<(), UpdateError> {
    if u == v {
        return Err(UpdateError::SelfLoop { v: u });
    }
    if u as usize >= n || v as usize >= n {
        return Err(UpdateError::OutOfRange { u, v, n });
    }
    Ok(())
}

/// Why a batch was rejected (nothing is staged on rejection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// An op named the same vertex twice.
    SelfLoop {
        /// The offending vertex.
        v: u32,
    },
    /// An endpoint is outside `[0, n)`.
    OutOfRange {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
        /// The cluster's vertex count.
        n: usize,
    },
    /// An insertion of an edge that already exists (at batch-apply time).
    DuplicateEdge {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// A deletion of an edge that does not exist (at batch-apply time).
    MissingEdge {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::SelfLoop { v } => write!(f, "self-loop at vertex {v}"),
            UpdateError::OutOfRange { u, v, n } => {
                write!(f, "endpoint of ({u}, {v}) outside [0, {n})")
            }
            UpdateError::DuplicateEdge { u, v } => {
                write!(f, "insert of existing edge ({u}, {v})")
            }
            UpdateError::MissingEdge { u, v } => write!(f, "delete of absent edge ({u}, {v})"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// A malformed update-trace line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl TraceError {
    fn new(line: usize, msg: String) -> Self {
        TraceError { line, msg }
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TraceError {}

// ---------------------------------------------------------------------
// Configuration and reports
// ---------------------------------------------------------------------

/// Compact every shard's delta log into its CSR once any shard's pending
/// half-edge count reaches this bound (solves always compact first, so this
/// only limits storage between solves).
const COMPACTION_THRESHOLD: usize = 1024;

/// Knobs of the dynamic layer.
#[derive(Clone, Debug)]
pub struct DynConfig {
    /// Deterministic fault plan applied to the dynamic layer's own
    /// supersteps (update routing and certification); solves carry their
    /// plan in their [`ConnectivityConfig`]/[`MstConfig`]. Masked by the
    /// reliable-delivery protocol, so batches and certificates stay
    /// bit-identical to fault-free runs while the costs are counted.
    pub faults: Option<kmachine::fault::FaultPlan>,
    /// Structured event tracer (DESIGN.md §3.14; default off). The dynamic
    /// layer narrates batch routing and certification; inner solves thread
    /// the same tracer through their engine runs.
    pub trace: Tracer,
}

impl Default for DynConfig {
    fn default() -> Self {
        DynConfig {
            faults: None,
            trace: Tracer::off(),
        }
    }
}

/// What [`DynamicCluster::apply`] did with one batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateReport {
    /// Ops applied.
    pub ops: usize,
    /// Insertions among them.
    pub inserts: usize,
    /// Deletions among them.
    pub deletes: usize,
    /// Rounds the routing superstep cost.
    pub rounds: u64,
    /// Bits the routing superstep moved.
    pub bits: u64,
    /// Pending half-edge deltas after the batch (0 if compaction ran).
    pub pending: usize,
    /// Whether the batch tripped the compaction threshold.
    pub compacted: bool,
}

/// Which path the last structure refresh took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshKind {
    /// Nothing structural changed since the last solve: cached answers.
    Cached,
    /// Only the touched components were re-solved.
    Incremental {
        /// Vertices in the re-solved region.
        active_vertices: usize,
    },
    /// The whole graph was (re-)solved.
    Full,
}

/// Maintained structure: the last solve's canonical labels and forest,
/// plus the labels dirtied by updates since.
#[derive(Clone, Debug)]
struct DynState {
    labels: Vec<Label>,
    forest: Vec<Edge>,
    touched: FxHashSet<Label>,
}

/// Maintained MST structure: the forest (with weights) of the last MST
/// solve plus its per-vertex component labels (each component labelled by
/// its minimum vertex). Unlike the connectivity state this carries no
/// trajectory key: the tie-free edge order makes the MST *unique*, so any
/// correct maintenance path lands on bit-identical edges whatever knobs
/// the solve ran under.
#[derive(Clone, Debug)]
struct MstDynState {
    /// The maintained minimum spanning forest, sorted by endpoints.
    forest: Vec<Edge>,
    /// Component label (minimum member vertex) per vertex.
    labels: Vec<Label>,
}

/// Net effect of the updates on one edge since the last MST solve: the
/// weight the edge had when the MST was last computed (`None` — absent)
/// and the weight it has now. Insert-then-delete nets out; a reweight
/// (delete-then-reinsert with a new weight) carries both sides.
type MstPendingNet = (Option<u64>, Option<u64>);

/// The engine knobs that shape the solve *trajectory* (and hence the
/// forest choice): maintained structure is only reusable under the same
/// key — a solve with different knobs forces a full refresh. Bandwidth,
/// cost model and the §2.2 charge only affect accounting, not answers.
type TrajectoryKey = (u32, crate::engine::MergeStrategy, Option<u32>, bool);

fn trajectory_key(ecfg: &EngineConfig) -> TrajectoryKey {
    (ecfg.reps, ecfg.merge, ecfg.max_phases, ecfg.contract)
}

/// What a structure refresh ran and charged.
struct Refresh {
    /// Everything the refresh charged: the engine run, the repair tiers,
    /// certification, endpoint routing and — after an escalation — the
    /// whole aborted attempt.
    total: CommStats,
    /// The engine run it summarises; `None` when the answer was cached or
    /// every touched group was repaired without the engine.
    run: Option<EngineResult>,
    /// The isolated cost of the Theorem 2(b) endpoint routing, if it ran.
    routing: Option<CommStats>,
}

// ---------------------------------------------------------------------
// DynamicCluster
// ---------------------------------------------------------------------

/// A live cluster: an ingested [`Cluster`] plus the update machinery —
/// delta-logged shards, per-vertex incidence sketches maintained through
/// sketch linearity, and the incrementally maintained component structure.
///
/// See the [module docs](self) for the architecture and the bit-identity
/// contract with static runs.
#[derive(Debug)]
pub struct DynamicCluster {
    inner: Cluster,
    cfg: DynConfig,
    /// The public home hashing (cloned out of the shards so `apply` can
    /// route while mutably staging).
    home: Partition,
    /// Shared functions of the maintained incidence sketches.
    fns: SketchFns,
    params: SketchParams,
    /// Per machine: home vertex → maintained incidence sketch.
    sketches: Vec<FxHashMap<u32, L0Sketch>>,
    state: Option<DynState>,
    /// The maintained MST forest (independent of the connectivity state:
    /// the two are refreshed by different entry points).
    mst_state: Option<MstDynState>,
    /// Net per-edge effect of the updates since the last MST solve,
    /// keyed by canonical endpoints. Only tracked while `mst_state` is
    /// live; cleared by every MST refresh.
    mst_pending: FxHashMap<(u32, u32), MstPendingNet>,
    /// The trajectory knobs the maintained state was computed under.
    trajectory: Option<TrajectoryKey>,
    last_refresh: RefreshKind,
    /// Update-phase accounting since the last solve (stamped into the next
    /// [`RunReport::update`], then reset) and over the cluster's lifetime. The
    /// fault counters cover the routing supersteps, so a batch whose
    /// routing needed recovery is reported even when the solve ran clean.
    epoch: CommStats,
    update_stats: CommStats,
    batches: u64,
    compactions: u64,
    inserts: u64,
    deletes: u64,
}

impl DynamicCluster {
    /// Wraps an ingested cluster. Builds the per-vertex incidence sketches
    /// from the current shards (one linear pass, local to each home); from
    /// here on they are only ever updated in place.
    pub fn wrap(cluster: Cluster, cfg: DynConfig) -> Self {
        let n = cluster.n();
        let k = cluster.k();
        // One cell per sketch: the level-0 cell already holds the net sum
        // of every incident edge, which is all the zero-certification
        // needs (a cancelled component is *exactly* zero; a survivor edge
        // escapes the fingerprint with probability 1 − O(1/p)).
        let params = SketchParams {
            n,
            levels: 1,
            reps: 1,
            independence: (id_bits(n.max(2)) as usize).max(8),
        };
        let fns = SketchFns::new(&SharedRandomness::new(cluster.seed()), DYN_CERT_TAG, params);
        let mut sketches: Vec<FxHashMap<u32, L0Sketch>> = vec![FxHashMap::default(); k];
        for (i, per_machine) in sketches.iter_mut().enumerate() {
            for (v, nbrs) in cluster.sharded().view(i).adjacency() {
                let mut sk = L0Sketch::new(params);
                for &(nb, _) in nbrs {
                    sk.add_incident_edge(&fns, v, nb);
                }
                per_machine.insert(v, sk);
            }
        }
        let home = cluster.partition().clone();
        let update_stats = CommStats::new(k);
        DynamicCluster {
            inner: cluster,
            cfg,
            home,
            fns,
            params,
            sketches,
            state: None,
            mst_state: None,
            mst_pending: FxHashMap::default(),
            trajectory: None,
            last_refresh: RefreshKind::Full,
            epoch: CommStats::default(),
            update_stats,
            batches: 0,
            compactions: 0,
            inserts: 0,
            deletes: 0,
        }
    }

    // -----------------------------------------------------------------
    // Updates
    // -----------------------------------------------------------------

    /// Applies one batch: validates every op against the staged state (in
    /// sequence — nothing is staged unless the whole batch is valid),
    /// routes each op to its two endpoint homes in one comm-accounted
    /// superstep, updates the incidence sketches in place, stages the
    /// half-edge deltas, marks the endpoints' components as touched, and
    /// compacts if any shard's log crossed the threshold.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<UpdateReport, UpdateError> {
        // Pass 1: validation against base ∪ staged log ∪ batch overlay.
        let n = self.inner.n();
        let mut overlay: FxHashMap<(u32, u32), bool> = FxHashMap::default();
        for op in batch.ops() {
            let (u, v) = op.endpoints();
            validate_endpoints(n, u, v)?;
            let key = (u.min(v), u.max(v));
            let present = match overlay.get(&key) {
                Some(&p) => p,
                None => self
                    .inner
                    .sharded()
                    .staged_edge_weight(key.0, key.1)
                    .is_some(),
            };
            match op {
                UpdateOp::Insert { .. } if present => {
                    return Err(UpdateError::DuplicateEdge { u, v });
                }
                UpdateOp::Delete { .. } if !present => {
                    return Err(UpdateError::MissingEdge { u, v });
                }
                UpdateOp::Insert { .. } => {
                    overlay.insert(key, true);
                }
                UpdateOp::Delete { .. } => {
                    overlay.insert(key, false);
                }
            }
        }
        // Pass 2: route, stage, maintain sketches, dirty the structure.
        let mut net = self.dyn_net(&EngineConfig::default());
        let mut inserts = 0usize;
        let mut deletes = 0usize;
        for op in batch.ops() {
            let (u, v) = op.endpoints();
            if self.mst_state.is_some() {
                // First touch since the last MST solve captures the
                // edge's weight *as of that solve* (nothing else mutated
                // it in between); later touches only move the current
                // side, so insert-then-delete nets out and a reweight
                // carries both weights.
                let key = (u.min(v), u.max(v));
                let base = self.inner.sharded().staged_edge_weight(key.0, key.1);
                let net = self.mst_pending.entry(key).or_insert((base, base));
                net.1 = match *op {
                    UpdateOp::Insert { w, .. } => Some(w),
                    UpdateOp::Delete { .. } => None,
                };
            }
            let (insert, weight) = match *op {
                UpdateOp::Insert { w, .. } => {
                    inserts += 1;
                    self.inner.sharded_mut().stage_insert(u, v, w);
                    (true, w)
                }
                UpdateOp::Delete { .. } => {
                    deletes += 1;
                    self.inner.sharded_mut().stage_delete(u, v);
                    (false, 0)
                }
            };
            for (vertex, other) in [(u, v), (v, u)] {
                let home = self.home.home(vertex);
                let sketch = self.sketches[home]
                    .get_mut(&vertex)
                    .expect("every home vertex has a maintained sketch");
                if insert {
                    sketch.add_incident_edge(&self.fns, vertex, other);
                } else {
                    sketch.remove_incident_edge(&self.fns, vertex, other);
                }
                let payload = Payload::EdgeUpdate {
                    vertex,
                    other,
                    weight,
                    insert,
                };
                net.send(COORDINATOR, home, payload);
            }
            if let Some(state) = &mut self.state {
                state.touched.insert(state.labels[u as usize]);
                state.touched.insert(state.labels[v as usize]);
            }
        }
        net.exchange();
        let stats = net.finish(None);
        self.epoch.absorb(&stats);
        self.update_stats.absorb(&stats);
        self.batches += 1;
        self.inserts += inserts as u64;
        self.deletes += deletes as u64;
        let compacted = self.inner.sharded().max_pending_per_shard() >= COMPACTION_THRESHOLD;
        if compacted {
            self.inner.sharded_mut().compact();
            self.compactions += 1;
        }
        let (ops, ins, del) = (batch.len() as u64, inserts as u64, deletes as u64);
        let (rounds, bits) = (stats.rounds, stats.total_bits);
        self.cfg.trace.emit(|| TraceEvent::DynBatch {
            ops,
            inserts: ins,
            deletes: del,
            rounds,
            bits,
            compacted,
        });
        Ok(UpdateReport {
            ops: batch.len(),
            inserts,
            deletes,
            rounds: stats.rounds,
            bits: stats.total_bits,
            pending: self.inner.sharded().pending_half_ops(),
            compacted,
        })
    }

    // -----------------------------------------------------------------
    // Solves
    // -----------------------------------------------------------------

    /// Incremental connected components: compacts, re-solves only the
    /// touched components, splices the surviving labels through, and
    /// certifies the refreshed labeling against the incidence sketches.
    /// The answer (canonical labels, component count) is bit-identical to
    /// a fresh static [`Cluster::run`] of
    /// [`crate::session::Connectivity`] on the mutated edge set.
    ///
    /// The maintained structure is keyed by the trajectory-shaping knobs
    /// (`reps`, `merge`, `max_phases`, `contract`): solving
    /// with different knobs than the previous solve forces a full refresh
    /// instead of splicing answers from two different merge histories.
    pub fn connectivity(&mut self, cfg: &ConnectivityConfig) -> Run<ConnectivityOutput> {
        let started = Stopwatch::start();
        let mark = self.cfg.trace.mark();
        let r = self.refresh(cfg);
        let report = self.report("conn", &r, started, mark);
        let state = self.state.as_ref().expect("refresh leaves state set");
        let labels = state.labels.clone();
        let (phase_components, drr_depths) = r
            .run
            .map(|run| (run.phase_components, run.drr_depths))
            .unwrap_or_default();
        let mut output = ConnectivityOutput {
            labels,
            stats: r.total,
            phases: report.phases,
            phase_components,
            drr_depths,
            counted_components: None,
            sketch_builds: report.sketch_builds,
        };
        // The incremental path derives the count from the maintained
        // labels instead of re-running the §2.6 exchange (the machines
        // already hold their refreshed labels); instrumentation only.
        output.counted_components = cfg
            .run_output_protocol
            .then(|| output.component_count() as u64);
        Run { output, report }
    }

    /// Incremental spanning forest: the maintained forest keeps every
    /// untouched component's edges and splices in the re-solved region's.
    /// Bit-identical to a fresh static run of
    /// [`crate::session::SpanningForest`] on the mutated edge set. Keyed
    /// by the same trajectory knobs as [`DynamicCluster::connectivity`].
    pub fn spanning_forest(&mut self, cfg: &MstConfig) -> Run<SpanningForestOutput> {
        let started = Stopwatch::start();
        let mark = self.cfg.trace.mark();
        let r = self.refresh(cfg);
        let report = self.report("st", &r, started, mark);
        let state = self.state.as_ref().expect("refresh leaves state set");
        let output = SpanningForestOutput {
            edges: state.forest.clone(),
            stats: r.total,
            phases: report.phases,
            edges_per_machine: r
                .run
                .map_or_else(|| vec![0; self.k()], |run| run.mst_edges_per_machine),
            sketch_builds: report.sketch_builds,
        };
        Run { output, report }
    }

    /// Incremental minimum spanning forest (DESIGN.md §3.9). The net
    /// updates since the last MST solve are grouped by the old components
    /// they touch, and each group takes the cheapest *exact* path:
    ///
    /// * **no-op** — only non-tree deletions: a non-MST edge never
    ///   re-enters the tree by its removal, so the maintained forest is
    ///   already the MST of the mutated graph;
    /// * **cycle replacement** — insertions only: each new edge is routed
    ///   to its component owner ([`Payload::MstCycleEdge`]), which finds
    ///   the maximum-key edge on the tree cycle the insertion closes and
    ///   swaps if the new edge is lighter ([`Payload::MstSwap`]) — exact
    ///   because `MST(G + e) ⊆ MST(G) + e` under the tie-free key;
    /// * **replacement-edge search** — a single tree deletion: the forest
    ///   splits in two; per-machine sums of the maintained L0 incidence
    ///   sketches over one half ([`Payload::MstCutSketch`]) cancel to
    ///   exactly zero iff no crossing edge survives (a genuine split),
    ///   otherwise the machines min-reduce the lightest crossing edge at
    ///   the piece referee ([`Payload::MstCandidate`]) — exact by the cut
    ///   property;
    /// * **restricted engine re-run** otherwise: a [`Mode::Mst`] run over
    ///   the affected components, spliced like the connectivity path.
    ///
    /// The refreshed forest is certified against the incidence sketches
    /// and escalates to a full re-solve on failure, exactly like
    /// [`DynamicCluster::connectivity`]. Because the tie-free edge key
    /// `(w, u, v)` makes the MST *unique*, the answer is bit-identical to
    /// a fresh static [`crate::session::Mst`] run on the mutated edge set
    /// — no trajectory key is needed, unlike the connectivity state. On
    /// the incremental path `edges_per_machine` reports the maintained
    /// forest's distribution over the `u`-endpoint homes.
    pub fn mst(&mut self, cfg: &MstConfig) -> Run<crate::mst::MstOutput> {
        let started = Stopwatch::start();
        let mark = self.cfg.trace.mark();
        self.compact_now();
        // Net out the update log: an edge whose current weight equals its
        // weight at the last MST solve contributes nothing (insert-then-
        // delete, delete-then-reinsert at the same weight, …).
        let mut net_deletes = Vec::new();
        let mut net_inserts = Vec::new();
        let pending = std::mem::take(&mut self.mst_pending);
        for ((u, v), (base, cur)) in det::into_sorted_entries(pending) {
            if base == cur {
                continue;
            }
            if let Some(w0) = base {
                net_deletes.push(Edge::new(u, v, w0));
            }
            if let Some(w1) = cur {
                net_inserts.push(Edge::new(u, v, w1));
            }
        }
        let r = match self.mst_state.take() {
            Some(state) if net_deletes.is_empty() && net_inserts.is_empty() => {
                // Nothing net-changed since the last MST solve.
                self.mst_state = Some(state);
                self.cached()
            }
            Some(state) => self.mst_incremental(state, net_deletes, net_inserts, cfg, mark),
            None => self.mst_full(cfg),
        };
        let report = self.report("mst", &r, started, mark);
        let state = self
            .mst_state
            .as_ref()
            .expect("an MST refresh leaves state set");
        let edges = state.forest.clone();
        let mut edges_per_machine = vec![0usize; self.k()];
        match (self.last_refresh, r.run) {
            (RefreshKind::Cached, _) => {}
            (RefreshKind::Full, Some(run)) => edges_per_machine = run.mst_edges_per_machine,
            _ => {
                for e in &edges {
                    edges_per_machine[self.home.home(e.u)] += 1;
                }
            }
        }
        let output = crate::mst::MstOutput {
            total_weight: edges.iter().map(|e| e.w as u128).sum(),
            edges,
            stats: r.total,
            phases: report.phases,
            edges_per_machine,
            endpoint_routing: r.routing,
            sketch_builds: report.sketch_builds,
        };
        Run { output, report }
    }

    /// Full MST re-solve on the compacted shards, seeding the maintained
    /// forest — the first-solve path and the certification escape hatch.
    fn mst_full(&mut self, cfg: &MstConfig) -> Refresh {
        let (run, forest) = self.resolve(Mode::Mst, cfg, None, Vec::new());
        let mut total = run.stats.clone();
        let routing = (cfg.criterion == OutputCriterion::BothEndpoints)
            .then(|| route_edges_to_endpoints(self.inner.sharded(), &sourced_edges(&run), cfg));
        if let Some(routing) = &routing {
            total.absorb(routing);
        }
        let labels = forest_labels(self.n(), &forest);
        self.mst_state = Some(MstDynState { forest, labels });
        self.last_refresh = RefreshKind::Full;
        Refresh {
            total,
            run: Some(run),
            routing,
        }
    }

    /// The incremental MST refresh: group classification and the three
    /// replacement tiers (see [`DynamicCluster::mst`] for the contract).
    fn mst_incremental(
        &mut self,
        state: MstDynState,
        net_deletes: Vec<Edge>,
        net_inserts: Vec<Edge>,
        cfg: &MstConfig,
        mark: usize,
    ) -> Refresh {
        let (n, k) = (self.n(), self.k());
        let MstDynState {
            mut forest,
            labels: old_labels,
        } = state;
        // --- Group the net ops by the old components they touch: a
        // union-find over component labels, merged through each net
        // insert (the only op kind that can join components). Unioning
        // toward the smaller index keeps every root at its group's
        // minimum label.
        let mut group_labels: Vec<Label> = net_deletes
            .iter()
            .chain(&net_inserts)
            .flat_map(|e| [old_labels[e.u as usize], old_labels[e.v as usize]])
            .collect();
        group_labels.sort_unstable();
        group_labels.dedup();
        let index: FxHashMap<Label, usize> = group_labels
            .iter()
            .enumerate()
            .map(|(i, &lab)| (lab, i))
            .collect();
        fn lfind(luf: &mut [usize], mut x: usize) -> usize {
            while luf[x] != x {
                let gp = luf[luf[x]];
                luf[x] = gp;
                x = gp;
            }
            x
        }
        let mut luf: Vec<usize> = (0..group_labels.len()).collect();
        for e in &net_inserts {
            let a = lfind(&mut luf, index[&old_labels[e.u as usize]]);
            let b = lfind(&mut luf, index[&old_labels[e.v as usize]]);
            if a != b {
                luf[a.max(b)] = a.min(b);
            }
        }
        // --- Classify each group by its net tree-deletions and inserts.
        let tree: FxHashSet<(u32, u32)> = forest.iter().map(|e| (e.u, e.v)).collect();
        #[derive(Default)]
        struct Group {
            tree_dels: Vec<Edge>,
            inserts: Vec<Edge>,
        }
        let mut groups: BTreeMap<usize, Group> = BTreeMap::new();
        for e in &net_deletes {
            let root = lfind(&mut luf, index[&old_labels[e.u as usize]]);
            let g = groups.entry(root).or_default();
            if tree.contains(&(e.u, e.v)) {
                g.tree_dels.push(*e);
            }
        }
        for e in &net_inserts {
            let root = lfind(&mut luf, index[&old_labels[e.u as usize]]);
            groups.entry(root).or_default().inserts.push(*e);
        }
        let mut tier_cycle: Vec<(Label, Vec<Edge>)> = Vec::new();
        let mut tier_cut: Vec<Edge> = Vec::new();
        let mut engine_label_set: FxHashSet<Label> = FxHashSet::default();
        for (root, g) in &groups {
            match (g.tree_dels.len(), g.inserts.len()) {
                // Only non-tree deletions: the forest is already the MST
                // of the mutated graph.
                (0, 0) => {}
                (0, _) => tier_cycle.push((group_labels[*root], g.inserts.clone())),
                (1, 0) => tier_cut.push(g.tree_dels[0]),
                // Multiple tree-deletions, or deletions mixed with
                // inserts: re-run the engine over the whole group.
                _ => {
                    for (i, &lab) in group_labels.iter().enumerate() {
                        if lfind(&mut luf, i) == *root {
                            engine_label_set.insert(lab);
                        }
                    }
                }
            }
        }
        let mut stats = CommStats::new(k);
        // Newly chosen forest edges, attributed to the machine that chose
        // them, for the criterion (b) routing stage.
        let mut new_edges: Vec<(usize, (u32, u32, u64))> = Vec::new();
        // --- Tier: cycle replacement (inserts into otherwise-unchanged
        // components). Each group's inserts are applied sequentially in
        // tie-free key order at the group owner.
        if !tier_cycle.is_empty() {
            let mut uf = UnionFind::new(n);
            let mut adj: FxHashMap<u32, Vec<(u32, u64)>> = FxHashMap::default();
            for e in &forest {
                uf.union(e.u, e.v);
                adj.entry(e.u).or_default().push((e.v, e.w));
                adj.entry(e.v).or_default().push((e.u, e.w));
            }
            let mut net = self.dyn_net(cfg);
            let mut replies = Vec::new();
            for (comp, mut ins) in tier_cycle {
                ins.sort_unstable_by_key(|e| (e.w, e.u, e.v));
                let owner = self.home.home(comp as u32);
                for e in ins {
                    let payload = Payload::MstCycleEdge {
                        comp,
                        u: e.u,
                        v: e.v,
                        weight: e.w,
                    };
                    net.send(COORDINATOR, owner, payload);
                    let mut evicted = None;
                    let mut accept = true;
                    if uf.connected(e.u, e.v) {
                        let (mw, ma, mb) = tree_path_max(&adj, e.u, e.v);
                        if (mw, ma, mb) > (e.w, e.u, e.v) {
                            // The new edge undercuts the heaviest cycle
                            // edge: swap them.
                            forest.retain(|f| (f.u, f.v) != (ma, mb));
                            for (a, b) in [(ma, mb), (mb, ma)] {
                                adj.get_mut(&a)
                                    .expect("tree edge endpoint has adjacency")
                                    .retain(|&(nb, _)| nb != b);
                            }
                            evicted = Some((mw, ma, mb));
                        } else {
                            // The new edge is the heaviest on its own
                            // cycle: the MST is unchanged.
                            accept = false;
                        }
                    } else {
                        // Joins two trees of the group: no cycle to break.
                        uf.union(e.u, e.v);
                    }
                    if accept {
                        forest.push(e);
                        adj.entry(e.u).or_default().push((e.v, e.w));
                        adj.entry(e.v).or_default().push((e.u, e.w));
                        new_edges.push((owner, (e.u, e.v, e.w)));
                    }
                    replies.push((owner, Payload::MstSwap { comp, evicted }));
                }
            }
            net.exchange();
            for (owner, reply) in replies {
                net.send(owner, COORDINATOR, reply);
            }
            net.exchange();
            stats.absorb(&net.finish(Some("mst_cycle")));
        }
        // --- Tier: sketch replacement-edge search (a single tree
        // deletion splits its component in two).
        if !tier_cut.is_empty() {
            let mut adj: FxHashMap<u32, Vec<(u32, u64)>> = FxHashMap::default();
            for e in &forest {
                adj.entry(e.u).or_default().push((e.v, e.w));
                adj.entry(e.v).or_default().push((e.u, e.w));
            }
            struct CutPlan {
                piece: Label,
                other: Label,
                probe: Vec<u32>,
                other_set: FxHashSet<u32>,
                del: Edge,
            }
            let mut plans = Vec::new();
            for del in tier_cut {
                let side_u = tree_piece(&adj, del.u, del);
                let side_v = tree_piece(&adj, del.v, del);
                // Probe the smaller piece: its sketch sum cancels every
                // intra-piece edge by linearity, leaving exactly the
                // crossing edges.
                let (probe, other) = if (side_u.len(), del.u) <= (side_v.len(), del.v) {
                    (side_u, side_v)
                } else {
                    (side_v, side_u)
                };
                let piece = Label::from(*probe.iter().min().expect("piece is nonempty"));
                let other_label = Label::from(*other.iter().min().expect("piece is nonempty"));
                plans.push(CutPlan {
                    piece,
                    other: other_label,
                    probe,
                    other_set: other.into_iter().collect(),
                    del,
                });
            }
            let mut net = self.dyn_net(cfg);
            let probed = plans
                .iter()
                .flat_map(|plan| plan.probe.iter().map(|&x| (x, plan.piece)));
            let cut_sketch = |piece, sketch| Payload::MstCutSketch { piece, sketch };
            let nonzero = self.nonzero_sums(&mut net, probed, cut_sketch);
            // Pieces with a non-zero sum have a surviving crossing edge:
            // every machine nominates its lightest one (every crossing
            // edge has an endpoint in the probe piece, so scanning the
            // probe homes' shard views covers the whole cut).
            for plan in &plans {
                let referee = self.home.home(plan.piece as u32);
                if !nonzero[referee].contains(&plan.piece) {
                    continue;
                }
                let mut best: Vec<Option<EdgeKey>> = vec![None; k];
                for &x in &plan.probe {
                    let m = self.home.home(x);
                    for &(nb, w) in self.inner.sharded().view(m).neighbors(x) {
                        if plan.other_set.contains(&nb) {
                            let key = (w, x.min(nb), x.max(nb));
                            if best[m].is_none_or(|b| key < b) {
                                best[m] = Some(key);
                            }
                        }
                    }
                }
                for (i, key) in best.into_iter().enumerate() {
                    if let Some(key) = key {
                        let payload = Payload::MstCandidate {
                            piece: plan.piece,
                            key,
                            to_piece: plan.other,
                        };
                        net.send(i, referee, payload);
                    }
                }
            }
            let mut winners: FxHashMap<Label, EdgeKey> = FxHashMap::default();
            if !net.idle() {
                for env in net.exchange().into_iter().flatten() {
                    if let Payload::MstCandidate { piece, key, .. } = env.payload {
                        let best = winners.entry(piece).or_insert(key);
                        *best = (*best).min(key);
                    }
                }
            }
            for plan in &plans {
                forest.retain(|f| (f.u, f.v) != (plan.del.u, plan.del.v));
                if let Some(&(w, a, b)) = winners.get(&plan.piece) {
                    // The cut property under the tie-free order: the
                    // minimum crossing edge rejoins the two pieces.
                    forest.push(Edge::new(a, b, w));
                    new_edges.push((self.home.home(plan.piece as u32), (a, b, w)));
                }
                // A zero sum certifies a genuine split: the component
                // stays divided and the labels recompute below.
            }
            stats.absorb(&net.finish(Some("mst_cut")));
        }
        // --- Tier: restricted engine re-run over the remaining groups.
        let mut run = None;
        if !engine_label_set.is_empty() {
            let mask: Vec<bool> = old_labels
                .iter()
                .map(|lab| engine_label_set.contains(lab))
                .collect();
            // The MST is unique with or without contraction; the restricted
            // run keeps the plain path.
            let ecfg = EngineConfig {
                contract: false,
                ..cfg.clone()
            };
            let (result, spliced) = self.resolve(Mode::Mst, &ecfg, Some(&mask), forest);
            forest = spliced;
            stats.absorb(&result.stats);
            new_edges.extend(sourced_edges(&result));
            run = Some(result);
        }
        forest.sort_unstable_by_key(|e| (e.u, e.v));
        let labels = forest_labels(n, &forest);
        let affected: Vec<bool> = old_labels
            .iter()
            .map(|lab| index.contains_key(lab))
            .collect();
        let escalate = |dc: &mut Self| dc.mst_full(cfg);
        let mut stats =
            match self.certify_or_escalate(&affected, &labels, cfg, stats, mark, escalate) {
                ControlFlow::Continue(stats) => stats,
                ControlFlow::Break(full) => return full,
            };
        self.mst_state = Some(MstDynState { forest, labels });
        self.last_refresh = RefreshKind::Incremental {
            active_vertices: affected.iter().filter(|&&a| a).count(),
        };
        // Criterion (b): only the newly chosen edges need routing — the
        // surviving forest is already known at its endpoint homes.
        let routing = (cfg.criterion == OutputCriterion::BothEndpoints && !new_edges.is_empty())
            .then(|| route_edges_to_endpoints(self.inner.sharded(), &new_edges, cfg));
        if let Some(routing) = &routing {
            stats.absorb(routing);
        }
        Refresh {
            total: stats,
            run,
            routing,
        }
    }

    /// The maintained MST forest, if an MST solve has run.
    pub fn mst_forest(&self) -> Option<&[Edge]> {
        self.mst_state.as_ref().map(|s| s.forest.as_slice())
    }

    /// Full re-solve on the compacted shards through the ordinary
    /// [`Problem`] plumbing — the path for problems with no incremental
    /// decomposition here (min cut: a global estimate; MST has its own
    /// incremental entry point, [`DynamicCluster::mst`]). The report
    /// still carries the update-phase counters.
    pub fn run_full<P: Problem>(&mut self, problem: P) -> Run<P::Output> {
        self.compact_now();
        let mut run = self.inner.run(problem);
        run.report.update = std::mem::take(&mut self.epoch);
        run
    }

    // -----------------------------------------------------------------
    // Structure maintenance
    // -----------------------------------------------------------------

    /// Refreshes the maintained labels + forest under `cfg`, taking the
    /// cheapest valid path: cached (no updates since the last solve),
    /// incremental (restricted engine run over touched components, then
    /// certification), or full.
    fn refresh(&mut self, cfg: &EngineConfig) -> Refresh {
        let attempt_mark = self.cfg.trace.mark();
        self.compact_now();
        // Maintained structure is only valid under the trajectory knobs it
        // was computed with: a solve under different knobs would splice
        // answers from two different merge histories. Drop it and refresh
        // fully instead.
        let key = trajectory_key(cfg);
        if self.trajectory != Some(key) {
            self.state = None;
            self.trajectory = Some(key);
        }
        match self.state.take() {
            Some(state) if state.touched.is_empty() => {
                // Nothing structural changed since the last solve.
                self.state = Some(state);
                self.cached()
            }
            // Contraction keeps every decision keyed by labels and
            // `home(label)`, so a restricted contracted run should replay
            // its components' full-run trajectory, but no test shows when
            // that splice identity holds or breaks: `tests/dynamic.rs` has
            // no `contract: true` cell. Until one pins it, refresh fully.
            Some(old) if !cfg.contract => {
                let mask: Vec<bool> = old
                    .labels
                    .iter()
                    .map(|lab| old.touched.contains(lab))
                    .collect();
                let (run, forest) =
                    self.resolve(Mode::SpanningForest, cfg, Some(&mask), old.forest);
                let mut labels = old.labels;
                for (v, lab) in labels.iter_mut().enumerate() {
                    if mask[v] {
                        *lab = run.labels[v];
                    }
                }
                let escalate = |dc: &mut Self| dc.refresh(cfg);
                let attempt = run.stats.clone();
                let total = match self.certify_or_escalate(
                    &mask,
                    &labels,
                    cfg,
                    attempt,
                    attempt_mark,
                    escalate,
                ) {
                    ControlFlow::Continue(total) => total,
                    ControlFlow::Break(full) => return full,
                };
                self.last_refresh = RefreshKind::Incremental {
                    active_vertices: mask.iter().filter(|&&a| a).count(),
                };
                self.state = Some(DynState {
                    labels,
                    forest,
                    touched: FxHashSet::default(),
                });
                Refresh {
                    total,
                    run: Some(run),
                    routing: None,
                }
            }
            _ => {
                let (run, forest) = self.resolve(Mode::SpanningForest, cfg, None, Vec::new());
                // A run stopped by the phase cap may leave labels that are
                // not closed components, so no restricted re-run may take
                // them as its mask: the next refresh is full. (A capped
                // restricted run fails certification and escalates here.)
                if run.phases >= cfg.phase_cap(self.n()) {
                    self.trajectory = None;
                }
                self.last_refresh = RefreshKind::Full;
                self.state = Some(DynState {
                    labels: run.labels.clone(),
                    forest,
                    touched: FxHashSet::default(),
                });
                Refresh {
                    total: run.stats.clone(),
                    run: Some(run),
                    routing: None,
                }
            }
        }
    }

    /// The zero-cost refresh: the maintained answers are the answers.
    fn cached(&mut self) -> Refresh {
        self.last_refresh = RefreshKind::Cached;
        Refresh {
            total: CommStats::new(self.k()),
            run: None,
            routing: None,
        }
    }

    /// One engine re-solve in `mode`: on the subgraph the vertices `mask`
    /// keeps induce (the whole graph without one), its forest spliced over
    /// the edges of `forest` outside the mask.
    ///
    /// Every per-component decision of a run (phase-0 sampling, sketch
    /// functions, proxies, DRR ranks, pointer jumping) is keyed by vertex
    /// ids, labels and the phase, and the run stops on each component's own
    /// zero test: no global state shapes a trajectory, so a kept
    /// component's is identical to its trajectory in a run on the whole
    /// graph, which is what makes spliced answers bit-compatible with full
    /// fresh runs (`tests/dynamic.rs`). The mask must be closed under
    /// adjacency (the touched-component closure is); an edge leaving it
    /// would be a never-cancelling outgoing edge.
    fn resolve(
        &self,
        mode: Mode,
        cfg: &EngineConfig,
        mask: Option<&[bool]>,
        forest: Vec<Edge>,
    ) -> (EngineResult, Vec<Edge>) {
        let ecfg = EngineConfig {
            run_output_protocol: false,
            ..cfg.clone()
        };
        let (sharded, seed) = (self.inner.sharded(), self.inner.seed());
        let (run, survivors) = match mask {
            Some(mask) => (
                Engine::new(&sharded.induced(mask), mode, seed, ecfg).run(),
                forest.into_iter().filter(|e| !mask[e.u as usize]).collect(),
            ),
            None => (Engine::new(sharded, mode, seed, ecfg).run(), Vec::new()),
        };
        let forest = splice_forest(&run.mst_edges, survivors);
        (run, forest)
    }

    /// The tail of every incremental refresh: certifies `labels` over the
    /// `refreshed` vertices, folds the exchange into the attempt's `total`
    /// and hands it back. A failed certificate means a refreshed label is
    /// not a closed component. A restricted run does not under-merge from a
    /// sampling miss (it stops only once every merged sketch is zero), so
    /// that is a capped run, a repair tier's miss or a maintained sketch
    /// that disagrees with the shards. The attempt is recorded as a
    /// rolled-back breakdown span — so the §3.14 tiling invariant keeps
    /// holding against the merged stats — and the refresh escalates to
    /// `full`, keeping the bits spent so far on the books. The caller
    /// installs its refreshed state only when the attempt continues.
    fn certify_or_escalate(
        &mut self,
        refreshed: &[bool],
        labels: &[Label],
        cfg: &EngineConfig,
        mut total: CommStats,
        attempt_mark: usize,
        full: impl FnOnce(&mut Self) -> Refresh,
    ) -> ControlFlow<Refresh, CommStats> {
        let (certified, cert_stats) = self.certify(refreshed, labels, cfg);
        total.absorb(&cert_stats);
        if certified {
            return ControlFlow::Continue(total);
        }
        let span = phase_breakdown(&self.cfg.trace.events_since(attempt_mark)).len() as u64;
        let (rounds, bits) = (total.rounds, total.total_bits);
        self.cfg
            .trace
            .emit(|| TraceEvent::DynEscalate { span, rounds, bits });
        let mut full = full(self);
        total.absorb(&full.total);
        full.total = total;
        ControlFlow::Break(full)
    }

    /// The certification exchange, run after every incremental re-solve:
    /// the linear probe over the refreshed labels (those some `refreshed[v]`
    /// vertex carries), then the per-referee verdicts OR-reduced at the
    /// coordinator with 1-bit flags.
    fn certify(
        &self,
        refreshed: &[bool],
        labels: &[Label],
        cfg: &EngineConfig,
    ) -> (bool, CommStats) {
        let fresh_labels: FxHashSet<Label> = labels
            .iter()
            .zip(refreshed)
            .filter(|&(_, &r)| r)
            .map(|(&lab, _)| lab)
            .collect();
        let mut net = self.dyn_net(cfg);
        let sharded = self.inner.sharded();
        let fresh = (0..self.k())
            .flat_map(|i| sharded.view(i).verts())
            .map(|&v| (v, labels[v as usize]))
            .filter(|(_, lab)| fresh_labels.contains(lab));
        let cert_sketch = |label, sketch| Payload::CertSketch { label, sketch };
        let nonzero = self.nonzero_sums(&mut net, fresh, cert_sketch);
        for (i, bad) in nonzero.iter().enumerate().skip(1) {
            let bit = !bad.is_empty();
            net.send(i, COORDINATOR, Payload::Flag { bit });
        }
        net.exchange();
        let ok = nonzero.iter().all(Vec::is_empty);
        let stats = net.finish(None);
        // The certification exchange is absorbed into the solve's stats,
        // so the event carries its cost and folds into the per-phase
        // breakdown as a `"certify"` row (keeping the tiling exact).
        let (rounds, bits) = (stats.rounds, stats.total_bits);
        self.cfg.trace.emit(|| TraceEvent::DynCertify {
            labels: fresh_labels.len() as u64,
            rounds,
            bits,
            ok,
        });
        (ok, stats)
    }

    /// The linear probe behind certification and the cut tier: every
    /// machine sums the maintained sketches of its `(vertex, class)` members
    /// per class and ships each sum, wrapped by `payload`, to the class's
    /// referee — the home of the label, which *is* a vertex id. Intra-class
    /// edges cancel, so a referee's total is zero iff nothing leaves the
    /// class. Returns each referee machine's non-zero classes.
    fn nonzero_sums(
        &self,
        net: &mut Net,
        members: impl Iterator<Item = (u32, Label)>,
        payload: impl Fn(Label, Box<L0Sketch>) -> Payload,
    ) -> Vec<Vec<Label>> {
        let mut local: Vec<FxHashMap<Label, L0Sketch>> = vec![FxHashMap::default(); self.k()];
        for (v, class) in members {
            let m = self.home.home(v);
            local[m]
                .entry(class)
                .or_insert_with(|| L0Sketch::new(self.params))
                .merge(&self.sketches[m][&v]);
        }
        for (i, sums) in local.into_iter().enumerate() {
            for (class, sketch) in det::into_sorted_entries(sums) {
                let referee = self.home.home(class as u32);
                net.send(i, referee, payload(class, Box::new(sketch)));
            }
        }
        let at_referee = |inbox: Mail| {
            let mut sums: FxHashMap<Label, L0Sketch> = FxHashMap::default();
            for env in inbox {
                if let Payload::CertSketch { label, sketch }
                | Payload::MstCutSketch {
                    piece: label,
                    sketch,
                } = env.payload
                {
                    let merge = |acc: &mut L0Sketch| acc.merge(&sketch);
                    sums.entry(label)
                        .and_modify(merge)
                        .or_insert_with(|| *sketch);
                }
            }
            det::retain_where(&mut sums, |_, sum| !sum.is_zero());
            det::sorted_keys(&sums)
        };
        net.exchange().into_iter().map(at_referee).collect()
    }

    /// A network for the dynamic layer's own exchanges (update routing under
    /// the default config; certification and the MST tiers under the
    /// solve's config), with the dynamic layer's fault plan and tracer — so
    /// chaos plans exercise them through the engine's reliable delivery.
    fn dyn_net(&self, ecfg: &EngineConfig) -> Net {
        let ecfg = EngineConfig {
            faults: self.cfg.faults.clone(),
            trace: self.cfg.trace.clone(),
            ..ecfg.clone()
        };
        Net::new(&ecfg, self.k(), self.n())
    }

    fn compact_now(&mut self) {
        if self.inner.sharded().pending_half_ops() > 0 {
            self.inner.sharded_mut().compact();
            self.compactions += 1;
        }
    }

    fn report(
        &mut self,
        problem: &'static str,
        r: &Refresh,
        started: Stopwatch,
        mark: usize,
    ) -> RunReport {
        // Bracketing the whole solve with the dynamic tracer yields a
        // breakdown that tiles `r.stats` exactly — engine segments, the
        // certify row, the incremental-MST segments, and (on escalation)
        // the rolled-back attempt rows all land inside the bracket —
        // provided the solve config threads the *same* tracer as
        // `DynConfig::trace` (as `kmm dyn --trace` does).
        let breakdown = self
            .cfg
            .trace
            .is_on()
            .then(|| phase_breakdown(&self.cfg.trace.events_since(mark)))
            .filter(|rows| !rows.is_empty());
        let run = r.run.as_ref();
        RunReport {
            problem,
            stats: r.total.clone(),
            phases: run.map_or(0, |run| run.phases),
            sketch_builds: run.map_or(0, |run| run.sketch_builds),
            update: std::mem::take(&mut self.epoch),
            wall: started.elapsed(),
            phase_breakdown: breakdown,
        }
    }

    // -----------------------------------------------------------------
    // Accessors
    // -----------------------------------------------------------------

    /// Number of machines.
    pub fn k(&self) -> usize {
        self.inner.k()
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.inner.n()
    }

    /// Number of edges as of the last compaction (staged deltas land at
    /// the next solve or threshold crossing).
    pub fn m(&self) -> usize {
        self.inner.sharded().m()
    }

    /// The wrapped cluster (read access; solves go through the dynamic
    /// entry points so the maintained structure stays fresh).
    pub fn cluster(&self) -> &Cluster {
        &self.inner
    }

    /// The maintained canonical labels, if a solve has run.
    pub fn labels(&self) -> Option<&[Label]> {
        self.state.as_ref().map(|s| s.labels.as_slice())
    }

    /// The maintained spanning forest, if a solve has run.
    pub fn forest(&self) -> Option<&[Edge]> {
        self.state.as_ref().map(|s| s.forest.as_slice())
    }

    /// Which path the most recent solve took.
    pub fn last_refresh(&self) -> RefreshKind {
        self.last_refresh
    }

    /// Batches applied so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Compactions run so far (threshold-tripped or pre-solve).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Insertions and deletions applied so far.
    pub fn ops_applied(&self) -> (u64, u64) {
        (self.inserts, self.deletes)
    }

    /// Staged half-edge deltas not yet compacted.
    pub fn pending_half_ops(&self) -> usize {
        self.inner.sharded().pending_half_ops()
    }

    /// Cumulative update-phase accounting over the cluster's lifetime.
    pub fn update_stats(&self) -> &CommStats {
        &self.update_stats
    }

    /// The communication a *full re-ingestion* of the current edge set
    /// would cost under the same routing as the update path (coordinator →
    /// both endpoint homes, one superstep): the baseline the incremental
    /// path is measured against in row E21 of `kmm repro`: a what-if
    /// cost, never faulted or traced. Requires compacted shards.
    pub fn full_reingest_stats(&self) -> CommStats {
        debug_assert_eq!(self.pending_half_ops(), 0, "compact before measuring");
        let mut net = Net::new(&EngineConfig::default(), self.k(), self.n());
        for i in 0..self.k() {
            for e in self.inner.sharded().view(i).local_edges() {
                for (vertex, other) in [(e.u, e.v), (e.v, e.u)] {
                    let payload = Payload::EdgeUpdate {
                        vertex,
                        other,
                        weight: e.w,
                        insert: true,
                    };
                    net.send(COORDINATOR, self.home.home(vertex), payload);
                }
            }
        }
        net.exchange();
        net.finish(None)
    }
}

/// Splices a weighted forest: freshly re-solved edges win over surviving
/// old edges *by endpoints*, so a delete-then-reinsert with a new weight
/// can never leave both the stale and the fresh copy of the same edge in
/// the forest (full-`Edge` dedup would keep both, since their weights
/// differ).
fn splice_forest(fresh: &[(u32, u32, u64)], survivors: Vec<Edge>) -> Vec<Edge> {
    let mut forest: Vec<Edge> = fresh.iter().map(|&(u, v, w)| Edge::new(u, v, w)).collect();
    forest.sort_unstable_by_key(|e| (e.u, e.v));
    forest.dedup_by_key(|e| (e.u, e.v));
    let resolved: FxHashSet<(u32, u32)> = forest.iter().map(|e| (e.u, e.v)).collect();
    forest.extend(
        survivors
            .into_iter()
            .filter(|e| !resolved.contains(&(e.u, e.v))),
    );
    forest.sort_unstable_by_key(|e| (e.u, e.v));
    debug_assert!(
        forest
            .windows(2)
            .all(|p| (p[0].u, p[0].v) != (p[1].u, p[1].v)),
        "spliced forest endpoints must be unique"
    );
    forest
}

/// Canonical (minimum-member) component labels of a forest over `n`
/// vertices.
fn forest_labels(n: usize, forest: &[Edge]) -> Vec<Label> {
    let mut uf = UnionFind::new(n);
    for e in forest {
        uf.union(e.u, e.v);
    }
    uf.canonical_labels().into_iter().map(Label::from).collect()
}

/// The maximum-key edge on the unique tree path between `u` and `v`
/// (which must be connected in the forest `adj` describes), as a
/// tie-free `(w, min, max)` key.
fn tree_path_max(adj: &FxHashMap<u32, Vec<(u32, u64)>>, u: u32, v: u32) -> (u64, u32, u32) {
    let mut parent: FxHashMap<u32, (u32, u64)> = FxHashMap::default();
    let mut queue = vec![u];
    let mut head = 0usize;
    while head < queue.len() {
        let x = queue[head];
        head += 1;
        if x == v {
            break;
        }
        for &(nb, w) in adj.get(&x).into_iter().flatten() {
            if nb != u && !parent.contains_key(&nb) {
                parent.insert(nb, (x, w));
                queue.push(nb);
            }
        }
    }
    let mut best: Option<(u64, u32, u32)> = None;
    let mut x = v;
    while x != u {
        let &(p, w) = parent.get(&x).expect("endpoints are tree-connected");
        let key = (w, x.min(p), x.max(p));
        if best.is_none_or(|b| key > b) {
            best = Some(key);
        }
        x = p;
    }
    best.expect("tree path has at least one edge")
}

/// The vertices reachable from `start` in the forest without crossing
/// the (still-present) deleted edge — one side of the split.
fn tree_piece(adj: &FxHashMap<u32, Vec<(u32, u64)>>, start: u32, del: Edge) -> Vec<u32> {
    let mut seen: FxHashSet<u32> = FxHashSet::default();
    seen.insert(start);
    let mut order = vec![start];
    let mut head = 0usize;
    while head < order.len() {
        let x = order[head];
        head += 1;
        for &(nb, _) in adj.get(&x).into_iter().flatten() {
            let crossing = (x.min(nb), x.max(nb)) == (del.u, del.v);
            if !crossing && seen.insert(nb) {
                order.push(nb);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Connectivity, Mst, Problem, SpanningForest};
    use kgraph::{generators, refalgo, Graph};

    fn mutated_graph(g: &Graph, batches: &[UpdateBatch]) -> Graph {
        let mut edges = g.edges().to_vec();
        for b in batches {
            b.apply_to_edge_list(g.n(), &mut edges)
                .expect("valid batch");
        }
        Graph::from_dedup_edges(g.n(), edges)
    }

    #[test]
    fn batch_validation_is_transactional() {
        let g = generators::path(10);
        let cluster = Cluster::builder(2).seed(1).ingest_graph(&g);
        let mut dc = DynamicCluster::wrap(cluster, DynConfig::default());
        // Second op is invalid: nothing of the batch may be staged.
        let bad = UpdateBatch::new().insert(0, 5, 1).insert(3, 4, 9);
        assert_eq!(
            dc.apply(&bad),
            Err(UpdateError::DuplicateEdge { u: 3, v: 4 })
        );
        assert_eq!(dc.pending_half_ops(), 0);
        assert_eq!(dc.batches(), 0);
        // Sequential semantics: delete-then-reinsert in one batch is fine.
        let ok = UpdateBatch::new().delete(3, 4).insert(3, 4, 7);
        dc.apply(&ok).expect("sequentially valid");
        assert_eq!(dc.pending_half_ops(), 4, "two ops, two half-edges each");
        // And the staged view reflects it before compaction.
        assert_eq!(dc.cluster().sharded().staged_edge_weight(3, 4), Some(7));
    }

    #[test]
    fn rejects_the_documented_error_cases() {
        let g = generators::cycle(8);
        let cluster = Cluster::builder(2).seed(2).ingest_graph(&g);
        let mut dc = DynamicCluster::wrap(cluster, DynConfig::default());
        assert_eq!(
            dc.apply(&UpdateBatch::new().insert(3, 3, 1)),
            Err(UpdateError::SelfLoop { v: 3 })
        );
        assert_eq!(
            dc.apply(&UpdateBatch::new().delete(0, 99)),
            Err(UpdateError::OutOfRange { u: 0, v: 99, n: 8 })
        );
        assert_eq!(
            dc.apply(&UpdateBatch::new().delete(2, 5)),
            Err(UpdateError::MissingEdge { u: 2, v: 5 })
        );
    }

    #[test]
    fn incremental_answers_match_fresh_static_runs() {
        let g = generators::planted_components(90, 3, 4, 11);
        let (k, seed) = (4, 13);
        let mut dc = DynamicCluster::wrap(
            Cluster::builder(k).seed(seed).ingest_graph(&g),
            DynConfig::default(),
        );
        let cfg = ConnectivityConfig::default();
        dc.connectivity(&cfg);
        assert_eq!(dc.last_refresh(), RefreshKind::Full);
        // Bridge components 0 and 1, and cut one edge inside component 2.
        let e = g.edges()[g.m() - 1];
        let batch = UpdateBatch::new().insert(0, 89, 3).delete(e.u, e.v);
        let applied = dc.apply(&batch).unwrap();
        assert_eq!(applied.ops, 2);
        assert!(applied.bits > 0);
        let run = dc.connectivity(&cfg);
        assert!(matches!(dc.last_refresh(), RefreshKind::Incremental { .. }));
        assert!(run.report.update.total_bits > 0);
        let mutated = mutated_graph(&g, std::slice::from_ref(&batch));
        let fresh = Cluster::builder(k)
            .seed(seed)
            .ingest_graph(&mutated)
            .run(Connectivity::with(cfg));
        assert_eq!(
            run.output.labels, fresh.output.labels,
            "bit-identical labels"
        );
        assert_eq!(run.output.component_count(), fresh.output.component_count());
        let st = dc.spanning_forest(&MstConfig::default());
        assert_eq!(
            dc.last_refresh(),
            RefreshKind::Cached,
            "no updates in between"
        );
        let fresh_st = Cluster::builder(k)
            .seed(seed)
            .ingest_graph(&mutated)
            .run(SpanningForest::with(MstConfig::default()));
        assert_eq!(
            st.output.edges, fresh_st.output.edges,
            "bit-identical forest"
        );
    }

    #[test]
    fn cached_path_costs_nothing() {
        let g = generators::grid(6, 6);
        let mut dc = DynamicCluster::wrap(
            Cluster::builder(3).seed(5).ingest_graph(&g),
            DynConfig::default(),
        );
        let cfg = ConnectivityConfig::default();
        let first = dc.connectivity(&cfg);
        let again = dc.connectivity(&cfg);
        assert_eq!(dc.last_refresh(), RefreshKind::Cached);
        assert_eq!(again.report.stats.rounds, 0);
        assert_eq!(again.report.stats.total_bits, 0);
        assert_eq!(first.output.labels, again.output.labels);
    }

    #[test]
    fn full_resolve_path_serves_mst() {
        let g = generators::randomize_weights(&generators::gnm(60, 150, 21), 100, 22);
        let (k, seed) = (3, 23);
        let mut dc = DynamicCluster::wrap(
            Cluster::builder(k).seed(seed).ingest_graph(&g),
            DynConfig::default(),
        );
        // Insert the two lightest-possible non-edges (found against the
        // generator output, so the batch always validates).
        let mut batch = UpdateBatch::new();
        let mut added = 0;
        'outer: for u in 0..60u32 {
            for v in (u + 1)..60u32 {
                if g.edge_weight(u, v).is_none() {
                    batch.push(UpdateOp::Insert { u, v, w: 1 });
                    added += 1;
                    if added == 2 {
                        break 'outer;
                    }
                }
            }
        }
        dc.apply(&batch).unwrap();
        let run = dc.run_full(Mst::with(MstConfig::default()));
        assert!(
            run.report.update.total_bits > 0,
            "update phase must be on the report"
        );
        let mutated = mutated_graph(&g, std::slice::from_ref(&batch));
        assert_eq!(
            run.output.total_weight,
            refalgo::forest_weight(&refalgo::kruskal(&mutated)),
            "full re-solve answers on the mutated edge set"
        );
    }

    #[test]
    fn compaction_threshold_bounds_the_log() {
        let g = generators::path(100);
        let mut dc = DynamicCluster::wrap(
            Cluster::builder(2).seed(3).ingest_graph(&g),
            DynConfig::default(),
        );
        // Chords of the path, 64 to a batch: ≈ 3 000 staged half-edges over
        // the two shards, so some shard's log crosses the threshold.
        let chords = (0..100u32).flat_map(|u| (u + 2..100).map(move |v| (u, v)));
        let chords: Vec<(u32, u32)> = chords.take(1536).collect();
        let mut compactions = 0;
        for batch in chords.chunks(64) {
            let batch = (batch.iter()).fold(UpdateBatch::new(), |b, &(u, v)| b.insert(u, v, 2));
            let r = dc.apply(&batch).unwrap();
            compactions += u64::from(r.compacted);
            // Bounded: k shards, each log under threshold + one batch.
            let bound = 2 * (COMPACTION_THRESHOLD + 2 * batch.len());
            assert!(dc.pending_half_ops() < bound, "log must stay bounded");
        }
        assert!(compactions > 0, "threshold must have tripped");
        assert_eq!(dc.compactions(), compactions);
    }

    #[test]
    fn mixed_trajectory_configs_force_a_full_refresh() {
        // Maintained structure from one merge history must never be served
        // under different trajectory knobs — the answers would not match a
        // fresh static run with those knobs.
        let g = generators::random_connected(80, 40, 41);
        let (k, seed) = (4, 43);
        let mut dc = DynamicCluster::wrap(
            Cluster::builder(k).seed(seed).ingest_graph(&g),
            DynConfig::default(),
        );
        dc.connectivity(&ConnectivityConfig::default());
        let odd = MstConfig {
            reps: 7,
            ..MstConfig::default()
        };
        let st = dc.spanning_forest(&odd);
        assert_eq!(
            dc.last_refresh(),
            RefreshKind::Full,
            "different reps must invalidate the maintained structure"
        );
        let fresh = Cluster::builder(k)
            .seed(seed)
            .ingest_graph(&g)
            .run(SpanningForest::with(odd));
        assert_eq!(st.output.edges, fresh.output.edges);
        // And back to the defaults: again a full refresh, again identical.
        let back = dc.connectivity(&ConnectivityConfig::default());
        assert_eq!(dc.last_refresh(), RefreshKind::Full);
        let fresh_conn = Cluster::builder(k)
            .seed(seed)
            .ingest_graph(&g)
            .run(Connectivity::default());
        assert_eq!(back.output.labels, fresh_conn.output.labels);
    }

    #[test]
    fn trace_parsing_round_trips() {
        let text = "# demo\n+ 0 9 5\n- 3 4\n---\n+ 3 4 2\n\n---\n";
        let batches = UpdateBatch::parse_trace(text).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(
            batches[0].ops(),
            &[
                UpdateOp::Insert { u: 0, v: 9, w: 5 },
                UpdateOp::Delete { u: 3, v: 4 }
            ]
        );
        assert_eq!(batches[1].ops(), &[UpdateOp::Insert { u: 3, v: 4, w: 2 }]);
        let err = UpdateBatch::parse_trace("+ 1\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = UpdateBatch::parse_trace("+ 1 2\n* 3 4\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn deletions_that_split_components_are_re_solved() {
        // A path: deleting an interior edge splits the component; the
        // incremental path must discover the split and match fresh runs.
        let g = generators::path(50);
        let (k, seed) = (4, 31);
        let cfg = ConnectivityConfig::default();
        let mut dc = DynamicCluster::wrap(
            Cluster::builder(k).seed(seed).ingest_graph(&g),
            DynConfig::default(),
        );
        dc.connectivity(&cfg);
        let batch = UpdateBatch::new().delete(24, 25);
        dc.apply(&batch).unwrap();
        let run = dc.connectivity(&cfg);
        assert_eq!(run.output.component_count(), 2);
        let mutated = mutated_graph(&g, std::slice::from_ref(&batch));
        let fresh = Cluster::builder(k)
            .seed(seed)
            .ingest_graph(&mutated)
            .run(Connectivity::with(cfg));
        assert_eq!(run.output.labels, fresh.output.labels);
    }

    /// A controllable weighted instance for the MST tiers: three
    /// components with distinct weights everywhere.
    ///
    /// ```text
    /// X: 0-1(10) 1-2(11) 2-3(12) 3-4(13) 4-5(14)  + 0-2(50) 2-4(60)
    /// Y: 6-7(20) 7-8(21) 8-9(22) 9-6(23)
    /// Z: 10-11(30)
    /// ```
    fn mst_playground() -> Graph {
        Graph::from_edges(
            12,
            [
                (0, 1, 10),
                (1, 2, 11),
                (2, 3, 12),
                (3, 4, 13),
                (4, 5, 14),
                (0, 2, 50),
                (2, 4, 60),
                (6, 7, 20),
                (7, 8, 21),
                (8, 9, 22),
                (9, 6, 23),
                (10, 11, 30),
            ],
        )
    }

    fn assert_mst_matches_fresh(
        dc: &mut DynamicCluster,
        applied: &[UpdateBatch],
        g: &Graph,
        k: usize,
        seed: u64,
        what: &str,
    ) {
        let cfg = MstConfig::default();
        let run = dc.mst(&cfg);
        let mutated = mutated_graph(g, applied);
        let fresh = Cluster::builder(k)
            .seed(seed)
            .ingest_graph(&mutated)
            .run(Mst::with(cfg));
        assert_eq!(run.output.edges, fresh.output.edges, "{what}: forest edges");
        assert_eq!(
            run.output.total_weight, fresh.output.total_weight,
            "{what}: weight"
        );
        assert_eq!(
            run.output.total_weight,
            refalgo::forest_weight(&refalgo::kruskal(&mutated)),
            "{what}: Kruskal oracle"
        );
        assert!(
            run.output
                .edges
                .windows(2)
                .all(|p| (p[0].u, p[0].v) != (p[1].u, p[1].v)),
            "{what}: endpoint-unique forest"
        );
    }

    #[test]
    fn incremental_mst_covers_every_tier() {
        let g = mst_playground();
        let (k, seed) = (3, 61);
        let mut dc = DynamicCluster::wrap(
            Cluster::builder(k).seed(seed).ingest_graph(&g),
            DynConfig::default(),
        );
        dc.mst(&MstConfig::default());
        assert_eq!(dc.last_refresh(), RefreshKind::Full);
        let mut applied: Vec<UpdateBatch> = Vec::new();
        // Tier: cycle replacement. 1-3(5) closes the cycle 1-2-3 and
        // evicts 2-3(12); 5-6(99) joins X and Y (same group, no cycle).
        let b = UpdateBatch::new().insert(1, 3, 5).insert(5, 6, 99);
        dc.apply(&b).unwrap();
        applied.push(b);
        assert_mst_matches_fresh(&mut dc, &applied, &g, k, seed, "cycle tier");
        assert!(matches!(dc.last_refresh(), RefreshKind::Incremental { .. }));
        // Tier: replacement-edge search with a survivor. Deleting tree
        // edge 7-8 splits {…,7} from {8,9}; the non-tree edge 9-6(23)
        // crosses the cut and must be swapped in.
        let b = UpdateBatch::new().delete(7, 8);
        dc.apply(&b).unwrap();
        applied.push(b);
        assert_mst_matches_fresh(&mut dc, &applied, &g, k, seed, "cut tier (replacement)");
        assert!(matches!(dc.last_refresh(), RefreshKind::Incremental { .. }));
        // Tier: replacement-edge search with a genuine split. 10-11 is a
        // bridge: the zero sketch sum certifies there is no crossing edge.
        let b = UpdateBatch::new().delete(10, 11);
        dc.apply(&b).unwrap();
        applied.push(b);
        assert_mst_matches_fresh(&mut dc, &applied, &g, k, seed, "cut tier (split)");
        // No-op tier: deleting the non-tree edge 0-2(50) leaves the MST
        // untouched.
        let b = UpdateBatch::new().delete(0, 2);
        dc.apply(&b).unwrap();
        applied.push(b);
        assert_mst_matches_fresh(&mut dc, &applied, &g, k, seed, "non-tree delete");
        // Engine tier: a reweight (tree-delete + reinsert) plus a second
        // tree deletion in the same component.
        let b = UpdateBatch::new()
            .delete(4, 5)
            .insert(4, 5, 200)
            .delete(8, 9);
        dc.apply(&b).unwrap();
        applied.push(b);
        assert_mst_matches_fresh(&mut dc, &applied, &g, k, seed, "engine tier");
        assert!(matches!(dc.last_refresh(), RefreshKind::Incremental { .. }));
        // Cached tier: an insert-then-delete nets out to nothing.
        let b = UpdateBatch::new().insert(0, 2, 50).delete(0, 2);
        dc.apply(&b).unwrap();
        applied.push(b);
        let run = dc.mst(&MstConfig::default());
        assert_eq!(dc.last_refresh(), RefreshKind::Cached);
        assert_eq!(run.report.stats.rounds, 0);
        assert_eq!(run.report.stats.total_bits, 0);
    }

    #[test]
    fn incremental_mst_routes_new_edges_under_criterion_b() {
        let g = mst_playground();
        let (k, seed) = (3, 67);
        let cfg = MstConfig {
            criterion: crate::mst::OutputCriterion::BothEndpoints,
            ..MstConfig::default()
        };
        let mut dc = DynamicCluster::wrap(
            Cluster::builder(k).seed(seed).ingest_graph(&g),
            DynConfig::default(),
        );
        let full = dc.mst(&cfg);
        assert!(full.output.endpoint_routing.is_some());
        let batch = UpdateBatch::new().insert(1, 3, 5);
        dc.apply(&batch).unwrap();
        let run = dc.mst(&cfg);
        assert!(matches!(dc.last_refresh(), RefreshKind::Incremental { .. }));
        let routing = run
            .output
            .endpoint_routing
            .expect("a swapped-in edge must be routed");
        assert!(routing.total_bits > 0);
        assert!(
            routing.total_bits < full.output.endpoint_routing.unwrap().total_bits,
            "only the new edge is routed, not the whole forest"
        );
        let mutated = mutated_graph(&g, std::slice::from_ref(&batch));
        let fresh = Cluster::builder(k)
            .seed(seed)
            .ingest_graph(&mutated)
            .run(Mst::with(cfg));
        assert_eq!(run.output.edges, fresh.output.edges);
    }

    #[test]
    fn single_batch_reweight_agrees_everywhere() {
        // Satellite of ISSUE 10: a delete-then-reinsert with a different
        // weight inside ONE batch must flow identically through staged
        // compaction, the `apply_to_edge_list` oracle, and the
        // incremental conn + MST paths — and never leave two copies of
        // the edge behind.
        let g = mst_playground();
        let (k, seed) = (3, 71);
        let mut dc = DynamicCluster::wrap(
            Cluster::builder(k).seed(seed).ingest_graph(&g),
            DynConfig::default(),
        );
        let conn_cfg = ConnectivityConfig::default();
        let mst_cfg = MstConfig::default();
        dc.connectivity(&conn_cfg);
        dc.mst(&mst_cfg);
        let batch = UpdateBatch::new().delete(2, 3).insert(2, 3, 1);
        dc.apply(&batch).unwrap();
        // Staged overlay sees the reweight before compaction…
        assert_eq!(dc.cluster().sharded().staged_edge_weight(2, 3), Some(1));
        // …and the reference oracle agrees: one copy, new weight.
        let mutated = mutated_graph(&g, std::slice::from_ref(&batch));
        let copies: Vec<_> = mutated
            .edges()
            .iter()
            .filter(|e| (e.u, e.v) == (2, 3))
            .collect();
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0].w, 1);
        let conn = dc.connectivity(&conn_cfg);
        assert!(matches!(dc.last_refresh(), RefreshKind::Incremental { .. }));
        let forest = dc.forest().expect("solved");
        assert!(
            forest
                .windows(2)
                .all(|p| (p[0].u, p[0].v) != (p[1].u, p[1].v)),
            "reweight must not leave a stale forest copy"
        );
        assert_eq!(
            forest.iter().filter(|e| (e.u, e.v) == (2, 3)).count(),
            1,
            "exactly the fresh copy survives the splice"
        );
        let fresh_conn = Cluster::builder(k)
            .seed(seed)
            .ingest_graph(&mutated)
            .run(Connectivity::with(conn_cfg));
        assert_eq!(conn.output.labels, fresh_conn.output.labels);
        let mst = dc.mst(&mst_cfg);
        let fresh_mst = Cluster::builder(k)
            .seed(seed)
            .ingest_graph(&mutated)
            .run(Mst::with(mst_cfg));
        assert_eq!(mst.output.edges, fresh_mst.output.edges);
        assert!(
            mst.output
                .edges
                .iter()
                .any(|e| (e.u, e.v, e.w) == (2, 3, 1)),
            "the reweighted edge is now light enough for the MST"
        );
    }

    /// Poisons `v`'s maintained incidence sketch with a phantom edge, so
    /// the next certification over `v`'s component cannot cancel to zero
    /// and must escalate.
    fn poison_sketch(dc: &mut DynamicCluster, v: u32) {
        let DynamicCluster {
            sketches,
            fns,
            home,
            ..
        } = dc;
        let m = home.home(v);
        sketches[m]
            .get_mut(&v)
            .expect("home vertex has a sketch")
            .add_incident_edge(fns, v, v ^ 1);
    }

    fn assert_tiles(rows: &[kmachine::trace::PhaseSummary], stats: &CommStats, what: &str) {
        let rounds: u64 = rows.iter().map(|r| r.rounds).sum();
        let bits: u64 = rows.iter().map(|r| r.bits).sum();
        assert_eq!(rounds, stats.rounds, "{what}: breakdown rounds must tile");
        assert_eq!(bits, stats.total_bits, "{what}: breakdown bits must tile");
    }

    /// The absolute ledger of a run: escalation is reachable only by
    /// poisoning a private sketch, so `tests/run_ledger.rs` cannot pin it.
    fn ledger_of(stats: &CommStats) -> (u64, u64, u64, u64) {
        (
            stats.rounds,
            stats.total_bits,
            stats.supersteps,
            stats.messages,
        )
    }

    #[test]
    fn conn_escalation_is_a_rolled_back_breakdown_span() {
        let g = generators::planted_components(60, 2, 4, 51);
        let (k, seed) = (3, 53);
        let trace = Tracer::recording();
        let mut dc = DynamicCluster::wrap(
            Cluster::builder(k).seed(seed).ingest_graph(&g),
            DynConfig {
                trace: trace.clone(),
                ..DynConfig::default()
            },
        );
        let cfg = ConnectivityConfig {
            trace: trace.clone(),
            ..ConnectivityConfig::default()
        };
        dc.connectivity(&cfg);
        let e = g.edges()[0];
        poison_sketch(&mut dc, e.u);
        let batch = UpdateBatch::new().delete(e.u, e.v);
        dc.apply(&batch).unwrap();
        let run = dc.connectivity(&cfg);
        assert_eq!(
            dc.last_refresh(),
            RefreshKind::Full,
            "certification must escalate to a full refresh"
        );
        // The answer still matches a fresh static run (the escape hatch).
        let mutated = mutated_graph(&g, std::slice::from_ref(&batch));
        let fresh = Cluster::builder(k)
            .seed(seed)
            .ingest_graph(&mutated)
            .run(Connectivity::default());
        assert_eq!(run.output.labels, fresh.output.labels);
        // And the merged stats stay exactly tiled: the aborted attempt is
        // a first-class rolled-back span, the full refresh follows it.
        let rows = run.report.phase_breakdown.as_deref().expect("tracing on");
        assert_tiles(rows, &run.report.stats, "conn escalation");
        assert_eq!(
            ledger_of(&run.report.stats),
            (114, 31_464, 78, 554),
            "conn escalation: attempt + full refresh, pinned like tests/fixtures/run_ledger.txt"
        );
        assert!(
            rows.iter().any(|r| r.rolled_back && r.label == "certify"),
            "the failed certification must be a rolled-back certify row"
        );
        assert!(
            rows.iter().any(|r| !r.rolled_back),
            "the full refresh rows stay live"
        );
    }

    #[test]
    fn mst_escalation_is_a_rolled_back_breakdown_span() {
        let g = mst_playground();
        let (k, seed) = (3, 73);
        let trace = Tracer::recording();
        let mut dc = DynamicCluster::wrap(
            Cluster::builder(k).seed(seed).ingest_graph(&g),
            DynConfig {
                trace: trace.clone(),
                ..DynConfig::default()
            },
        );
        let cfg = MstConfig {
            trace: trace.clone(),
            ..MstConfig::default()
        };
        dc.mst(&cfg);
        poison_sketch(&mut dc, 7);
        let batch = UpdateBatch::new().delete(7, 8);
        dc.apply(&batch).unwrap();
        let run = dc.mst(&cfg);
        assert_eq!(
            dc.last_refresh(),
            RefreshKind::Full,
            "certification must escalate to a full MST re-solve"
        );
        let mutated = mutated_graph(&g, std::slice::from_ref(&batch));
        let fresh = Cluster::builder(k)
            .seed(seed)
            .ingest_graph(&mutated)
            .run(Mst::with(MstConfig::default()));
        assert_eq!(run.output.edges, fresh.output.edges);
        let rows = run.report.phase_breakdown.as_deref().expect("tracing on");
        assert_tiles(rows, &run.report.stats, "mst escalation");
        assert_eq!(
            ledger_of(&run.report.stats),
            (96, 12_131, 34, 106),
            "mst escalation: attempt + full re-solve, pinned like tests/fixtures/run_ledger.txt"
        );
        assert!(
            rows.iter().any(|r| r.rolled_back && r.label == "mst_cut"),
            "the aborted replacement search must be a rolled-back row"
        );
        assert!(rows.iter().any(|r| !r.rolled_back));
    }

    #[test]
    fn incremental_mst_breakdown_tiles_clean_runs() {
        let g = mst_playground();
        let (k, seed) = (3, 79);
        let trace = Tracer::recording();
        let mut dc = DynamicCluster::wrap(
            Cluster::builder(k).seed(seed).ingest_graph(&g),
            DynConfig {
                trace: trace.clone(),
                ..DynConfig::default()
            },
        );
        let cfg = MstConfig {
            trace: trace.clone(),
            ..MstConfig::default()
        };
        dc.mst(&cfg);
        let batch = UpdateBatch::new().insert(1, 3, 5).delete(10, 11);
        dc.apply(&batch).unwrap();
        let run = dc.mst(&cfg);
        assert!(matches!(dc.last_refresh(), RefreshKind::Incremental { .. }));
        let rows = run.report.phase_breakdown.as_deref().expect("tracing on");
        assert_tiles(rows, &run.report.stats, "incremental mst");
        for label in ["mst_cycle", "mst_cut", "certify"] {
            assert!(
                rows.iter().any(|r| r.label == label && !r.rolled_back),
                "row {label} must be present and live"
            );
        }
    }
}
