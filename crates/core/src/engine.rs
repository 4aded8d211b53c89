//! The shared Borůvka-style engine behind connectivity (§2) and MST (§3.1).
//!
//! The engine runs against [`kgraph::ShardedGraph`] — each simulated
//! machine touches only its own [`kgraph::ShardView`] (its home vertices
//! and their incident edges), exactly the information the k-machine model
//! grants it. No machine ever holds a reference to a central `Graph`; the
//! orchestrator merely schedules the per-machine steps and moves messages.
//!
//! One phase of the engine (paper §2.1):
//!
//! 1. **Outgoing-edge selection** (§2.3–§2.4). Every machine groups its
//!    vertices by component label into *parts* and sends each part to the
//!    component's random proxy machine: as one linear sketch, or as the
//!    half-edges that sketch would hash when they are fewer bits (the proxy
//!    hashes them itself). The proxy sums the part sketches — intra-component
//!    edges cancel by linearity — and samples a candidate outgoing edge. For
//!    MST, a `Θ(log n)`-iteration elimination loop repeats the sampling with
//!    sketches filtered to strictly lighter edges, converging on the
//!    minimum-weight outgoing edge (MWOE) w.h.p.
//! 2. **DRR** (§2.5). Each component draws a shared-randomness rank and
//!    connects to the component across its chosen edge iff that component's
//!    rank is larger, yielding a forest of `O(log n)`-depth trees (Lemma 6).
//! 3. **Merging.** Proxies pointer-jump to their tree's root label and
//!    broadcast a relabel command to every machine holding a part. (A
//!    non-converged jump relabels to an ancestor — still within the same
//!    true component, so correctness is unaffected; only progress slows.)
//!
//! Phase 0 uses the paper's own setup ("each node ... is also the component
//! proxy of its own component", §2.1): singleton components are proxied by
//! their home machines, so sketch aggregation is local and free; the sample
//! a singleton's sketch would return is a uniformly random incident edge
//! (MST: the minimum-key incident edge), which the home machine computes
//! directly.
//!
//! **Stopping and sketch-function reuse** (DESIGN.md §3.7): by §2.3
//! linearity a merged iteration-0 sketch is zero exactly when no edge
//! leaves the component, and the run ends at the first phase in which no
//! component is *live* (non-zero sketch; phase 0: a neighbour; contracted:
//! an adjacency). A live component whose query failed samples again. The
//! iteration-0 functions are re-derived once per *epoch* of
//! `SKETCH_REUSE_PERIOD` phases, which bounds how long such a failure can
//! repeat and charges the §2.2 `Θ(log² n)`-bit seed distribution once per
//! epoch. Within an epoch a part's sketch is the sum of its vertices', so a
//! machine keeps the part sketches it built (`PartMemo`) and the next phase
//! adds them up, hashing only vertices whose part shipped its edges.
//!
//! All communication flows through the crate's one network runtime
//! (`net::Net` over [`kmachine::Bsp`]), so every round and bit is accounted
//! exactly as in the paper's Lemma-1 analysis.
//!
//! **Fault tolerance** (DESIGN.md §3.10): with a
//! [`kmachine::fault::FaultPlan`] on [`EngineConfig::faults`], every
//! superstep runs the reliable ack/retransmit protocol (message-level
//! faults are masked below the engine), and scheduled machine crashes are
//! survived by phase checkpoints: labels, emitted forest edges and the
//! sketch-function epoch are snapshotted at each phase boundary, a
//! crashed machine re-reads its shard from durable storage
//! ([`kgraph::ShardedGraph::rebuild_shard`]), and the interrupted phase is
//! re-entered — replaying the exact fault-free trajectory, so outputs are
//! bit-identical to the fault-free run (`tests/chaos.rs`).

use crate::messages::{id_bits, EdgeKey, Label, Payload};
use crate::mst::OutputCriterion;
use crate::net::{Mail, Net, Out, Price};
use crate::proxy::ProxyScheme;
use kgraph::ShardedGraph;
use kmachine::bandwidth::Bandwidth;
use kmachine::det;
use kmachine::fault::FaultPlan;
use kmachine::message::{Encoding, Envelope};
use kmachine::metrics::CommStats;
use kmachine::par::par_for_each_state;
use kmachine::trace::{TraceEvent, Tracer};
use kmachine::transport::TransportSel;
use krand::shared::{SharedRandomness, Use};
use ksketch::{L0Sketch, SketchFns, SketchParams};
use rustc_hash::{FxHashMap, FxHashSet};
use std::cmp::Reverse;
use std::sync::Arc;

/// What the engine is computing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Connected components: one uniform outgoing edge per phase.
    Connectivity,
    /// Minimum spanning tree: MWOE via the edge-elimination loop.
    Mst,
    /// A (not necessarily minimum) spanning forest: connectivity's uniform
    /// outgoing edges, with the merge edges recorded as output — the
    /// paper's `O~(n/k²)` spanning-tree claim (§1, §3.1) without the
    /// `Θ(log n)` elimination overhead.
    SpanningForest,
}

/// How components pick their merge partner (§2.5 and footnote 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MergeStrategy {
    /// Distributed random ranking: merge toward the sampled neighbor iff
    /// its rank is larger — `O(log n)`-depth trees (Lemma 6).
    #[default]
    Drr,
    /// Footnote 9's "alternate and simpler idea": each component draws a
    /// bit; a merge happens only from a 0-component into a 1-component.
    /// Trees are stars (depth 1, no pointer-jumping iterations needed) but
    /// only ~1/4 of sampled edges merge per phase — the E17 ablation
    /// quantifies the trade.
    CoinFlip,
}

/// Epoch length (in phases) of iteration-0 sketch-function reuse.
const SKETCH_REUSE_PERIOD: u32 = 4;

/// A run fans its local closures out over `kmachine::par` workers only if
/// its graph has this many half-edges; below, they run inline. The measured
/// 2-core break-even (DESIGN.md §6).
const FAN_OUT_MIN_HALF_EDGES: usize = 1 << 15;

/// How many times one phase may be re-entered after crashes before the run
/// gives up. Each crash event fires once, so retries are bounded by the
/// plan — this is the safety valve.
const MAX_PHASE_RETRIES: u32 = 8;

/// The run configuration of every engine-backed problem — connectivity,
/// MST, spanning forest, min cut, REP-MST and the dynamic layer's solves
/// all take this one struct (`ConnectivityConfig`, `MstConfig` and
/// `MinCutConfig` are aliases of it). DESIGN.md §3.15 tabulates each
/// knob's default, its reader, and what exercises a non-default value.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Per-link bandwidth policy.
    pub bandwidth: Bandwidth,
    /// Sketch repetitions (failure probability decays exponentially).
    pub reps: u32,
    /// Charge the §2.2 shared-randomness distribution cost.
    pub charge_shared_randomness: bool,
    /// Run the §2.6 component-counting output protocol at the end. Read by
    /// connectivity only: the forest problems never run it and min cut's
    /// probes always do.
    pub run_output_protocol: bool,
    /// Hard phase cap; `None` is the paper's `12 log₂ n`.
    pub max_phases: Option<u32>,
    /// Merge-partner selection rule (§2.5 vs footnote 9).
    pub merge: MergeStrategy,
    /// Which §1.1 communication restriction to charge rounds under.
    pub cost_model: kmachine::bandwidth::CostModel,
    /// Deterministic fault-injection plan the run must survive
    /// (DESIGN.md §3.10). Always installed reliable; phase checkpoints
    /// are armed whenever the plan schedules a crash.
    pub faults: Option<FaultPlan>,
    /// Supergraph contraction after phase 0 (DESIGN.md §3.11): later
    /// phases compute exact local MWOEs on the deduped supergraph — same
    /// outputs, no sketches.
    pub contract: bool,
    /// Wire encoding the superstep layer charges bandwidth under.
    /// Accounting only — never the trajectory or outputs.
    pub encoding: Encoding,
    /// Byte transport carrying each superstep window (DESIGN.md §3.12).
    /// Outputs and logical [`CommStats`] are transport-independent.
    pub transport: TransportSel,
    /// Structured event tracer (DESIGN.md §3.14). Never changes outputs
    /// or [`CommStats`].
    pub trace: Tracer,
    /// Which Theorem 2 output criterion MST satisfies. Read by the MST
    /// problems only.
    pub criterion: OutputCriterion,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            bandwidth: Bandwidth::default(),
            reps: 5,
            charge_shared_randomness: true,
            run_output_protocol: true,
            max_phases: None,
            merge: MergeStrategy::Drr,
            cost_model: Default::default(),
            faults: None,
            contract: false,
            encoding: Encoding::Naive,
            transport: TransportSel::Sim,
            trace: Tracer::off(),
            criterion: OutputCriterion::AnyMachine,
        }
    }
}

impl EngineConfig {
    /// `max_phases`, or the paper's `12 log₂ n` (+2) for `n` vertices.
    pub(crate) fn phase_cap(&self, n: usize) -> u32 {
        self.max_phases.unwrap_or(12 * id_bits(n.max(2)) as u32 + 2)
    }
}

/// Everything the engine produces: the distributed outputs plus the full
/// communication accounting and instrumentation for the experiments.
#[derive(Clone, Debug)]
pub struct EngineResult {
    /// Final component label of every vertex (gathered from home machines
    /// and *canonicalized*: each component is labeled by the smallest
    /// vertex id it contains). Canonical labels depend only on the
    /// component partition — not on the merge trajectory — so two runs
    /// that compute the same partition report bit-identical labels, which
    /// is what lets the dynamic layer splice incremental re-solves against
    /// fresh static runs. In a run on an induced subgraph
    /// ([`ShardedGraph::induced`]) entries for the vertices it dropped are
    /// left at `0` and must be ignored.
    pub labels: Vec<Label>,
    /// Communication statistics (rounds are the model's cost measure).
    pub stats: CommStats,
    /// Phases executed (Lemma 7 predicts `O(log n)`).
    pub phases: u32,
    /// Distinct labels at the start of each phase.
    pub phase_components: Vec<usize>,
    /// Max DRR tree depth per phase (Lemma 6 predicts `O(log n)`).
    pub drr_depths: Vec<u32>,
    /// MST edges, flattened over machines (`Mode::Mst` only).
    pub mst_edges: Vec<(u32, u32, u64)>,
    /// How many MST edges each machine output (output criterion (a)).
    pub mst_edges_per_machine: Vec<usize>,
    /// Component count from the §2.6 output protocol, if run.
    pub counted_components: Option<u64>,
    /// Part sketches built, where the part lives or at its proxy.
    pub sketch_builds: u64,
    /// Part sketches that summed at least one memoised sketch of the
    /// previous phase (DESIGN.md §3.7).
    pub memo_hits: u64,
}

impl EngineResult {
    /// The number of distinct final labels (ground-truth comparable).
    pub fn component_count(&self) -> usize {
        let mut set: Vec<Label> = self.labels.clone();
        set.sort_unstable();
        set.dedup();
        set.len()
    }
}

/// The slice of a machine's state that lives on its durable storage
/// (DESIGN.md §3.10): a phase checkpoint is a clone of it and a rollback
/// restores it. Everything else a machine holds is per-phase state, which
/// a re-entered phase rebuilds identically.
#[derive(Clone, Default)]
struct Durable {
    /// Component label of every home vertex, in
    /// [`kgraph::ShardView::verts`] order.
    labels: Vec<Label>,
    /// Forest edges this machine has output.
    mst_out: Vec<(u32, u32, u64)>,
    /// Supergraph shard (§3.11): the supernodes this machine owns, keyed
    /// by their current label. Empty until contraction builds it. Durable
    /// because labels alone cannot reconstruct the deduped contracted edge
    /// set a crashed contracted phase needs back.
    supers: FxHashMap<Label, SuperNode>,
}

/// A phase-boundary snapshot (see [`Engine::take_checkpoint`]): every
/// machine's [`Durable`] state plus the run-level state a phase may move.
struct PhaseCheckpoint {
    machines: Vec<Durable>,
    /// The epoch sketch functions cached at the boundary. Restoring them
    /// (instead of re-deriving) keeps the §2.2 distribution charge exactly
    /// where the fault-free run pays it: function seeds are part of each
    /// machine's durable checkpoint, so a re-entered phase never
    /// re-distributes mid-epoch. Shared, not copied: the tables are `Θ(n)`.
    cached_fns: Option<(u32, Arc<SketchFns>)>,
    /// Whether the supergraph had been built at the boundary.
    contracted: bool,
}

/// One contracted component (§3.11), stored at its owner machine
/// `home(label)`. Adjacency is kept symmetric: an inter-component edge
/// appears in both endpoints' supernodes, which is what lets merge renames
/// be announced without any broadcast.
#[derive(Clone, Debug, Default)]
struct SuperNode {
    /// Machines hosting original vertices of this component (deduped),
    /// for relabel broadcasts back into the vertex space.
    parts: Vec<u16>,
    /// Deduped adjacency: neighbor label → the lightest original edge
    /// `(w, ou, ov)` crossing to it, minimal by the tie-free key
    /// `(w, min(ou,ov), max(ou,ov))` — so MST output stays exact.
    adj: FxHashMap<Label, (u64, u32, u32)>,
}

impl SuperNode {
    /// Min-merges one crossing edge into the adjacency.
    fn add_edge(&mut self, nb: Label, w: u64, ou: u32, ov: u32) {
        self.adj
            .entry(nb)
            .and_modify(|cur| {
                if edge_key(w, ou, ov) < edge_key(cur.0, cur.1, cur.2) {
                    *cur = (w, ou, ov);
                }
            })
            .or_insert((w, ou, ov));
    }

    /// Records a hosting machine.
    fn add_part(&mut self, m: u16) {
        if !self.parts.contains(&m) {
            self.parts.push(m);
        }
    }
}

/// The tie-free total order on original edges: `(w, min, max)`.
fn edge_key(w: u64, ou: u32, ov: u32) -> EdgeKey {
    (w, ou.min(ov), ou.max(ov))
}

/// Rewrites a supernode's adjacency in place under a label-rename map: only
/// renamed neighbors are taken out and added back under their new label.
/// Colliding entries (distinct old keys merged into one root, or a root
/// already there) min-merge by the tie-free edge key, in any order.
fn rename_adj(node: &mut SuperNode, map: &FxHashMap<Label, Label>) {
    let mut renamed = Vec::new();
    det::retain_where(&mut node.adj, |nb, &mut edge| match map.get(nb) {
        Some(&new) => {
            renamed.push((new, edge));
            false
        }
        None => true,
    });
    for (nb, (w, ou, ov)) in renamed {
        node.add_edge(nb, w, ou, ov);
    }
}

/// Applies an inbox's vertex-space renames ([`Payload::Relabel`]) to a
/// machine's labels and returns its supergraph rename map
/// ([`Payload::SuperRelabel`]).
fn apply_relabels(labels: &mut [Label], inbox: Mail) -> FxHashMap<Label, Label> {
    let mut smap = FxHashMap::default();
    let mut vmap = FxHashMap::default();
    for env in inbox {
        match env.payload {
            Payload::SuperRelabel { old, new } => {
                smap.insert(old, new);
            }
            Payload::Relabel { old, new } => {
                vmap.insert(old, new);
            }
            _ => {}
        }
    }
    for lab in labels {
        if let Some(&nl) = vmap.get(lab) {
            *lab = nl;
        }
    }
    smap
}

/// The distinct labels of a machine's vertices, ascending.
fn distinct_labels(labels: &[Label]) -> Vec<Label> {
    let mut distinct = labels.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct
}

/// Per-component state held at its proxy machine during one phase.
#[derive(Clone, Debug, Default)]
struct ProxyComp {
    /// The component's own label (the key it is stored under).
    own: Label,
    /// Machines holding parts of this component (for relabel broadcasts).
    parts: Vec<u16>,
    /// Merged component sketch (phases ≥ 1).
    sketch: Option<L0Sketch>,
    /// Candidate outgoing edge currently being probed (canonical u < v).
    candidate: Option<(u32, u32)>,
    /// Probe replies for the candidate's two endpoints: (label, exists, w).
    info: [Option<(Label, bool, u64)>; 2],
    /// Resolved outgoing edge of this phase: (u, v, w) with the guarantee
    /// that exactly one endpoint is internal. MST: the lightest verified
    /// outgoing edge so far — its key is the next elimination threshold —
    /// and the MWOE once elimination is done.
    chosen: Option<(u32, u32, u64)>,
    /// Label on the other side of `chosen`.
    other_label: Option<Label>,
    /// Whether an edge leaves the component (module doc, "Stopping").
    live: bool,
    /// MST: elimination finished for this component.
    elim_done: bool,
    /// MST: consecutive failed/empty samples of a live component, done only
    /// after two strikes, so one Monte-Carlo sampling failure (≈0.1% per
    /// query at 5 repetitions) cannot end it on a non-minimal edge.
    none_streak: u8,
    /// DRR parent (merge target), if any.
    parent: Option<Label>,
    /// Pointer-jumping state.
    ptr: Label,
    /// Whether `ptr` is known to be the tree root.
    ptr_done: bool,
}

impl ProxyComp {
    fn new(label: Label, parts: Vec<u16>) -> Self {
        ProxyComp {
            own: label,
            parts,
            ptr: label,
            ptr_done: true,
            ..ProxyComp::default()
        }
    }

    /// Resolves the outgoing edge to the one keyed `(w, u, v)`, which
    /// crosses to component `other`.
    fn choose(&mut self, (w, u, v): EdgeKey, other: Label) {
        self.chosen = Some((u, v, w));
        self.other_label = Some(other);
    }
}

/// The part sketches a machine built at its last iteration 0: its labels
/// then, and the sketches by label. Each sketch is taken once, by the part
/// its old part landed in.
type PartMemo = (Vec<Label>, FxHashMap<Label, Option<L0Sketch>>);

/// One part of a machine's vertices being grouped for its proxy: the
/// half-edges it ships or hashes, and the memoised sketches of the old
/// parts that landed in it.
#[derive(Default)]
struct Part {
    edges: Vec<(u32, u32)>,
    memoised: Vec<L0Sketch>,
}

/// One machine's state: its vertices' labels, the components it proxies
/// this phase, and its mailboxes.
#[derive(Default)]
struct MachineState {
    id: usize,
    /// What a phase checkpoint keeps.
    dur: Durable,
    proxied: FxHashMap<Label, ProxyComp>,
    /// MST elimination: thresholds received for the parts this machine
    /// holds. Presence means "this component is still eliminating";
    /// `Some(key)` bounds the rebuild, `None` means rebuild unfiltered
    /// (the component is retrying after a failed first sample).
    thresholds: FxHashMap<Label, Option<EdgeKey>>,
    /// Part sketches this machine built (its own, or from shipped edges).
    sketch_builds: u64,
    /// Soft state: never checkpointed, dropped on rollback.
    memo: Option<PartMemo>,
    /// Part sketches built from at least one memoised sketch.
    memo_hits: u64,
    /// This machine's bit of the convergence vote in flight; M0's is the
    /// tally once the up leg has reached it ([`Engine::step_vote`]).
    flag: bool,
    /// Mailboxes, owned by the step primitives: closures see the inbox as
    /// an argument and the outbox only through `Out::send`.
    inbox: Mail,
    outbox: Mail,
}

/// The public facts of the run — everything a machine's local computation
/// may read besides its own state. Shared by reference with every closure
/// of a step, while the machine states are borrowed mutably.
struct Cx<'g> {
    g: &'g ShardedGraph,
    mode: Mode,
    merge: MergeStrategy,
    k: usize,
    n: usize,
    /// Whether the supergraph has been built (contracted phases active).
    contracted: bool,
    shared: SharedRandomness,
    scheme: ProxyScheme,
    params: SketchParams,
}

impl Cx<'_> {
    /// The machine holding component `label`'s phase-`p` state: its owner
    /// `home(label)` once contracted, its random proxy before.
    fn holder(&self, p: u32, label: Label) -> usize {
        let part = self.g.partition();
        if self.contracted {
            part.home(label as u32)
        } else {
            self.scheme.proxy_of(part, p, 0, label)
        }
    }
}

/// One machine's local computation of a step: `f` gets the inbox the
/// previous step delivered, and its sends — priced at the network's live
/// widths — collect in the machine's outbox.
fn run_local(
    cx: &Cx,
    st: &mut MachineState,
    price: Price,
    f: impl FnOnce(&Cx, &mut MachineState, Mail, &mut Out),
) {
    let inbox = std::mem::take(&mut st.inbox);
    let mut out = price.out(st.id, std::mem::take(&mut st.outbox));
    f(cx, st, inbox, &mut out);
    st.outbox = out.into_mail();
}

/// The engine itself. Borrows the sharded input graph (which carries the
/// partition) for the run.
pub struct Engine<'g> {
    cx: Cx<'g>,
    cfg: EngineConfig,
    net: Net,
    machines: Vec<MachineState>,
    /// Whether `step` / `each` fan out (`FAN_OUT_MIN_HALF_EDGES`).
    fan_out: bool,
    /// A part with fewer half-edges to hash ships them as `PartEdges`
    /// instead of its sketch ([`edge_cap`]); `0` sketches every part.
    edge_cap: usize,
    /// The iteration-0 sketch functions of the current epoch, keyed by tag.
    cached_fns: Option<(u32, Arc<SketchFns>)>,
    phase_components: Vec<usize>,
    drr_depths: Vec<u32>,
}

impl<'g> Engine<'g> {
    /// Builds an engine for one run. `seed` drives all randomness.
    pub fn new(g: &'g ShardedGraph, mode: Mode, seed: u64, cfg: EngineConfig) -> Self {
        let k = g.k();
        let n = g.n();
        let shared = SharedRandomness::new(seed);
        let net = Net::new(&cfg, k, n);
        let machines: Vec<MachineState> = (0..k)
            .map(|id| {
                let dur = Durable {
                    labels: g.view(id).verts().iter().map(|&v| v as Label).collect(),
                    ..Durable::default()
                };
                MachineState {
                    id,
                    dur,
                    ..MachineState::default()
                }
            })
            .collect();
        let params = SketchParams::for_graph(n, cfg.reps);
        Engine {
            fan_out: g.total_half_edges() >= FAN_OUT_MIN_HALF_EDGES,
            edge_cap: edge_cap(params, net.price().l),
            cx: Cx {
                g,
                mode,
                merge: cfg.merge,
                k,
                n,
                contracted: false,
                shared,
                scheme: ProxyScheme::new(shared, k),
                params,
            },
            cfg,
            net,
            machines,
            cached_fns: None,
            phase_components: Vec::new(),
            drr_depths: Vec::new(),
        }
    }

    /// Tracks an Alice/Bob machine bipartition (§4 harness).
    pub fn set_cut(&mut self, side: Vec<bool>) {
        self.net.set_cut(side);
    }

    /// Runs the algorithm to completion and returns outputs + accounting.
    pub fn run(mut self) -> EngineResult {
        let mark = self.net.ledger();
        // §2.2: M1 distributes Θ~(n/k) shared bits before phase 1.
        let bits = SharedRandomness::paper_shared_bits(self.cx.n, self.cx.k);
        self.net.charge_distribution(bits);
        self.net.emit_segment("setup", mark);
        let max_phases = self.cfg.phase_cap(self.cx.n);
        // Crash recovery (§3.10): checkpoint at every phase boundary so a
        // crashed phase can be rolled back and re-entered. Only armed when
        // the plan actually schedules crashes — message-level faults are
        // fully masked inside the superstep layer and need no checkpoints.
        // Once every scheduled crash superstep lies in the past no rollback
        // can ever be needed: stop refreshing the (O(n)-clone) checkpoint.
        let last_crash_superstep = self
            .cfg
            .faults
            .as_ref()
            .and_then(|f| f.crashes.iter().map(|c| c.superstep).max());
        let mut checkpoint = last_crash_superstep.map(|_| self.take_checkpoint());
        let mut phases = 0;
        let mut p = 0;
        let mut retries = 0u32;
        while p < max_phases {
            let crash_mark = self.net.crash_count();
            let mark = self.net.ledger();
            let comp_mark = self.phase_components.len();
            let depth_mark = self.drr_depths.len();
            let builds_mark = self.sketch_builds();
            let comps = self.count_labels();
            self.phase_components.push(comps);
            let contracted = self.cx.contracted;
            self.cfg.trace.emit(|| TraceEvent::PhaseStart {
                phase: p,
                components: comps as u64,
                contracted,
            });
            let progressed = self.run_phase(p);
            if let Some(cp) = checkpoint
                .as_ref()
                .filter(|_| self.net.crash_count() > crash_mark)
            {
                // One or more machines crashed during this phase: discard
                // the aborted attempt (including anything computed from
                // state the crash should have wiped), restore from the
                // phase-boundary checkpoint, and re-enter the phase; the
                // attempt is booked as recovery (`Net::charge_restart`).
                // Crash events fire once (keyed by absolute superstep), so
                // retries terminate.
                retries += 1;
                assert!(
                    retries <= MAX_PHASE_RETRIES,
                    "phase {p} was re-entered {retries} times after crashes"
                );
                let crashed = self.net.crashed_since(crash_mark);
                self.phase_components.truncate(comp_mark);
                self.drr_depths.truncate(depth_mark);
                self.rollback(cp, &crashed);
                self.net.charge_restart(mark);
                let spent = self.net.ledger() - mark;
                let crashed: Vec<u32> = crashed.iter().map(|&m| m as u32).collect();
                self.cfg.trace.emit(move || TraceEvent::Rollback {
                    phase: p,
                    crashed,
                    rounds: spent.rounds,
                    bits: spent.total_bits,
                    recovery_rounds: spent.recovery_rounds,
                    retransmit_bits: spent.retransmit_bits,
                });
                continue;
            }
            retries = 0;
            phases = p + 1;
            let spent = self.net.ledger() - mark;
            let builds = self.sketch_builds();
            self.cfg.trace.emit(|| TraceEvent::PhaseEnd {
                phase: p,
                rounds: spent.rounds,
                bits: spent.total_bits,
                recovery_rounds: spent.recovery_rounds,
                retransmit_bits: spent.retransmit_bits,
                sketch_builds: builds - builds_mark,
                sketch_cache_hits: 0,
            });
            if !progressed {
                break;
            }
            if last_crash_superstep.is_some_and(|s| self.net.stats().supersteps <= s) {
                checkpoint = Some(self.take_checkpoint());
                self.cfg.trace.emit(|| TraceEvent::Checkpoint { phase: p });
            }
            p += 1;
        }
        let mark = self.net.ledger();
        let counted_components = self
            .cfg
            .run_output_protocol
            .then(|| self.output_protocol(phases));
        self.net.emit_segment("output", mark);
        // Gather outputs (instrumentation, not communication), then
        // canonicalize: relabel each component by its smallest member, so
        // the reported labels are a pure function of the partition. The
        // distributed state keeps its trajectory-dependent root labels;
        // only the gathered output is normalized.
        let mut labels = vec![0 as Label; self.cx.n];
        let mut canon: FxHashMap<Label, Label> = FxHashMap::default();
        for st in &self.machines {
            for (&v, &lab) in self.cx.g.view(st.id).verts().iter().zip(&st.dur.labels) {
                labels[v as usize] = lab;
                canon
                    .entry(lab)
                    .and_modify(|m| *m = (*m).min(v as Label))
                    .or_insert(v as Label);
            }
        }
        for st in &self.machines {
            for &v in self.cx.g.view(st.id).verts() {
                labels[v as usize] = canon[&labels[v as usize]];
            }
        }
        let sketch_builds = self.sketch_builds();
        let per_machine = self.machines.iter().map(|st| &st.dur.mst_out);
        EngineResult {
            labels,
            phases,
            mst_edges_per_machine: per_machine.clone().map(Vec::len).collect(),
            mst_edges: per_machine.flatten().copied().collect(),
            counted_components,
            sketch_builds,
            memo_hits: self.machines.iter().map(|st| st.memo_hits).sum(),
            stats: self.net.finish(None),
            phase_components: self.phase_components,
            drr_depths: self.drr_depths,
        }
    }

    // ------------------------------------------------------------------
    // Crash recovery (DESIGN.md §3.10)
    // ------------------------------------------------------------------

    /// Snapshots the durable state at a phase boundary. That is everything
    /// a re-entered phase needs to replay the exact fault-free trajectory —
    /// per-phase proxy state and part sketches are rebuilt (identically) by
    /// the phase itself.
    fn take_checkpoint(&self) -> PhaseCheckpoint {
        PhaseCheckpoint {
            machines: self.machines.iter().map(|st| st.dur.clone()).collect(),
            cached_fns: self.cached_fns.clone(),
            contracted: self.cx.contracted,
        }
    }

    /// Restores the checkpoint after a crash: crashed machines re-read
    /// their graph shard from durable storage (base CSR + the
    /// `kgraph::sharded` delta log), every machine's durable state rolls
    /// back to the phase boundary, and all per-phase state is dropped.
    /// Checkpoints live on each machine's local durable storage, so the
    /// restore ships no bits; its cost is the coordination barrier the
    /// caller charges.
    fn rollback(&mut self, cp: &PhaseCheckpoint, crashed: &[usize]) {
        for &m in crashed {
            self.cx.g.rebuild_shard(m);
        }
        for (st, dur) in self.machines.iter_mut().zip(&cp.machines) {
            st.dur = dur.clone();
            st.proxied.clear();
            st.thresholds.clear();
            st.inbox.clear();
            st.outbox.clear();
            st.memo = None;
        }
        self.cached_fns = cp.cached_fns.clone();
        self.cx.contracted = cp.contracted;
    }

    // ------------------------------------------------------------------
    // The superstep primitives (DESIGN.md §6)
    // ------------------------------------------------------------------

    /// Runs `f` on every machine: one thread scope when the run is large
    /// enough to fan out, in machine order on the calling thread otherwise.
    fn on_every_machine(&mut self, f: impl Fn(&Cx, &mut MachineState) + Sync) {
        let cx = &self.cx;
        if self.fan_out {
            par_for_each_state(&mut self.machines, |_, st| f(cx, st));
        } else {
            self.machines.iter_mut().for_each(|st| f(cx, st));
        }
    }

    /// One superstep of the k-machine model: every machine reads what the
    /// previous step delivered to it, computes locally (one thread scope,
    /// or inline), and sends; then all sends cross the network in one
    /// `Net::exchange` and land in the receivers' inboxes. An inbox
    /// lives for exactly one step: what `f` does not consume is dropped.
    fn step(&mut self, f: impl Fn(&Cx, &mut MachineState, Mail, &mut Out) + Sync) {
        let price = self.net.price();
        self.on_every_machine(|cx, st| run_local(cx, st, price, &f));
        self.deliver();
    }

    /// Local-only work on every machine (one thread scope, or inline). Never
    /// communicates: even an empty superstep advances the superstep index
    /// that crash events are keyed by.
    fn each(&mut self, f: impl Fn(&Cx, &mut MachineState, Mail) + Sync) {
        self.on_every_machine(|cx, st| {
            let inbox = std::mem::take(&mut st.inbox);
            f(cx, st, inbox);
        });
    }

    /// Hands every outbox to one exchange, in machine order, and each
    /// machine what it received.
    fn deliver(&mut self) {
        let outboxes = self
            .machines
            .iter_mut()
            .map(|st| std::mem::take(&mut st.outbox));
        self.net.post(outboxes);
        for (st, inbox) in self.machines.iter_mut().zip(self.net.exchange()) {
            st.inbox = inbox;
        }
    }

    /// [`Engine::step`] carrying the legs `(down, up)` of a convergence
    /// vote (DESIGN.md §6): M0 sends every machine its tally before `f`
    /// runs, and every machine M0 its bit `st.flag` once `f` has set it;
    /// M0 ORs the bits that reach it into its own, its next tally.
    fn step_vote(
        &mut self,
        (down, up): (bool, bool),
        f: impl Fn(&Cx, &mut MachineState, Mail, &mut Out) + Sync,
    ) {
        self.step(|cx, st, inbox, out| {
            if down && st.id == 0 {
                (1..cx.k).for_each(|dst| out.send(dst, Payload::Flag { bit: st.flag }));
            }
            f(cx, st, inbox, out);
            if up && st.id != 0 {
                out.send(0, Payload::Flag { bit: st.flag });
            }
        });
        let m0 = &mut self.machines[0];
        let yes = |env: &Envelope<Payload>| matches!(env.payload, Payload::Flag { bit: true });
        m0.flag |= up && m0.inbox.iter().any(yes);
    }

    /// A convergence loop of at most `cap` iterations (DESIGN.md §6):
    /// `body(self, i, vote)` runs iteration `i` and, when `vote` (all but
    /// the last), ends on a step carrying the up leg. While M0's tally
    /// says go on, the next iteration carries its down leg; once it says
    /// stop, M0 sends the down leg alone — the loop's one flag-only
    /// superstep. `body` returning `false` ends the loop at once.
    fn converge(&mut self, cap: u32, mut body: impl FnMut(&mut Self, u32, bool) -> bool) {
        let mut i = 0;
        while body(self, i, i + 1 < cap) && i + 1 < cap {
            if !self.machines[0].flag {
                return self.step_vote((true, false), |_, _, _, _| {});
            }
            i += 1;
        }
    }

    // ------------------------------------------------------------------
    // Phase machinery
    // ------------------------------------------------------------------

    /// Runs one phase; returns whether any component was live (had an
    /// outgoing edge). Contraction (§3.11) changes what the steps run on,
    /// not the steps: once the supergraph exists, selection is an exact
    /// local MWOE (no sketches, no probes, no Monte-Carlo), pointer jumping
    /// is routed to label owners and runs to *full* convergence, and the
    /// merge moves the state of the merging supernodes to their roots'
    /// owners.
    fn run_phase(&mut self, p: u32) -> bool {
        if self.cfg.contract && p >= 1 && !self.cx.contracted {
            self.build_supergraph();
        }
        self.select_outgoing(p);
        self.build_drr_forest(p);
        // The phase-progress vote (any outgoing edge?) rides the first jump
        // round. A live component whose sample failed samples again.
        if !self.pointer_jump(p) {
            return false;
        }
        self.record_drr_depth(p);
        if self.cx.contracted {
            self.super_merge();
        } else {
            self.relabel();
        }
        true
    }

    /// Step 1: every component selects (at most) one outgoing edge.
    fn select_outgoing(&mut self, p: u32) {
        if p == 0 {
            return self.phase0_local_select();
        }
        if self.cx.contracted {
            return self.super_local_select();
        }
        // One sample for connectivity: the verified candidate is the chosen
        // edge. MST runs the elimination loop (§3.1): broadcast the verified
        // candidate's key as the threshold, rebuild filtered sketches,
        // sample again — until every component is done (its lightest
        // verified edge is the MWOE w.h.p.).
        let samples = match self.cx.mode {
            Mode::Mst => 2 * id_bits(self.cx.n) as u32 + 9,
            _ => 1,
        };
        self.converge(samples, |e, iter, vote| {
            let fns = if iter == 0 {
                // Reused within the current epoch, so their seeds are
                // distributed once per epoch.
                e.iter0_fns(p)
            } else {
                // Fresh functions per (phase, iteration), tagged below the
                // epoch range: M1 distributes Θ(log² n) seed bits each
                // (§2.3), and that distribution is the vote's "go on".
                let fns = SketchFns::new(&e.cx.shared, p * 64 + iter, e.cx.params);
                e.net.charge_distribution(fns.random_bits());
                Arc::new(fns)
            };
            // Part sketches to the proxies, one candidate sampled per merged
            // sketch and verified at its endpoints' homes (§2.3–§2.4).
            e.build_and_send_sketches(p, &fns, /*only_thresholded=*/ iter > 0);
            e.proxy_merge_sketches(&fns);
            e.probe_candidates();
            if vote {
                e.broadcast_thresholds();
            }
            true
        });
    }

    /// Phase 0 (paper §2.1): singleton components are proxied by their home
    /// machine, so selection is fully local. Connectivity samples a uniform
    /// incident edge; MST takes the minimum-key incident edge.
    fn phase0_local_select(&mut self) {
        let prf = self.cx.shared.prf(Use::Phase0Sample);
        self.each(|cx, st, _| {
            for (v, nbrs) in cx.g.view(st.id).adjacency() {
                let mut comp = ProxyComp::new(v as Label, vec![st.id as u16]);
                comp.live = !nbrs.is_empty();
                if comp.live {
                    let (nb, w) = match cx.mode {
                        Mode::Connectivity | Mode::SpanningForest => {
                            nbrs[prf.eval_mod(0, v as u64, nbrs.len() as u64) as usize]
                        }
                        Mode::Mst => *nbrs
                            .iter()
                            .min_by_key(|&&(nb, w)| edge_key(w, v, nb))
                            .expect("nonempty"),
                    };
                    // At phase 0 the other endpoint's label is its id.
                    comp.choose(edge_key(w, v, nb), nb as Label);
                }
                st.proxied.insert(v as Label, comp);
            }
        });
    }

    /// Contracted phases: the deduped adjacency is materialized at each
    /// owner, so every supernode reads its exact MWOE off it.
    fn super_local_select(&mut self) {
        self.each(|_, st, _| {
            st.proxied.clear();
            for (lab, node) in det::sorted_entries(&st.dur.supers) {
                let mut comp = ProxyComp::new(lab, node.parts.clone());
                comp.live = !node.adj.is_empty();
                if let Some((nb, &(w, ou, ov))) =
                    det::min_entry_by(&node.adj, |_, &(w, ou, ov)| edge_key(w, ou, ov))
                {
                    comp.choose(edge_key(w, ou, ov), nb);
                }
                st.proxied.insert(lab, comp);
            }
        });
    }

    /// The iteration-0 sketch functions for phase `p ≥ 1`, reusing the
    /// cached epoch functions when the tag matches. On epoch rollover
    /// derives fresh functions and charges their §2.2 distribution cost.
    fn iter0_fns(&mut self, p: u32) -> Arc<SketchFns> {
        /// Disjoint from every `p * 64 + iter` elimination tag. Epochs
        /// are 1024 tags apart, the tags the pinned ledgers were drawn with.
        const EPOCH_TAG_BASE: u32 = 1 << 30;
        let tag = EPOCH_TAG_BASE + ((p - 1) / SKETCH_REUSE_PERIOD) * 1024;
        if let Some((_, fns)) = self.cached_fns.as_ref().filter(|(t, _)| *t == tag) {
            return Arc::clone(fns);
        }
        let fns = Arc::new(SketchFns::new(&self.cx.shared, tag, self.cx.params));
        self.net.charge_distribution(fns.random_bits());
        self.cached_fns = Some((tag, Arc::clone(&fns)));
        fns
    }

    /// Sends every part to its proxy: as the half-edges its sketch would hash
    /// when there are fewer than `edge_cap`, as its sketch otherwise. With
    /// `only_thresholded`, only parts that received an elimination threshold
    /// participate, with their edges strictly below it; iteration 0 reads
    /// and refreshes the machine's memo of its part sketches.
    fn build_and_send_sketches(&mut self, p: u32, fns: &SketchFns, only_thresholded: bool) {
        let cap = self.edge_cap;
        let mid_epoch = !(p - 1).is_multiple_of(SKETCH_REUSE_PERIOD);
        self.step(|cx, st, _, out| {
            let memo = st.memo.take_if(|_| !only_thresholded).filter(|_| mid_epoch);
            let (old, mut memo) = memo.unwrap_or_default();
            let mut by_label: FxHashMap<Label, Part> = FxHashMap::default();
            for (i, (v, nbrs)) in cx.g.view(st.id).adjacency().enumerate() {
                let label = st.dur.labels[i];
                if only_thresholded && !st.thresholds.contains_key(&label) {
                    continue;
                }
                let thr = st.thresholds.get(&label).copied().flatten();
                let part = by_label.entry(label).or_default();
                // An old part lands whole in one new part: its memoised
                // sketch is added once, in place of its vertices' edges.
                let was = old.get(i).and_then(|was| memo.get_mut(was));
                if let Some(slot) = was.filter(|_| !nbrs.is_empty()) {
                    part.memoised.extend(slot.take());
                    continue;
                }
                for &(nb, w) in nbrs {
                    if thr.is_none_or(|t| edge_key(w, v, nb) < t) {
                        part.edges.push((v, nb));
                    }
                }
            }
            let mut sketches = FxHashMap::default();
            for (label, part) in det::into_sorted_entries(by_label) {
                // A part holding a memoised sketch is at least its old part,
                // which was at or above the cap.
                if part.memoised.is_empty() && part.edges.len() < cap {
                    let edges = part.edges;
                    out.send(cx.holder(p, label), Payload::PartEdges { label, edges });
                    continue;
                }
                st.sketch_builds += 1;
                st.memo_hits += u64::from(!part.memoised.is_empty());
                let mut sketch = Box::new(L0Sketch::new(cx.params));
                part.memoised.iter().for_each(|m| sketch.merge(m));
                for (v, nb) in part.edges {
                    sketch.add_incident_edge(fns, v, nb);
                }
                if !only_thresholded {
                    sketches.insert(label, Some((*sketch).clone()));
                }
                out.send(cx.holder(p, label), Payload::PartSketch { label, sketch });
            }
            if !sketches.is_empty() {
                st.memo = Some((st.dur.labels.clone(), sketches));
            }
        });
    }

    /// Proxies sum arriving part sketches and shipped half-edges (hashed with
    /// the same functions: the same cells) and sample a candidate edge.
    fn proxy_merge_sketches(&mut self, fns: &SketchFns) {
        self.each(|cx, st, inbox| {
            // Components seen this superstep (for requerying).
            let mut touched: FxHashSet<Label> = FxHashSet::default();
            for env in inbox {
                let (label, sketch, edges) = match env.payload {
                    Payload::PartSketch { label, sketch } => (label, Some(sketch), Vec::new()),
                    Payload::PartEdges { label, edges } => (label, None, edges),
                    _ => continue,
                };
                let comp = st
                    .proxied
                    .entry(label)
                    .or_insert_with(|| ProxyComp::new(label, Vec::new()));
                if !comp.parts.contains(&(env.src as u16)) {
                    comp.parts.push(env.src as u16);
                }
                let acc = comp.sketch.get_or_insert_with(|| L0Sketch::new(cx.params));
                match sketch {
                    Some(sketch) => acc.merge(&sketch),
                    None => st.sketch_builds += 1,
                }
                for (v, nb) in edges {
                    acc.add_incident_edge(fns, v, nb);
                }
                touched.insert(label);
            }
            for label in det::sorted_members(&touched) {
                let comp = st.proxied.get_mut(&label).expect("just inserted");
                // Sampled once; taking the sketch frees its memory. `|=`:
                // a live component's filtered MST sketches may be zero.
                let sketch = comp.sketch.take().expect("merged this superstep");
                comp.live |= !sketch.is_zero();
                comp.candidate = sketch.query(fns).map(|(u, v)| (u.min(v), u.max(v)));
                comp.info = [None, None];
            }
        });
    }

    /// Probe the candidate edges: proxy asks both endpoints' home machines
    /// for current label, existence, and weight (two supersteps), then
    /// folds the replies into the component state.
    fn probe_candidates(&mut self) {
        // Superstep A: queries out.
        self.step(|cx, st, _, out| {
            for (comp, c) in det::sorted_entries(&st.proxied) {
                if let Some((u, v)) = c.candidate {
                    for (ask, other) in [(u, v), (v, u)] {
                        let home = cx.g.partition().home(ask);
                        out.send(home, Payload::EdgeProbe { comp, ask, other });
                    }
                }
            }
        });
        // Superstep B: homes answer from their authoritative labels and
        // their local shard adjacency (`ask` is homed here by construction).
        self.step(|cx, st, inbox, out| {
            let view = cx.g.view(st.id);
            for env in inbox {
                if let Payload::EdgeProbe { comp, ask, other } = env.payload {
                    let weight = view.edge_weight(ask, other);
                    let reply = Payload::EdgeProbeReply {
                        comp,
                        vertex: ask,
                        label: st.dur.labels[home_index(view, ask)],
                        exists: weight.is_some(),
                        weight: weight.unwrap_or(0),
                    };
                    out.send(env.src, reply);
                }
            }
        });
        // Record replies at the proxies and judge every candidate.
        self.each(|_, st, inbox| {
            for env in inbox {
                if let Payload::EdgeProbeReply {
                    comp,
                    vertex,
                    label,
                    exists,
                    weight,
                } = env.payload
                {
                    if let Some(c) = st.proxied.get_mut(&comp) {
                        if let Some((u, v)) = c.candidate {
                            debug_assert!(vertex == u || vertex == v);
                            c.info[usize::from(vertex != u)] = Some((label, exists, weight));
                        }
                    }
                }
            }
            det::for_each_value_mut(&mut st.proxied, finalize_candidate);
        });
    }

    /// MST: broadcast each active component's new strict threshold to all
    /// machines holding a part of it. The vote to go on (any active
    /// component?) rides up with it.
    fn broadcast_thresholds(&mut self) {
        self.step_vote((false, true), |_, st, _, out| {
            st.flag = det::any_value(&st.proxied, |c| !c.elim_done);
            for (label, c) in det::sorted_entries(&st.proxied) {
                if !c.elim_done {
                    let key = c.chosen.map(|(u, v, w)| (w, u, v));
                    for &m in &c.parts {
                        out.send(m as usize, Payload::Threshold { label, key });
                    }
                }
            }
        });
        self.each(|_, st, inbox| {
            st.thresholds.clear();
            for env in inbox {
                if let Payload::Threshold { label, key } = env.payload {
                    st.thresholds.insert(label, key);
                }
            }
        });
    }

    /// Step 2 (§2.5): merge partners from verified candidates + shared
    /// randomness (DRR ranks, or footnote 9's coin flips).
    fn build_drr_forest(&mut self, p: u32) {
        self.each(|cx, st, _| {
            det::for_each_entry_mut(&mut st.proxied, |label, c| {
                let connects = |other: Label| match cx.merge {
                    MergeStrategy::Drr => cx.scheme.connects(p, label, other),
                    MergeStrategy::CoinFlip => {
                        !cx.scheme.coin(p, label) && cx.scheme.coin(p, other)
                    }
                };
                c.parent = c.other_label.filter(|&o| c.chosen.is_some() && connects(o));
                c.ptr = c.parent.unwrap_or(label);
                c.ptr_done = c.parent.is_none();
            });
        });
    }

    /// Step 3 (§2.5): pointer jumping among the machines holding component
    /// state until every component knows its root label. On the vertex
    /// path the round count covers the w.h.p. Lemma-6 depth bound, and a
    /// straggler merely relabels to an ancestor (safe). Contracted merges
    /// move supernode state, so relabeling to a non-root ancestor would
    /// strand state at a node that is itself moving: there the loop runs
    /// until every pointer is a root (DRR ranks strictly increase along
    /// parent pointers, so the forest is acyclic and doubling converges in
    /// `O(log depth)` rounds).
    ///
    /// In a round every unfinished component asks the holder of its pointer
    /// target ([`Cx::holder`]) for that target's pointer. A replier knows
    /// whether it answers "unfinished": the replies carry the round's vote
    /// up, the next queries its down leg. Round 0 carries the phase-progress
    /// vote instead: returns whether any component was live.
    fn pointer_jump(&mut self, p: u32) -> bool {
        let depth_bound = 6 * (id_bits(self.cx.n + 1) as u32) + 2;
        let rounds = match self.cx.contracted {
            true => u32::MAX,
            false => 32 - (2 * depth_bound).leading_zeros() + 1,
        };
        let mut live = true;
        self.converge(rounds, |e, round, vote| {
            assert!(round < 72, "pointer jumping failed to converge");
            let first = round == 0;
            // Queries out.
            e.step_vote((!first, first), |cx, st, _, out| {
                st.flag = false;
                for (asker, c) in det::sorted_entries(&st.proxied) {
                    st.flag |= c.live;
                    if !c.ptr_done {
                        let target = c.ptr;
                        out.send(cx.holder(p, target), Payload::PtrQuery { asker, target });
                    }
                }
            });
            live = !first || e.machines[0].flag;
            // Answers back (reads only pre-iteration state: replies are
            // computed before any update is applied).
            e.step_vote((first, vote), |_, st, inbox, out| {
                st.flag = false;
                for env in inbox {
                    if let Payload::PtrQuery { asker, target } = env.payload {
                        let t = st
                            .proxied
                            .get(&target)
                            .expect("pointer target's state lives where its query was routed");
                        let (ptr, done) = (t.ptr, t.ptr_done);
                        st.flag |= !done;
                        out.send(env.src, Payload::PtrReply { asker, ptr, done });
                    }
                }
            });
            // Apply updates.
            e.each(|_, st, inbox| {
                for env in inbox {
                    if let Payload::PtrReply { asker, ptr, done } = env.payload {
                        if let Some(c) = st.proxied.get_mut(&asker) {
                            c.ptr = ptr;
                            c.ptr_done = done;
                        }
                    }
                }
            });
            live
        });
        live
    }

    /// Step 4: proxies broadcast relabel commands; machines apply them.
    /// MST: a component that merged outputs its chosen edge at the proxy.
    fn relabel(&mut self) {
        self.step(|cx, st, _, out| {
            for (old, new) in merging(cx, st) {
                if new != old {
                    for &m in &st.proxied[&old].parts {
                        out.send(m as usize, Payload::Relabel { old, new });
                    }
                }
            }
        });
        self.each(|_, st, inbox| {
            apply_relabels(&mut st.dur.labels, inbox);
            // Phase is over: clear per-phase proxy state.
            st.proxied.clear();
            st.thresholds.clear();
        });
    }

    // ------------------------------------------------------------------
    // Supergraph contraction (DESIGN.md §3.11)
    // ------------------------------------------------------------------

    /// Builds the supergraph from the current vertex labels, once, at the
    /// first contracted phase. Along every edge `{u, v}` with `v < u`,
    /// `home(u)` pushes `u`'s label to `home(v)`, so each inter-component
    /// edge is surfaced exactly once — at the home of its smaller original
    /// endpoint — and sent to *both* component owners, so supernode
    /// adjacency is symmetric from the start; owners min-merge multi-edges
    /// by the tie-free original-edge key (dedup keeps the lightest, and its
    /// original endpoints ride along so MST output stays exact); and
    /// machines announce which components they host parts of, so merges can
    /// be broadcast back into the vertex space. A component keeps its label,
    /// the id of one of its own vertices, and its supernode lives at
    /// `home(label)`.
    fn build_supergraph(&mut self) {
        // Superstep 1: push labels across every edge, from its larger end.
        self.step(|cx, st, _, out| {
            for ((u, nbrs), &label) in cx.g.view(st.id).adjacency().zip(&st.dur.labels) {
                for &(v, weight) in nbrs.iter().filter(|&&(v, _)| v < u) {
                    let push = Payload::LabelPush {
                        u,
                        v,
                        weight,
                        label,
                    };
                    out.send(cx.g.partition().home(v), push);
                }
            }
        });
        // Superstep 2: receivers surface each crossing edge and announce the
        // components they host.
        self.step(|cx, st, inbox, out| {
            let part = cx.g.partition();
            for env in inbox {
                if let Payload::LabelPush {
                    u,
                    v,
                    weight,
                    label,
                } = env.payload
                {
                    let mine = st.dur.labels[home_index(cx.g.view(st.id), v)];
                    if mine != label {
                        let (ou, ov) = (v, u);
                        for (a, b) in [(mine, label), (label, mine)] {
                            let edge = Payload::SuperEdge {
                                a,
                                b,
                                weight,
                                ou,
                                ov,
                            };
                            out.send(part.home(a as u32), edge);
                        }
                    }
                }
            }
            for label in distinct_labels(&st.dur.labels) {
                let parts = vec![st.id as u16];
                out.send(
                    part.home(label as u32),
                    Payload::SuperParts { label, parts },
                );
            }
        });
        // Owners absorb: adjacency min-merge + hosted-part sets. Part
        // announcements also materialize isolated components (no crossing
        // edges, but they still need relabel broadcasts and counting).
        self.each(|_, st, inbox| {
            for env in inbox {
                match env.payload {
                    Payload::SuperEdge {
                        a,
                        b,
                        weight,
                        ou,
                        ov,
                    } => st
                        .dur
                        .supers
                        .entry(a)
                        .or_default()
                        .add_edge(b, weight, ou, ov),
                    Payload::SuperParts { label, parts } => {
                        let node = st.dur.supers.entry(label).or_default();
                        parts.into_iter().for_each(|m| node.add_part(m));
                    }
                    _ => {}
                }
            }
            // Sketch machinery is retired for the rest of the run.
            st.thresholds.clear();
        });
        self.cx.contracted = true;
        self.cached_fns = None;
    }

    /// Supergraph merge: each merging supernode emits its output edge
    /// (original endpoints), takes its root's label and moves to the root's
    /// owner; every other supernode stays where it is. Superstep 1 travels
    /// among the current owners: each merging supernode tells every
    /// neighbor's owner its new label (`SuperRelabel` — symmetric adjacency
    /// guarantees each owner hears about exactly the labels in its adjacency
    /// lists) and its hosting machines the vertex-space relabel — all
    /// *before* any state moves. Superstep 2: every owner rewrites its
    /// adjacency lists under the received renames — distinct old keys may
    /// collapse onto one root and min-merge — and only then do the merging
    /// supernodes ship their state to `home(root)`. Finally the roots'
    /// owners absorb the moves and drop the self-loops a merge created
    /// (edges whose two sides took the same label — exactly the
    /// intra-component edges contraction discards).
    fn super_merge(&mut self) {
        self.step(|cx, st, _, out| {
            let part = cx.g.partition();
            for (old, new) in merging(cx, st) {
                let node = &st.dur.supers[&old];
                let mut dsts: Vec<usize> = det::sorted_keys(&node.adj)
                    .into_iter()
                    .map(|nb| part.home(nb as u32))
                    .collect();
                dsts.push(st.id); // our own adjacency lists rename too
                dsts.sort_unstable();
                dsts.dedup();
                for dst in dsts {
                    out.send(dst, Payload::SuperRelabel { old, new });
                }
                for &m in &node.parts {
                    out.send(m as usize, Payload::Relabel { old, new });
                }
            }
        });
        self.step(|cx, st, inbox, out| {
            let smap = apply_relabels(&mut st.dur.labels, inbox);
            // Only the movers are sorted: their sends leave in label order.
            let mut movers: FxHashMap<Label, SuperNode> = FxHashMap::default();
            det::retain_where(&mut st.dur.supers, |&old, node| {
                rename_adj(node, &smap);
                let stays = !smap.contains_key(&old);
                if !stays {
                    movers.insert(old, std::mem::take(node));
                }
                stays
            });
            for (old, node) in det::into_sorted_entries(movers) {
                let label = smap[&old];
                let adj = det::into_sorted_entries(node.adj)
                    .into_iter()
                    .map(|(nb, (w, ou, ov))| (nb, w, ou, ov))
                    .collect();
                let parts = node.parts;
                let moved = Payload::SuperMove { label, parts, adj };
                out.send(cx.g.partition().home(label as u32), moved);
            }
        });
        self.each(|_, st, inbox| {
            for env in inbox {
                // (`moved`, not `adj`: KC01 tracks hash-typed names per file.)
                if let Payload::SuperMove {
                    label,
                    parts,
                    adj: moved,
                } = env.payload
                {
                    let node = st.dur.supers.entry(label).or_default();
                    parts.into_iter().for_each(|m| node.add_part(m));
                    for (nb, w, ou, ov) in moved {
                        node.add_edge(nb, w, ou, ov);
                    }
                }
            }
            det::for_each_entry_mut(&mut st.dur.supers, |lab, node| {
                node.adj.remove(&lab);
            });
            st.proxied.clear();
        });
    }

    /// §2.6 output protocol: every machine announces each distinct label it
    /// holds to that label's proxy; proxies count distinct labels and report
    /// to M1 (machine 0 here). Returns the global component count.
    fn output_protocol(&mut self, after_phase: u32) -> u64 {
        let p = after_phase.max(1); // never the phase-0 identity proxy map
        self.step(|cx, st, _, out| {
            for label in distinct_labels(&st.dur.labels) {
                let proxy = cx.scheme.proxy_of(cx.g.partition(), p, 1, label);
                out.send(proxy, Payload::LabelAnnounce { label });
            }
        });
        self.step(|_, _, inbox, out| {
            let mut distinct: FxHashSet<Label> = FxHashSet::default();
            for env in inbox {
                if let Payload::LabelAnnounce { label } = env.payload {
                    distinct.insert(label);
                }
            }
            let count = distinct.len() as u64;
            out.send(0, Payload::CountReport { count });
        });
        // M0 tallies what it received: local work, no further superstep.
        let mut total = 0;
        for env in std::mem::take(&mut self.machines[0].inbox) {
            if let Payload::CountReport { count } = env.payload {
                total += count;
            }
        }
        total
    }

    // ------------------------------------------------------------------
    // Instrumentation (orchestrator-side, zero communication cost)
    // ------------------------------------------------------------------

    /// Part sketches hashed from edges, all machines.
    fn sketch_builds(&self) -> u64 {
        self.machines.iter().map(|st| st.sketch_builds).sum()
    }

    /// Number of distinct labels across all machines: one supernode per
    /// live label once contracted, a hash set of the labels before.
    fn count_labels(&self) -> usize {
        if self.cx.contracted {
            return self.machines.iter().map(|st| st.dur.supers.len()).sum();
        }
        let mut seen: FxHashSet<Label> = FxHashSet::default();
        for st in &self.machines {
            seen.extend(&st.dur.labels);
        }
        seen.len()
    }

    /// Max DRR tree depth of phase `p` (Lemma 6 / Figure 2 data): the
    /// longest parent chain, each parent read where its state lives
    /// ([`Cx::holder`]) and every depth memoized, so each component is
    /// walked once.
    fn record_drr_depth(&mut self, p: u32) {
        let (cx, machines) = (&self.cx, &self.machines);
        let parent = |label: Label| machines[cx.holder(p, label)].proxied.get(&label)?.parent;
        let mut memo: FxHashMap<Label, u32> = FxHashMap::default();
        let mut chain = Vec::new();
        let mut depth = |mut cur: Label| {
            let mut d = loop {
                if let Some(&d) = memo.get(&cur) {
                    break d;
                }
                let Some(next) = parent(cur) else { break 0 };
                chain.push(cur);
                cur = next;
            };
            for node in chain.drain(..).rev() {
                d += 1;
                memo.insert(node, d);
            }
            d
        };
        let deepest = machines.iter().filter_map(|st| {
            let deepest = det::min_entry_by(&st.proxied, |label, _| Reverse(depth(label)));
            deepest.map(|(label, _)| depth(label))
        });
        let max_depth = deepest.max().unwrap_or(0);
        self.drr_depths.push(max_depth);
    }
}

/// The position of `v` in its home shard's [`kgraph::ShardView::verts`]: how
/// a machine finds the state of a vertex whose id arrived in a message.
fn home_index(view: kgraph::ShardView, v: u32) -> usize {
    let found = view.verts().binary_search(&v);
    found.expect("messages about a vertex are routed to its home")
}

/// The fewest half-edges whose `PartEdges` row is no cheaper than a
/// `PartSketch` at id width `l` (fixed-width prices, DESIGN.md §3.3): below
/// it a part ships its edges, so no part message costs more than a sketch.
fn edge_cap(params: SketchParams, l: u64) -> usize {
    let edges = |edges| Payload::PartEdges { label: 0, edges }.wire_bits(l);
    let sketch = Box::new(L0Sketch::new(params));
    let sketch = Payload::PartSketch { label: 0, sketch }.wire_bits(l);
    let per_edge = edges(vec![(0, 0)]) - edges(Vec::new());
    (sketch - edges(Vec::new())).div_ceil(per_edge) as usize
}

/// The merge a machine's proxied components decided on: every component
/// with a DRR parent outputs its chosen edge here (forest modes) and is
/// renamed to its pointer — `(old, new)` pairs in sorted `old` order.
fn merging(cx: &Cx, st: &mut MachineState) -> Vec<(Label, Label)> {
    let mut renames = Vec::new();
    for (label, c) in det::sorted_entries(&st.proxied) {
        if c.parent.is_some() {
            debug_assert!(
                !cx.contracted || (c.ptr_done && c.ptr != label),
                "a contracted merge requires converged pointers"
            );
            if cx.mode != Mode::Connectivity {
                st.dur.mst_out.extend(c.chosen);
            }
            renames.push((label, c.ptr));
        }
    }
    renames
}

/// Validates a probed candidate and folds it into the component state:
/// the edge must exist and have exactly one internal endpoint. For MST the
/// verified edge becomes the new `chosen`; a component that is not live
/// is done at once, and an invalid/absent candidate of a live one is a
/// strike toward ending its elimination (Monte-Carlo skip).
fn finalize_candidate(c: &mut ProxyComp) {
    /// Strikes before an empty/invalid sample is accepted as "no lighter
    /// edge exists" (the retry drives the false-done probability to ~1e-6).
    const STRIKES: u8 = 2;
    // Exactly one endpoint must be inside this component, and both homes
    // must confirm the edge. No candidate (support empty, or unlucky
    // hashing) and missing replies (should not happen) are failed samples.
    let verified = match (c.candidate, c.info[0], c.info[1]) {
        (Some((u, v)), Some((lu, true, w)), Some((lv, true, _))) if lu != lv => {
            [(lu, lv), (lv, lu)]
                .into_iter()
                .find(|&(inside, _)| inside == c.own)
                .map(|(_, other)| ((w, u, v), other))
        }
        _ => None,
    };
    match verified {
        Some((key, other)) => {
            c.choose(key, other);
            c.none_streak = 0;
        }
        None => {
            c.none_streak += 1;
            c.elim_done |= !c.live || c.none_streak >= STRIKES;
        }
    }
    c.candidate = None;
    c.info = [None, None];
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::{generators, Partition};

    fn sharded(k: usize) -> ShardedGraph {
        let g = generators::gnm(200, 600, 3);
        ShardedGraph::from_graph(&g, &Partition::random_vertex(&g, k, 7))
    }

    fn engine(sg: &ShardedGraph, contract: bool) -> Engine<'_> {
        let cfg = EngineConfig {
            contract,
            ..EngineConfig::default()
        };
        Engine::new(sg, Mode::Connectivity, 5, cfg)
    }

    #[test]
    fn each_never_flushes_and_an_idle_step_is_one_free_superstep() {
        let sg = sharded(4);
        let mut e = engine(&sg, false);
        e.each(|_, st, _| st.flag = true);
        assert!(e.machines.iter().all(|st| st.flag));
        assert_eq!(e.net.stats().supersteps, 0, "local work must not flush");
        e.step(|_, _, _, _| {});
        let s = e.net.stats();
        assert_eq!(
            (s.supersteps, s.rounds, s.total_bits, s.messages),
            (1, 0, 0, 0),
            "a step in which nobody sends still counts as one superstep"
        );
    }

    /// Flag messages per superstep of a traced run, and whether the
    /// superstep carried nothing else.
    fn flag_loads(records: &[kmachine::trace::TraceRecord]) -> Vec<(u64, bool)> {
        let steps = records.iter().filter_map(|r| match &r.event {
            TraceEvent::Superstep { kinds, .. } => Some(kinds),
            _ => None,
        });
        let flags = |kinds: &Vec<(String, u64)>| {
            let flags = kinds.iter().filter(|(kind, _)| kind == "flag");
            let only = !kinds.is_empty() && flags.clone().count() == kinds.len();
            (flags.map(|(_, count)| count).sum(), only)
        };
        steps.map(flags).collect()
    }

    /// [`Engine::converge`] on synthetic loops of known length: every
    /// iteration is one step in which each machine sends its neighbour a
    /// message, and machine 3 votes "go on" in iterations 0 and 1. The legs
    /// ride those steps, so a loop that a vote ends pays one flag-only
    /// superstep (the exit's down leg); one ended by its cap or cut short
    /// by its body pays none. No vote sends more than 2(k − 1) flags.
    #[test]
    fn votes_ride_the_loop_steps_and_only_the_exit_leg_goes_alone() {
        let k = 5;
        let sg = sharded(k);
        // (cap, iterations the body allows, iterations, votes, flag-only)
        for (cap, cut, iters, votes, exits) in
            [(9, 9, 3, 3u64, 1), (2, 9, 2, 1, 0), (9, 2, 2, 2, 0)]
        {
            let cfg = EngineConfig {
                trace: Tracer::recording(),
                ..EngineConfig::default()
            };
            let trace = cfg.trace.clone();
            let mut e = Engine::new(&sg, Mode::Connectivity, 5, cfg);
            let mut ran = 0;
            e.converge(cap, |e, i, vote| {
                ran += 1;
                e.step_vote((i > 0, vote), |cx, st, _, out| {
                    st.flag = st.id == 3 && i < 2;
                    out.send((st.id + 1) % cx.k, Payload::Relabel { old: 0, new: 0 });
                });
                i + 1 < cut
            });
            let cell = format!("cap {cap}, cut {cut}");
            assert_eq!(ran, iters, "{cell}");
            let loads = flag_loads(&trace.events());
            assert_eq!(loads.len() as u32, iters + exits, "{cell}: supersteps");
            let alone = loads.iter().filter(|&&(_, only)| only).count() as u32;
            assert_eq!(alone, exits, "{cell}: flag-only supersteps");
            let legs = |flags: u64| flags / (k as u64 - 1);
            assert!(loads.iter().all(|&(flags, _)| legs(flags) <= 2), "{cell}");
            let flags: u64 = loads.iter().map(|&(flags, _)| flags).sum();
            assert!(legs(flags) <= 2 * votes, "{cell}: {flags} flags");
            assert_eq!(flags % (k as u64 - 1), 0, "{cell}: legs are whole");
        }
    }

    /// The cost shape of whole runs, pinned per phase: the flag-only
    /// supersteps and the run's flag messages. A phase pays one flag-only
    /// superstep when its pointer jumping ends (the exit leg), two more when
    /// an MST elimination loop ends (its last vote has no threshold to ride
    /// up with, and its down leg no seed distribution), and the last phase
    /// two (the phase-progress vote, with nothing else left to carry). A
    /// jump round whose queries and replies all stay on their machines
    /// carries only its legs too (plain connectivity, phase 4). When every
    /// vote took two flag-only supersteps of its own, these cells paid 50,
    /// 48 and 180 of them, and sent 150, 144 and 540 flags.
    #[test]
    fn votes_cost_at_most_their_exit_legs_in_flag_only_supersteps() {
        let sg = weighted_cell();
        let k = sg.k() as u64;
        let cells = [
            (Mode::Connectivity, false, vec![1, 1, 1, 1, 3, 1, 2], 117),
            (Mode::Connectivity, true, vec![1, 1, 1, 1, 1, 1, 2], 111),
            (Mode::Mst, false, vec![1, 3, 3, 3, 3, 3, 3, 3, 4], 342),
        ];
        for (mode, contract, per_phase, flags) in cells {
            let cfg = EngineConfig {
                contract,
                trace: Tracer::recording(),
                ..EngineConfig::default()
            };
            let trace = cfg.trace.clone();
            Engine::new(&sg, mode, 5, cfg).run();
            let events = trace.events();
            let mut alone = Vec::new();
            for r in &events {
                match &r.event {
                    TraceEvent::PhaseStart { .. } => alone.push(0),
                    TraceEvent::Superstep { .. } => {
                        let (_, only) = flag_loads(std::slice::from_ref(r))[0];
                        *alone.last_mut().expect("inside a phase") += u32::from(only);
                    }
                    _ => {}
                }
            }
            let cell = format!("{mode:?}/contract={contract}");
            assert_eq!(alone, per_phase, "{cell}: flag-only supersteps per phase");
            let loads = flag_loads(&events);
            assert!(loads
                .iter()
                .all(|&(f, _)| f % (k - 1) == 0 && f <= 2 * (k - 1)));
            let sent: u64 = loads.iter().map(|&(f, _)| f).sum();
            assert_eq!(sent, flags, "{cell}: flag messages");
        }
    }

    /// `a` and `b` side by side: `b`'s vertices follow `a`'s, no edge joins
    /// the two.
    fn disjoint_union(a: &kgraph::Graph, b: &kgraph::Graph) -> kgraph::Graph {
        let shift = a.n() as u32;
        let shifted = b.edges().iter().map(|e| (e.u + shift, e.v + shift, e.w));
        let edges = a.edges().iter().map(|e| (e.u, e.v, e.w)).chain(shifted);
        kgraph::Graph::from_edges(a.n() + b.n(), edges)
    }

    /// The threads one `each` and one `step` ran their closures on.
    fn closure_threads(e: &mut Engine) -> Vec<std::thread::ThreadId> {
        let seen = std::sync::Mutex::new(Vec::new());
        let note = || seen.lock().unwrap().push(std::thread::current().id());
        e.each(|_, _, _| note());
        e.step(|_, _, _, _| note());
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 2 * e.cx.k, "every machine ran both closures");
        seen
    }

    #[test]
    fn a_run_fans_out_only_above_the_half_edge_constant() {
        let me = std::thread::current().id();
        let small = sharded(4);
        assert!(small.total_half_edges() < FAN_OUT_MIN_HALF_EDGES);
        let mut e = engine(&small, false);
        assert!(!e.fan_out);
        assert!(closure_threads(&mut e).iter().all(|&t| t == me));

        // A dense block above the constant next to a 100-vertex path.
        let dense = generators::gnm(2000, 17_000, 3);
        assert!(2 * dense.m() >= FAN_OUT_MIN_HALF_EDGES);
        let g = disjoint_union(&dense, &generators::path(100));
        let large = ShardedGraph::from_graph(&g, &Partition::random_vertex(&g, 4, 7));
        let mut e = engine(&large, false);
        assert!(e.fan_out);
        // `par` itself runs inline on a one-core host.
        if std::thread::available_parallelism().is_ok_and(|hw| hw.get() > 1) {
            assert!(closure_threads(&mut e).iter().all(|&t| t != me));
        }

        // Induced on the path, the same shards have 198 half-edges left.
        let path: Vec<bool> = (0..g.n()).map(|v| v >= dense.n()).collect();
        let path = large.induced(&path);
        let mut e = engine(&path, false);
        assert!(!e.fan_out);
        assert!(closure_threads(&mut e).iter().all(|&t| t == me));
    }

    #[test]
    fn fan_out_never_shows_in_results_stats_or_the_logical_stream() {
        let g = generators::randomize_weights(&generators::gnm(300, 900, 11), 1000, 13);
        let sg = ShardedGraph::from_graph(&g, &Partition::random_vertex(&g, 4, 7));
        let chaos = FaultPlan::new(17).with_drop(0.1).with_crash(2, 9);
        let cells = [
            (Mode::Connectivity, false, None),
            (Mode::Mst, false, None),
            (Mode::Connectivity, true, None),
            (Mode::Mst, true, None),
            (Mode::Connectivity, false, Some(chaos)),
        ];
        for (mode, contract, faults) in cells {
            let run = |fan_out: bool| {
                let cfg = EngineConfig {
                    contract,
                    faults: faults.clone(),
                    trace: Tracer::recording(),
                    ..EngineConfig::default()
                };
                let trace = cfg.trace.clone();
                let mut e = Engine::new(&sg, mode, 5, cfg);
                e.fan_out = fan_out;
                // `EngineResult` holds the `CommStats`; Debug shows every field.
                (format!("{:?}", e.run()), trace.events())
            };
            let (threaded, inline) = (run(true), run(false));
            assert!(
                threaded.0 == inline.0,
                "{mode:?}/contract={contract}: result"
            );
            assert!(
                threaded.1 == inline.1,
                "{mode:?}/contract={contract}: stream"
            );
            assert!(!inline.1.is_empty());
        }
    }

    /// An 80-clique beside `other`: once merged, the clique's share of a
    /// machine (≈ 20 vertices × 79 neighbours) is above the edge cap.
    fn clique_beside(other: &kgraph::Graph) -> ShardedGraph {
        let g = disjoint_union(&generators::complete(80), other);
        ShardedGraph::from_graph(&g, &Partition::random_vertex(&g, 4, 7))
    }

    #[test]
    fn admission_keeps_the_sketch_count_and_the_crash_replay() {
        let sg = clique_beside(&generators::gnm(300, 700, 3));
        let run = |faults: Option<FaultPlan>, cap: Option<usize>| {
            let cfg = EngineConfig {
                faults,
                ..EngineConfig::default()
            };
            let mut e = Engine::new(&sg, Mode::Connectivity, 5, cfg);
            e.edge_cap = cap.unwrap_or(e.edge_cap);
            e.run()
        };
        let clean = run(None, None);
        // Every part is hashed once per sample, where it lives or at its
        // proxy: the cap moves only the split.
        let all_sketched = run(None, Some(0));
        assert!(clean.sketch_builds > 0);
        assert_eq!(clean.sketch_builds, all_sketched.sketch_builds);
        let crashed = run(Some(FaultPlan::new(17).with_crash(1, 40)), None);
        assert!(crashed.stats.recovery_rounds > 0, "the crash must fire");
        assert_eq!(crashed.labels, clean.labels);
        assert_eq!(crashed.phases, clean.phases);
        assert_eq!(
            crashed.stats.rounds - crashed.stats.recovery_rounds,
            clean.stats.rounds
        );
        assert_eq!(
            crashed.stats.total_bits - crashed.stats.retransmit_bits,
            clean.stats.total_bits
        );
    }

    /// Drives a run phase by phase and checks every memoised part sketch
    /// against its part hashed afresh under the phase's functions: the
    /// memo-built ones included, which in a mid-epoch phase summed the old
    /// parts' sketches and hashed the vertices of old parts that had shipped
    /// their edges. After an MST phase the memo still holds the unfiltered
    /// iteration-0 sketches: elimination neither reads nor replaces it.
    #[test]
    fn memo_built_part_sketches_equal_the_parts_hashed_afresh() {
        let g = generators::randomize_weights(&generators::path(600), 1000, 5);
        let sg = clique_beside(&g);
        for mode in [Mode::Connectivity, Mode::Mst] {
            let hits = |e: &Engine| e.machines.iter().map(|st| st.memo_hits).sum::<u64>();
            let mut e = Engine::new(&sg, mode, 5, EngineConfig::default());
            assert!(e.run_phase(0));
            let (mut p, mut absorbed_shipped, mut checked) = (1, 0, 0);
            loop {
                // Each machine's labels in phase `p`, and which of its
                // vertices last phase's memo covers.
                let before: Vec<_> = e
                    .machines
                    .iter()
                    .map(|st| {
                        let was = st.memo.as_ref().map(|(old, sketches)| {
                            old.iter().map(|was| sketches.contains_key(was)).collect()
                        });
                        (st.dur.labels.clone(), was)
                    })
                    .collect();
                let hits_before = hits(&e);
                let progressed = e.run_phase(p);
                let mid_epoch = !(p - 1).is_multiple_of(SKETCH_REUSE_PERIOD);
                if !mid_epoch {
                    assert_eq!(hits(&e), hits_before, "{mode:?} phase {p}: new epoch");
                }
                let fns = e.iter0_fns(p);
                for (st, (labels, was)) in e.machines.iter().zip(&before) {
                    let Some((_, sketches)) = &st.memo else {
                        continue;
                    };
                    for (&label, sketch) in sketches {
                        let sketch = sketch.as_ref().expect("a fresh memo holds every sketch");
                        let homed = sg.view(st.id).adjacency().enumerate().zip(labels);
                        let members: Vec<_> = homed.filter(|&(_, &l)| l == label).collect();
                        let mut fresh = L0Sketch::new(e.cx.params);
                        for ((_, (v, nbrs)), _) in &members {
                            for &(nb, _) in *nbrs {
                                fresh.add_incident_edge(&fns, *v, nb);
                            }
                        }
                        assert_eq!(sketch.cell_slice(), fresh.cell_slice(), "{mode:?} {p}");
                        checked += 1;
                        // Whether a member's part last phase was memoised.
                        let members = members.iter().map(|((i, _), _)| *i);
                        let old = |i: usize| was.as_ref().map(|was: &Vec<bool>| was[i]);
                        let (memoised, shipped) = (Some(true), Some(false));
                        if mid_epoch
                            && members.clone().any(|i| old(i) == memoised)
                            && members.clone().any(|i| old(i) == shipped)
                        {
                            absorbed_shipped += 1;
                        }
                    }
                }
                if !progressed {
                    break;
                }
                p += 1;
            }
            assert!(
                p > SKETCH_REUSE_PERIOD + 1,
                "{mode:?}: {p} phases, no rollover"
            );
            assert!(
                hits(&e) > 0 && checked > 0,
                "{mode:?}: the memo never served"
            );
            assert!(
                absorbed_shipped > 0,
                "{mode:?}: no part absorbed a shipped part"
            );
        }
    }

    /// The weighted cell the edge-cap invariants are checked on.
    fn weighted_cell() -> ShardedGraph {
        let g = generators::randomize_weights(&generators::gnm(300, 900, 11), 1000, 13);
        ShardedGraph::from_graph(&g, &Partition::random_vertex(&g, 4, 7))
    }

    /// Per-phase bookkeeping, pinned on one plain and one contracted cell:
    /// labels are counted without sorting them (by supernode once
    /// contracted) and tree depths without sorting the proxied maps, and
    /// both must count what the sorting versions counted.
    #[test]
    fn phase_components_and_drr_depths_are_pinned() {
        let sg = weighted_cell();
        let run = |mode, contract| {
            let cfg = EngineConfig {
                contract,
                ..EngineConfig::default()
            };
            let r = Engine::new(&sg, mode, 5, cfg).run();
            (r.phase_components, r.drr_depths)
        };
        assert_eq!(
            run(Mode::Connectivity, false),
            (vec![300, 159, 80, 31, 15, 5, 1], vec![3, 3, 3, 2, 2, 2])
        );
        assert_eq!(
            run(Mode::Mst, true),
            (
                vec![300, 154, 81, 37, 17, 7, 4, 2, 1],
                vec![3, 2, 4, 3, 2, 1, 1, 1]
            )
        );
    }

    /// A logical stream with what the edge cap may move masked: rounds and
    /// bits zeroed and `part_edges` counted as `part_sketch`.
    fn masked(records: Vec<kmachine::trace::TraceRecord>) -> Vec<TraceEvent> {
        use TraceEvent as E;
        let mask = |event| match event {
            E::Segment { name, .. } => E::Segment {
                name,
                rounds: 0,
                bits: 0,
                recovery_rounds: 0,
                retransmit_bits: 0,
            },
            E::PhaseEnd {
                phase,
                sketch_builds,
                sketch_cache_hits,
                ..
            } => E::PhaseEnd {
                phase,
                rounds: 0,
                bits: 0,
                recovery_rounds: 0,
                retransmit_bits: 0,
                sketch_builds,
                sketch_cache_hits,
            },
            E::Rollback { phase, crashed, .. } => E::Rollback {
                phase,
                crashed,
                rounds: 0,
                bits: 0,
                recovery_rounds: 0,
                retransmit_bits: 0,
            },
            E::Superstep {
                index,
                messages,
                links,
                kinds,
                ..
            } => {
                let mut merged: Vec<(String, u64)> = Vec::new();
                for (name, count) in kinds {
                    let name = name.replace("part_edges", "part_sketch");
                    match merged.last_mut().filter(|(last, _)| *last == name) {
                        Some((_, total)) => *total += count,
                        None => merged.push((name, count)),
                    }
                }
                E::Superstep {
                    index,
                    rounds: 0,
                    bits: 0,
                    messages,
                    max_link_bits: 0,
                    links: links.into_iter().map(|(s, d, _)| (s, d, 0)).collect(),
                    kinds: merged,
                }
            }
            E::Retransmit {
                superstep,
                attempt,
                messages,
                ..
            } => E::Retransmit {
                superstep,
                attempt,
                messages,
                bits: 0,
                rounds: 0,
            },
            other => other,
        };
        records.into_iter().map(|r| mask(r.event)).collect()
    }

    #[test]
    fn shipping_edges_moves_only_rounds_and_bits() {
        let sg = weighted_cell();
        let chaos = FaultPlan::new(17).with_drop(0.1).with_crash(2, 9);
        for mode in [Mode::Connectivity, Mode::Mst, Mode::SpanningForest] {
            for contract in [false, true] {
                for faults in [None, Some(chaos.clone())] {
                    let cell = format!("{mode:?}/contract={contract}/faults={}", faults.is_some());
                    let run = |cap: Option<usize>| {
                        let cfg = EngineConfig {
                            contract,
                            faults: faults.clone(),
                            trace: Tracer::recording(),
                            ..EngineConfig::default()
                        };
                        let trace = cfg.trace.clone();
                        let mut e = Engine::new(&sg, mode, 5, cfg);
                        e.edge_cap = cap.unwrap_or(e.edge_cap);
                        (e.run(), masked(trace.events()))
                    };
                    let ((shipped, stream), (sketched, all_sketch_stream)) =
                        (run(None), run(Some(0)));
                    assert_eq!(shipped.labels, sketched.labels, "{cell}");
                    assert_eq!(shipped.mst_edges, sketched.mst_edges, "{cell}");
                    assert_eq!(shipped.phases, sketched.phases, "{cell}");
                    assert_eq!(
                        shipped.phase_components, sketched.phase_components,
                        "{cell}"
                    );
                    assert_eq!(shipped.drr_depths, sketched.drr_depths, "{cell}");
                    let (s, a) = (&shipped.stats, &sketched.stats);
                    assert_eq!(
                        (s.supersteps, s.messages),
                        (a.supersteps, a.messages),
                        "{cell}"
                    );
                    assert!(s.rounds <= a.rounds, "{cell}: rounds");
                    assert!(s.total_bits <= a.total_bits, "{cell}: bits");
                    assert!(
                        contract || s.total_bits < a.total_bits,
                        "{cell}: nothing shipped"
                    );
                    assert!(stream == all_sketch_stream, "{cell}: masked stream");
                }
            }
        }
    }

    #[test]
    fn a_proxy_sums_shipped_edges_and_sketches_into_the_same_candidate() {
        // A 1 200-leaf star with a 300-vertex tail: once the star has
        // merged, its hub's machine holds a part above the cap (the hub
        // alone has 1 199 half-edges) and the other machines hold leaves.
        let star = (1..1200).map(|leaf| (0, leaf, 1));
        let tail = (1199..1499).map(|v| (v, v + 1, 1));
        let g = kgraph::Graph::from_edges(1500, star.chain(tail));
        let sg = ShardedGraph::from_graph(&g, &Partition::random_vertex(&g, 4, 7));
        let phase1 = |cap: Option<usize>| {
            let mut e = engine(&sg, false);
            e.edge_cap = cap.unwrap_or(e.edge_cap);
            assert!(e.run_phase(0));
            let fns = e.iter0_fns(1);
            e.build_and_send_sketches(1, &fns, false);
            // (edge lists, sketches) arriving per component.
            let mut arrivals: FxHashMap<Label, (u32, u32)> = FxHashMap::default();
            for env in e.machines.iter().flat_map(|st| &st.inbox) {
                match env.payload {
                    Payload::PartEdges { label, .. } => arrivals.entry(label).or_default().0 += 1,
                    Payload::PartSketch { label, .. } => arrivals.entry(label).or_default().1 += 1,
                    _ => {}
                }
            }
            e.proxy_merge_sketches(&fns);
            let candidates: Vec<(Label, Option<(u32, u32)>)> = e
                .machines
                .iter()
                .flat_map(|st| det::sorted_entries(&st.proxied))
                .map(|(label, c)| (label, c.candidate))
                .collect();
            (det::into_sorted_entries(arrivals), candidates)
        };
        let (arrivals, candidates) = phase1(None);
        let (_, all_sketch_candidates) = phase1(Some(0));
        let mixed = arrivals
            .iter()
            .find(|(_, (edges, sketches))| *edges > 0 && *sketches > 0);
        let (label, _) = mixed.expect("the star's proxy receives both rows");
        let candidate = candidates.iter().find(|(l, _)| l == label);
        assert!(
            candidate.is_some_and(|(_, c)| c.is_some()),
            "the star samples an edge"
        );
        assert_eq!(candidates, all_sketch_candidates);
    }

    #[test]
    fn cap_zero_is_the_all_sketch_ledger() {
        // The `rounds` / `total_bits` of this cell when every part ships
        // its sketch, as before parts could ship their edges.
        let sg = weighted_cell();
        let parent = [
            (Mode::Connectivity, 1478, 8_112_358),
            (Mode::Mst, 10_052, 47_234_278),
        ];
        for (mode, rounds, bits) in parent {
            let mut e = Engine::new(&sg, mode, 5, EngineConfig::default());
            e.edge_cap = 0;
            let s = e.run().stats;
            assert_eq!((s.rounds, s.total_bits), (rounds, bits), "{mode:?}");
        }
    }

    #[test]
    fn the_cap_is_where_a_sketch_stops_being_dearer() {
        for (n, reps) in [(2, 1), (480, 5), (50_000, 5), (1 << 31, 1), (1 << 31, 8)] {
            let params = SketchParams::for_graph(n, reps);
            let l = id_bits(n);
            let cap = edge_cap(params, l);
            let price = |half_edges: usize| {
                let edges = vec![(0, 0); half_edges];
                Payload::PartEdges { label: 0, edges }.wire_bits(l)
            };
            let sketch = Box::new(L0Sketch::new(params));
            let sketch = Payload::PartSketch { label: 0, sketch }.wire_bits(l);
            assert!(price(cap - 1) < sketch && price(cap) >= sketch, "n = {n}");
            assert!(cap >= 180, "n = {n}, reps = {reps}: cap {cap}");
        }
    }

    /// How many `kind` messages the superstep records carry.
    fn sent(records: &[kmachine::trace::TraceRecord], kind: &str) -> u64 {
        let count = |r: &kmachine::trace::TraceRecord| match &r.event {
            TraceEvent::Superstep { kinds, .. } => kinds
                .iter()
                .filter(|(k, _)| k == kind)
                .map(|(_, c)| c)
                .sum(),
            _ => 0,
        };
        records.iter().map(count).sum()
    }

    #[test]
    fn contracted_components_keep_their_labels_and_only_merging_supernodes_move() {
        let sg = weighted_cell();
        let part = sg.partition();
        for mode in [Mode::Connectivity, Mode::Mst, Mode::SpanningForest] {
            let cfg = EngineConfig {
                contract: true,
                trace: Tracer::recording(),
                ..EngineConfig::default()
            };
            let trace = cfg.trace.clone();
            let mut e = Engine::new(&sg, mode, 5, cfg);
            let label_of = |e: &Engine, v: Label| {
                let home = part.home(v as u32);
                e.machines[home].dur.labels[home_index(sg.view(home), v as u32)]
            };
            assert!(e.run_phase(0));
            let mut p = 1;
            loop {
                let mark = trace.mark();
                let live = e
                    .machines
                    .iter()
                    .flat_map(|st| st.dur.labels.iter().copied());
                let live = distinct_labels(&live.collect::<Vec<_>>());
                let progressed = e.run_phase(p);
                let phase = trace.events_since(mark);
                if p == 1 {
                    // One push per edge, from its larger endpoint's home.
                    let pushes = sent(&phase, "label_push");
                    assert!(pushes > 0 && pushes <= sg.total_half_edges() as u64 / 2);
                }
                // A merging supernode `ℓ` is renamed to its root, which
                // vertex `ℓ` is now labeled with; it moves to the root's
                // owner, over the wire unless that is its own owner (a local
                // send is free and untraced). Nothing else moves.
                let merged = live.iter().map(|&l| (l, label_of(&e, l)));
                let merged: Vec<_> = merged.filter(|&(l, root)| l != root).collect();
                assert_eq!(merged.len(), live.len() - e.count_labels());
                let remote = merged
                    .iter()
                    .filter(|&&(l, root)| part.home(l as u32) != part.home(root as u32));
                let remote = remote.count() as u64;
                assert_eq!(sent(&phase, "super_move"), remote, "{mode:?} phase {p}");
                for st in &e.machines {
                    for &label in st.dur.supers.keys() {
                        assert_eq!(part.home(label as u32), st.id, "{mode:?} phase {p}");
                        assert_eq!(label_of(&e, label), label, "{mode:?} phase {p}");
                    }
                }
                if !progressed {
                    break;
                }
                p += 1;
            }
            assert!(p > 2, "{mode:?}: at least two contracted phases ran");
        }
    }
}
