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
//!    vertices by component label into *parts*, builds one linear sketch per
//!    part, and sends it to the component's random proxy machine. The proxy
//!    sums part sketches — intra-component edges cancel by linearity — and
//!    samples a candidate outgoing edge. For MST, a `Θ(log n)`-iteration
//!    elimination loop repeats the sampling with sketches filtered to
//!    strictly lighter edges, converging on the minimum-weight outgoing
//!    edge (MWOE) w.h.p.
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
//! **Incremental sketch reuse** (DESIGN.md §3.7): the iteration-0 sketch
//! functions are re-derived only once per *epoch* of `SKETCH_REUSE_PERIOD`
//! phases, so a part whose component label did not change since its sketch
//! was built resends its cached sketch instead of re-hashing every
//! incident edge. Relabels invalidate
//! exactly the parts they touch; epoch rollover invalidates everything
//! (fresh randomness bounds any correlation between a failed sample and
//! later phases). Sketches themselves are still *sent* every phase at full
//! wire cost; what is amortized is the local rebuild work (the hot path)
//! **and** the §2.2 `Θ(log² n)`-bit function-seed distribution charge,
//! which is paid once per epoch — reused functions need no redistribution.
//!
//! All communication flows through [`kmachine::Bsp`], so every round and
//! bit is accounted exactly as in the paper's Lemma-1 analysis.
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
use crate::proxy::ProxyScheme;
use kgraph::ShardedGraph;
use kmachine::bandwidth::Bandwidth;
use kmachine::bsp::Bsp;
use kmachine::det;
use kmachine::fault::FaultPlan;
use kmachine::message::{Encoding, Envelope};
use kmachine::metrics::CommStats;
use kmachine::network::NetworkConfig;
use kmachine::par::par_for_each_state;
use kmachine::trace::{TraceEvent, Tracer};
use kmachine::transport::{make_transport, TransportSel};
use krand::shared::{SharedRandomness, Use};
use ksketch::{L0Sketch, SketchFns, SketchParams};
use rustc_hash::{FxHashMap, FxHashSet};
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
    /// phases compute exact local MWOEs on the deduped supergraph with
    /// `⌈log₂ n'⌉`-bit labels — same outputs, no sketches.
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

/// Attaches the configured byte transport to a superstep runner
/// (DESIGN.md §3.12). [`TransportSel::Sim`] leaves the in-process path
/// byte-for-byte untouched — no bridge is installed, the simulator stays
/// the accounting oracle. [`TransportSel::Proc`] spawns one worker process
/// per machine and routes every window through the socket mesh.
pub(crate) fn attach_transport(bsp: &mut Bsp<Payload>, sel: TransportSel, k: usize) {
    if sel == TransportSel::Proc {
        bsp.set_transport(make_transport(sel, k));
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
    /// fresh static runs. In a restricted run ([`Engine::restrict`])
    /// entries for inactive vertices are left at `0` and must be ignored.
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
    /// Part sketches built from scratch (local hashing work).
    pub sketch_builds: u64,
    /// Part sketches served from the incremental cache.
    pub sketch_cache_hits: u64,
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

/// A phase-boundary snapshot of the volatile per-machine state (see
/// [`Engine::take_checkpoint`]).
struct PhaseCheckpoint {
    /// Per-machine label maps.
    labels: Vec<FxHashMap<u32, Label>>,
    /// Per-machine emitted forest edges.
    mst_out: Vec<Vec<(u32, u32, u64)>>,
    /// The sketch-function epoch salt at the boundary.
    epoch_salt: u32,
    /// The epoch sketch functions cached at the boundary. Restoring them
    /// (instead of re-deriving) keeps the §2.2 distribution charge exactly
    /// where the fault-free run pays it: function seeds are part of each
    /// machine's durable checkpoint, so a re-entered phase never
    /// re-distributes mid-epoch. Shared, not copied: the tables are `Θ(n)`.
    cached_fns: Option<(u32, Arc<SketchFns>)>,
    /// Per-machine supergraph shards (§3.11). A crashed contracted phase
    /// must restore the supernodes too — labels alone cannot reconstruct
    /// the deduped contracted edge set.
    supers: Vec<FxHashMap<Label, SuperNode>>,
    /// Whether the supergraph had been built at the boundary.
    contracted: bool,
    /// The live label-space size `n'` at the boundary.
    n_active: usize,
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

/// Rewrites a supernode's adjacency under a label-rename map. Distinct old
/// keys may collapse onto one new key (their components merged into the
/// same root); colliding entries min-merge by the tie-free edge key.
/// Unrenamed neighbors keep their label.
fn rename_adj(node: SuperNode, map: &FxHashMap<Label, Label>) -> SuperNode {
    let mut out = SuperNode {
        parts: node.parts,
        adj: FxHashMap::default(),
    };
    for (nb, (w, ou, ov)) in node.adj {
        let nnb = map.get(&nb).copied().unwrap_or(nb);
        out.add_edge(nnb, w, ou, ov);
    }
    out
}

/// Drains a machine's inbox into the supergraph rename map
/// ([`Payload::SuperRelabel`]) and the vertex-space rename map
/// ([`Payload::Relabel`]).
fn drain_rename_maps(st: &mut MachineState) -> (FxHashMap<Label, Label>, FxHashMap<Label, Label>) {
    let mut smap = FxHashMap::default();
    let mut vmap = FxHashMap::default();
    for env in std::mem::take(&mut st.inbox) {
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
    (smap, vmap)
}

/// Per-component state held at its proxy machine during one phase.
#[derive(Clone, Debug)]
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
    /// that exactly one endpoint is internal.
    chosen: Option<(u32, u32, u64)>,
    /// Label on the other side of `chosen`.
    other_label: Option<Label>,
    /// MST: best (lightest) verified outgoing key so far.
    best: Option<EdgeKey>,
    /// MST: the edge realizing `best`.
    best_edge: Option<(u32, u32, u64)>,
    /// MST: elimination finished for this component.
    elim_done: bool,
    /// MST: consecutive failed/empty samples. A component is only declared
    /// done after two strikes, so a single Monte-Carlo sampling failure
    /// (≈0.1% per query at 5 repetitions) cannot silently terminate the
    /// elimination with a non-minimal edge.
    none_streak: u8,
    /// DRR parent (merge target), if any.
    parent: Option<Label>,
    /// Pointer-jumping state.
    ptr: Label,
    /// Whether `ptr` is known to be the tree root.
    ptr_done: bool,
}

impl ProxyComp {
    fn new(label: Label) -> Self {
        ProxyComp {
            own: label,
            parts: Vec::new(),
            sketch: None,
            candidate: None,
            info: [None, None],
            chosen: None,
            other_label: None,
            best: None,
            best_edge: None,
            elim_done: false,
            none_streak: 0,
            parent: None,
            ptr: label,
            ptr_done: true,
        }
    }
}

/// One machine's state: its vertices, their labels, the components it
/// proxies this phase, and its I/O buffers.
struct MachineState {
    id: usize,
    verts: Vec<u32>,
    labels: FxHashMap<u32, Label>,
    proxied: FxHashMap<Label, ProxyComp>,
    inbox: Vec<Envelope<Payload>>,
    outbox: Vec<Envelope<Payload>>,
    mst_out: Vec<(u32, u32, u64)>,
    /// MST elimination: thresholds received for the parts this machine
    /// holds. Presence means "this component is still eliminating";
    /// `Some(key)` bounds the rebuild, `None` means rebuild unfiltered
    /// (the component is retrying after a failed first sample).
    thresholds: FxHashMap<Label, Option<EdgeKey>>,
    /// Incremental cache: the unfiltered iteration-0 sketch of each local
    /// part, valid for the current sketch-function epoch. Invalidated per
    /// label on relabel, wholesale on epoch rollover.
    part_cache: FxHashMap<Label, L0Sketch>,
    /// Supergraph shard (§3.11): the supernodes this machine owns, keyed
    /// by their current label. Empty until contraction builds it.
    supers: FxHashMap<Label, SuperNode>,
    /// Part sketches this machine built from scratch.
    sketch_builds: u64,
    /// Part sketches this machine served from `part_cache`.
    sketch_cache_hits: u64,
    /// Scratch flag used by convergence aggregation.
    flag: bool,
}

/// The engine itself. Borrows the sharded input graph (which carries the
/// partition) for the run.
pub struct Engine<'g> {
    g: &'g ShardedGraph,
    mode: Mode,
    cfg: EngineConfig,
    k: usize,
    n: usize,
    l: u64,
    /// Whether the supergraph has been built (contracted phases active).
    contracted: bool,
    /// Size of the live label space `n'` (`= n` until contraction).
    n_active: usize,
    /// Label width `⌈log₂ n'⌉` — what every label field is charged. Equals
    /// `l` until contraction shrinks the label space (the satellite-audit
    /// invariant: charging `l` for a supergraph id overstates bits).
    lw: u64,
    shared: SharedRandomness,
    scheme: ProxyScheme,
    bsp: Bsp<Payload>,
    machines: Vec<MachineState>,
    params: SketchParams,
    /// The iteration-0 sketch functions of the current epoch, keyed by tag.
    cached_fns: Option<(u32, Arc<SketchFns>)>,
    /// Bumped by the termination guard to force fresh epoch functions.
    epoch_salt: u32,
    phase_components: Vec<usize>,
    drr_depths: Vec<u32>,
}

impl<'g> Engine<'g> {
    /// Builds an engine for one run. `seed` drives all randomness.
    pub fn new(g: &'g ShardedGraph, mode: Mode, seed: u64, cfg: EngineConfig) -> Self {
        let k = g.k();
        let n = g.n();
        let shared = SharedRandomness::new(seed);
        let net = NetworkConfig {
            k,
            bandwidth: cfg.bandwidth,
            n,
            cost_model: cfg.cost_model,
            encoding: cfg.encoding,
        };
        let mut bsp = Bsp::new(net);
        if let Some(plan) = cfg.faults.clone() {
            bsp.install_faults(plan, true);
        }
        attach_transport(&mut bsp, cfg.transport, k);
        bsp.set_tracer(cfg.trace.clone());
        let machines = (0..k)
            .map(|id| {
                let verts = g.view(id).verts().to_vec();
                let labels = verts.iter().map(|&v| (v, v as Label)).collect();
                MachineState {
                    id,
                    verts,
                    labels,
                    proxied: FxHashMap::default(),
                    inbox: Vec::new(),
                    outbox: Vec::new(),
                    mst_out: Vec::new(),
                    thresholds: FxHashMap::default(),
                    part_cache: FxHashMap::default(),
                    supers: FxHashMap::default(),
                    sketch_builds: 0,
                    sketch_cache_hits: 0,
                    flag: false,
                }
            })
            .collect();
        Engine {
            g,
            mode,
            k,
            n,
            l: id_bits(n),
            contracted: false,
            n_active: n,
            lw: id_bits(n),
            scheme: ProxyScheme::new(shared, k),
            shared,
            bsp,
            machines,
            params: SketchParams::for_graph(n, cfg.reps),
            cfg,
            cached_fns: None,
            epoch_salt: 0,
            phase_components: Vec::new(),
            drr_depths: Vec::new(),
        }
    }

    /// Tracks an Alice/Bob machine bipartition (§4 harness).
    pub fn set_cut(&mut self, side: Vec<bool>) {
        self.bsp.set_cut(side);
    }

    /// Restricts the run to the vertices with `active[v] == true`: every
    /// machine drops its inactive home vertices before phase 0, so the run
    /// touches only the induced subgraph — the `core::dynamic` incremental
    /// re-solve path, which re-runs only the components an update batch
    /// touched. Because every per-component decision (phase-0 sampling,
    /// sketch functions, proxies, DRR ranks, pointer jumping) is keyed by
    /// vertex ids and labels — never by global state — the restricted
    /// trajectory of an active component is identical to its trajectory in
    /// an unrestricted run on the same shards, which is what makes spliced
    /// answers bit-compatible with full fresh runs (`tests/dynamic.rs`).
    ///
    /// The caller must guarantee no edge joins an active and an inactive
    /// vertex (the dynamic layer's touched-component closure does); such an
    /// edge would appear as a never-cancelling outgoing edge. Must be
    /// called before [`Engine::run`].
    pub fn restrict(&mut self, active: &[bool]) {
        assert_eq!(active.len(), self.n, "active mask must cover all vertices");
        for st in &mut self.machines {
            st.verts.retain(|&v| active[v as usize]);
            det::retain_where(&mut st.labels, |&v, _| active[v as usize]);
        }
        // The closure precondition, checked where it is cheap: every
        // retained vertex's neighborhood must itself be active (each
        // machine validates only its own shard adjacency).
        #[cfg(debug_assertions)]
        for st in &self.machines {
            let view = self.g.view(st.id);
            for &v in &st.verts {
                for &(nb, _) in view.neighbors(v) {
                    debug_assert!(
                        active[nb as usize],
                        "restrict: active vertex {v} has an edge to inactive {nb} — \
                         the mask must be closed under adjacency"
                    );
                }
            }
        }
    }

    /// Runs the algorithm to completion and returns outputs + accounting.
    pub fn run(mut self) -> EngineResult {
        let setup_rounds_mark = self.bsp.stats().rounds;
        let setup_bits_mark = self.bsp.stats().total_bits;
        if self.cfg.charge_shared_randomness {
            // §2.2: M1 distributes Θ~(n/k) shared bits before phase 1.
            let bits = SharedRandomness::paper_shared_bits(self.n, self.k);
            let rounds = SharedRandomness::distribution_rounds(bits, self.k, self.bsp.link_bits());
            self.bsp.charge_modeled_rounds(rounds, bits, 0);
        }
        {
            let rounds = self.bsp.stats().rounds - setup_rounds_mark;
            let bits = self.bsp.stats().total_bits - setup_bits_mark;
            self.cfg.trace.emit(|| TraceEvent::Segment {
                name: "setup".to_string(),
                rounds,
                bits,
            });
        }
        let max_phases = self
            .cfg
            .max_phases
            .unwrap_or(12 * id_bits(self.n.max(2)) as u32 + 2);
        // Crash recovery (§3.10): checkpoint at every phase boundary so a
        // crashed phase can be rolled back and re-entered. Only armed when
        // the plan actually schedules crashes — message-level faults are
        // fully masked inside the superstep layer and need no checkpoints.
        let recovery_on = self
            .cfg
            .faults
            .as_ref()
            .is_some_and(|f| !f.crashes.is_empty());
        // Once every scheduled crash superstep lies in the past no rollback
        // can ever be needed: stop refreshing the (O(n)-clone) checkpoint.
        let last_crash_superstep = self
            .cfg
            .faults
            .as_ref()
            .and_then(|f| f.crashes.iter().map(|c| c.superstep).max())
            .unwrap_or(0);
        let mut checkpoint = recovery_on.then(|| self.take_checkpoint());
        let mut phases = 0;
        let mut p = 0;
        let mut retries = 0u32;
        while p < max_phases {
            let crash_mark = self.bsp.crash_count();
            let rounds_mark = self.bsp.stats().rounds;
            let recovery_mark = self.bsp.stats().recovery_rounds;
            let bits_mark = self.bsp.stats().total_bits;
            let retransmit_mark = self.bsp.stats().retransmit_bits;
            let comp_mark = self.phase_components.len();
            let depth_mark = self.drr_depths.len();
            let sketch_mark = self.cfg.trace.is_on().then(|| {
                (
                    self.machines.iter().map(|st| st.sketch_builds).sum::<u64>(),
                    self.machines
                        .iter()
                        .map(|st| st.sketch_cache_hits)
                        .sum::<u64>(),
                )
            });
            let comps = self.count_labels();
            self.phase_components.push(comps);
            let contracted = self.contracted;
            self.cfg.trace.emit(|| TraceEvent::PhaseStart {
                phase: p,
                components: comps as u64,
                contracted,
            });
            let mut progressed = self.run_phase(p);
            if !progressed && p >= 1 && !self.contracted {
                // Termination guard: with cached iteration-0 functions a
                // failed Monte-Carlo sample would repeat identically next
                // phase, so "no outgoing edge anywhere" must be confirmed
                // once with fresh functions before the run may stop.
                self.epoch_salt += 1;
                self.cached_fns = None;
                for st in &mut self.machines {
                    st.part_cache.clear();
                    st.proxied.clear();
                    st.thresholds.clear();
                }
                progressed = self.run_phase(p);
            }
            if recovery_on && self.bsp.crash_count() > crash_mark {
                // One or more machines crashed during this phase: discard
                // the aborted attempt (including anything computed from
                // state the crash should have wiped), restore from the
                // phase-boundary checkpoint, and re-enter the phase. The
                // aborted attempt's rounds and bits plus the restore
                // barrier are attributed to recovery — minus what the
                // superstep layer already attributed during the attempt,
                // so nothing is double-counted and the identities
                // `rounds − recovery_rounds = fault-free rounds` /
                // `total_bits − retransmit_bits = fault-free total_bits`
                // stay exact through crash re-entry (the re-entered phase
                // replays the fault-free trajectory, so its base cost is
                // the clean run's). Crash events fire once (keyed by
                // absolute superstep), so retries terminate.
                retries += 1;
                assert!(
                    retries <= MAX_PHASE_RETRIES,
                    "phase {p} was re-entered {retries} times after crashes"
                );
                let crashed = self.bsp.crashed_since(crash_mark);
                self.phase_components.truncate(comp_mark);
                self.drr_depths.truncate(depth_mark);
                self.rollback(
                    checkpoint.as_ref().expect("recovery_on keeps a checkpoint"),
                    &crashed,
                );
                let wasted_rounds = (self.bsp.stats().rounds - rounds_mark)
                    - (self.bsp.stats().recovery_rounds - recovery_mark);
                let wasted_bits = (self.bsp.stats().total_bits - bits_mark)
                    - (self.bsp.stats().retransmit_bits - retransmit_mark);
                self.bsp.charge_barrier(); // restart coordination
                self.bsp.attribute_recovery(wasted_rounds + 1, wasted_bits);
                let stats = self.bsp.stats();
                let (rounds, bits) = (stats.rounds - rounds_mark, stats.total_bits - bits_mark);
                let rec = stats.recovery_rounds - recovery_mark;
                let rtx = stats.retransmit_bits - retransmit_mark;
                let crashed_ids: Vec<u32> = crashed.iter().map(|&m| m as u32).collect();
                self.cfg.trace.emit(move || TraceEvent::Rollback {
                    phase: p,
                    crashed: crashed_ids,
                    rounds,
                    bits,
                    recovery_rounds: rec,
                    retransmit_bits: rtx,
                });
                continue;
            }
            retries = 0;
            phases = p + 1;
            {
                let stats = self.bsp.stats();
                let rounds = stats.rounds - rounds_mark;
                let bits = stats.total_bits - bits_mark;
                let rec = stats.recovery_rounds - recovery_mark;
                let rtx = stats.retransmit_bits - retransmit_mark;
                let (builds, hits) = sketch_mark.map_or((0, 0), |(b0, h0)| {
                    (
                        self.machines.iter().map(|st| st.sketch_builds).sum::<u64>() - b0,
                        self.machines
                            .iter()
                            .map(|st| st.sketch_cache_hits)
                            .sum::<u64>()
                            - h0,
                    )
                });
                self.cfg.trace.emit(|| TraceEvent::PhaseEnd {
                    phase: p,
                    rounds,
                    bits,
                    recovery_rounds: rec,
                    retransmit_bits: rtx,
                    sketch_builds: builds,
                    sketch_cache_hits: hits,
                });
            }
            if !progressed {
                break;
            }
            if recovery_on && self.bsp.stats().supersteps <= last_crash_superstep {
                checkpoint = Some(self.take_checkpoint());
                self.cfg.trace.emit(|| TraceEvent::Checkpoint { phase: p });
            }
            p += 1;
        }
        let out_rounds_mark = self.bsp.stats().rounds;
        let out_bits_mark = self.bsp.stats().total_bits;
        let counted = if self.cfg.run_output_protocol {
            Some(self.output_protocol(phases))
        } else {
            None
        };
        {
            let rounds = self.bsp.stats().rounds - out_rounds_mark;
            let bits = self.bsp.stats().total_bits - out_bits_mark;
            self.cfg.trace.emit(|| TraceEvent::Segment {
                name: "output".to_string(),
                rounds,
                bits,
            });
        }
        // Gather outputs (instrumentation, not communication), then
        // canonicalize: relabel each component by its smallest member, so
        // the reported labels are a pure function of the partition. The
        // distributed state keeps its trajectory-dependent root labels;
        // only the gathered output is normalized.
        let mut labels = vec![0 as Label; self.n];
        let mut canon: FxHashMap<Label, Label> = FxHashMap::default();
        for st in &self.machines {
            for (&v, &lab) in &st.labels {
                labels[v as usize] = lab;
                canon
                    .entry(lab)
                    .and_modify(|m| *m = (*m).min(v as Label))
                    .or_insert(v as Label);
            }
        }
        for st in &self.machines {
            for v in det::sorted_keys(&st.labels) {
                labels[v as usize] = canon[&labels[v as usize]];
            }
        }
        let mst_edges_per_machine: Vec<usize> =
            self.machines.iter().map(|st| st.mst_out.len()).collect();
        let mst_edges = self
            .machines
            .iter()
            .flat_map(|st| st.mst_out.iter().copied())
            .collect();
        let sketch_builds = self.machines.iter().map(|st| st.sketch_builds).sum();
        let sketch_cache_hits = self.machines.iter().map(|st| st.sketch_cache_hits).sum();
        EngineResult {
            labels,
            stats: self.bsp.into_stats(),
            phases,
            phase_components: self.phase_components,
            drr_depths: self.drr_depths,
            mst_edges,
            mst_edges_per_machine,
            counted_components: counted,
            sketch_builds,
            sketch_cache_hits,
        }
    }

    // ------------------------------------------------------------------
    // Crash recovery (DESIGN.md §3.10)
    // ------------------------------------------------------------------

    /// Snapshots the volatile per-machine state at a phase boundary: the
    /// label maps, the emitted forest edges, and the sketch-function epoch
    /// salt. That is everything a re-entered phase needs to replay the
    /// exact fault-free trajectory — per-phase proxy state and sketch
    /// caches are rebuilt (identically) by the phase itself.
    fn take_checkpoint(&self) -> PhaseCheckpoint {
        PhaseCheckpoint {
            labels: self.machines.iter().map(|st| st.labels.clone()).collect(),
            mst_out: self.machines.iter().map(|st| st.mst_out.clone()).collect(),
            epoch_salt: self.epoch_salt,
            cached_fns: self.cached_fns.clone(),
            supers: self.machines.iter().map(|st| st.supers.clone()).collect(),
            contracted: self.contracted,
            n_active: self.n_active,
        }
    }

    /// Restores the checkpoint after a crash: crashed machines re-read
    /// their graph shard from durable storage (base CSR + the
    /// `kgraph::sharded` delta log), every machine's labels and emitted
    /// edges roll back to the phase boundary, and all per-phase state is
    /// dropped. Checkpoints live on each machine's local durable storage,
    /// so the restore ships no bits; its cost is the coordination barrier
    /// the caller charges.
    fn rollback(&mut self, cp: &PhaseCheckpoint, crashed: &[usize]) {
        for &m in crashed {
            self.g.rebuild_shard(m);
        }
        for (i, st) in self.machines.iter_mut().enumerate() {
            st.labels = cp.labels[i].clone();
            st.mst_out = cp.mst_out[i].clone();
            st.supers = cp.supers[i].clone();
            st.proxied.clear();
            st.thresholds.clear();
            st.part_cache.clear();
            st.inbox.clear();
            st.outbox.clear();
        }
        self.epoch_salt = cp.epoch_salt;
        self.cached_fns = cp.cached_fns.clone();
        self.contracted = cp.contracted;
        self.n_active = cp.n_active;
        self.lw = id_bits(self.n_active);
    }

    // ------------------------------------------------------------------
    // Phase machinery
    // ------------------------------------------------------------------

    /// Runs one phase; returns whether any component found an outgoing edge.
    fn run_phase(&mut self, p: u32) -> bool {
        if self.cfg.contract && p >= 1 {
            if !self.contracted {
                self.build_supergraph(p);
            }
            return self.run_super_phase(p);
        }
        self.select_outgoing(p);
        // Phase-progress flag: any component with a resolved outgoing edge?
        let progressed =
            self.aggregate_flag(|st| det::any_value(&st.proxied, |c| c.chosen.is_some()));
        if !progressed {
            return false;
        }
        self.build_drr_forest(p);
        self.record_drr_depth();
        self.pointer_jump(p);
        self.relabel(p);
        true
    }

    /// Step 1: every component selects (at most) one outgoing edge.
    fn select_outgoing(&mut self, p: u32) {
        if p == 0 {
            self.phase0_local_select();
            return;
        }
        // Iteration-0 sketch functions: reused within the current epoch so
        // unchanged parts can serve their cached sketches.
        let mut iter = 0u32;
        let fns = self.iter0_fns(p);
        self.build_and_send_sketches(p, &fns, /*only_thresholded=*/ false);
        self.proxy_merge_sketches(p, &fns);
        self.probe_candidates(p);
        if self.mode != Mode::Mst {
            // Single sample: the verified candidate is the chosen edge.
            par_for_each_state(&mut self.machines, |_, st| {
                det::for_each_value_mut(&mut st.proxied, |c| {
                    finalize_candidate(c);
                    c.chosen = c.best_edge;
                });
            });
            return;
        }
        // MST: elimination loop (§3.1). Repeat: accept candidate as the new
        // best, broadcast the threshold, rebuild filtered sketches, sample
        // again — until every component is done (its lightest verified edge
        // is the MWOE w.h.p.).
        let max_iters = 2 * id_bits(self.n) as u32 + 8;
        loop {
            par_for_each_state(&mut self.machines, |_, st| {
                det::for_each_value_mut(&mut st.proxied, |c| {
                    finalize_candidate(c);
                });
            });
            let active = self.aggregate_flag(|st| det::any_value(&st.proxied, |c| !c.elim_done));
            if !active || iter >= max_iters {
                break;
            }
            iter += 1;
            self.broadcast_thresholds(p);
            // Elimination iterations always use fresh per-(phase, iteration)
            // functions: their sketches are threshold-filtered and never
            // cacheable.
            let fns = self.sketch_fns(p, iter);
            self.charge_fns_distribution(&fns);
            self.build_and_send_sketches(p, &fns, /*only_thresholded=*/ true);
            self.proxy_merge_sketches(p, &fns);
            self.probe_candidates(p);
        }
        par_for_each_state(&mut self.machines, |_, st| {
            det::for_each_value_mut(&mut st.proxied, |c| {
                c.chosen = c.best_edge;
            });
        });
    }

    /// Phase 0 (paper §2.1): singleton components are proxied by their home
    /// machine, so selection is fully local. Connectivity samples a uniform
    /// incident edge; MST takes the minimum-key incident edge.
    fn phase0_local_select(&mut self) {
        let g = self.g;
        let mode = self.mode;
        let prf = self.shared.prf(Use::Phase0Sample);
        par_for_each_state(&mut self.machines, |id, st| {
            let view = g.view(id);
            for &v in &st.verts {
                let nbrs = view.neighbors(v);
                let mut comp = ProxyComp::new(v as Label);
                comp.parts = vec![id as u16];
                if !nbrs.is_empty() {
                    let (nb, w) = match mode {
                        Mode::Connectivity | Mode::SpanningForest => {
                            nbrs[prf.eval_mod(0, v as u64, nbrs.len() as u64) as usize]
                        }
                        Mode::Mst => *nbrs
                            .iter()
                            .min_by_key(|&&(nb, w)| {
                                let (a, b) = if v < nb { (v, nb) } else { (nb, v) };
                                (w, a, b)
                            })
                            .expect("nonempty"),
                    };
                    let (a, b) = if v < nb { (v, nb) } else { (nb, v) };
                    comp.chosen = Some((a, b, w));
                    comp.best_edge = comp.chosen;
                    // At phase 0 the other endpoint's label is its id.
                    comp.other_label = Some(nb as Label);
                }
                st.proxied.insert(v as Label, comp);
            }
        });
    }

    /// Derives the sketch functions for `(phase, elimination iteration)`.
    fn sketch_fns(&self, p: u32, iter: u32) -> SketchFns {
        // Distinct tag per (phase, iteration): phases are < 2^24 and
        // iterations < 64 in practice, so these tags never collide with the
        // `EPOCH_TAG_BASE` range of the iteration-0 epoch functions.
        SketchFns::new(&self.shared, p * 64 + iter, self.params)
    }

    /// Tag of the iteration-0 sketch functions for phase `p ≥ 1`: one tag
    /// per (reuse epoch, termination-guard salt).
    fn iter0_tag(&self, p: u32) -> u32 {
        /// Disjoint from every `p * 64 + iter` elimination tag.
        const EPOCH_TAG_BASE: u32 = 1 << 30;
        EPOCH_TAG_BASE + ((p - 1) / SKETCH_REUSE_PERIOD) * 1024 + self.epoch_salt
    }

    /// The iteration-0 sketch functions for phase `p`, reusing the cached
    /// epoch functions when the tag matches. On epoch rollover derives
    /// fresh functions, charges their §2.2 distribution cost, and drops
    /// every cached part sketch — stale sketches from old functions must
    /// never be merged with new ones.
    fn iter0_fns(&mut self, p: u32) -> Arc<SketchFns> {
        let tag = self.iter0_tag(p);
        if let Some((t, fns)) = &self.cached_fns {
            if *t == tag {
                return Arc::clone(fns);
            }
        }
        let fns = Arc::new(SketchFns::new(&self.shared, tag, self.params));
        self.charge_fns_distribution(&fns);
        for st in &mut self.machines {
            st.part_cache.clear();
        }
        self.cached_fns = Some((tag, Arc::clone(&fns)));
        fns
    }

    /// §2.3 "without shared randomness": Θ(log² n) seed bits per phase are
    /// generated at M1 and distributed in O(1) rounds — charged here.
    fn charge_fns_distribution(&mut self, fns: &SketchFns) {
        if self.cfg.charge_shared_randomness {
            let bits = fns.random_bits();
            let rounds = SharedRandomness::distribution_rounds(bits, self.k, self.bsp.link_bits());
            self.bsp.charge_modeled_rounds(rounds, bits, 0);
        }
    }

    /// Builds part sketches and sends them to proxies. With
    /// `only_thresholded`, only parts that received an elimination threshold
    /// participate, and their sketches keep only edges strictly below it;
    /// otherwise (the iteration-0 epoch-function path) unfiltered part
    /// sketches are served from / inserted into the per-machine cache.
    fn build_and_send_sketches(&mut self, p: u32, fns: &SketchFns, only_thresholded: bool) {
        let g = self.g;
        let part = self.g.partition();
        let scheme = &self.scheme;
        let l = self.l;
        let lw = self.lw;
        let params = self.params;
        let mut machines = std::mem::take(&mut self.machines);
        par_for_each_state(&mut machines, |id, st| {
            let view = g.view(id);
            // Group local vertices by label.
            let mut groups: FxHashMap<Label, Vec<u32>> = FxHashMap::default();
            for &v in &st.verts {
                groups.entry(st.labels[&v]).or_default().push(v);
            }
            for (label, vs) in det::into_sorted_entries(groups) {
                let active = st.thresholds.get(&label).copied();
                if only_thresholded && active.is_none() {
                    continue;
                }
                let thr = active.flatten();
                let build = |st: &mut MachineState| {
                    st.sketch_builds += 1;
                    let mut sk = L0Sketch::new(params);
                    for &v in &vs {
                        for &(nb, w) in view.neighbors(v) {
                            if let Some(t) = thr {
                                let (a, b) = if v < nb { (v, nb) } else { (nb, v) };
                                if (w, a, b) >= t {
                                    continue;
                                }
                            }
                            sk.add_incident_edge(fns, v, nb);
                        }
                    }
                    sk
                };
                let sk = if !only_thresholded && thr.is_none() {
                    if let Some(cached) = st.part_cache.get(&label) {
                        st.sketch_cache_hits += 1;
                        cached.clone()
                    } else {
                        let sk = build(st);
                        st.part_cache.insert(label, sk.clone());
                        sk
                    }
                } else {
                    build(st)
                };
                let dst = scheme.proxy_of(part, p, 0, label);
                let payload = Payload::PartSketch {
                    label,
                    sketch: Box::new(sk),
                };
                st.outbox.push(payload.envelope(id, dst, l, lw));
            }
        });
        self.machines = machines;
        self.flush();
    }

    /// Proxies merge arriving part sketches and sample a candidate edge.
    fn proxy_merge_sketches(&mut self, _p: u32, fns: &SketchFns) {
        par_for_each_state(&mut self.machines, |_, st| {
            let inbox = std::mem::take(&mut st.inbox);
            // Components seen this superstep (for requerying).
            let mut touched: FxHashSet<Label> = FxHashSet::default();
            for env in inbox {
                if let Payload::PartSketch { label, sketch } = env.payload {
                    let comp = st
                        .proxied
                        .entry(label)
                        .or_insert_with(|| ProxyComp::new(label));
                    if !comp.parts.contains(&(env.src as u16)) {
                        comp.parts.push(env.src as u16);
                    }
                    match &mut comp.sketch {
                        Some(acc) => acc.merge(&sketch),
                        None => comp.sketch = Some(*sketch),
                    }
                    touched.insert(label);
                }
            }
            for label in det::sorted_members(&touched) {
                let comp = st.proxied.get_mut(&label).expect("just inserted");
                comp.candidate = comp
                    .sketch
                    .as_ref()
                    .and_then(|sk| sk.query(fns))
                    .map(|(u, v)| (u.min(v), u.max(v)));
                comp.info = [None, None];
                comp.sketch = None; // sampled once; free the memory
            }
        });
    }

    /// Probe the candidate edges: proxy asks both endpoints' home machines
    /// for current label, existence, and weight (two supersteps).
    fn probe_candidates(&mut self, _p: u32) {
        let part = self.g.partition();
        let l = self.l;
        let lw = self.lw;
        // Superstep A: queries out.
        let mut machines = std::mem::take(&mut self.machines);
        par_for_each_state(&mut machines, |id, st| {
            let mut out = Vec::new();
            for (label, c) in det::sorted_entries(&st.proxied) {
                if let Some((u, v)) = c.candidate {
                    for (ask, other) in [(u, v), (v, u)] {
                        let payload = Payload::EdgeProbe {
                            comp: label,
                            ask,
                            other,
                        };
                        out.push(payload.envelope(id, part.home(ask), l, lw));
                    }
                }
            }
            st.outbox.extend(out);
        });
        self.machines = machines;
        self.flush();
        // Superstep B: homes answer from their authoritative label map and
        // their local shard adjacency (`ask` is homed here by construction).
        let g = self.g;
        let mut machines = std::mem::take(&mut self.machines);
        par_for_each_state(&mut machines, |id, st| {
            let view = g.view(id);
            let inbox = std::mem::take(&mut st.inbox);
            for env in inbox {
                if let Payload::EdgeProbe { comp, ask, other } = env.payload {
                    let label = *st.labels.get(&ask).expect("probe reached home machine");
                    let weight = view.edge_weight(ask, other);
                    let payload = Payload::EdgeProbeReply {
                        comp,
                        vertex: ask,
                        label,
                        exists: weight.is_some(),
                        weight: weight.unwrap_or(0),
                    };
                    st.outbox.push(payload.envelope(id, env.src, l, lw));
                }
            }
        });
        self.machines = machines;
        self.flush();
        // Record replies at the proxies.
        par_for_each_state(&mut self.machines, |_, st| {
            let inbox = std::mem::take(&mut st.inbox);
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
                            let slot = if vertex == u { 0 } else { 1 };
                            debug_assert!(vertex == u || vertex == v);
                            c.info[slot] = Some((label, exists, weight));
                        }
                    }
                }
            }
        });
    }

    /// MST: broadcast each active component's new strict threshold to all
    /// machines holding a part of it.
    fn broadcast_thresholds(&mut self, _p: u32) {
        let l = self.l;
        let lw = self.lw;
        let mut machines = std::mem::take(&mut self.machines);
        par_for_each_state(&mut machines, |id, st| {
            let mut out = Vec::new();
            for (label, c) in det::sorted_entries(&st.proxied) {
                if c.elim_done {
                    continue;
                }
                let key = c.best;
                for &m in &c.parts {
                    out.push(Payload::Threshold { label, key }.envelope(id, m as usize, l, lw));
                }
            }
            st.outbox.extend(out);
        });
        self.machines = machines;
        self.flush();
        par_for_each_state(&mut self.machines, |_, st| {
            st.thresholds.clear();
            let inbox = std::mem::take(&mut st.inbox);
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
        let scheme = &self.scheme;
        let merge = self.cfg.merge;
        let mut machines = std::mem::take(&mut self.machines);
        par_for_each_state(&mut machines, |_, st| {
            det::for_each_entry_mut(&mut st.proxied, |label, c| {
                let connects = |other: Label| match merge {
                    MergeStrategy::Drr => scheme.connects(p, label, other),
                    MergeStrategy::CoinFlip => !scheme.coin(p, label) && scheme.coin(p, other),
                };
                c.parent = match (c.chosen, c.other_label) {
                    (Some(_), Some(other)) if connects(other) => Some(other),
                    _ => None,
                };
                match c.parent {
                    Some(parent) => {
                        c.ptr = parent;
                        c.ptr_done = false;
                    }
                    None => {
                        c.ptr = label;
                        c.ptr_done = true;
                    }
                }
            });
        });
        self.machines = machines;
    }

    /// Step 3 (§2.5): pointer jumping among proxies until every component
    /// knows its root label. The iteration count covers the w.h.p. Lemma-6
    /// depth bound; a straggler merely relabels to an ancestor (safe).
    fn pointer_jump(&mut self, p: u32) {
        let depth_bound = 6 * (id_bits(self.n + 1) as u32) + 2;
        let iters = 32 - (2 * depth_bound).leading_zeros() + 1;
        let part = self.g.partition();
        let scheme = self.scheme.clone();
        for _ in 0..iters {
            if !self.aggregate_flag(|st| det::any_value(&st.proxied, |c| !c.ptr_done)) {
                break;
            }
            self.jump_round(|target| scheme.proxy_of(part, p, 0, target));
        }
    }

    /// One pointer-doubling round, shared by [`Engine::pointer_jump`] and
    /// [`Engine::super_pointer_jump`]: every unfinished component asks the
    /// machine `route(ptr)` holding its pointer target's state for that
    /// target's pointer, and adopts the answer. Two supersteps.
    fn jump_round(&mut self, route: impl Fn(Label) -> usize + Sync) {
        let l = self.l;
        let lw = self.lw;
        // Queries out.
        let mut machines = std::mem::take(&mut self.machines);
        par_for_each_state(&mut machines, |id, st| {
            let mut out = Vec::new();
            for (label, c) in det::sorted_entries(&st.proxied) {
                if !c.ptr_done {
                    let payload = Payload::PtrQuery {
                        asker: label,
                        target: c.ptr,
                    };
                    out.push(payload.envelope(id, route(c.ptr), l, lw));
                }
            }
            st.outbox.extend(out);
        });
        self.machines = machines;
        self.flush();
        // Answers back (reads only pre-iteration state: replies are
        // computed before any update is applied).
        let mut machines = std::mem::take(&mut self.machines);
        par_for_each_state(&mut machines, |id, st| {
            let inbox = std::mem::take(&mut st.inbox);
            let mut out = Vec::new();
            for env in inbox {
                if let Payload::PtrQuery { asker, target } = env.payload {
                    let t = st
                        .proxied
                        .get(&target)
                        .expect("pointer target's state lives where its query was routed");
                    let payload = Payload::PtrReply {
                        asker,
                        ptr: t.ptr,
                        done: t.ptr_done,
                    };
                    out.push(payload.envelope(id, env.src, l, lw));
                }
            }
            st.outbox.extend(out);
        });
        self.machines = machines;
        self.flush();
        // Apply updates.
        par_for_each_state(&mut self.machines, |_, st| {
            for env in std::mem::take(&mut st.inbox) {
                if let Payload::PtrReply { asker, ptr, done } = env.payload {
                    if let Some(c) = st.proxied.get_mut(&asker) {
                        c.ptr = ptr;
                        c.ptr_done = done;
                    }
                }
            }
        });
    }

    /// Step 4: proxies broadcast relabel commands; machines apply them.
    /// MST: a component that merged outputs its chosen edge at the proxy.
    fn relabel(&mut self, _p: u32) {
        let l = self.l;
        let lw = self.lw;
        let mode = self.mode;
        let mut machines = std::mem::take(&mut self.machines);
        par_for_each_state(&mut machines, |id, st| {
            let mut out = Vec::new();
            for (label, c) in det::sorted_entries(&st.proxied) {
                if c.parent.is_some() {
                    if mode != Mode::Connectivity {
                        if let Some(e) = c.chosen {
                            st.mst_out.push(e);
                        }
                    }
                    if c.ptr != label {
                        for &m in &c.parts {
                            let payload = Payload::Relabel {
                                old: label,
                                new: c.ptr,
                            };
                            out.push(payload.envelope(id, m as usize, l, lw));
                        }
                    }
                }
            }
            st.outbox.extend(out);
        });
        self.machines = machines;
        self.flush();
        par_for_each_state(&mut self.machines, |_, st| {
            let inbox = std::mem::take(&mut st.inbox);
            let mut map: FxHashMap<Label, Label> = FxHashMap::default();
            for env in inbox {
                if let Payload::Relabel { old, new } = env.payload {
                    map.insert(old, new);
                }
            }
            if !map.is_empty() {
                // Cache invalidation: the relabeled part dissolves into the
                // target part, so both sketches are stale. Parts this map
                // does not touch keep serving their cached sketches.
                for (old, new) in det::sorted_entries(&map) {
                    st.part_cache.remove(&old);
                    st.part_cache.remove(new);
                }
                det::for_each_value_mut(&mut st.labels, |lab| {
                    if let Some(&nl) = map.get(lab) {
                        *lab = nl;
                    }
                });
            }
            // Phase is over: clear per-phase proxy state.
            st.proxied.clear();
            st.thresholds.clear();
        });
    }

    // ------------------------------------------------------------------
    // Supergraph contraction (DESIGN.md §3.11)
    // ------------------------------------------------------------------

    /// Builds the supergraph from the current vertex labels, once, at the
    /// first contracted phase. Every machine pushes its home vertices'
    /// labels across their incident edges (both directions); each
    /// inter-component edge is surfaced exactly once — at the home of its
    /// smaller original endpoint — and sent to *both* component owners, so
    /// supernode adjacency is symmetric from the start; owners min-merge
    /// multi-edges by the tie-free original-edge key (dedup keeps the
    /// lightest, and its original endpoints ride along so MST output stays
    /// exact); and machines announce which components they host parts of,
    /// so merges can be broadcast back into the vertex space. Ends with a
    /// densification, after which labels live in `[0, n')` and every
    /// subsequent label field is charged `⌈log₂ n'⌉` bits.
    fn build_supergraph(&mut self, p: u32) {
        let g = self.g;
        let part = g.partition();
        let l = self.l;
        let lw = self.lw;
        // Superstep 1: push labels across every edge.
        let mut machines = std::mem::take(&mut self.machines);
        par_for_each_state(&mut machines, |id, st| {
            let view = g.view(id);
            let mut out = Vec::new();
            for &v in &st.verts {
                let lab = st.labels[&v];
                for &(nb, w) in view.neighbors(v) {
                    let payload = Payload::LabelPush {
                        u: v,
                        v: nb,
                        weight: w,
                        label: lab,
                    };
                    out.push(payload.envelope(id, part.home(nb), l, lw));
                }
            }
            st.outbox.extend(out);
        });
        self.machines = machines;
        self.flush();
        // Superstep 2: receivers surface each crossing edge once (only the
        // smaller endpoint's home creates it — the push from the larger
        // endpoint) and announce the components they host.
        let mut machines = std::mem::take(&mut self.machines);
        par_for_each_state(&mut machines, |id, st| {
            let inbox = std::mem::take(&mut st.inbox);
            let mut out = Vec::new();
            for env in inbox {
                if let Payload::LabelPush {
                    u,
                    v,
                    weight,
                    label,
                } = env.payload
                {
                    let mine = *st.labels.get(&v).expect("label push reached home");
                    if mine != label && v < u {
                        let (ou, ov) = (v, u);
                        for (a, b) in [(mine, label), (label, mine)] {
                            let payload = Payload::SuperEdge {
                                a,
                                b,
                                weight,
                                ou,
                                ov,
                            };
                            out.push(payload.envelope(id, part.home(a as u32), l, lw));
                        }
                    }
                }
            }
            let mut distinct: FxHashSet<Label> = FxHashSet::default();
            distinct.extend(det::sorted_values(&st.labels));
            for lab in det::sorted_members(&distinct) {
                let payload = Payload::SuperParts {
                    label: lab,
                    parts: vec![id as u16],
                };
                out.push(payload.envelope(id, part.home(lab as u32), l, lw));
            }
            st.outbox.extend(out);
        });
        self.machines = machines;
        self.flush();
        // Owners absorb: adjacency min-merge + hosted-part sets. Part
        // announcements also materialize isolated components (no crossing
        // edges, but they still need relabel broadcasts and counting).
        par_for_each_state(&mut self.machines, |_, st| {
            for env in std::mem::take(&mut st.inbox) {
                match env.payload {
                    Payload::SuperEdge {
                        a,
                        b,
                        weight,
                        ou,
                        ov,
                    } => {
                        st.supers.entry(a).or_default().add_edge(b, weight, ou, ov);
                    }
                    Payload::SuperParts { label, parts } => {
                        let node = st.supers.entry(label).or_default();
                        for m in parts {
                            node.add_part(m);
                        }
                    }
                    _ => {}
                }
            }
            // Sketch machinery is retired for the rest of the run.
            st.part_cache.clear();
            st.thresholds.clear();
        });
        self.contracted = true;
        self.cached_fns = None;
        self.densify_and_rehome(p);
    }

    /// Renumbers the live components into the dense space `[0, n')` and
    /// re-homes every supernode to `home(dense id)`. Protocol: per-machine
    /// supernode counts to M0; M0 replies with each machine's contiguous
    /// base block and the new label-space size; each machine assigns
    /// `dense = base + rank` by sorted old label, and
    /// [`Engine::rename_and_move`] announces the renames and ships each
    /// supernode to its dense home. The whole exchange is charged at the
    /// pre-densification label width; `lw` shrinks to `⌈log₂ n'⌉` only once
    /// the new space is live.
    fn densify_and_rehome(&mut self, _p: u32) {
        let l = self.l;
        let lw = self.lw;
        let k = self.k;
        // Superstep A: counts to M0.
        let mut machines = std::mem::take(&mut self.machines);
        for st in &mut machines {
            let payload = Payload::CountReport {
                count: st.supers.len() as u64,
            };
            st.outbox.push(payload.envelope(st.id, 0, l, lw));
        }
        self.machines = machines;
        self.flush();
        // Superstep B: M0 computes prefix bases in machine order.
        {
            let st0 = &mut self.machines[0];
            let inbox = std::mem::take(&mut st0.inbox);
            let mut counts = vec![0u64; k];
            for env in inbox {
                if let Payload::CountReport { count } = env.payload {
                    counts[env.src] = count;
                }
            }
            let total: u64 = counts.iter().sum();
            let mut base = 0u64;
            for (dst, &c) in counts.iter().enumerate() {
                st0.outbox
                    .push(Payload::DenseBase { base, total }.envelope(0, dst, l, lw));
                base += c;
            }
        }
        self.flush();
        // Every machine assigns `dense = base + rank` by sorted old label;
        // every supernode is renamed, so every supernode moves.
        let mut total = 0u64;
        let mut renames = Vec::with_capacity(k);
        for st in &mut self.machines {
            let mut base = 0u64;
            for env in std::mem::take(&mut st.inbox) {
                if let Payload::DenseBase { base: b, total: t } = env.payload {
                    base = b;
                    total = total.max(t);
                }
            }
            let labs: Vec<Label> = det::sorted_keys(&st.supers);
            renames.push(labs.into_iter().zip(base..).collect());
        }
        self.rename_and_move(renames);
        self.n_active = total.max(1) as usize;
        self.lw = id_bits(self.n_active);
    }

    /// One Borůvka phase on the contracted supergraph: exact local MWOE
    /// selection (the deduped adjacency is materialized at each owner — no
    /// sketches, no probes, no Monte-Carlo), the same DRR forest and depth
    /// instrumentation as the sketch path, owner-routed pointer jumping run
    /// to *full* convergence (merges move supernode state, so relabeling to
    /// a non-root ancestor — harmless in the sketch path — would strand
    /// state at a node that is itself moving), a rename-then-move
    /// merge, and a re-densification so the next phase addresses
    /// `⌈log₂ n'⌉`-bit ids.
    fn run_super_phase(&mut self, p: u32) -> bool {
        par_for_each_state(&mut self.machines, |_, st| {
            let mut proxied = FxHashMap::default();
            for (lab, node) in det::sorted_entries(&st.supers) {
                let mut comp = ProxyComp::new(lab);
                comp.parts = node.parts.clone();
                if let Some((nb, &(w, ou, ov))) =
                    det::min_entry_by(&node.adj, |_, &(w, ou, ov)| edge_key(w, ou, ov))
                {
                    comp.chosen = Some((ou.min(ov), ou.max(ov), w));
                    comp.best_edge = comp.chosen;
                    comp.best = Some(edge_key(w, ou, ov));
                    comp.other_label = Some(nb);
                }
                proxied.insert(lab, comp);
            }
            st.proxied = proxied;
        });
        let progressed =
            self.aggregate_flag(|st| det::any_value(&st.proxied, |c| c.chosen.is_some()));
        if !progressed {
            for st in &mut self.machines {
                st.proxied.clear();
            }
            return false;
        }
        self.build_drr_forest(p);
        self.record_drr_depth();
        self.super_pointer_jump(p);
        self.super_merge(p);
        self.densify_and_rehome(p);
        true
    }

    /// Pointer jumping over the supergraph, routed to each label's *owner*
    /// (every owned supernode has a [`ProxyComp`], so roots answer their
    /// own queries), iterated until every component knows its root. DRR
    /// ranks strictly increase along parent pointers, so the forest is
    /// acyclic and doubling converges in `O(log depth)` iterations.
    fn super_pointer_jump(&mut self, _p: u32) {
        let part = self.g.partition();
        let mut safety = 0u32;
        while self.aggregate_flag(|st| det::any_value(&st.proxied, |c| !c.ptr_done)) {
            safety += 1;
            assert!(safety <= 72, "super pointer jumping failed to converge");
            self.jump_round(|target| part.home(target as u32));
        }
    }

    /// Supergraph merge: each merging supernode emits its output edge
    /// (original endpoints) and is renamed to its root — whose owner absorbs
    /// its state — through [`Engine::rename_and_move`].
    fn super_merge(&mut self, _p: u32) {
        let mode = self.mode;
        let mut renames = Vec::with_capacity(self.k);
        for st in &mut self.machines {
            let mut merging = Vec::new();
            for (label, c) in det::sorted_entries(&st.proxied) {
                if c.parent.is_none() {
                    continue;
                }
                debug_assert!(c.ptr_done, "merge requires converged pointers");
                debug_assert!(c.ptr != label, "a merging component cannot be its own root");
                if mode != Mode::Connectivity {
                    if let Some(e) = c.chosen {
                        st.mst_out.push(e);
                    }
                }
                merging.push((label, c.ptr));
            }
            renames.push(merging);
        }
        self.rename_and_move(renames);
    }

    /// The announce → rename → ship → absorb exchange behind both
    /// [`Engine::super_merge`] (merging supernodes take their root's label)
    /// and [`Engine::densify_and_rehome`] (every supernode takes its dense
    /// id). `renames[m]` lists machine `m`'s `(old, new)` pairs for
    /// supernodes it owns, in sorted `old` order. Superstep 1 travels among
    /// the *old* owners: each renamed supernode tells every neighbor's
    /// owner its new label (`SuperRelabel` — symmetric adjacency guarantees
    /// each owner hears about exactly the labels in its adjacency lists)
    /// and its hosting machines the vertex-space relabel — all *before* any
    /// state moves. Superstep 2: every owner rewrites its adjacency lists
    /// under the received renames — distinct old keys may collapse onto one
    /// new label and min-merge — and only then do the renamed supernodes
    /// ship their state to `home(new)`. Finally the new owners absorb the
    /// moves and drop the self-loops a merge created (edges whose two sides
    /// took the same label — exactly the intra-component edges contraction
    /// discards).
    fn rename_and_move(&mut self, renames: Vec<Vec<(Label, Label)>>) {
        let part = self.g.partition();
        let l = self.l;
        let lw = self.lw;
        let mut machines = std::mem::take(&mut self.machines);
        par_for_each_state(&mut machines, |id, st| {
            let mut out = Vec::new();
            for &(old, new) in &renames[id] {
                let node = st.supers.get(&old).expect("renamed supernode owned here");
                let mut dsts: Vec<usize> = det::sorted_keys(&node.adj)
                    .into_iter()
                    .map(|nb| part.home(nb as u32))
                    .collect();
                dsts.push(id); // our own adjacency lists rename too
                dsts.sort_unstable();
                dsts.dedup();
                for dst in dsts {
                    out.push(Payload::SuperRelabel { old, new }.envelope(id, dst, l, lw));
                }
                for &m in &node.parts {
                    out.push(Payload::Relabel { old, new }.envelope(id, m as usize, l, lw));
                }
            }
            st.outbox.extend(out);
        });
        self.machines = machines;
        self.flush();
        let mut machines = std::mem::take(&mut self.machines);
        par_for_each_state(&mut machines, |id, st| {
            let (smap, vmap) = drain_rename_maps(st);
            det::for_each_value_mut(&mut st.labels, |lab| {
                if let Some(&nl) = vmap.get(lab) {
                    *lab = nl;
                }
            });
            let mut items: Vec<(Label, SuperNode)> =
                std::mem::take(&mut st.supers).into_iter().collect();
            items.sort_unstable_by_key(|(lab, _)| *lab);
            let mut out = Vec::new();
            for (old, node) in items {
                let renamed = rename_adj(node, &smap);
                match smap.get(&old) {
                    Some(&new) => {
                        let adj: Vec<(Label, u64, u32, u32)> = det::sorted_entries(&renamed.adj)
                            .into_iter()
                            .map(|(nb, &(w, ou, ov))| (nb, w, ou, ov))
                            .collect();
                        let payload = Payload::SuperMove {
                            label: new,
                            parts: renamed.parts,
                            adj,
                        };
                        out.push(payload.envelope(id, part.home(new as u32), l, lw));
                    }
                    None => {
                        st.supers.insert(old, renamed);
                    }
                }
            }
            st.outbox.extend(out);
        });
        self.machines = machines;
        self.flush();
        par_for_each_state(&mut self.machines, |_, st| {
            for env in std::mem::take(&mut st.inbox) {
                if let Payload::SuperMove {
                    label,
                    parts,
                    adj: moved_adj,
                } = env.payload
                {
                    let node = st.supers.entry(label).or_default();
                    for m in parts {
                        node.add_part(m);
                    }
                    for (nb, w, ou, ov) in moved_adj {
                        node.add_edge(nb, w, ou, ov);
                    }
                }
            }
            det::for_each_entry_mut(&mut st.supers, |lab, node| {
                node.adj.remove(&lab);
            });
            st.proxied.clear();
        });
    }

    // ------------------------------------------------------------------
    // Control flow helpers
    // ------------------------------------------------------------------

    /// Flushes all machine outboxes through one superstep and distributes
    /// the delivered messages into machine inboxes.
    fn flush(&mut self) {
        let mut out = Vec::new();
        for st in &mut self.machines {
            out.append(&mut st.outbox);
        }
        self.bsp.superstep(out);
        let inboxes = self.bsp.take_all_inboxes();
        for (st, mut ib) in self.machines.iter_mut().zip(inboxes) {
            st.inbox.append(&mut ib);
        }
    }

    /// Global OR over a per-machine predicate: flags to M0, M0 broadcasts
    /// the result (two supersteps of 1-bit messages — the counted cost of
    /// convergence detection).
    fn aggregate_flag(&mut self, pred: impl Fn(&MachineState) -> bool + Sync) -> bool {
        let l = self.l;
        let lw = self.lw;
        par_for_each_state(&mut self.machines, |_, st| {
            st.flag = pred(st);
        });
        let mut machines = std::mem::take(&mut self.machines);
        for st in &mut machines {
            if st.id != 0 {
                st.outbox
                    .push(Payload::Flag { bit: st.flag }.envelope(st.id, 0, l, lw));
            }
        }
        self.machines = machines;
        self.flush();
        let global = {
            let st0 = &mut self.machines[0];
            let inbox = std::mem::take(&mut st0.inbox);
            let mut any = st0.flag;
            for env in inbox {
                if let Payload::Flag { bit } = env.payload {
                    any |= bit;
                }
            }
            any
        };
        let mut machines = std::mem::take(&mut self.machines);
        {
            let st0 = &mut machines[0];
            for dst in 1..self.k {
                st0.outbox
                    .push(Payload::Flag { bit: global }.envelope(0, dst, l, lw));
            }
        }
        self.machines = machines;
        self.flush();
        for st in &mut self.machines {
            st.inbox.clear();
            st.flag = global;
        }
        global
    }

    /// §2.6 output protocol: every machine announces each distinct label it
    /// holds to that label's proxy; proxies count distinct labels and report
    /// to M1 (machine 0 here). Returns the global component count.
    fn output_protocol(&mut self, after_phase: u32) -> u64 {
        let p = after_phase.max(1); // never the phase-0 identity proxy map
        let part = self.g.partition();
        let scheme = &self.scheme;
        let l = self.l;
        let lw = self.lw;
        let mut machines = std::mem::take(&mut self.machines);
        par_for_each_state(&mut machines, |id, st| {
            let mut distinct: FxHashSet<Label> = FxHashSet::default();
            distinct.extend(det::sorted_values(&st.labels));
            let mut out = Vec::new();
            for lab in det::sorted_members(&distinct) {
                out.push(Payload::LabelAnnounce { label: lab }.envelope(
                    id,
                    scheme.proxy_of(part, p, 1, lab),
                    l,
                    lw,
                ));
            }
            st.outbox.extend(out);
        });
        self.machines = machines;
        self.flush();
        let l2 = self.l;
        let lw2 = self.lw;
        let mut machines = std::mem::take(&mut self.machines);
        par_for_each_state(&mut machines, |id, st| {
            let inbox = std::mem::take(&mut st.inbox);
            let mut distinct: FxHashSet<Label> = FxHashSet::default();
            for env in inbox {
                if let Payload::LabelAnnounce { label } = env.payload {
                    distinct.insert(label);
                }
            }
            let payload = Payload::CountReport {
                count: distinct.len() as u64,
            };
            st.outbox.push(payload.envelope(id, 0, l2, lw2));
        });
        self.machines = machines;
        self.flush();
        let st0 = &mut self.machines[0];
        let inbox = std::mem::take(&mut st0.inbox);
        let mut total = 0u64;
        for env in inbox {
            if let Payload::CountReport { count } = env.payload {
                total += count;
            }
        }
        total
    }

    // ------------------------------------------------------------------
    // Instrumentation (orchestrator-side, zero communication cost)
    // ------------------------------------------------------------------

    /// Number of distinct labels across all machines.
    fn count_labels(&self) -> usize {
        let mut set: FxHashSet<Label> = FxHashSet::default();
        for st in &self.machines {
            set.extend(det::sorted_values(&st.labels));
        }
        set.len()
    }

    /// Max DRR tree depth of the current phase (Lemma 6 / Figure 2 data).
    fn record_drr_depth(&mut self) {
        let mut parents: FxHashMap<Label, Label> = FxHashMap::default();
        for st in &self.machines {
            for (label, c) in det::sorted_entries(&st.proxied) {
                if let Some(par) = c.parent {
                    parents.insert(label, par);
                }
            }
        }
        let mut depth_memo: FxHashMap<Label, u32> = FxHashMap::default();
        let mut max_depth = 0;
        for start in det::sorted_keys(&parents) {
            let mut chain = Vec::new();
            let mut cur = start;
            let mut d = loop {
                if let Some(&d) = depth_memo.get(&cur) {
                    break d;
                }
                match parents.get(&cur) {
                    Some(&nxt) => {
                        chain.push(cur);
                        cur = nxt;
                    }
                    None => break 0,
                }
            };
            for &node in chain.iter().rev() {
                d += 1;
                depth_memo.insert(node, d);
            }
            max_depth = max_depth.max(d);
        }
        self.drr_depths.push(max_depth);
    }
}

/// Validates a probed candidate and folds it into the component state:
/// the edge must exist and have exactly one internal endpoint. For MST the
/// verified key becomes the new `best`; an invalid/absent candidate ends
/// the elimination for this component (Monte-Carlo skip).
fn finalize_candidate(c: &mut ProxyComp) {
    /// Strikes before an empty/invalid sample is accepted as "no lighter
    /// edge exists" (the retry drives the false-done probability to ~1e-6).
    const STRIKES: u8 = 2;
    let miss = |c: &mut ProxyComp| {
        c.none_streak += 1;
        if c.none_streak >= STRIKES {
            c.elim_done = true;
        }
    };
    match (c.candidate, c.info[0], c.info[1]) {
        (Some((u, v)), Some((lu, e0, w)), Some((lv, e1, _))) => {
            // Exactly one endpoint must be inside this component.
            let other = if lu == c.own && lv != c.own {
                Some(lv)
            } else if lv == c.own && lu != c.own {
                Some(lu)
            } else {
                None
            };
            match other {
                Some(other) if e0 && e1 => {
                    c.other_label = Some(other);
                    c.best = Some((w, u, v));
                    c.best_edge = Some((u, v, w));
                    c.chosen = Some((u, v, w));
                    c.none_streak = 0;
                }
                _ => miss(c),
            }
        }
        // No candidate: support empty, or unlucky hashing — a strike.
        (None, _, _) => miss(c),
        // Missing replies should not happen; treat as a failed sample.
        _ => miss(c),
    }
    c.candidate = None;
    c.info = [None, None];
}
