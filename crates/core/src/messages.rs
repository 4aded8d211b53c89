//! Message payloads of the distributed algorithms, with explicit wire sizes.
//!
//! Wire sizes follow the paper's encodings: vertex ids cost `⌈log₂ n⌉`
//! bits, component labels `⌈log₂ n'⌉` bits where `n'` is the size of the
//! current (possibly contracted) label space, weights 32 bits, sketches
//! their `polylog(n)` size ([`ksketch::SketchParams::wire_bits`]), plus a
//! flat 16-bit type tag per message. Sizes are computed once per message by
//! [`Payload::wire_bits_lw`], which needs the vertex id width
//! `L = ⌈log₂ n⌉` and the label width `Lw = ⌈log₂ n'⌉` as context
//! ([`Payload::wire_bits`] is the uncontracted `Lw = L` special case).
//!
//! Under [`kmachine::message::Encoding::Varint`] a directed link's batch is
//! charged by [`kmachine::message::BatchWire`] instead: per-variant runs
//! share one tag, carry a varint count, and ship their primary id field as
//! a delta-sorted varint stream — see [`Payload::batch_wire_bits`].

use kmachine::message::{
    delta_varint_bits, put_signed, put_signed128, put_varint, varint_bits, BatchWire, Envelope,
    WireCodec, WireError, WireReader,
};
use krand::m61::M61;
use ksketch::{Cell, L0Sketch, SketchParams};

/// A component label. Labels are always ids of representative vertices, so
/// they fit in the same `⌈log₂ n⌉` bits as vertex ids.
pub type Label = u64;

/// An MST comparison key: `(weight, u, v)` — the tie-free total order.
pub type EdgeKey = (u64, u32, u32);

/// Every message any of the algorithms sends.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// A component part's combined sketch, machine → component proxy (§2.4).
    PartSketch {
        /// The component label this part belongs to.
        label: Label,
        /// The part's combined sketch (sum of its vertices' sketches).
        sketch: Box<L0Sketch>,
    },
    /// Proxy asks `home(ask)` about endpoint `ask` of candidate edge
    /// `{ask, other}`: current label, edge existence, and weight.
    EdgeProbe {
        /// Component on whose behalf the proxy asks.
        comp: Label,
        /// The endpoint whose home machine is being asked.
        ask: u32,
        /// The other endpoint of the candidate edge.
        other: u32,
    },
    /// Home machine's answer to an [`Payload::EdgeProbe`].
    EdgeProbeReply {
        /// Component the probe belonged to.
        comp: Label,
        /// The endpoint that was asked about.
        vertex: u32,
        /// Its current component label.
        label: Label,
        /// Whether the probed edge exists in `G`.
        exists: bool,
        /// The edge weight (0 if absent).
        weight: u64,
    },
    /// MST elimination broadcast: parts must rebuild sketches filtered to
    /// edges with key strictly below `key`; `None` means the component is
    /// done eliminating (its MWOE is fixed).
    Threshold {
        /// The component label.
        label: Label,
        /// The new strict upper bound, or `None` when done.
        key: Option<EdgeKey>,
    },
    /// Pointer-jumping query, proxy(asker) → proxy(target) (§2.5).
    PtrQuery {
        /// The component doing the jump.
        asker: Label,
        /// The component whose pointer is requested.
        target: Label,
    },
    /// Pointer-jumping reply.
    PtrReply {
        /// The component doing the jump.
        asker: Label,
        /// The target's current pointer.
        ptr: Label,
        /// Whether the target's pointer is already a root.
        done: bool,
    },
    /// Merge command, proxy → machines holding parts of `old`.
    Relabel {
        /// The label being retired.
        old: Label,
        /// The root label that replaces it.
        new: Label,
    },
    /// A one-bit control flag (convergence detection).
    Flag {
        /// The bit.
        bit: bool,
    },
    /// Output protocol (§2.6 end): a machine announces a label it holds.
    LabelAnnounce {
        /// The label.
        label: Label,
    },
    /// Output protocol: a proxy reports how many distinct labels it proxies.
    CountReport {
        /// Number of distinct labels.
        count: u64,
    },
    /// Flooding baseline: batched `(vertex, new label)` updates addressed to
    /// a machine hosting neighbors of those vertices.
    FloodLabels {
        /// The updates.
        updates: Vec<(u32, Label)>,
    },
    /// A batch of edges (referee collection, REP routing).
    EdgeList {
        /// `(u, v, w)` triples.
        edges: Vec<(u32, u32, u64)>,
    },
    /// Edge-checking Borůvka: a part's local MWOE candidate for `label`.
    Candidate {
        /// The component label.
        label: Label,
        /// The candidate edge key.
        key: EdgeKey,
        /// The label on the other side of the candidate edge.
        to_label: Label,
    },
    /// Final s–t comparison result exchanged between two home machines.
    StDone {
        /// Whether both endpoints carried the same label.
        same: bool,
    },
    /// Per-edge status tests of the GHS-style baseline, aggregated per
    /// machine pair for simulation efficiency: `count` individual tests of
    /// `3·⌈log₂ n⌉` bits each (edge id + queried label).
    TestBatch {
        /// Number of individual edge tests carried.
        count: u64,
    },
    /// Dynamic update routed from the ingest coordinator to an endpoint's
    /// home machine: the home XORs the edge contribution into (insert) or
    /// out of (delete) the endpoint's incidence sketch and stages the
    /// half-edge delta.
    EdgeUpdate {
        /// The endpoint homed at the destination machine.
        vertex: u32,
        /// The other endpoint of the updated edge.
        other: u32,
        /// The edge weight (0 for deletions).
        weight: u64,
        /// Insert (`true`) or delete (`false`).
        insert: bool,
    },
    /// Dynamic certification: a machine's aggregated incidence sketch for
    /// one of the component labels it hosts, sent to the label's referee
    /// (the representative vertex's home). Linearity makes the per-label
    /// sum cancel to exactly zero iff the label class has no outgoing edge.
    CertSketch {
        /// The component label being certified.
        label: Label,
        /// The sum of the machine's local vertex sketches for that label.
        sketch: Box<L0Sketch>,
    },
    /// Supergraph build (§3.11): `home(u)` pushes endpoint `u`'s label
    /// along edge `{u, v}` to `home(v)`, which sees both labels and keeps
    /// the edge iff they differ.
    LabelPush {
        /// The endpoint whose label is being pushed.
        u: u32,
        /// The other endpoint (homed at the destination machine).
        v: u32,
        /// The edge weight.
        weight: u64,
        /// `u`'s current component label.
        label: Label,
    },
    /// Supergraph build: a surviving inter-component edge, routed to a
    /// component endpoint's owner. The original endpoints ride along so
    /// MST/spanning-forest output stays in original edge ids.
    SuperEdge {
        /// The component whose owner this copy is addressed to.
        a: Label,
        /// The component on the other side.
        b: Label,
        /// The edge weight.
        weight: u64,
        /// Original endpoint on `a`'s side.
        ou: u32,
        /// Original endpoint on `b`'s side.
        ov: u32,
    },
    /// Supergraph build/maintenance: a machine announces it hosts original
    /// vertices of component `label` (so merge results can be broadcast
    /// back into the vertex space).
    SuperParts {
        /// The component label.
        label: Label,
        /// Machines hosting parts of the component.
        parts: Vec<u16>,
    },
    /// Supergraph maintenance: component `old` is now addressed as `new`
    /// (after a merge or a dense renaming), sent to owners storing `old`
    /// in an adjacency list.
    SuperRelabel {
        /// The label being retired.
        old: Label,
        /// Its replacement.
        new: Label,
    },
    /// Supergraph re-homing: a supernode's full owner state moves to the
    /// machine that owns its (new) label.
    SuperMove {
        /// The supernode's label (already in the destination's space).
        label: Label,
        /// Machines hosting original vertices of the component.
        parts: Vec<u16>,
        /// Deduped adjacency: `(neighbor label, weight, ou, ov)` of the
        /// lightest original edge crossing to that neighbor.
        adj: Vec<(Label, u64, u32, u32)>,
    },
    /// Dense renaming: the coordinator assigns each machine the base of
    /// its contiguous block of new labels, and the new label-space size.
    DenseBase {
        /// First new label owned by the destination machine.
        base: u64,
        /// Total number of live components (the new `n'`).
        total: u64,
    },
    /// Incremental MST insert pass: a freshly inserted edge routed to its
    /// component's owner for cycle-edge replacement (find the max-weight
    /// edge on the tree cycle the insert closes, swap if heavier).
    MstCycleEdge {
        /// The MST component both endpoints belong to.
        comp: Label,
        /// One endpoint of the inserted edge.
        u: u32,
        /// The other endpoint.
        v: u32,
        /// The inserted edge's weight.
        weight: u64,
    },
    /// Incremental MST insert pass: the owner's verdict on one cycle
    /// replacement — the tree edge evicted by the insert, or `None` when
    /// the insert lost (the cycle's max edge was the insert itself).
    MstSwap {
        /// The MST component the swap happened in.
        comp: Label,
        /// The evicted tree edge's key, or `None` for no swap.
        evicted: Option<EdgeKey>,
    },
    /// Incremental MST delete pass: a machine's aggregated incidence
    /// sketch for one side of a tree split, sent to the piece's referee so
    /// the linear per-piece sum can witness whether any crossing edge
    /// survives (zero sum ⇔ a genuine component split).
    MstCutSketch {
        /// The split piece (labelled by its minimum vertex).
        piece: Label,
        /// The machine's summed vertex sketches for the piece.
        sketch: Box<L0Sketch>,
    },
    /// Incremental MST delete pass: a machine's minimum-weight candidate
    /// edge crossing out of a split piece, min-reduced at the referee to
    /// pick the replacement edge.
    MstCandidate {
        /// The split piece the candidate leaves.
        piece: Label,
        /// The candidate edge key.
        key: EdgeKey,
        /// The piece on the candidate's far side.
        to_piece: Label,
    },
}

/// Flat per-message type tag cost.
const TAG_BITS: u64 = 16;
/// Weight field cost.
const W_BITS: u64 = 32;

impl Payload {
    /// The wire size given the id width `l = ⌈log₂ n⌉` bits, with labels
    /// charged at the same width (the uncontracted case).
    pub fn wire_bits(&self, l: u64) -> u64 {
        self.wire_bits_lw(l, l)
    }

    /// The wire size given the vertex id width `l = ⌈log₂ n⌉` and the
    /// component label width `lw = ⌈log₂ n'⌉`. After supergraph
    /// contraction the live label space shrinks to `n' ≤ n` components, so
    /// every label field is charged `lw` bits while original vertex ids
    /// (which MST outputs and probes still need) stay at `l` bits.
    /// Charging labels the full `l` after contraction overstates the bits
    /// — the satellite-audit bug this signature exists to prevent.
    pub fn wire_bits_lw(&self, l: u64, lw: u64) -> u64 {
        TAG_BITS
            + match self {
                Payload::PartSketch { sketch, .. } => lw + sketch.wire_bits(),
                Payload::EdgeProbe { .. } => lw + 2 * l,
                Payload::EdgeProbeReply { .. } => 2 * lw + l + 1 + W_BITS,
                Payload::Threshold { key, .. } => lw + 1 + key.map_or(0, |_| 2 * l + W_BITS),
                Payload::PtrQuery { .. } => 2 * lw,
                Payload::PtrReply { .. } => 2 * lw + 1,
                Payload::Relabel { .. } => 2 * lw,
                Payload::Flag { .. } => 1,
                Payload::LabelAnnounce { .. } => lw,
                Payload::CountReport { .. } => 32,
                Payload::FloodLabels { updates } => updates.len() as u64 * (l + lw),
                Payload::EdgeList { edges } => edges.len() as u64 * (2 * l + W_BITS),
                Payload::Candidate { .. } => 2 * lw + (2 * l + W_BITS) + l,
                Payload::StDone { .. } => 1,
                Payload::TestBatch { count } => count * 3 * l,
                Payload::EdgeUpdate { .. } => 2 * l + W_BITS + 1,
                Payload::CertSketch { sketch, .. } => lw + sketch.wire_bits(),
                Payload::LabelPush { .. } => 2 * l + W_BITS + lw,
                Payload::SuperEdge { .. } => 2 * lw + W_BITS + 2 * l,
                Payload::SuperParts { parts, .. } => lw + 16 * parts.len() as u64,
                Payload::SuperRelabel { .. } => 2 * lw,
                Payload::SuperMove { parts, adj, .. } => {
                    lw + 16 * parts.len() as u64 + (lw + W_BITS + 2 * l) * adj.len() as u64
                }
                Payload::DenseBase { .. } => 2 * lw,
                Payload::MstCycleEdge { .. } => lw + 2 * l + W_BITS,
                Payload::MstSwap { evicted, .. } => lw + 1 + evicted.map_or(0, |_| 2 * l + W_BITS),
                Payload::MstCutSketch { sketch, .. } => lw + sketch.wire_bits(),
                Payload::MstCandidate { .. } => 2 * lw + (2 * l + W_BITS),
            }
    }

    /// A dense per-variant index for batch-run bucketing.
    fn tag_index(&self) -> usize {
        match self {
            Payload::PartSketch { .. } => 0,
            Payload::EdgeProbe { .. } => 1,
            Payload::EdgeProbeReply { .. } => 2,
            Payload::Threshold { .. } => 3,
            Payload::PtrQuery { .. } => 4,
            Payload::PtrReply { .. } => 5,
            Payload::Relabel { .. } => 6,
            Payload::Flag { .. } => 7,
            Payload::LabelAnnounce { .. } => 8,
            Payload::CountReport { .. } => 9,
            Payload::FloodLabels { .. } => 10,
            Payload::EdgeList { .. } => 11,
            Payload::Candidate { .. } => 12,
            Payload::StDone { .. } => 13,
            Payload::TestBatch { .. } => 14,
            Payload::EdgeUpdate { .. } => 15,
            Payload::CertSketch { .. } => 16,
            Payload::LabelPush { .. } => 17,
            Payload::SuperEdge { .. } => 18,
            Payload::SuperParts { .. } => 19,
            Payload::SuperRelabel { .. } => 20,
            Payload::SuperMove { .. } => 21,
            Payload::DenseBase { .. } => 22,
            Payload::MstCycleEdge { .. } => 23,
            Payload::MstSwap { .. } => 24,
            Payload::MstCutSketch { .. } => 25,
            Payload::MstCandidate { .. } => 26,
        }
    }
}

/// Number of [`Payload`] variants (batch-run buckets).
const N_TAGS: usize = 27;

impl BatchWire for Payload {
    /// Stable snake_case variant name for [`kmachine::trace`] superstep
    /// payload-kind histograms.
    fn kind_name(&self) -> &'static str {
        match self {
            Payload::PartSketch { .. } => "part_sketch",
            Payload::EdgeProbe { .. } => "edge_probe",
            Payload::EdgeProbeReply { .. } => "edge_probe_reply",
            Payload::Threshold { .. } => "threshold",
            Payload::PtrQuery { .. } => "ptr_query",
            Payload::PtrReply { .. } => "ptr_reply",
            Payload::Relabel { .. } => "relabel",
            Payload::Flag { .. } => "flag",
            Payload::LabelAnnounce { .. } => "label_announce",
            Payload::CountReport { .. } => "count_report",
            Payload::FloodLabels { .. } => "flood_labels",
            Payload::EdgeList { .. } => "edge_list",
            Payload::Candidate { .. } => "candidate",
            Payload::StDone { .. } => "st_done",
            Payload::TestBatch { .. } => "test_batch",
            Payload::EdgeUpdate { .. } => "edge_update",
            Payload::CertSketch { .. } => "cert_sketch",
            Payload::LabelPush { .. } => "label_push",
            Payload::SuperEdge { .. } => "super_edge",
            Payload::SuperParts { .. } => "super_parts",
            Payload::SuperRelabel { .. } => "super_relabel",
            Payload::SuperMove { .. } => "super_move",
            Payload::DenseBase { .. } => "dense_base",
            Payload::MstCycleEdge { .. } => "mst_cycle_edge",
            Payload::MstSwap { .. } => "mst_swap",
            Payload::MstCutSketch { .. } => "mst_cut_sketch",
            Payload::MstCandidate { .. } => "mst_candidate",
        }
    }

    /// One directed link's batch, encoded as per-variant runs: each run
    /// pays the 16-bit tag once plus a varint count; its primary id field
    /// (the label or vertex the destination groups by) travels delta-sorted
    /// as a varint stream, every other field as a plain varint; flags are
    /// one bit; sketches keep their raw wire size. [`Payload::TestBatch`]
    /// is already an aggregate and falls back to its naive per-message
    /// size. The encoding is self-describing — no id-width context needed,
    /// which is what makes it the *charged* size rather than a model bound.
    fn batch_wire_bits(batch: &[&Envelope<Self>]) -> u64 {
        let mut primary: Vec<Vec<u64>> = vec![Vec::new(); N_TAGS];
        let mut sec = [0u64; N_TAGS];
        let mut cnt = [0u64; N_TAGS];
        let v32 = |x: u32| varint_bits(u64::from(x));
        for e in batch {
            let t = e.payload.tag_index();
            cnt[t] += 1;
            match &e.payload {
                Payload::PartSketch { label, sketch } => {
                    primary[t].push(*label);
                    sec[t] += sketch.wire_bits();
                }
                Payload::EdgeProbe { comp, ask, other } => {
                    primary[t].push(*comp);
                    sec[t] += v32(*ask) + v32(*other);
                }
                Payload::EdgeProbeReply {
                    comp,
                    vertex,
                    label,
                    weight,
                    ..
                } => {
                    primary[t].push(*comp);
                    sec[t] += v32(*vertex) + varint_bits(*label) + 1 + varint_bits(*weight);
                }
                Payload::Threshold { label, key } => {
                    primary[t].push(*label);
                    sec[t] += 1 + key.map_or(0, |(w, u, v)| varint_bits(w) + v32(u) + v32(v));
                }
                Payload::PtrQuery { asker, target } => {
                    primary[t].push(*target);
                    sec[t] += varint_bits(*asker);
                }
                Payload::PtrReply { asker, ptr, .. } => {
                    primary[t].push(*asker);
                    sec[t] += varint_bits(*ptr) + 1;
                }
                Payload::Relabel { old, new } => {
                    primary[t].push(*old);
                    sec[t] += varint_bits(*new);
                }
                Payload::Flag { .. } => sec[t] += 1,
                Payload::LabelAnnounce { label } => primary[t].push(*label),
                Payload::CountReport { count } => sec[t] += varint_bits(*count),
                Payload::FloodLabels { updates } => {
                    sec[t] += updates
                        .iter()
                        .map(|&(v, lab)| v32(v) + varint_bits(lab))
                        .sum::<u64>();
                }
                Payload::EdgeList { edges } => {
                    sec[t] += edges
                        .iter()
                        .map(|&(u, v, w)| v32(u) + v32(v) + varint_bits(w))
                        .sum::<u64>();
                }
                Payload::Candidate {
                    label,
                    key: (w, u, v),
                    to_label,
                } => {
                    primary[t].push(*label);
                    sec[t] += varint_bits(*w) + v32(*u) + v32(*v) + varint_bits(*to_label);
                }
                Payload::StDone { .. } => sec[t] += 1,
                Payload::TestBatch { .. } => sec[t] += e.bits.max(1),
                Payload::EdgeUpdate {
                    vertex,
                    other,
                    weight,
                    ..
                } => {
                    primary[t].push(u64::from(*vertex));
                    sec[t] += v32(*other) + varint_bits(*weight) + 1;
                }
                Payload::CertSketch { label, sketch } => {
                    primary[t].push(*label);
                    sec[t] += sketch.wire_bits();
                }
                Payload::LabelPush {
                    u,
                    v,
                    weight,
                    label,
                } => {
                    primary[t].push(u64::from(*v));
                    sec[t] += v32(*u) + varint_bits(*weight) + varint_bits(*label);
                }
                Payload::SuperEdge {
                    a,
                    b,
                    weight,
                    ou,
                    ov,
                } => {
                    primary[t].push(*a);
                    sec[t] += varint_bits(*b) + varint_bits(*weight) + v32(*ou) + v32(*ov);
                }
                Payload::SuperParts { label, parts } => {
                    primary[t].push(*label);
                    sec[t] += parts
                        .iter()
                        .map(|&p| varint_bits(u64::from(p)))
                        .sum::<u64>();
                }
                Payload::SuperRelabel { old, new } => {
                    primary[t].push(*old);
                    sec[t] += varint_bits(*new);
                }
                Payload::SuperMove { label, parts, adj } => {
                    primary[t].push(*label);
                    sec[t] += parts
                        .iter()
                        .map(|&p| varint_bits(u64::from(p)))
                        .sum::<u64>();
                    sec[t] += adj
                        .iter()
                        .map(|&(nb, w, ou, ov)| {
                            varint_bits(nb) + varint_bits(w) + v32(ou) + v32(ov)
                        })
                        .sum::<u64>();
                }
                Payload::DenseBase { base, total } => {
                    sec[t] += varint_bits(*base) + varint_bits(*total);
                }
                Payload::MstCycleEdge { comp, u, v, weight } => {
                    primary[t].push(*comp);
                    sec[t] += v32(*u) + v32(*v) + varint_bits(*weight);
                }
                Payload::MstSwap { comp, evicted } => {
                    primary[t].push(*comp);
                    sec[t] += 1 + evicted.map_or(0, |(w, u, v)| varint_bits(w) + v32(u) + v32(v));
                }
                Payload::MstCutSketch { piece, sketch } => {
                    primary[t].push(*piece);
                    sec[t] += sketch.wire_bits();
                }
                Payload::MstCandidate {
                    piece,
                    key: (w, u, v),
                    to_piece,
                } => {
                    primary[t].push(*piece);
                    sec[t] += varint_bits(*w) + v32(*u) + v32(*v) + varint_bits(*to_piece);
                }
            }
        }
        let mut bits = 0u64;
        for t in 0..N_TAGS {
            if cnt[t] == 0 {
                continue;
            }
            if t == 14 {
                // TestBatch: naive fallback, no shared run header.
                bits += sec[t];
                continue;
            }
            bits += TAG_BITS + varint_bits(cnt[t]) + delta_varint_bits(&mut primary[t]) + sec[t];
        }
        bits
    }
}

/// Byte-level helpers of the transport codec (DESIGN.md §3.12). These are
/// the *physical* encoding used by the multi-process backend; the logical
/// bandwidth charge stays [`Payload::wire_bits_lw`] /
/// [`Payload::batch_wire_bits`], computed from the decoded envelopes — the
/// simulator remains the accounting oracle whatever the bytes cost.
fn put_sketch(s: &L0Sketch, out: &mut Vec<u8>) {
    let p = s.params();
    put_varint(out, p.n as u64);
    put_varint(out, u64::from(p.levels));
    put_varint(out, u64::from(p.reps));
    put_varint(out, p.independence as u64);
    for c in s.cell_slice() {
        put_signed(out, c.count);
        put_signed128(out, c.index_sum);
        put_varint(out, c.fingerprint.value());
    }
}

fn get_sketch(r: &mut WireReader<'_>) -> Result<L0Sketch, WireError> {
    let params = SketchParams {
        n: r.varint("sketch.n")? as usize,
        levels: get_u32(r, "sketch.levels")?,
        reps: get_u32(r, "sketch.reps")?,
        independence: r.varint("sketch.independence")? as usize,
    };
    let cells = (0..params.cells())
        .map(|_| {
            Ok(Cell {
                count: r.signed("cell.count")?,
                index_sum: r.signed128("cell.index_sum")?,
                fingerprint: M61::new(r.varint("cell.fingerprint")?),
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(L0Sketch::from_cells(params, cells))
}

fn get_u32(r: &mut WireReader<'_>, field: &'static str) -> Result<u32, WireError> {
    u32::try_from(r.varint(field)?)
        .map_err(|_| WireError::new(r.offset(), field, "value overflows u32"))
}

fn get_u16(r: &mut WireReader<'_>, field: &'static str) -> Result<u16, WireError> {
    u16::try_from(r.varint(field)?)
        .map_err(|_| WireError::new(r.offset(), field, "value overflows u16"))
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(u8::from(b));
}

fn get_bool(r: &mut WireReader<'_>, field: &'static str) -> Result<bool, WireError> {
    match r.u8(field)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::new(r.offset(), field, "flag byte is not 0/1")),
    }
}

impl WireCodec for Payload {
    /// One leading tag byte (the variant's `tag_index`) followed by the
    /// variant's fields as LEB128 varints — ids and labels plain, signed
    /// sketch-cell sums zigzag-coded, collections length-prefixed. This is
    /// what actually crosses the process mesh; see the sketch helpers
    /// below for why its byte count is allowed to differ from the charged
    /// bits.
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.tag_index() as u8);
        match self {
            Payload::PartSketch { label, sketch } | Payload::CertSketch { label, sketch } => {
                put_varint(out, *label);
                put_sketch(sketch, out);
            }
            Payload::EdgeProbe { comp, ask, other } => {
                put_varint(out, *comp);
                put_varint(out, u64::from(*ask));
                put_varint(out, u64::from(*other));
            }
            Payload::EdgeProbeReply {
                comp,
                vertex,
                label,
                exists,
                weight,
            } => {
                put_varint(out, *comp);
                put_varint(out, u64::from(*vertex));
                put_varint(out, *label);
                put_bool(out, *exists);
                put_varint(out, *weight);
            }
            Payload::Threshold { label, key } => {
                put_varint(out, *label);
                put_bool(out, key.is_some());
                if let Some((w, u, v)) = key {
                    put_varint(out, *w);
                    put_varint(out, u64::from(*u));
                    put_varint(out, u64::from(*v));
                }
            }
            Payload::PtrQuery { asker, target } => {
                put_varint(out, *asker);
                put_varint(out, *target);
            }
            Payload::PtrReply { asker, ptr, done } => {
                put_varint(out, *asker);
                put_varint(out, *ptr);
                put_bool(out, *done);
            }
            Payload::Relabel { old, new } | Payload::SuperRelabel { old, new } => {
                put_varint(out, *old);
                put_varint(out, *new);
            }
            Payload::Flag { bit } => put_bool(out, *bit),
            Payload::LabelAnnounce { label } => put_varint(out, *label),
            Payload::CountReport { count } => put_varint(out, *count),
            Payload::FloodLabels { updates } => {
                put_varint(out, updates.len() as u64);
                for (v, lab) in updates {
                    put_varint(out, u64::from(*v));
                    put_varint(out, *lab);
                }
            }
            Payload::EdgeList { edges } => {
                put_varint(out, edges.len() as u64);
                for (u, v, w) in edges {
                    put_varint(out, u64::from(*u));
                    put_varint(out, u64::from(*v));
                    put_varint(out, *w);
                }
            }
            Payload::Candidate {
                label,
                key: (w, u, v),
                to_label,
            } => {
                put_varint(out, *label);
                put_varint(out, *w);
                put_varint(out, u64::from(*u));
                put_varint(out, u64::from(*v));
                put_varint(out, *to_label);
            }
            Payload::StDone { same } => put_bool(out, *same),
            Payload::TestBatch { count } => put_varint(out, *count),
            Payload::EdgeUpdate {
                vertex,
                other,
                weight,
                insert,
            } => {
                put_varint(out, u64::from(*vertex));
                put_varint(out, u64::from(*other));
                put_varint(out, *weight);
                put_bool(out, *insert);
            }
            Payload::LabelPush {
                u,
                v,
                weight,
                label,
            } => {
                put_varint(out, u64::from(*u));
                put_varint(out, u64::from(*v));
                put_varint(out, *weight);
                put_varint(out, *label);
            }
            Payload::SuperEdge {
                a,
                b,
                weight,
                ou,
                ov,
            } => {
                put_varint(out, *a);
                put_varint(out, *b);
                put_varint(out, *weight);
                put_varint(out, u64::from(*ou));
                put_varint(out, u64::from(*ov));
            }
            Payload::SuperParts { label, parts } => {
                put_varint(out, *label);
                put_varint(out, parts.len() as u64);
                for p in parts {
                    put_varint(out, u64::from(*p));
                }
            }
            Payload::SuperMove { label, parts, adj } => {
                put_varint(out, *label);
                put_varint(out, parts.len() as u64);
                for p in parts {
                    put_varint(out, u64::from(*p));
                }
                put_varint(out, adj.len() as u64);
                for (nb, w, ou, ov) in adj {
                    put_varint(out, *nb);
                    put_varint(out, *w);
                    put_varint(out, u64::from(*ou));
                    put_varint(out, u64::from(*ov));
                }
            }
            Payload::DenseBase { base, total } => {
                put_varint(out, *base);
                put_varint(out, *total);
            }
            Payload::MstCycleEdge { comp, u, v, weight } => {
                put_varint(out, *comp);
                put_varint(out, u64::from(*u));
                put_varint(out, u64::from(*v));
                put_varint(out, *weight);
            }
            Payload::MstSwap { comp, evicted } => {
                put_varint(out, *comp);
                put_bool(out, evicted.is_some());
                if let Some((w, u, v)) = evicted {
                    put_varint(out, *w);
                    put_varint(out, u64::from(*u));
                    put_varint(out, u64::from(*v));
                }
            }
            Payload::MstCutSketch { piece, sketch } => {
                put_varint(out, *piece);
                put_sketch(sketch, out);
            }
            Payload::MstCandidate {
                piece,
                key: (w, u, v),
                to_piece,
            } => {
                put_varint(out, *piece);
                put_varint(out, *w);
                put_varint(out, u64::from(*u));
                put_varint(out, u64::from(*v));
                put_varint(out, *to_piece);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let tag = r.u8("payload.tag")?;
        Ok(match tag {
            0 | 16 => {
                let label = r.varint("label")?;
                let sketch = Box::new(get_sketch(r)?);
                if tag == 0 {
                    Payload::PartSketch { label, sketch }
                } else {
                    Payload::CertSketch { label, sketch }
                }
            }
            1 => Payload::EdgeProbe {
                comp: r.varint("comp")?,
                ask: get_u32(r, "ask")?,
                other: get_u32(r, "other")?,
            },
            2 => Payload::EdgeProbeReply {
                comp: r.varint("comp")?,
                vertex: get_u32(r, "vertex")?,
                label: r.varint("label")?,
                exists: get_bool(r, "exists")?,
                weight: r.varint("weight")?,
            },
            3 => Payload::Threshold {
                label: r.varint("label")?,
                key: if get_bool(r, "key.some")? {
                    Some((
                        r.varint("key.w")?,
                        get_u32(r, "key.u")?,
                        get_u32(r, "key.v")?,
                    ))
                } else {
                    None
                },
            },
            4 => Payload::PtrQuery {
                asker: r.varint("asker")?,
                target: r.varint("target")?,
            },
            5 => Payload::PtrReply {
                asker: r.varint("asker")?,
                ptr: r.varint("ptr")?,
                done: get_bool(r, "done")?,
            },
            6 | 20 => {
                let old = r.varint("old")?;
                let new = r.varint("new")?;
                if tag == 6 {
                    Payload::Relabel { old, new }
                } else {
                    Payload::SuperRelabel { old, new }
                }
            }
            7 => Payload::Flag {
                bit: get_bool(r, "bit")?,
            },
            8 => Payload::LabelAnnounce {
                label: r.varint("label")?,
            },
            9 => Payload::CountReport {
                count: r.varint("count")?,
            },
            10 => {
                let n = r.varint("updates.len")?;
                let updates = (0..n)
                    .map(|_| Ok((get_u32(r, "update.v")?, r.varint("update.label")?)))
                    .collect::<Result<Vec<_>, WireError>>()?;
                Payload::FloodLabels { updates }
            }
            11 => {
                let n = r.varint("edges.len")?;
                let edges = (0..n)
                    .map(|_| {
                        Ok((
                            get_u32(r, "edge.u")?,
                            get_u32(r, "edge.v")?,
                            r.varint("edge.w")?,
                        ))
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                Payload::EdgeList { edges }
            }
            12 => Payload::Candidate {
                label: r.varint("label")?,
                key: (
                    r.varint("key.w")?,
                    get_u32(r, "key.u")?,
                    get_u32(r, "key.v")?,
                ),
                to_label: r.varint("to_label")?,
            },
            13 => Payload::StDone {
                same: get_bool(r, "same")?,
            },
            14 => Payload::TestBatch {
                count: r.varint("count")?,
            },
            15 => Payload::EdgeUpdate {
                vertex: get_u32(r, "vertex")?,
                other: get_u32(r, "other")?,
                weight: r.varint("weight")?,
                insert: get_bool(r, "insert")?,
            },
            17 => Payload::LabelPush {
                u: get_u32(r, "u")?,
                v: get_u32(r, "v")?,
                weight: r.varint("weight")?,
                label: r.varint("label")?,
            },
            18 => Payload::SuperEdge {
                a: r.varint("a")?,
                b: r.varint("b")?,
                weight: r.varint("weight")?,
                ou: get_u32(r, "ou")?,
                ov: get_u32(r, "ov")?,
            },
            19 => {
                let label = r.varint("label")?;
                let n = r.varint("parts.len")?;
                let parts = (0..n)
                    .map(|_| get_u16(r, "part"))
                    .collect::<Result<Vec<_>, WireError>>()?;
                Payload::SuperParts { label, parts }
            }
            21 => {
                let label = r.varint("label")?;
                let np = r.varint("parts.len")?;
                let parts = (0..np)
                    .map(|_| get_u16(r, "part"))
                    .collect::<Result<Vec<_>, WireError>>()?;
                let na = r.varint("adj.len")?;
                let adj = (0..na)
                    .map(|_| {
                        Ok((
                            r.varint("adj.nb")?,
                            r.varint("adj.w")?,
                            get_u32(r, "adj.ou")?,
                            get_u32(r, "adj.ov")?,
                        ))
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                Payload::SuperMove { label, parts, adj }
            }
            22 => Payload::DenseBase {
                base: r.varint("base")?,
                total: r.varint("total")?,
            },
            23 => Payload::MstCycleEdge {
                comp: r.varint("comp")?,
                u: get_u32(r, "u")?,
                v: get_u32(r, "v")?,
                weight: r.varint("weight")?,
            },
            24 => Payload::MstSwap {
                comp: r.varint("comp")?,
                evicted: if get_bool(r, "evicted.some")? {
                    Some((
                        r.varint("evicted.w")?,
                        get_u32(r, "evicted.u")?,
                        get_u32(r, "evicted.v")?,
                    ))
                } else {
                    None
                },
            },
            25 => Payload::MstCutSketch {
                piece: r.varint("piece")?,
                sketch: Box::new(get_sketch(r)?),
            },
            26 => Payload::MstCandidate {
                piece: r.varint("piece")?,
                key: (
                    r.varint("key.w")?,
                    get_u32(r, "key.u")?,
                    get_u32(r, "key.v")?,
                ),
                to_piece: r.varint("to_piece")?,
            },
            _ => {
                return Err(WireError::new(
                    r.offset(),
                    "payload.tag",
                    "unknown payload tag",
                ))
            }
        })
    }
}

/// The id width for an `n`-vertex instance.
pub fn id_bits(n: usize) -> u64 {
    kmachine::bandwidth::id_bits(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksketch::SketchParams;

    #[test]
    fn sizes_scale_with_id_width() {
        let q = Payload::PtrQuery {
            asker: 1,
            target: 2,
        };
        assert_eq!(q.wire_bits(10), 16 + 20);
        assert_eq!(q.wire_bits(20), 16 + 40);
    }

    #[test]
    fn sketch_messages_dominate_control_messages() {
        let p = SketchParams::for_graph(1 << 14, 4);
        let s = Payload::PartSketch {
            label: 0,
            sketch: Box::new(ksketch::L0Sketch::new(p)),
        };
        let f = Payload::Flag { bit: true };
        assert!(s.wire_bits(14) > 100 * f.wire_bits(14));
    }

    #[test]
    fn batched_messages_cost_per_entry() {
        let one = Payload::FloodLabels {
            updates: vec![(1, 2)],
        };
        let ten = Payload::FloodLabels {
            updates: (0..10).map(|i| (i, i as u64)).collect(),
        };
        let l = 12;
        assert_eq!(
            ten.wire_bits(l) - TAG_BITS,
            10 * (one.wire_bits(l) - TAG_BITS)
        );
    }

    #[test]
    fn threshold_none_is_cheaper_than_some() {
        let some = Payload::Threshold {
            label: 5,
            key: Some((9, 1, 2)),
        };
        let none = Payload::Threshold {
            label: 5,
            key: None,
        };
        assert!(some.wire_bits(16) > none.wire_bits(16));
    }

    #[test]
    fn edge_update_costs_one_edge_record() {
        let up = Payload::EdgeUpdate {
            vertex: 3,
            other: 9,
            weight: 5,
            insert: true,
        };
        // Two ids + weight + direction bit, plus the flat tag.
        assert_eq!(up.wire_bits(12), 16 + 24 + 32 + 1);
    }

    #[test]
    fn id_bits_matches_bandwidth_helper() {
        assert_eq!(id_bits(1 << 16), 16);
        assert_eq!(id_bits((1 << 16) + 1), 17);
    }

    #[test]
    fn label_width_shrinks_label_fields_only() {
        let q = Payload::PtrQuery {
            asker: 1,
            target: 2,
        };
        // Both fields are labels: full width at lw = l, narrow after.
        assert_eq!(q.wire_bits_lw(20, 20), q.wire_bits(20));
        assert_eq!(q.wire_bits_lw(20, 3), 16 + 6);
        // A probe keeps its vertex ids at l; only the component narrows.
        let p = Payload::EdgeProbe {
            comp: 9,
            ask: 1,
            other: 2,
        };
        assert_eq!(p.wire_bits_lw(20, 20), p.wire_bits(20));
        assert_eq!(p.wire_bits_lw(20, 3), 16 + 3 + 40);
    }

    #[test]
    fn batched_relabels_share_one_tag_and_compress_ids() {
        let l = 20;
        let batch: Vec<Envelope<Payload>> = (0..50u64)
            .map(|i| {
                let p = Payload::Relabel {
                    old: 3000 + i,
                    new: 7,
                };
                let bits = p.wire_bits(l);
                Envelope::with_bits(0, 1, p, bits)
            })
            .collect();
        let refs: Vec<&Envelope<Payload>> = batch.iter().collect();
        let encoded = Payload::batch_wire_bits(&refs);
        let naive: u64 = batch.iter().map(|e| e.bits).sum();
        // One tag + count + delta run (varint(3000) + 49 byte gaps) + 50
        // varint `new` fields.
        assert_eq!(encoded, 16 + 8 + (16 + 49 * 8) + 50 * 8);
        assert!(encoded < naive / 2, "{encoded} vs {naive}");
    }

    #[test]
    fn test_batches_fall_back_to_their_naive_size() {
        let l = 16;
        let batch: Vec<Envelope<Payload>> = (0..4u64)
            .map(|c| {
                let p = Payload::TestBatch { count: c + 1 };
                let bits = p.wire_bits(l);
                Envelope::with_bits(0, 1, p, bits)
            })
            .collect();
        let refs: Vec<&Envelope<Payload>> = batch.iter().collect();
        let naive: u64 = batch.iter().map(|e| e.bits).sum();
        assert_eq!(Payload::batch_wire_bits(&refs), naive);
    }

    fn sample_sketch() -> Box<L0Sketch> {
        use krand::shared::SharedRandomness;
        let params = SketchParams::for_graph(64, 3);
        let fns = ksketch::SketchFns::new(&SharedRandomness::new(9), 0, params);
        let mut s = L0Sketch::new(params);
        s.add_incident_edge(&fns, 3, 7);
        s.add_incident_edge(&fns, 3, 9);
        s.remove_incident_edge(&fns, 3, 7);
        Box::new(s)
    }

    /// One exemplar of every variant — the codec matrix below iterates it.
    fn one_of_each() -> Vec<Payload> {
        vec![
            Payload::PartSketch {
                label: 5,
                sketch: sample_sketch(),
            },
            Payload::EdgeProbe {
                comp: 1,
                ask: 2,
                other: 3,
            },
            Payload::EdgeProbeReply {
                comp: 1,
                vertex: 2,
                label: 3,
                exists: true,
                weight: u64::MAX,
            },
            Payload::Threshold {
                label: 9,
                key: Some((4, 5, 6)),
            },
            Payload::Threshold {
                label: 9,
                key: None,
            },
            Payload::PtrQuery {
                asker: 1,
                target: 2,
            },
            Payload::PtrReply {
                asker: 1,
                ptr: 2,
                done: false,
            },
            Payload::Relabel { old: 8, new: 9 },
            Payload::Flag { bit: true },
            Payload::LabelAnnounce { label: 1 << 40 },
            Payload::CountReport { count: 0 },
            Payload::FloodLabels {
                updates: vec![(1, 2), (u32::MAX, u64::MAX)],
            },
            Payload::EdgeList {
                edges: vec![(1, 2, 3), (4, 5, 6)],
            },
            Payload::Candidate {
                label: 1,
                key: (2, 3, 4),
                to_label: 5,
            },
            Payload::StDone { same: false },
            Payload::TestBatch { count: 77 },
            Payload::EdgeUpdate {
                vertex: 1,
                other: 2,
                weight: 3,
                insert: false,
            },
            Payload::CertSketch {
                label: 6,
                sketch: sample_sketch(),
            },
            Payload::LabelPush {
                u: 1,
                v: 2,
                weight: 3,
                label: 4,
            },
            Payload::SuperEdge {
                a: 1,
                b: 2,
                weight: 3,
                ou: 4,
                ov: 5,
            },
            Payload::SuperParts {
                label: 1,
                parts: vec![0, 3, 15],
            },
            Payload::SuperRelabel { old: 1, new: 2 },
            Payload::SuperMove {
                label: 1,
                parts: vec![2],
                adj: vec![(3, 4, 5, 6), (7, 8, 9, 10)],
            },
            Payload::DenseBase { base: 1, total: 2 },
            Payload::MstCycleEdge {
                comp: 1,
                u: 2,
                v: 3,
                weight: u64::MAX,
            },
            Payload::MstSwap {
                comp: 4,
                evicted: Some((5, 6, 7)),
            },
            Payload::MstSwap {
                comp: 4,
                evicted: None,
            },
            Payload::MstCutSketch {
                piece: 8,
                sketch: sample_sketch(),
            },
            Payload::MstCandidate {
                piece: 1,
                key: (2, 3, 4),
                to_piece: 5,
            },
        ]
    }

    /// The whole ledger and codec, pinned: per exemplar its trace kind, the
    /// fixed-width charge at two `(l, lw)` points, the varint price of a
    /// three-copy run and the encoded bytes; then one mixed batch holding
    /// every exemplar twice. The fixture was generated from the hand-written
    /// per-variant matches this table replaced — regenerate it by hand, and
    /// only in a PR that means to move the ledger.
    #[test]
    fn ledger_and_codec_match_the_golden_fixture() {
        let all = one_of_each();
        let envelope = |p: &Payload| Envelope::with_bits(0, 1, p.clone(), p.wire_bits_lw(12, 12));
        let batch_bits =
            |envs: &[Envelope<Payload>]| Payload::batch_wire_bits(&envs.iter().collect::<Vec<_>>());
        let mut actual = String::new();
        for p in &all {
            assert_eq!(p.wire_bits(12), p.wire_bits_lw(12, 12), "{p:?}");
            let mut bytes = Vec::new();
            p.encode(&mut bytes);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            actual.push_str(&format!(
                "{} {} {} {} {hex}\n",
                p.kind_name(),
                p.wire_bits_lw(12, 12),
                p.wire_bits_lw(20, 7),
                batch_bits(&[envelope(p), envelope(p), envelope(p)]),
            ));
        }
        let twice: Vec<_> = all.iter().chain(&all).map(envelope).collect();
        actual.push_str(&format!("all_twice {}\n", batch_bits(&twice)));
        assert_eq!(actual, include_str!("../fixtures/payload_ledger.txt"));

        let mut kinds: Vec<_> = all.iter().map(BatchWire::kind_name).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), N_TAGS, "one_of_each() misses a variant");
    }

    #[test]
    fn every_variant_round_trips_the_byte_codec() {
        for p in one_of_each() {
            let mut buf = Vec::new();
            p.encode(&mut buf);
            let mut r = WireReader::new(&buf);
            let back = Payload::decode(&mut r).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert_eq!(back, p, "codec must round-trip exactly");
            assert!(r.is_empty(), "{p:?}: codec left trailing bytes");
        }
    }

    #[test]
    fn truncated_payloads_decode_to_field_precise_errors() {
        for p in one_of_each() {
            let mut buf = Vec::new();
            p.encode(&mut buf);
            // Chopping the last byte must fail (never silently succeed
            // short) except for payloads whose final field is a varint
            // whose last byte is redundant — there are none: LEB128
            // terminates on the final byte, so every truncation is fatal.
            let mut r = WireReader::new(&buf[..buf.len() - 1]);
            let res = Payload::decode(&mut r);
            let complete = res.is_ok() && r.is_empty();
            assert!(
                !complete,
                "{p:?}: truncated buffer decoded to a complete payload"
            );
        }
        let e = Payload::decode(&mut WireReader::new(&[99])).unwrap_err();
        assert_eq!(e.field, "payload.tag");
        assert_eq!(e.reason, "unknown payload tag");
    }

    #[test]
    fn sketch_payloads_carry_their_cells_exactly() {
        let sketch = sample_sketch();
        let p = Payload::PartSketch {
            label: 3,
            sketch: sketch.clone(),
        };
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let back = Payload::decode(&mut WireReader::new(&buf)).unwrap();
        let Payload::PartSketch { sketch: got, .. } = back else {
            panic!("wrong variant");
        };
        assert_eq!(got.params(), sketch.params());
        assert_eq!(got.cell_slice(), sketch.cell_slice());
    }

    #[test]
    fn mixed_batches_pay_one_header_per_variant_run() {
        let l = 12;
        let mk = |p: Payload| {
            let bits = p.wire_bits(l);
            Envelope::with_bits(0, 1, p, bits)
        };
        let batch = [
            mk(Payload::Flag { bit: true }),
            mk(Payload::Flag { bit: false }),
            mk(Payload::CountReport { count: 3 }),
        ];
        let refs: Vec<&Envelope<Payload>> = batch.iter().collect();
        // Flag run: tag + count(2) + 2 bits; CountReport run: tag +
        // count(1) + varint(3).
        assert_eq!(Payload::batch_wire_bits(&refs), (16 + 8 + 2) + (16 + 8 + 8));
    }
}
