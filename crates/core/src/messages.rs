//! Message payloads of the distributed algorithms, with explicit wire sizes.
//!
//! Every message is one row of the [`Payload`] table. A row names each
//! field's *kind* once, and a kind says what the field costs and how it is
//! written: vertex ids and component labels (the id of a member vertex)
//! cost `⌈log₂ n⌉` bits, weights 32 bits, sketches their `polylog(n)` size
//! ([`ksketch::SketchParams::wire_bits`]), plus a flat 16-bit type tag per
//! message. From the row the table generates the fixed-width charge
//! [`Payload::wire_bits`] — which needs the id width `L = ⌈log₂ n⌉` as
//! context — the byte codec, the wire tag and the trace kind name.
//!
//! Under [`kmachine::message::Encoding::Varint`] a directed link's batch is
//! charged by [`kmachine::message::BatchWire`] instead: per-variant runs
//! share one tag, carry a varint count, and ship their primary id field as
//! a delta-sorted varint stream — see [`Payload::batch_wire_bits`].

use kmachine::message::{
    delta_varint_bits, put_signed, put_varint, varint_bits, BatchWire, Envelope, WireCodec,
    WireError, WireReader,
};
use krand::m61::M61;
use ksketch::{Cell, L0Sketch, SketchParams};
use std::cell::RefCell;

/// A component label. Labels are always ids of representative vertices, so
/// they fit in the same `⌈log₂ n⌉` bits as vertex ids.
pub type Label = u64;

/// An MST comparison key: `(weight, u, v)` — the tie-free total order.
pub type EdgeKey = (u64, u32, u32);

/// Flat per-message type tag cost.
const TAG_BITS: u64 = 16;

/// One variant's run inside a directed link's batch under
/// [`kmachine::message::Encoding::Varint`]. Runs are pricing scratch: a
/// link's runs are cleared once priced and reused for the next link.
#[derive(Default)]
struct Run {
    /// Messages in the run.
    count: u64,
    /// Every message's [`By`] field; the run ships them delta-sorted.
    sorted: Vec<u64>,
    /// Varint bits of all other fields.
    plain: u64,
    /// One [`HalfEdges`] list's delta-sorted keys at a time.
    keys: Vec<u64>,
}

/// Every variant's run: [`varint_batch_bits`]'s scratch.
type Runs = [Run; N_KINDS];

thread_local! {
    /// The runs [`Payload::batch_wire_bits`] prices through, kept across
    /// links and windows so a warm pricer does not allocate.
    static RUNS: RefCell<Runs> = RefCell::default();
}

/// What a field of type `T` costs and how it is written. Each kind below
/// decides this once; [`payload_table!`] folds the four functions over a
/// row's fields to get the message's charge, run price and codec.
trait Kind<T> {
    /// Bits under the fixed-width model: ids and labels `l` wide.
    fn naive(v: &T, l: u64) -> u64;
    /// Adds the field to its variant's varint run.
    fn varint(v: &T, run: &mut Run);
    /// Appends the field's bytes — the *physical* encoding of the process
    /// mesh (DESIGN.md §3.12). Its byte count may differ from the charge:
    /// the ledger is computed from the decoded envelopes on every backend.
    fn put(v: &T, out: &mut Vec<u8>);
    /// Reads back what [`Kind::put`] wrote; `field` names the row's field
    /// in decode errors.
    fn get(r: &mut WireReader<'_>, field: &'static str) -> Result<T, WireError>;
}

/// Reads one varint and narrows it to the field's integer type.
fn narrow<T: TryFrom<u64>>(
    r: &mut WireReader<'_>,
    field: &'static str,
    reason: &'static str,
) -> Result<T, WireError> {
    T::try_from(r.varint(field)?).map_err(|_| WireError::new(r.offset(), field, reason))
}

/// An unsigned integer kind: a fixed width under the naive model, one
/// LEB128 varint in a run and on the mesh.
macro_rules! uint_kind {
    ($(#[$doc:meta])* $Kind:ident($T:ident) = |$l:ident| $bits:expr) => {
        $(#[$doc])*
        struct $Kind;
        impl Kind<$T> for $Kind {
            fn naive(_: &$T, $l: u64) -> u64 {
                $bits
            }
            fn varint(v: &$T, run: &mut Run) {
                run.plain += varint_bits(u64::from(*v));
            }
            fn put(v: &$T, out: &mut Vec<u8>) {
                put_varint(out, u64::from(*v));
            }
            fn get(r: &mut WireReader<'_>, field: &'static str) -> Result<$T, WireError> {
                narrow(r, field, concat!("value overflows ", stringify!($T)))
            }
        }
    };
}

uint_kind! {
    /// A component label, the id of one of its member vertices: `l` bits.
    LabelId(u64) = |l| l
}
uint_kind! {
    /// An original vertex id: `l = ⌈log₂ n⌉` bits.
    VertexId(u32) = |l| l
}
uint_kind! {
    /// An edge weight or a counter: 32 bits.
    Weight(u64) = |_l| 32
}
uint_kind! {
    /// A machine id: 16 bits whatever `k` is.
    MachineId(u16) = |_l| 16
}

/// Marks the one field per row that the destination groups by: a varint
/// run ships it delta-sorted instead of as a plain varint. Everything else
/// about the field is `K`'s.
struct By<K>(K);

impl<T: Copy + Into<u64>, K: Kind<T>> Kind<T> for By<K> {
    fn naive(v: &T, l: u64) -> u64 {
        K::naive(v, l)
    }
    fn varint(v: &T, run: &mut Run) {
        run.sorted.push((*v).into());
    }
    fn put(v: &T, out: &mut Vec<u8>) {
        K::put(v, out);
    }
    fn get(r: &mut WireReader<'_>, field: &'static str) -> Result<T, WireError> {
        K::get(r, field)
    }
}

/// A flag: one bit charged, one byte on the mesh.
struct Bit;

impl Kind<bool> for Bit {
    fn naive(_: &bool, _l: u64) -> u64 {
        1
    }
    fn varint(_: &bool, run: &mut Run) {
        run.plain += 1;
    }
    fn put(v: &bool, out: &mut Vec<u8>) {
        out.push(u8::from(*v));
    }
    fn get(r: &mut WireReader<'_>, field: &'static str) -> Result<bool, WireError> {
        match r.u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::new(r.offset(), field, "flag byte is not 0/1")),
        }
    }
}

/// A sketch: its own `polylog(n)` [`L0Sketch::wire_bits`] in both charged
/// encodings (cells are dense field elements, varints would not shrink
/// them); on the mesh, its parameters then every cell with the signed sums
/// zigzag-coded.
struct Sketch;

impl Kind<Box<L0Sketch>> for Sketch {
    fn naive(s: &Box<L0Sketch>, _l: u64) -> u64 {
        s.wire_bits()
    }
    fn varint(s: &Box<L0Sketch>, run: &mut Run) {
        run.plain += s.wire_bits();
    }
    fn put(s: &Box<L0Sketch>, out: &mut Vec<u8>) {
        let p = s.params();
        put_varint(out, p.n as u64);
        put_varint(out, u64::from(p.levels));
        put_varint(out, u64::from(p.reps));
        put_varint(out, p.independence as u64);
        for c in s.cell_slice() {
            put_signed(out, c.count);
            put_signed(out, c.index_sum as i64);
            put_varint(out, c.fingerprint.value());
        }
    }
    fn get(r: &mut WireReader<'_>, _field: &'static str) -> Result<Box<L0Sketch>, WireError> {
        let params = SketchParams {
            n: r.varint("sketch.n")? as usize,
            levels: narrow(r, "sketch.levels", "value overflows u32")?,
            reps: narrow(r, "sketch.reps", "value overflows u32")?,
            independence: r.varint("sketch.independence")? as usize,
        };
        let cells = (0..params.cells())
            .map(|_| {
                Ok(Cell {
                    count: r.signed("cell.count")?,
                    index_sum: r.signed("cell.index_sum")? as u64,
                    fingerprint: M61::new(r.varint("cell.fingerprint")?),
                })
            })
            .collect::<Result<Vec<_>, WireError>>()?;
        Ok(Box::new(L0Sketch::from_cells(params, cells)))
    }
}

/// An optional field: a presence bit, then `K` when present.
struct Opt<K>(K);

impl<T, K: Kind<T>> Kind<Option<T>> for Opt<K> {
    fn naive(v: &Option<T>, l: u64) -> u64 {
        1 + v.as_ref().map_or(0, |x| K::naive(x, l))
    }
    fn varint(v: &Option<T>, run: &mut Run) {
        run.plain += 1;
        if let Some(x) = v {
            K::varint(x, run);
        }
    }
    fn put(v: &Option<T>, out: &mut Vec<u8>) {
        Bit::put(&v.is_some(), out);
        if let Some(x) = v {
            K::put(x, out);
        }
    }
    fn get(r: &mut WireReader<'_>, field: &'static str) -> Result<Option<T>, WireError> {
        Bit::get(r, field)?.then(|| K::get(r, field)).transpose()
    }
}

/// A list field: the sum of its elements under the fixed-width model; a
/// varint run and the mesh both write its length first, since a decodable
/// buffer has to delimit it.
struct List<K>(K);

impl<T, K: Kind<T>> Kind<Vec<T>> for List<K> {
    fn naive(v: &Vec<T>, l: u64) -> u64 {
        v.iter().map(|x| K::naive(x, l)).sum()
    }
    fn varint(v: &Vec<T>, run: &mut Run) {
        run.plain += varint_bits(v.len() as u64);
        for x in v {
            K::varint(x, run);
        }
    }
    fn put(v: &Vec<T>, out: &mut Vec<u8>) {
        put_varint(out, v.len() as u64);
        for x in v {
            K::put(x, out);
        }
    }
    fn get(r: &mut WireReader<'_>, field: &'static str) -> Result<Vec<T>, WireError> {
        (0..r.varint(field)?).map(|_| K::get(r, field)).collect()
    }
}

/// A tuple field is its elements in order.
macro_rules! tuple_kind {
    ($($T:ident $K:ident $i:tt),+) => {
        impl<$($T, $K: Kind<$T>),+> Kind<($($T,)+)> for ($($K,)+) {
            fn naive(v: &($($T,)+), l: u64) -> u64 {
                [$($K::naive(&v.$i, l)),+].iter().sum()
            }
            fn varint(v: &($($T,)+), run: &mut Run) {
                $($K::varint(&v.$i, run);)+
            }
            fn put(v: &($($T,)+), out: &mut Vec<u8>) {
                $($K::put(&v.$i, out);)+
            }
            fn get(r: &mut WireReader<'_>, field: &'static str) -> Result<($($T,)+), WireError> {
                Ok(($($K::get(r, field)?,)+))
            }
        }
    };
}

tuple_kind!(A KA 0, B KB 1);
tuple_kind!(A KA 0, B KB 1, C KC 2);
tuple_kind!(A KA 0, B KB 1, C KC 2, D KD 3);

/// An [`EdgeKey`]: `(weight, u, v)`.
type Key = (Weight, VertexId, VertexId);

/// A part's half-edges `(v, nb)`: a `List` of id pairs, but a varint run
/// ships one length plus the delta-sorted keys `(v << 32) | nb` (the proxy
/// only sums them, so their order is free).
struct HalfEdges;

impl Kind<Vec<(u32, u32)>> for HalfEdges {
    fn naive(v: &Vec<(u32, u32)>, l: u64) -> u64 {
        <List<(VertexId, VertexId)>>::naive(v, l)
    }
    fn varint(v: &Vec<(u32, u32)>, run: &mut Run) {
        let key = |&(a, b): &(u32, u32)| u64::from(a) << 32 | u64::from(b);
        run.keys.clear();
        run.keys.extend(v.iter().map(key));
        run.plain += varint_bits(v.len() as u64) + delta_varint_bits(&mut run.keys);
    }
    fn put(v: &Vec<(u32, u32)>, out: &mut Vec<u8>) {
        <List<(VertexId, VertexId)>>::put(v, out);
    }
    fn get(r: &mut WireReader<'_>, field: &'static str) -> Result<Vec<(u32, u32)>, WireError> {
        <List<(VertexId, VertexId)>>::get(r, field)
    }
}

/// `TestBatch.count` — irregular: the message stands for `count` edge tests
/// of `3·l` bits each, so it is already an aggregate and never joins a
/// varint run ([`varint_batch_bits`] charges it its fixed-width bits).
struct Tests;

impl Kind<u64> for Tests {
    fn naive(count: &u64, l: u64) -> u64 {
        count * 3 * l
    }
    fn varint(_: &u64, _: &mut Run) {
        unreachable!("a TestBatch is charged its envelope bits, not run-encoded")
    }
    fn put(count: &u64, out: &mut Vec<u8>) {
        Weight::put(count, out);
    }
    fn get(r: &mut WireReader<'_>, field: &'static str) -> Result<u64, WireError> {
        Weight::get(r, field)
    }
}

/// Generates everything per-variant from one table. Each row reads
/// `Variant = "trace_kind" { field: Type as Kind, .. }` and yields the enum
/// variant itself, its wire tag (row order — never reorder rows), its
/// [`BatchWire::kind_name`], and one arm each of [`Payload::wire_bits`],
/// the varint run fold, [`WireCodec::encode`] and [`WireCodec::decode`].
macro_rules! payload_table {
    (
        $(#[$emeta:meta])*
        $vis:vis enum $Payload:ident {$(
            $(#[$vmeta:meta])*
            $Variant:ident = $kind:literal {$(
                $(#[$fmeta:meta])*
                $field:ident: $T:ty as $K:ty,
            )+},
        )+}
    ) => {
        $(#[$emeta])*
        $vis enum $Payload {$(
            $(#[$vmeta])*
            $Variant {$(
                $(#[$fmeta])*
                $field: $T,
            )+},
        )+}

        /// Row order: the tag byte on the mesh and the run index in a batch.
        #[repr(u8)]
        enum Tag {$($Variant,)+}

        /// The tag bytes as constants, so `decode` is a `match`.
        #[allow(non_upper_case_globals)]
        mod tag {$(pub(super) const $Variant: u8 = super::Tag::$Variant as u8;)+}

        /// Number of rows.
        const N_KINDS: usize = [$($kind),+].len();

        impl $Payload {
            /// The wire size given the id width `l = ⌈log₂ n⌉` bits, which
            /// vertex ids and component labels alike are charged.
            pub fn wire_bits(&self, l: u64) -> u64 {
                match self {$(
                    $Payload::$Variant {$($field,)+} => {
                        TAG_BITS $(+ <$K as Kind<$T>>::naive($field, l))+
                    }
                )+}
            }

            /// Adds this message to its variant's run.
            fn join_run(&self, runs: &mut [Run; N_KINDS]) {
                match self {$(
                    $Payload::$Variant {$($field,)+} => {
                        let run = &mut runs[Tag::$Variant as usize];
                        run.count += 1;
                        $(<$K as Kind<$T>>::varint($field, run);)+
                    }
                )+}
            }
        }

        impl BatchWire for $Payload {
            /// Stable snake_case variant name for [`kmachine::trace`] superstep
            /// payload-kind histograms.
            fn kind_name(&self) -> &'static str {
                match self {$($Payload::$Variant { .. } => $kind,)+}
            }

            /// One directed link's batch, encoded as per-variant runs: each run
            /// pays the 16-bit tag once plus a varint count; its `By` field (the
            /// label or vertex the destination groups by) travels delta-sorted
            /// as a varint stream, every other field as a plain varint; flags
            /// are one bit; sketches keep their raw wire size; lists pay a
            /// varint length before their elements.
            /// [`Payload::TestBatch`] is already an aggregate: it opens no run
            /// and pays its fixed-width envelope bits.
            ///
            /// No id-width context is needed, which is what makes this the
            /// *charged* size rather than a model bound.
            fn batch_wire_bits(batch: &[&Envelope<Self>]) -> u64 {
                RUNS.with_borrow_mut(|runs| varint_batch_bits(batch, runs))
            }
        }

        impl WireCodec for $Payload {
            /// One leading tag byte (the row's index) followed by the row's
            /// fields in order, each written by its kind: ids, labels and
            /// weights as LEB128 varints, flags as one byte, lists
            /// length-prefixed, sketch cells zigzag-coded. This is what
            /// actually crosses the process mesh.
            fn encode(&self, out: &mut Vec<u8>) {
                match self {$(
                    $Payload::$Variant {$($field,)+} => {
                        out.push(Tag::$Variant as u8);
                        $(<$K as Kind<$T>>::put($field, out);)+
                    }
                )+}
            }

            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                match r.u8("payload.tag")? {
                    $(tag::$Variant => Ok($Payload::$Variant {
                        $($field: <$K as Kind<$T>>::get(r, stringify!($field))?,)+
                    }),)+
                    _ => Err(WireError::new(r.offset(), "payload.tag", "unknown payload tag")),
                }
            }
        }
    };
}

payload_table! {
    /// Every message any of the algorithms sends.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Payload {
        /// A component part's combined sketch, machine → component proxy (§2.4).
        PartSketch = "part_sketch" {
            /// The component label this part belongs to.
            label: Label as By<LabelId>,
            /// The part's combined sketch (sum of its vertices' sketches).
            sketch: Box<L0Sketch> as Sketch,
        },
        /// Proxy asks `home(ask)` about endpoint `ask` of candidate edge
        /// `{ask, other}`: current label, edge existence, and weight.
        EdgeProbe = "edge_probe" {
            /// Component on whose behalf the proxy asks.
            comp: Label as By<LabelId>,
            /// The endpoint whose home machine is being asked.
            ask: u32 as VertexId,
            /// The other endpoint of the candidate edge.
            other: u32 as VertexId,
        },
        /// Home machine's answer to an [`Payload::EdgeProbe`].
        EdgeProbeReply = "edge_probe_reply" {
            /// Component the probe belonged to.
            comp: Label as By<LabelId>,
            /// The endpoint that was asked about.
            vertex: u32 as VertexId,
            /// Its current component label.
            label: Label as LabelId,
            /// Whether the probed edge exists in `G`.
            exists: bool as Bit,
            /// The edge weight (0 if absent).
            weight: u64 as Weight,
        },
        /// MST elimination broadcast, sent only for a component still
        /// eliminating: parts must rebuild sketches filtered to edges with
        /// key strictly below `key`; `None` means the component has no
        /// verified candidate yet, so its parts rebuild unfiltered.
        Threshold = "threshold" {
            /// The component label.
            label: Label as By<LabelId>,
            /// The new strict upper bound, or `None` for no bound yet.
            key: Option<EdgeKey> as Opt<Key>,
        },
        /// Pointer-jumping query, proxy(asker) → proxy(target) (§2.5).
        PtrQuery = "ptr_query" {
            /// The component doing the jump.
            asker: Label as LabelId,
            /// The component whose pointer is requested.
            target: Label as By<LabelId>,
        },
        /// Pointer-jumping reply.
        PtrReply = "ptr_reply" {
            /// The component doing the jump.
            asker: Label as By<LabelId>,
            /// The target's current pointer.
            ptr: Label as LabelId,
            /// Whether the target's pointer is already a root.
            done: bool as Bit,
        },
        /// Merge command, proxy → machines holding parts of `old`.
        Relabel = "relabel" {
            /// The label being retired.
            old: Label as By<LabelId>,
            /// The root label that replaces it.
            new: Label as LabelId,
        },
        /// A one-bit control flag (convergence detection).
        Flag = "flag" {
            /// The bit.
            bit: bool as Bit,
        },
        /// Output protocol (§2.6 end): a machine announces a label it holds.
        LabelAnnounce = "label_announce" {
            /// The label.
            label: Label as By<LabelId>,
        },
        /// Output protocol: a proxy reports how many distinct labels it proxies.
        CountReport = "count_report" {
            /// Number of distinct labels.
            count: u64 as Weight,
        },
        /// Flooding baseline: batched `(vertex, new label)` updates addressed to
        /// a machine hosting neighbors of those vertices.
        FloodLabels = "flood_labels" {
            /// The updates.
            updates: Vec<(u32, Label)> as List<(VertexId, LabelId)>,
        },
        /// A batch of edges (referee collection, REP routing).
        EdgeList = "edge_list" {
            /// `(u, v, w)` triples.
            edges: Vec<(u32, u32, u64)> as List<(VertexId, VertexId, Weight)>,
        },
        /// Edge-checking Borůvka: a part's local MWOE candidate for `label`.
        Candidate = "candidate" {
            /// The component label.
            label: Label as By<LabelId>,
            /// The candidate edge key.
            key: EdgeKey as Key,
            /// The label on the other side of the candidate edge.
            to_label: Label as LabelId,
        },
        /// Final s–t comparison result exchanged between two home machines.
        StDone = "st_done" {
            /// Whether both endpoints carried the same label.
            same: bool as Bit,
        },
        /// Per-edge status tests of the GHS-style baseline, aggregated per
        /// machine pair for simulation efficiency: `count` individual tests of
        /// `3·⌈log₂ n⌉` bits each (edge id + queried label).
        TestBatch = "test_batch" {
            /// Number of individual edge tests carried.
            count: u64 as Tests,
        },
        /// Dynamic update routed from the ingest coordinator to an endpoint's
        /// home machine: the home XORs the edge contribution into (insert) or
        /// out of (delete) the endpoint's incidence sketch and stages the
        /// half-edge delta.
        EdgeUpdate = "edge_update" {
            /// The endpoint homed at the destination machine.
            vertex: u32 as By<VertexId>,
            /// The other endpoint of the updated edge.
            other: u32 as VertexId,
            /// The edge weight (0 for deletions).
            weight: u64 as Weight,
            /// Insert (`true`) or delete (`false`).
            insert: bool as Bit,
        },
        /// Dynamic certification: a machine's aggregated incidence sketch for
        /// one of the component labels it hosts, sent to the label's referee
        /// (the representative vertex's home). Linearity makes the per-label
        /// sum cancel to exactly zero iff the label class has no outgoing edge.
        CertSketch = "cert_sketch" {
            /// The component label being certified.
            label: Label as By<LabelId>,
            /// The sum of the machine's local vertex sketches for that label.
            sketch: Box<L0Sketch> as Sketch,
        },
        /// Supergraph build (§3.11): `home(u)` pushes endpoint `u`'s label
        /// along edge `{u, v}` to `home(v)`, which sees both labels and keeps
        /// the edge iff they differ.
        LabelPush = "label_push" {
            /// The endpoint whose label is being pushed.
            u: u32 as VertexId,
            /// The other endpoint (homed at the destination machine).
            v: u32 as By<VertexId>,
            /// The edge weight.
            weight: u64 as Weight,
            /// `u`'s current component label.
            label: Label as LabelId,
        },
        /// Supergraph build: a surviving inter-component edge, routed to a
        /// component endpoint's owner. The original endpoints ride along so
        /// MST/spanning-forest output stays in original edge ids.
        SuperEdge = "super_edge" {
            /// The component whose owner this copy is addressed to.
            a: Label as By<LabelId>,
            /// The component on the other side.
            b: Label as LabelId,
            /// The edge weight.
            weight: u64 as Weight,
            /// Original endpoint on `a`'s side.
            ou: u32 as VertexId,
            /// Original endpoint on `b`'s side.
            ov: u32 as VertexId,
        },
        /// Supergraph build/maintenance: a machine announces it hosts original
        /// vertices of component `label` (so merge results can be broadcast
        /// back into the vertex space).
        SuperParts = "super_parts" {
            /// The component label.
            label: Label as By<LabelId>,
            /// Machines hosting parts of the component.
            parts: Vec<u16> as List<MachineId>,
        },
        /// Supergraph merge: component `old` is now addressed as its root
        /// `new`, sent to owners storing `old` in an adjacency list.
        SuperRelabel = "super_relabel" {
            /// The label being retired.
            old: Label as By<LabelId>,
            /// Its replacement.
            new: Label as LabelId,
        },
        /// Supergraph merge: a merging supernode's full owner state moves to
        /// the machine that owns its root's label.
        SuperMove = "super_move" {
            /// The root's label, which the supernode now carries.
            label: Label as By<LabelId>,
            /// Machines hosting original vertices of the component.
            parts: Vec<u16> as List<MachineId>,
            /// Deduped adjacency: `(neighbor label, weight, ou, ov)` of the
            /// lightest original edge crossing to that neighbor.
            adj: Vec<(Label, u64, u32, u32)> as List<(LabelId, Weight, VertexId, VertexId)>,
        },
        /// Incremental MST insert pass: a freshly inserted edge routed to its
        /// component's owner for cycle-edge replacement (find the max-weight
        /// edge on the tree cycle the insert closes, swap if heavier).
        MstCycleEdge = "mst_cycle_edge" {
            /// The MST component both endpoints belong to.
            comp: Label as By<LabelId>,
            /// One endpoint of the inserted edge.
            u: u32 as VertexId,
            /// The other endpoint.
            v: u32 as VertexId,
            /// The inserted edge's weight.
            weight: u64 as Weight,
        },
        /// Incremental MST insert pass: the owner's verdict on one cycle
        /// replacement — the tree edge evicted by the insert, or `None` when
        /// the insert lost (the cycle's max edge was the insert itself).
        MstSwap = "mst_swap" {
            /// The MST component the swap happened in.
            comp: Label as By<LabelId>,
            /// The evicted tree edge's key, or `None` for no swap.
            evicted: Option<EdgeKey> as Opt<Key>,
        },
        /// Incremental MST delete pass: a machine's aggregated incidence
        /// sketch for one side of a tree split, sent to the piece's referee so
        /// the linear per-piece sum can witness whether any crossing edge
        /// survives (zero sum ⇔ a genuine component split).
        MstCutSketch = "mst_cut_sketch" {
            /// The split piece (labelled by its minimum vertex).
            piece: Label as By<LabelId>,
            /// The machine's summed vertex sketches for the piece.
            sketch: Box<L0Sketch> as Sketch,
        },
        /// Incremental MST delete pass: a machine's minimum-weight candidate
        /// edge crossing out of a split piece, min-reduced at the referee to
        /// pick the replacement edge.
        MstCandidate = "mst_candidate" {
            /// The split piece the candidate leaves.
            piece: Label as By<LabelId>,
            /// The candidate edge key.
            key: EdgeKey as Key,
            /// The piece on the candidate's far side.
            to_piece: Label as LabelId,
        },
        /// A component part's half-edges instead of its sketch, machine →
        /// component proxy, when they are fewer bits (the proxy sketches
        /// them itself; DESIGN.md §3.3).
        PartEdges = "part_edges" {
            /// The component label this part belongs to.
            label: Label as By<LabelId>,
            /// The half-edges the part's sketch would hash, as `(v, nb)`.
            edges: Vec<(u32, u32)> as HalfEdges,
        },
    }
}

/// [`BatchWire::batch_wire_bits`] for [`Payload`], priced through `runs`
/// and leaving them empty for the next link: written out rather than
/// generated because of its one named special case.
fn varint_batch_bits(batch: &[&Envelope<Payload>], runs: &mut Runs) -> u64 {
    let mut bits = 0u64;
    for e in batch {
        if let Payload::TestBatch { .. } = e.payload {
            bits += e.bits.max(1);
        } else {
            e.payload.join_run(runs);
        }
    }
    for run in runs.iter_mut().filter(|run| run.count > 0) {
        bits += TAG_BITS + varint_bits(run.count) + delta_varint_bits(&mut run.sorted) + run.plain;
        (run.count, run.plain) = (0, 0);
        run.sorted.clear();
    }
    bits
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
            Payload::PartEdges {
                label: 5,
                edges: vec![(7, 3), (7, 900), (2, 7)],
            },
        ]
    }

    /// The whole ledger and codec, pinned: per exemplar its trace kind, the
    /// fixed-width charge at two id widths, the varint price of a
    /// three-copy run and the encoded bytes; then one mixed batch holding
    /// every exemplar twice. The fixture was generated from the hand-written
    /// per-variant matches this table replaced — regenerate it by hand, and
    /// only in a change that means to move the ledger.
    #[test]
    fn ledger_and_codec_match_the_golden_fixture() {
        let all = one_of_each();
        let envelope = |p: &Payload| Envelope::with_bits(0, 1, p.clone(), p.wire_bits(12));
        let batch_bits =
            |envs: &[Envelope<Payload>]| Payload::batch_wire_bits(&envs.iter().collect::<Vec<_>>());
        let mut actual = String::new();
        for p in &all {
            let mut bytes = Vec::new();
            p.encode(&mut bytes);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            actual.push_str(&format!(
                "{} {} {} {} {hex}\n",
                p.kind_name(),
                p.wire_bits(12),
                p.wire_bits(20),
                batch_bits(&[envelope(p), envelope(p), envelope(p)]),
            ));
        }
        let twice: Vec<_> = all.iter().chain(&all).map(envelope).collect();
        actual.push_str(&format!("all_twice {}\n", batch_bits(&twice)));
        assert_eq!(actual, include_str!("../fixtures/payload_ledger.txt"));

        let mut kinds: Vec<_> = all.iter().map(BatchWire::kind_name).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), N_KINDS, "one_of_each() misses a variant");
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

    /// Pricing consecutive random link batches through one reused set of
    /// runs equals pricing each through fresh runs: no link's messages leak
    /// into the next one's price.
    #[test]
    fn reused_pricing_scratch_prices_like_fresh_runs() {
        let prf = krand::prf::Prf::new(29);
        let all = one_of_each();
        let mut runs = Runs::default();
        for link in 0..200u64 {
            let batch: Vec<Envelope<Payload>> = (0..prf.eval_mod(0, link, 12))
                .map(|i| {
                    let at = link * 64 + i;
                    let p = match prf.eval_mod(1, at, 3) {
                        0 => Payload::Relabel {
                            old: prf.eval_mod(2, at, 1 << 20),
                            new: 7,
                        },
                        1 => Payload::PartEdges {
                            label: prf.eval_mod(2, at, 99),
                            edges: (0..prf.eval_mod(3, at, 5))
                                .map(|j| (j as u32, prf.eval_mod(4, at * 8 + j, 1000) as u32))
                                .collect(),
                        },
                        _ => all[prf.eval_mod(5, at, all.len() as u64) as usize].clone(),
                    };
                    let bits = p.wire_bits(20);
                    Envelope::with_bits(0, 1, p, bits)
                })
                .collect();
            let refs: Vec<&Envelope<Payload>> = batch.iter().collect();
            assert_eq!(
                varint_batch_bits(&refs, &mut runs),
                varint_batch_bits(&refs, &mut Runs::default()),
                "link {link}"
            );
        }
    }
}
