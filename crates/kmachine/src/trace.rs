//! Structured run tracing (DESIGN.md §3.14): a zero-cost-when-off event
//! layer threaded through every execution layer.
//!
//! Every layer of the stack — the superstep runner ([`crate::bsp::Bsp`]),
//! the engine phase loop, fault recovery, the byte transport and the
//! dynamic update layer — emits typed [`TraceEvent`]s into a shared
//! [`Tracer`]. The stream is split into two channels:
//!
//! * The **logical channel** ([`TraceRecord`]) is fully deterministic:
//!   records are sequence-numbered in emission order and carry only model
//!   quantities (rounds, bits, message counts, fault decisions). Same
//!   seed and config ⇒ byte-identical logical JSONL, across the sim and
//!   proc transports alike (pinned by `tests/trace.rs`). No wall-clock value
//!   ever enters this channel, so kcheck KC02 stays clean.
//! * The **physical channel** ([`PhysRecord`]) carries what actually
//!   happened on the host: transport window lifecycle counters and
//!   wall-clock micros. It is allowed to differ run-to-run and is kept
//!   strictly apart from the logical stream (separate sequence space,
//!   separate sink method, separate file).
//!
//! **Zero cost when off.** A disabled [`Tracer`] is a `None`; every emit
//! site passes a closure, so event construction (histograms, link lists)
//! is never executed on the off path. Tracing on/off does not perturb a
//! run: outputs and [`crate::metrics::CommStats`] are bit-identical either
//! way (also pinned by `tests/trace.rs`).
//!
//! **Sink contract.** A [`TraceSink`] observes records in sequence order,
//! exactly once each, on the thread that emitted them (emission is
//! serialized by the tracer's mutex). Sinks must not panic on IO failure —
//! tracing is best-effort diagnostics, never load-bearing for the run.
//! Two sinks ship with the workspace: the always-on in-memory buffer
//! (powering [`phase_breakdown`]) and the [`JsonlSink`] file sink
//! (`--trace-out`). [`summarize`] and [`chrome_trace`] are functions over a
//! finished logical stream, not sinks.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// Generates a channel's event enum and everything stated once per event
/// kind from one table (DESIGN.md §3.14 has the row grammar). A row reads
/// `Variant = "wire_type" on Track as Span(field) | Instant, "label" {
/// field: Type, .. }` and yields the variant with its fields in wire order,
/// its JSONL `"type"`, one arm each of the line writer, the parser and the
/// Chrome `args` writer (through each type's [`Field`] impl), its [`View`]
/// and one entry of the tests' `one_of_each()`. A row without the
/// `on … as …, "…"` clause — the physical channel's — is not shown.
macro_rules! event_table {
    (
        $(#[$emeta:meta])*
        $vis:vis enum $Event:ident {$(
            $(#[$vmeta:meta])*
            $Variant:ident = $kind:literal
            $(on $track:ident as $shape:ident $(($dur:ident))?, $label:literal)? {$(
                $(#[$fmeta:meta])*
                $field:ident: $T:ty,
            )+},
        )+}
    ) => {
        $(#[$emeta])*
        $vis enum $Event {$(
            $(#[$vmeta])*
            $Variant {$(
                $(#[$fmeta])*
                $field: $T,
            )+},
        )+}

        impl Event for $Event {
            fn kind(&self) -> &'static str {
                match self {$(Self::$Variant { .. } => $kind,)+}
            }

            fn push_fields(&self, out: &mut String, args_only: bool) {
                match self {$(
                    Self::$Variant {$($field,)+} => {$(
                        if <$T as Field>::IN_ARGS || !args_only {
                            push_field(out, stringify!($field), $field);
                        }
                    )+}
                )+}
            }

            fn from_json(kind: &str, line: &Json) -> Result<Self, String> {
                match kind {
                    $($kind => Ok(Self::$Variant {
                        $($field: line.field(stringify!($field))?,)+
                    }),)+
                    other => Err(format!("unknown event type `{other}`")),
                }
            }

            #[allow(unused_variables)] // a label names only the fields it shows
            fn view(&self) -> Option<View> {
                match self {$(
                    // The row's zero or one views.
                    Self::$Variant {$($field,)+} => [$(View {
                        track: Track::$track,
                        shape: Shape::$shape $((*$dur))?,
                        label: format!($label),
                    })?].into_iter().next(),
                )+}
            }

            #[cfg(test)]
            fn one_of_each() -> Vec<Self> {
                vec![$(Self::$Variant {$($field: tests::Exemplar::exemplar(),)+},)+]
            }
        }
    };
}

event_table! {
    /// One logical trace event. All quantities are model-level (rounds, bits,
    /// counts) — never wall-clock — so the stream is deterministic.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum TraceEvent {
        /// A named non-phase cost segment (the engine's setup charges, the
        /// §2.6 output protocol). Together with [`TraceEvent::PhaseEnd`] and
        /// [`TraceEvent::Rollback`], segments tile a run's `CommStats` exactly:
        /// the per-event `rounds`/`bits` and recovery columns sum to the run
        /// totals.
        Segment = "segment" on Phases as Span(rounds), "{name}" {
            /// Segment name (`"setup"`, `"output"`, `"endpoint_routing"`, …).
            name: String,
            /// Rounds charged inside the segment.
            rounds: u64,
            /// Bits charged inside the segment.
            bits: u64,
            /// Recovery rounds within `rounds`.
            recovery_rounds: u64,
            /// Retransmitted bits within `bits`.
            retransmit_bits: u64,
        },
        /// A Borůvka phase is starting.
        PhaseStart = "phase_start" on Phases as Instant, "phase {phase} start" {
            /// 0-based phase index.
            phase: u32,
            /// Distinct component labels alive at phase start.
            components: u64,
            /// Whether this phase runs on the contracted supergraph.
            contracted: bool,
        },
        /// A phase completed normally (its work is kept).
        PhaseEnd = "phase_end" on Phases as Span(rounds), "phase {phase}" {
            /// 0-based phase index.
            phase: u32,
            /// Rounds the phase charged (including its share of recovery).
            rounds: u64,
            /// Bits the phase charged (including retransmissions).
            bits: u64,
            /// Recovery rounds within `rounds`.
            recovery_rounds: u64,
            /// Retransmitted bits within `bits`.
            retransmit_bits: u64,
            /// Part sketches hashed from edges during the phase (anywhere).
            sketch_builds: u64,
            /// Always 0 (the part-sketch cache is gone); kept in the schema.
            sketch_cache_hits: u64,
        },
        /// A phase attempt was aborted by machine crashes and rolled back to
        /// the last checkpoint. The aborted work is charged to this event, not
        /// to a [`TraceEvent::PhaseEnd`].
        Rollback = "rollback" on Phases as Span(rounds), "rollback {phase}" {
            /// 0-based index of the aborted phase attempt.
            phase: u32,
            /// The machines that crashed, ascending.
            crashed: Vec<u32>,
            /// Rounds the aborted attempt charged (including the restore
            /// barrier).
            rounds: u64,
            /// Bits the aborted attempt charged.
            bits: u64,
            /// Recovery rounds within `rounds`.
            recovery_rounds: u64,
            /// Retransmitted bits within `bits`.
            retransmit_bits: u64,
        },
        /// A phase checkpoint was taken (rollback target for later crashes).
        Checkpoint = "checkpoint" on Phases as Instant, "checkpoint {phase}" {
            /// The phase the checkpoint snapshots the end of.
            phase: u32,
        },
        /// One superstep's delivered window.
        Superstep = "superstep" on Supersteps as Span(rounds), "superstep {index}" {
            /// 0-based superstep index (equals `CommStats::supersteps − 1` at
            /// emission).
            index: u64,
            /// Rounds the window cost (base + duplicate traffic).
            rounds: u64,
            /// Bits charged for the window.
            bits: u64,
            /// Cross-machine messages in the window.
            messages: u64,
            /// Bits on the most loaded directed link.
            max_link_bits: u64,
            /// Per-directed-link charged bits, ascending by `(src, dst)`.
            links: Vec<(u32, u32, u64)>,
            /// Payload kind histogram of the cross-machine messages,
            /// ascending by kind name.
            kinds: Vec<(String, u64)>,
        },
        /// Faults injected into one superstep's first delivery attempt.
        /// Emitted only when at least one fault fired.
        Faults = "faults" on Faults as Instant, "faults @{superstep}" {
            /// The superstep the faults hit.
            superstep: u64,
            /// Messages dropped on the first attempt.
            dropped: u64,
            /// Messages duplicated (spurious copy charged).
            duplicated: u64,
            /// Messages reordered within the window.
            reordered: u64,
            /// Messages delayed into the first recovery round.
            delayed: u64,
            /// Machines that crashed at this superstep.
            crashed: u64,
        },
        /// One ack/retransmit recovery wave of the reliable-delivery protocol.
        Retransmit = "retransmit" on Faults as Span(rounds), "retransmit @{superstep}#{attempt}" {
            /// The superstep being recovered.
            superstep: u64,
            /// 1-based recovery attempt index.
            attempt: u64,
            /// Messages retransmitted in this wave.
            messages: u64,
            /// Bits the wave charged.
            bits: u64,
            /// Rounds the wave charged (1 ack round + the batch's own rounds).
            rounds: u64,
        },
        /// A dynamic-layer update batch was routed and applied.
        DynBatch = "dyn_batch" on Dynamic as Span(rounds), "batch" {
            /// Operations in the batch.
            ops: u64,
            /// Insertions among them.
            inserts: u64,
            /// Deletions among them.
            deletes: u64,
            /// Rounds the routing superstep charged.
            rounds: u64,
            /// Bits the routing superstep charged.
            bits: u64,
            /// Whether the batch triggered delta-log compaction.
            compacted: bool,
        },
        /// A dynamic-layer certification pass compared fresh labels against
        /// the spliced incremental result.
        DynCertify = "dyn_certify" on Dynamic as Span(rounds), "certify" {
            /// Distinct labels in the fresh run.
            labels: u64,
            /// Rounds the certification supersteps charged.
            rounds: u64,
            /// Bits the certification supersteps charged.
            bits: u64,
            /// Whether certification succeeded.
            ok: bool,
        },
        /// A failed certification escalated to a full re-solve: the preceding
        /// `span` breakdown rows (the discarded incremental attempt, its
        /// certification pass included) are retroactively marked rolled back.
        DynEscalate = "dyn_escalate" on Dynamic as Instant, "escalate" {
            /// How many immediately-preceding rows belong to the aborted
            /// incremental attempt.
            span: u64,
            /// Total rounds the aborted attempt charged.
            rounds: u64,
            /// Total bits the aborted attempt charged.
            bits: u64,
        },
    }
}

/// One sequence-numbered logical record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Emission order, starting at 0.
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

event_table! {
    /// One physical-channel event: host-side observations (wall-clock,
    /// transport counters) that may differ run-to-run.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum PhysEvent {
        /// One transport window crossed the worker mesh: the physical counter
        /// deltas of a single `exchange` call plus its wall-clock cost.
        Window = "window" {
            /// The logical superstep the window belongs to.
            superstep: u64,
            /// Window protocol iterations (attempt escalations included).
            windows: u64,
            /// Delivery attempts.
            attempts: u64,
            /// Frames put on the wire.
            frames_sent: u64,
            /// Payload bytes put on the wire.
            payload_bytes: u64,
            /// Worker processes respawned during the window.
            worker_restarts: u64,
            /// Wall-clock duration of the exchange, in microseconds.
            micros: u64,
        },
    }
}

/// One sequence-numbered physical record (its own sequence space).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhysRecord {
    /// Emission order within the physical channel, starting at 0.
    pub seq: u64,
    /// The event.
    pub event: PhysEvent,
}

/// The workspace's one wall clock: the single `Instant::now()` that
/// `kcheck.allow` admits under KC02. Report-only elapsed fields, physical
/// liveness deadlines and [`PhysEvent`] timings read it; nothing that feeds
/// algorithm state, message content, accounting or the logical stream may.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Wall-clock time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> std::time::Duration {
        self.0.elapsed()
    }
}

// ---------------------------------------------------------------------
// Sinks and the tracer
// ---------------------------------------------------------------------

/// Receives trace records as they are emitted. See the module docs for
/// the ordering/exactly-once contract; implementations must treat IO
/// failure as best-effort (swallow, don't panic).
pub trait TraceSink {
    /// One logical record, in sequence order.
    fn event(&mut self, record: &TraceRecord);
    /// One physical record, in its own sequence order. Default: ignored.
    fn phys(&mut self, _record: &PhysRecord) {}
    /// Flush any buffered output (called by [`Tracer::flush`]).
    fn flush_sink(&mut self) {}
}

struct TracerInner {
    seq: u64,
    phys_seq: u64,
    sinks: Vec<Box<dyn TraceSink + Send>>,
    /// The always-on in-memory sink: when tracing is on, every record is
    /// buffered here — this is what powers [`Tracer::events`],
    /// [`phase_breakdown`] and the `RunReport` per-phase breakdown.
    records: Vec<TraceRecord>,
    phys_records: Vec<PhysRecord>,
}

/// A cloneable handle to one run's trace stream. The default (and
/// [`Tracer::off`]) handle is disabled: every emit is a no-op and the
/// event-construction closure is never run.
///
/// Clones share the same underlying stream — the engine, the superstep
/// layer and the dynamic layer all hold clones of the one tracer a run
/// was configured with, and their events interleave into a single
/// sequence-numbered stream.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TracerInner>>>,
}

impl Tracer {
    /// The disabled tracer (the default): emits nothing, costs nothing.
    pub fn off() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer with no external sinks: records accumulate in
    /// the in-memory buffer only.
    pub fn recording() -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(TracerInner {
                seq: 0,
                phys_seq: 0,
                sinks: Vec::new(),
                records: Vec::new(),
                phys_records: Vec::new(),
            }))),
        }
    }

    /// An enabled tracer that additionally forwards every record to
    /// `sink` (the in-memory buffer still fills).
    pub fn to_sink(sink: Box<dyn TraceSink + Send>) -> Self {
        let t = Tracer::recording();
        if let Some(mut g) = t.lock() {
            g.sinks.push(sink);
        }
        t
    }

    /// Whether tracing is enabled.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, TracerInner>> {
        self.inner.as_ref().map(|m| match m.lock() {
            Ok(g) => g,
            // A sink panicked mid-record on another thread; the buffered
            // records are still sound — keep tracing.
            Err(poisoned) => poisoned.into_inner(),
        })
    }

    /// Emits one logical event. The closure runs only when tracing is on,
    /// so building the event (histograms, link lists) costs nothing on
    /// the off path.
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(mut g) = self.lock() {
            let record = TraceRecord {
                seq: g.seq,
                event: build(),
            };
            g.seq += 1;
            for s in &mut g.sinks {
                s.event(&record);
            }
            g.records.push(record);
        }
    }

    /// Emits one physical event (separate channel, own sequence space).
    pub fn emit_phys(&self, build: impl FnOnce() -> PhysEvent) {
        if let Some(mut g) = self.lock() {
            let record = PhysRecord {
                seq: g.phys_seq,
                event: build(),
            };
            g.phys_seq += 1;
            for s in &mut g.sinks {
                s.phys(&record);
            }
            g.phys_records.push(record);
        }
    }

    /// Number of logical records emitted so far (0 when off).
    pub fn logical_len(&self) -> u64 {
        self.lock().map_or(0, |g| g.seq)
    }

    /// A cursor into the logical stream: pass it to
    /// [`Tracer::events_since`] to get only the records emitted after this
    /// point (the session layer brackets each run this way).
    pub fn mark(&self) -> usize {
        self.lock().map_or(0, |g| g.records.len())
    }

    /// All logical records emitted so far.
    pub fn events(&self) -> Vec<TraceRecord> {
        self.lock().map_or_else(Vec::new, |g| g.records.clone())
    }

    /// The logical records emitted since `mark`.
    pub fn events_since(&self, mark: usize) -> Vec<TraceRecord> {
        self.lock().map_or_else(Vec::new, |g| {
            g.records[mark.min(g.records.len())..].to_vec()
        })
    }

    /// All physical records emitted so far.
    pub fn phys_events(&self) -> Vec<PhysRecord> {
        self.lock()
            .map_or_else(Vec::new, |g| g.phys_records.clone())
    }

    /// Flushes every attached sink (call after a run completes; buffered
    /// file sinks otherwise flush on drop).
    pub fn flush(&self) {
        if let Some(mut g) = self.lock() {
            for s in &mut g.sinks {
                s.flush_sink();
            }
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_on() {
            "Tracer(on)"
        } else {
            "Tracer(off)"
        })
    }
}

// ---------------------------------------------------------------------
// JSONL serialization
// ---------------------------------------------------------------------

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One field type of the event tables: how a value is written into a JSON
/// line and read back from a parsed one.
trait Field: Sized {
    /// Whether Chrome `args` carry the field: every scalar and the crashed
    /// machine list do, the per-link and per-kind lists stay in the JSONL.
    const IN_ARGS: bool = true;
    fn write(&self, out: &mut String);
    /// The error reads on from "field `key` ".
    fn read(v: &Json) -> Result<Self, String>;
}

impl Field for u64 {
    fn write(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::U(n) => Ok(*n),
            _ => Err("is not an integer".to_string()),
        }
    }
}

impl Field for u32 {
    fn write(&self, out: &mut String) {
        u64::from(*self).write(out);
    }
    fn read(v: &Json) -> Result<Self, String> {
        u32::try_from(u64::read(v)?).map_err(|_| "overflows u32".to_string())
    }
}

impl Field for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::B(b) => Ok(*b),
            _ => Err("is not a boolean".to_string()),
        }
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        push_json_str(out, self);
    }
    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::S(s) => Ok(s.clone()),
            _ => Err("is not a string".to_string()),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    const IN_ARGS: bool = T::IN_ARGS;
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }
    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::A(items) => items
                .iter()
                .map(|item| T::read(item).map_err(|e| format!("has an entry that {e}")))
                .collect(),
            _ => Err("is not an array".to_string()),
        }
    }
}

/// One directed link's load: `[src, dst, bits]`.
impl Field for (u32, u32, u64) {
    const IN_ARGS: bool = false;
    fn write(&self, out: &mut String) {
        out.push_str(&format!("[{},{},{}]", self.0, self.1, self.2));
    }
    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::A(t) if t.len() == 3 => {
                Ok((u32::read(&t[0])?, u32::read(&t[1])?, u64::read(&t[2])?))
            }
            _ => Err("is not a 3-tuple".to_string()),
        }
    }
}

/// One payload kind's message count: `[name, count]`.
impl Field for (String, u64) {
    const IN_ARGS: bool = false;
    fn write(&self, out: &mut String) {
        out.push('[');
        self.0.write(out);
        out.push_str(&format!(",{}]", self.1));
    }
    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::A(t) if t.len() == 2 => Ok((String::read(&t[0])?, u64::read(&t[1])?)),
            _ => Err("is not a 2-tuple".to_string()),
        }
    }
}

/// Appends `"key":value` to an open JSON object, after a comma unless it
/// is the object's first field.
fn push_field<T: Field>(out: &mut String, key: &str, value: &T) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    value.write(out);
}

/// What [`event_table!`] generates for a channel's enum; the line writer
/// and the parser below work on any `Event`.
trait Event: Sized {
    /// The row's wire `"type"`.
    fn kind(&self) -> &'static str;
    /// Appends the row's fields in wire order, or only those Chrome `args`
    /// carry ([`Field::IN_ARGS`]).
    fn push_fields(&self, out: &mut String, args_only: bool);
    /// Builds the row whose wire type is `kind` from a parsed line.
    fn from_json(kind: &str, line: &Json) -> Result<Self, String>;
    /// Where and under which label the row is shown, if it is.
    fn view(&self) -> Option<View>;
    /// One made-up event per row, in table order.
    #[cfg(test)]
    fn one_of_each() -> Vec<Self>;
}

/// One record as one-line JSON: `seq`, `type`, then the row's fields.
fn json_line(seq: u64, event: &impl Event) -> String {
    let mut out = String::with_capacity(96);
    out.push('{');
    push_field(&mut out, "seq", &seq);
    out.push_str(",\"type\":");
    push_json_str(&mut out, event.kind());
    event.push_fields(&mut out, false);
    out.push('}');
    out
}

impl TraceRecord {
    /// One-line JSON with a fixed key order — the byte-exact JSONL format
    /// of `--trace-out` (determinism-pinned in `tests/trace.rs`).
    pub fn to_json(&self) -> String {
        json_line(self.seq, &self.event)
    }
}

impl PhysRecord {
    /// One-line JSON for the physical channel (not determinism-pinned:
    /// this channel carries wall-clock).
    pub fn to_json(&self) -> String {
        json_line(self.seq, &self.event)
    }
}

/// Renders a logical stream as JSONL (one record per line, trailing
/// newline). Byte-identical to what a [`JsonlSink`] writes.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut s = String::new();
    for r in records {
        s.push_str(&r.to_json());
        s.push('\n');
    }
    s
}

// ---------------------------------------------------------------------
// JSONL parsing (the `kmm trace` inspector's reader)
// ---------------------------------------------------------------------

/// A minimal JSON value: exactly the subset the trace format uses
/// (objects, arrays, strings, unsigned integers, booleans).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    U(u64),
    B(bool),
    S(String),
    A(Vec<Json>),
    O(Vec<(String, Json)>),
}

/// How deep arrays and objects may nest. A trace line nests three deep
/// and a Chrome export five; a hostile file must not be able to recurse the
/// parser off the stack.
const MAX_JSON_DEPTH: usize = 16;

struct JsonParser<'a> {
    s: &'a str,
    /// Always on a char boundary: only whole ASCII tokens and whole string
    /// contents are ever stepped over.
    at: usize,
    /// Arrays and objects open around `at`.
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        JsonParser { s, at: 0, depth: 0 }
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.s.as_bytes().get(at).copied()
    }

    fn skip_ws(&mut self) {
        while self.byte(self.at).is_some_and(|c| c.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.byte(self.at)
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? == c {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(c), self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'[' => Ok(Json::A(self.list(b']', Self::value)?)),
            b'{' => Ok(Json::O(self.list(b'}', |p| {
                p.skip_ws();
                let key = p.string()?;
                p.eat(b':')?;
                Ok((key, p.value()?))
            })?)),
            b'"' => Ok(Json::S(self.string()?)),
            b't' => self.keyword("true", Json::B(true)),
            b'f' => self.keyword("false", Json::B(false)),
            b'0'..=b'9' => self.number(),
            c => Err(format!(
                "unexpected `{}` at byte {}",
                char::from(c),
                self.at
            )),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at byte {}", self.at))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self.byte(self.at).is_some_and(|c| c.is_ascii_digit()) {
            self.at += 1;
        }
        self.s[start..self.at]
            .parse()
            .map(Json::U)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        let mut chars = self.s[self.at..].char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.at += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .ok()
                            .filter(|_| hex.len() == 4)
                            .ok_or_else(|| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", self.at + i + 1)),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }

    /// The comma-separated items between the bracket at `at` and `close`.
    fn list<T>(
        &mut self,
        close: u8,
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(format!("nesting deeper than {MAX_JSON_DEPTH}"));
        }
        self.depth += 1;
        self.at += 1;
        let mut items = Vec::new();
        if self.peek()? == close {
            self.at += 1;
        } else {
            loop {
                items.push(item(self)?);
                match self.peek()? {
                    b',' => self.at += 1,
                    c if c == close => {
                        self.at += 1;
                        break;
                    }
                    c => {
                        return Err(format!(
                            "expected `,` or `{}`, got `{}`",
                            char::from(close),
                            char::from(c)
                        ))
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(items)
    }
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Result<&'a Json, String> {
        match self {
            Json::O(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{key}`")),
            _ => Err(format!("`{key}` looked up on a non-object")),
        }
    }

    fn field<T: Field>(&self, key: &str) -> Result<T, String> {
        T::read(self.get(key)?).map_err(|e| format!("field `{key}` {e}"))
    }
}

/// The inverse of [`json_line`].
fn parse_line<E: Event>(line: &str) -> Result<(u64, E), String> {
    let v = JsonParser::new(line).value()?;
    let seq = v.field("seq")?;
    let kind: String = v.field("type")?;
    Ok((seq, E::from_json(&kind, &v)?))
}

/// Parses a logical JSONL stream back into records. The inverse of
/// [`to_jsonl`]: `parse_jsonl(&to_jsonl(r)) == Ok(r)` for every stream
/// (round-trip-tested). Errors carry the 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (seq, event) = parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(TraceRecord { seq, event });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The JSONL file sink
// ---------------------------------------------------------------------

/// Streams records to a writer as JSONL, one line per record (the
/// `--trace-out` sink). The logical channel goes to `out`; the physical
/// channel, when a second writer is attached, goes there — never into the
/// logical file, which must stay byte-deterministic. IO errors are
/// swallowed (tracing is best-effort; see the module docs).
pub struct JsonlSink<W: Write> {
    out: W,
    phys_out: Option<W>,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing the logical channel to `out` and dropping the
    /// physical channel.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            phys_out: None,
        }
    }

    /// A sink writing the logical channel to `out` and the physical
    /// channel to `phys_out`.
    pub fn with_phys(out: W, phys_out: W) -> Self {
        JsonlSink {
            out,
            phys_out: Some(phys_out),
        }
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn event(&mut self, record: &TraceRecord) {
        let _ = writeln!(self.out, "{}", record.to_json());
    }

    fn phys(&mut self, record: &PhysRecord) {
        if let Some(w) = &mut self.phys_out {
            let _ = writeln!(w, "{}", record.to_json());
        }
    }

    fn flush_sink(&mut self) {
        let _ = self.out.flush();
        if let Some(w) = &mut self.phys_out {
            let _ = w.flush();
        }
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event exporter
// ---------------------------------------------------------------------

/// The timeline's tracks; a track's position here is its Chrome `tid` and
/// its position in [`TRACK_NAMES`].
#[derive(Clone, Copy)]
enum Track {
    Phases,
    Supersteps,
    Faults,
    Dynamic,
}

const TRACK_NAMES: [&str; 4] = ["phases", "supersteps", "faults", "dynamic"];

/// How the timeline draws an event.
enum Shape {
    /// A complete event this many rounds long; it advances its track's
    /// clock.
    Span(u64),
    /// A zero-length mark at its track's clock.
    Instant,
}

/// Where and under which label an event is shown (the `on … as …, "…"`
/// clause of its [`event_table!`] row).
struct View {
    track: Track,
    shape: Shape,
    label: String,
}

/// Renders a finished logical stream as a Chrome trace-event JSON object
/// (load in `chrome://tracing` or Perfetto). The time axis is **model
/// rounds**, not wall-clock — 1 round renders as 1 µs — so the timeline is
/// as deterministic as the stream itself. Tracks: tid 0 phases/segments,
/// tid 1 supersteps, tid 2 fault & recovery instants, tid 3 the dynamic
/// layer. An event's `args` carry every field of its record but the
/// per-link and per-kind lists.
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (tid, name) in TRACK_NAMES.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    // Two cumulative-rounds clocks, in `u128` so no stream can overflow
    // them: the phase track and the dynamic layer advance by segment /
    // phase / rollback / batch rounds; the superstep track (which also
    // timestamps fault instants) by superstep / retransmit rounds.
    let mut phase_clock = 0u128;
    let mut step_clock = 0u128;
    for r in records {
        let Some(view) = r.event.view() else {
            continue;
        };
        let tid = view.track as usize;
        let clock = match view.track {
            Track::Phases | Track::Dynamic => &mut phase_clock,
            Track::Supersteps | Track::Faults => &mut step_clock,
        };
        // The cost table calls the dynamic layer's rows "certify" and the
        // like; on the shared timeline they say whose they are.
        let name = match view.track {
            Track::Dynamic => format!("dyn {}", view.label),
            _ => view.label,
        };
        let mut e = String::from("{");
        push_field(&mut e, "name", &name);
        match view.shape {
            Shape::Span(dur) => {
                e.push_str(&format!(
                    ",\"ph\":\"X\",\"ts\":{clock},\"dur\":{dur},\"pid\":0,\"tid\":{tid}"
                ));
                *clock += u128::from(dur);
            }
            Shape::Instant => e.push_str(&format!(
                ",\"ph\":\"i\",\"ts\":{clock},\"pid\":0,\"tid\":{tid},\"s\":\"t\""
            )),
        }
        e.push_str(",\"args\":{");
        r.event.push_fields(&mut e, true);
        e.push_str("}}");
        events.push(e);
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

// ---------------------------------------------------------------------
// Per-phase breakdown and the summarize inspector
// ---------------------------------------------------------------------

/// One row of a run's per-phase cost table: a segment, a completed phase
/// or a rolled-back phase attempt. Rows tile the run — summing any cost
/// column over the rows gives the run's `CommStats` total for engine runs
/// (pinned by `tests/trace.rs`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Row label: the segment name, `"phase N"` or `"rollback N"`.
    pub label: String,
    /// Rounds charged to this row.
    pub rounds: u64,
    /// Bits charged to this row.
    pub bits: u64,
    /// Recovery rounds within `rounds`.
    pub recovery_rounds: u64,
    /// Retransmitted bits within `bits`.
    pub retransmit_bits: u64,
    /// Part sketches built during the row (phases only).
    pub sketch_builds: u64,
    /// Always 0, as [`TraceEvent::PhaseEnd`]'s field it folds.
    pub sketch_cache_hits: u64,
    /// Whether this row is a rolled-back (aborted) phase attempt.
    pub rolled_back: bool,
}

/// Folds a logical stream into per-phase rows (see [`PhaseSummary`]).
/// Streams without phase-level events (baseline runs) fold to an empty
/// table.
pub fn phase_breakdown(records: &[TraceRecord]) -> Vec<PhaseSummary> {
    let mut rows: Vec<PhaseSummary> = Vec::new();
    for r in records {
        let cost = match r.event {
            TraceEvent::Segment {
                rounds,
                bits,
                recovery_rounds,
                retransmit_bits,
                ..
            } => PhaseSummary {
                rounds,
                bits,
                recovery_rounds,
                retransmit_bits,
                ..Default::default()
            },
            TraceEvent::PhaseEnd {
                rounds,
                bits,
                recovery_rounds,
                retransmit_bits,
                sketch_builds,
                sketch_cache_hits,
                ..
            } => PhaseSummary {
                rounds,
                bits,
                recovery_rounds,
                retransmit_bits,
                sketch_builds,
                sketch_cache_hits,
                ..Default::default()
            },
            TraceEvent::Rollback {
                rounds,
                bits,
                recovery_rounds,
                retransmit_bits,
                ..
            } => PhaseSummary {
                rounds,
                bits,
                recovery_rounds,
                retransmit_bits,
                rolled_back: true,
                ..Default::default()
            },
            TraceEvent::DynCertify { rounds, bits, .. } => PhaseSummary {
                rounds,
                bits,
                ..Default::default()
            },
            TraceEvent::DynEscalate { span, .. } => {
                // The aborted incremental attempt's rows (certify pass
                // included) stay in the table — marked rolled back so the
                // row sum still tiles the merged escalation stats.
                let n = rows.len();
                let span = usize::try_from(span).unwrap_or(n).min(n);
                for row in &mut rows[n - span..] {
                    row.rolled_back = true;
                }
                continue;
            }
            _ => continue,
        };
        // Only a cost row pays for its label: most records are supersteps.
        if let Some(View { label, .. }) = r.event.view() {
            rows.push(PhaseSummary { label, ..cost });
        }
    }
    rows
}

/// One line of the per-phase table.
fn table_row<T: fmt::Display>(
    label: &str,
    [rounds, bits, rec, rtx, builds, hits]: [T; 6],
) -> String {
    format!("{label:<14} {rounds:>8} {bits:>12} {rec:>10} {rtx:>12} {builds:>8} {hits:>8}\n")
}

/// The `top` heaviest entries, heaviest first, ties in key order.
fn heaviest<K: Ord>(loads: impl IntoIterator<Item = (K, u128)>, top: usize) -> Vec<(K, u128)> {
    let mut by_load: Vec<(K, u128)> = loads.into_iter().collect();
    by_load.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    by_load.truncate(top);
    by_load
}

/// Renders the `kmm trace summarize` report: the per-phase cost table,
/// the top-loaded directed links and the fault/recovery hotspots. Pure
/// string building — the CLI decides where it goes. Every sum is taken in
/// `u128`: a file is outside input, and no values in it may overflow a total.
pub fn summarize(records: &[TraceRecord]) -> String {
    let mut out = format!("logical records: {}\n\n", records.len());
    out.push_str("per-phase breakdown\n");
    out.push_str(&table_row(
        "phase",
        ["rounds", "bits", "rec.rnds", "rtx.bits", "builds", "hits"],
    ));
    let mut total = [0u128; 6];
    for row in phase_breakdown(records) {
        let cost = [
            row.rounds,
            row.bits,
            row.recovery_rounds,
            row.retransmit_bits,
            row.sketch_builds,
            row.sketch_cache_hits,
        ];
        out.push_str(&table_row(&row.label, cost));
        for (sum, c) in total.iter_mut().zip(cost) {
            *sum += u128::from(c);
        }
    }
    out.push_str(&table_row("total", total));

    // Link loads and payload kinds over every superstep; the faults each
    // `Faults` record injected, and the retransmission waves.
    let mut link_total: BTreeMap<(u32, u32), u128> = BTreeMap::new();
    let mut kind_total: BTreeMap<&str, u128> = BTreeMap::new();
    let mut hot: Vec<(u64, u128)> = Vec::new();
    let (mut waves, mut wave_bits) = (0u64, 0u128);
    for r in records {
        match &r.event {
            TraceEvent::Superstep { links, kinds, .. } => {
                for &(a, b, bits) in links {
                    *link_total.entry((a, b)).or_insert(0) += u128::from(bits);
                }
                for (name, count) in kinds {
                    *kind_total.entry(name).or_insert(0) += u128::from(*count);
                }
            }
            TraceEvent::Faults {
                superstep,
                dropped,
                duplicated,
                reordered,
                delayed,
                crashed,
            } => hot.push((
                *superstep,
                [dropped, duplicated, reordered, delayed, crashed]
                    .into_iter()
                    .map(|&n| u128::from(n))
                    .sum(),
            )),
            TraceEvent::Retransmit { bits, .. } => {
                waves += 1;
                wave_bits += u128::from(*bits);
            }
            _ => {}
        }
    }
    if !link_total.is_empty() {
        out.push_str("\ntop loaded links\n");
        for ((a, b), bits) in heaviest(link_total, 5) {
            out.push_str(&format!("  {a} -> {b}: {bits} bits\n"));
        }
    }
    if !kind_total.is_empty() {
        out.push_str("\npayload kinds\n");
        for (name, count) in heaviest(kind_total, 8) {
            out.push_str(&format!("  {name}: {count} messages\n"));
        }
    }
    if !hot.is_empty() {
        out.push_str("\nfault hotspots\n");
        for (superstep, faults) in heaviest(hot, 5) {
            out.push_str(&format!("  superstep {superstep}: {faults} faults\n"));
        }
        out.push_str(&format!("  retransmit waves: {waves} ({wave_bits} bits)\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The golden stream: every event kind, hand-picked values.
    fn golden() -> Vec<TraceRecord> {
        parse_jsonl(GOLDEN).expect("the golden stream parses")
    }

    /// A made-up value of each field type for the tables' `one_of_each()`:
    /// the widest integers and a string that needs every escape.
    pub(super) trait Exemplar {
        fn exemplar() -> Self;
    }

    impl Exemplar for u64 {
        fn exemplar() -> Self {
            u64::MAX
        }
    }

    impl Exemplar for u32 {
        fn exemplar() -> Self {
            u32::MAX
        }
    }

    impl Exemplar for bool {
        fn exemplar() -> Self {
            true
        }
    }

    impl Exemplar for String {
        fn exemplar() -> Self {
            "q\"b\\s\n\r\t\u{1}é→".to_string()
        }
    }

    impl<T: Exemplar> Exemplar for Vec<T> {
        fn exemplar() -> Self {
            vec![T::exemplar(), T::exemplar()]
        }
    }

    impl Exemplar for (u32, u32, u64) {
        fn exemplar() -> Self {
            (0, u32::MAX, u64::MAX)
        }
    }

    impl Exemplar for (String, u64) {
        fn exemplar() -> Self {
            (String::exemplar(), u64::MAX)
        }
    }

    /// The table's exemplars as a sequence-numbered stream.
    fn one_of_each() -> Vec<TraceRecord> {
        let t = Tracer::recording();
        for e in TraceEvent::one_of_each() {
            t.emit(move || e);
        }
        t.events()
    }

    const GOLDEN: &str = include_str!("../fixtures/trace_golden.jsonl");
    const GOLDEN_PHYS: &str = include_str!("../fixtures/trace_golden.jsonl.phys");
    const GOLDEN_SUMMARY: &str = include_str!("../fixtures/trace_golden.summary.txt");

    /// The schema pin (ROADMAP item 2): the committed fixture holds one
    /// record of every kind on both channels, a segment name and a payload
    /// kind name that need every string escape, and a rollback with several
    /// crashed machines. A change that moves a byte of the JSONL, of the
    /// physical line or of the `summarize` text fails here.
    #[test]
    fn golden_fixture_pins_the_schema() {
        use std::mem::discriminant;
        let records = parse_jsonl(GOLDEN).expect("the golden stream parses");
        for (r, line) in records.iter().zip(GOLDEN.lines()) {
            assert_eq!(r.to_json(), line);
        }
        assert_eq!(to_jsonl(&records), GOLDEN);
        assert_eq!(parse_jsonl(&to_jsonl(&records)).as_ref(), Ok(&records));
        // Decoding is anchored to values, not only to its own inverse.
        assert_eq!(
            records[10].event,
            TraceEvent::Segment {
                name: "q\"b\\s\n\u{1}é→".into(),
                rounds: 4,
                bits: 77,
                recovery_rounds: 1,
                retransmit_bits: 5,
            }
        );
        assert_eq!(
            records[8].event,
            TraceEvent::Rollback {
                phase: 1,
                crashed: vec![1, 2, 5],
                rounds: 5,
                bits: 300,
                recovery_rounds: 4,
                retransmit_bits: 90,
            }
        );
        assert!(matches!(
            &records[2].event,
            TraceEvent::Superstep { links, kinds, .. }
                if links[2] == (1, 2, 400) && kinds[1] == ("re\"l\\a\nb\u{1}ü".to_string(), 2)
        ));
        assert_eq!(summarize(&records), GOLDEN_SUMMARY);

        let phys = PhysRecord {
            seq: 0,
            event: PhysEvent::Window {
                superstep: 3,
                windows: 2,
                attempts: 4,
                frames_sent: 18,
                payload_bytes: 4096,
                worker_restarts: 1,
                micros: 125,
            },
        };
        assert_eq!(format!("{}\n", phys.to_json()), GOLDEN_PHYS);

        // Every row of both tables has a golden record.
        for e in TraceEvent::one_of_each() {
            assert!(
                records
                    .iter()
                    .any(|r| discriminant(&r.event) == discriminant(&e)),
                "no golden record for {e:?}"
            );
        }
        for e in PhysEvent::one_of_each() {
            assert_eq!(discriminant(&e), discriminant(&phys.event), "{e:?}");
        }
    }

    #[test]
    fn off_tracer_never_runs_the_closure() {
        let t = Tracer::off();
        let calls = AtomicU64::new(0);
        t.emit(|| {
            calls.fetch_add(1, Ordering::SeqCst);
            TraceEvent::Checkpoint { phase: 0 }
        });
        t.emit_phys(|| {
            calls.fetch_add(1, Ordering::SeqCst);
            PhysEvent::Window {
                superstep: 0,
                windows: 0,
                attempts: 0,
                frames_sent: 0,
                payload_bytes: 0,
                worker_restarts: 0,
                micros: 0,
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert!(!t.is_on());
        assert_eq!(t.logical_len(), 0);
        assert!(t.events().is_empty());
        assert_eq!(format!("{t:?}"), "Tracer(off)");
    }

    #[test]
    fn records_are_sequence_numbered_in_emission_order() {
        let records = one_of_each();
        assert_eq!(records.len(), 11);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn clones_share_one_stream() {
        let a = Tracer::recording();
        let b = a.clone();
        a.emit(|| TraceEvent::Checkpoint { phase: 0 });
        b.emit(|| TraceEvent::Checkpoint { phase: 1 });
        assert_eq!(a.logical_len(), 2);
        assert_eq!(b.events()[1].seq, 1);
        assert_eq!(format!("{a:?}"), "Tracer(on)");
    }

    #[test]
    fn events_since_brackets_a_run() {
        let t = Tracer::recording();
        t.emit(|| TraceEvent::Checkpoint { phase: 0 });
        let mark = t.mark();
        t.emit(|| TraceEvent::Checkpoint { phase: 1 });
        let tail = t.events_since(mark);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].event, TraceEvent::Checkpoint { phase: 1 });
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let records = one_of_each();
        let text = to_jsonl(&records);
        let parsed = parse_jsonl(&text).expect("round trip must parse");
        assert_eq!(parsed, records);
        // And the rendering is stable: parse → render is the identity.
        assert_eq!(to_jsonl(&parsed), text);
        // The physical channel's lines read back through the same parser.
        for (seq, event) in (7..).zip(PhysEvent::one_of_each()) {
            let record = PhysRecord { seq, event };
            let (seq, event) = parse_line(&record.to_json()).expect("phys round trip");
            assert_eq!(PhysRecord { seq, event }, record);
        }
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let mut text = to_jsonl(&golden()[..1]);
        text.push_str("{\"seq\":1,\"type\":\"wat\"}\n");
        let e = parse_jsonl(&text).expect_err("unknown type must fail");
        assert!(e.contains("line 2"), "{e}");
        assert!(parse_jsonl("not json\n").is_err());
        assert!(parse_jsonl("").expect("empty is fine").is_empty());
        // A field error names the line, the field and what is wrong with it.
        for (line, want) in [
            (
                r#"{"seq":0,"type":"checkpoint"}"#,
                "line 1: missing field `phase`",
            ),
            (
                r#"{"seq":0,"type":"checkpoint","phase":true}"#,
                "line 1: field `phase` is not an integer",
            ),
            (
                r#"{"seq":0,"type":"checkpoint","phase":4294967296}"#,
                "line 1: field `phase` overflows u32",
            ),
            (
                r#"{"seq":0,"type":"rollback","phase":0,"crashed":[1,"x"]}"#,
                "line 1: field `crashed` has an entry that is not an integer",
            ),
        ] {
            assert_eq!(parse_jsonl(line).expect_err(line), want);
        }
    }

    #[test]
    fn parse_caps_the_nesting_depth() {
        // 200 000 open brackets used to recurse the parser off the stack.
        let deep = "[".repeat(200_000);
        let e = parse_jsonl(&deep).expect_err("a hostile line must be an error");
        assert_eq!(e, format!("line 1: nesting deeper than {MAX_JSON_DEPTH}"));
        // Exactly the cap still parses; siblings do not count as depth.
        let at_cap = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(JsonParser::new(&at_cap).value().is_ok());
        assert!(JsonParser::new("[[1],[2],[[3]],{\"a\":[4]}]")
            .value()
            .is_ok());
    }

    #[test]
    fn jsonl_sink_writes_the_same_bytes_as_to_jsonl() {
        #[derive(Clone)]
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                match self.0.lock() {
                    Ok(mut g) => g.extend_from_slice(buf),
                    Err(_) => return Ok(buf.len()),
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let records = golden();
        let buf = Shared(std::sync::Arc::new(Mutex::new(Vec::new())));
        let t = Tracer::to_sink(Box::new(JsonlSink::new(buf.clone())));
        for r in &records {
            let e = r.event.clone();
            t.emit(move || e);
        }
        t.flush();
        let written = buf.0.lock().map(|g| g.clone()).unwrap_or_default();
        assert_eq!(String::from_utf8(written).unwrap(), to_jsonl(&records));
    }

    #[test]
    fn phys_channel_is_separate_and_sequence_numbered() {
        let t = Tracer::recording();
        t.emit(|| TraceEvent::Checkpoint { phase: 0 });
        t.emit_phys(|| PhysEvent::Window {
            superstep: 0,
            windows: 1,
            attempts: 1,
            frames_sent: 3,
            payload_bytes: 400,
            worker_restarts: 0,
            micros: 125,
        });
        assert_eq!(t.logical_len(), 1);
        let phys = t.phys_events();
        assert_eq!(phys.len(), 1);
        assert_eq!(phys[0].seq, 0);
        let json = phys[0].to_json();
        assert!(json.contains("\"type\":\"window\""), "{json}");
        assert!(json.contains("\"micros\":125"), "{json}");
    }

    #[test]
    fn breakdown_tiles_the_stream() {
        let rows = phase_breakdown(&golden());
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "setup",
                "phase 0",
                "rollback 1",
                "q\"b\\s\n\u{1}é→",
                "certify",
                "output"
            ]
        );
        let rolled_back: Vec<bool> = rows.iter().map(|r| r.rolled_back).collect();
        // The escalation marker retroactively rolls back the two rows of
        // the attempt it aborts, the certify pass included.
        assert_eq!(rolled_back, [false, false, true, true, true, false]);
        let rounds: u64 = rows.iter().map(|r| r.rounds).sum();
        assert_eq!(rounds, 2 + 9 + 5 + 4 + 2 + 1);
        assert_eq!((rows[1].sketch_builds, rows[1].sketch_cache_hits), (40, 7));
    }

    #[test]
    fn totals_do_not_overflow_on_hostile_values() {
        let records: Vec<TraceRecord> = (0..2)
            .map(|seq| TraceRecord {
                seq,
                event: TraceEvent::Segment {
                    name: format!("s{seq}"),
                    rounds: u64::MAX,
                    bits: u64::MAX,
                    recovery_rounds: 0,
                    retransmit_bits: 0,
                },
            })
            .collect();
        let twice = 2 * u128::from(u64::MAX);
        assert_eq!(twice.to_string(), "36893488147419103230");
        let total = table_row("total", [twice, twice, 0, 0, 0, 0]);
        assert!(summarize(&records).contains(&total), "{total}");
        // The second segment starts where the first ends; a third event
        // would start at `twice`.
        let chrome = chrome_trace(&records);
        assert!(
            chrome.contains(&format!("\"name\":\"s1\",\"ph\":\"X\",\"ts\":{}", u64::MAX)),
            "{chrome}"
        );
        // The per-link, per-kind, fault and wave sums are as wide (a list
        // exemplar holds its entry twice).
        let summary = summarize(&[one_of_each(), one_of_each()].concat());
        for line in [
            format!("  0 -> {}: {} bits\n", u32::MAX, 2 * twice),
            format!(": {} messages\n", 2 * twice),
            format!(
                "  superstep {}: {} faults\n",
                u64::MAX,
                5 * u128::from(u64::MAX)
            ),
            format!("  retransmit waves: 2 ({twice} bits)\n"),
        ] {
            assert!(summary.contains(&line), "{line:?} not in {summary}");
        }
    }

    /// What the timeline showed before the event table, `args` apart.
    const GOLDEN_CHROME: [&str; 18] = [
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":0"#,
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":1"#,
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":2"#,
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":3"#,
        r#"{"name":"setup","ph":"X","ts":0,"dur":2,"pid":0,"tid":0"#,
        r#"{"name":"phase 0 start","ph":"i","ts":2,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"superstep 0","ph":"X","ts":0,"dur":3,"pid":0,"tid":1"#,
        r#"{"name":"faults @0","ph":"i","ts":3,"pid":0,"tid":2,"s":"t""#,
        r#"{"name":"retransmit @0#1","ph":"X","ts":3,"dur":2,"pid":0,"tid":2"#,
        r#"{"name":"phase 0","ph":"X","ts":2,"dur":9,"pid":0,"tid":0"#,
        r#"{"name":"checkpoint 0","ph":"i","ts":11,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"phase 1 start","ph":"i","ts":11,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"rollback 1","ph":"X","ts":11,"dur":5,"pid":0,"tid":0"#,
        r#"{"name":"dyn batch","ph":"X","ts":16,"dur":1,"pid":0,"tid":3"#,
        r#"{"name":"q\"b\\s\n\u0001é→","ph":"X","ts":17,"dur":4,"pid":0,"tid":0"#,
        r#"{"name":"dyn certify","ph":"X","ts":21,"dur":2,"pid":0,"tid":3"#,
        r#"{"name":"dyn escalate","ph":"i","ts":23,"pid":0,"tid":3,"s":"t""#,
        r#"{"name":"output","ph":"X","ts":23,"dur":1,"pid":0,"tid":0"#,
    ];

    #[test]
    fn chrome_trace_keeps_its_event_list_and_carries_every_scalar_field() {
        let trace = chrome_trace(&golden());
        let v = JsonParser::new(&trace)
            .value()
            .expect("chrome trace must be valid JSON");
        let Ok(Json::A(events)) = v.get("traceEvents") else {
            panic!("traceEvents array");
        };
        // 4 thread_name metadata events + one per source record.
        assert_eq!(events.len(), 4 + 14);
        let shown: Vec<&str> = trace
            .lines()
            .filter_map(|l| l.split_once(",\"args\":").map(|(event, _)| event))
            .collect();
        assert_eq!(shown, GOLDEN_CHROME);
        // `args` is the record minus its per-link and per-kind lists.
        for (event, record) in events[4..].iter().zip(golden()) {
            let Ok(Json::O(mut want)) = JsonParser::new(&record.to_json()).value() else {
                panic!("a record is an object");
            };
            want.retain(|(key, _)| !["seq", "type", "links", "kinds"].contains(&key.as_str()));
            assert_eq!(event.get("args"), Ok(&Json::O(want)), "{record:?}");
        }
    }

    #[test]
    fn chrome_trace_of_empty_stream_is_parseable() {
        let trace = chrome_trace(&[]);
        let mut p = JsonParser::new(&trace);
        assert!(p.value().is_ok());
    }

    #[test]
    fn poisoned_tracer_keeps_working() {
        struct Bomb(bool);
        impl TraceSink for Bomb {
            fn event(&mut self, _r: &TraceRecord) {
                if self.0 {
                    panic!("sink bomb");
                }
            }
        }
        let t = Tracer::to_sink(Box::new(Bomb(true)));
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            t2.emit(|| TraceEvent::Checkpoint { phase: 0 });
        });
        assert!(h.join().is_err(), "the sink must have panicked");
        // The mutex is poisoned; emission must still work.
        if let Some(mut g) = t.lock() {
            g.sinks.clear();
        }
        t.emit(|| TraceEvent::Checkpoint { phase: 1 });
        assert_eq!(t.logical_len(), 2);
    }
}
