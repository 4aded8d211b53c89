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
//! Three sinks ship with the workspace: the always-on in-memory buffer
//! (powering [`phase_breakdown`] and `kmm trace summarize`), the
//! [`JsonlSink`] file sink (`--trace-out`), and the [`chrome_trace`]
//! exporter that renders a finished logical stream as a Chrome
//! trace-event/Perfetto timeline on a cumulative-rounds clock.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// One logical trace event. All quantities are model-level (rounds, bits,
/// counts) — never wall-clock — so the stream is deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A named non-phase cost segment (the engine's setup charges, the
    /// §2.6 output protocol). Together with [`TraceEvent::PhaseEnd`] and
    /// [`TraceEvent::Rollback`], segments tile a run's `CommStats` exactly:
    /// the per-event `rounds`/`bits` and recovery columns sum to the run
    /// totals.
    Segment {
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
    PhaseStart {
        /// 0-based phase index.
        phase: u32,
        /// Distinct component labels alive at phase start.
        components: u64,
        /// Whether this phase runs on the contracted supergraph.
        contracted: bool,
    },
    /// A phase completed normally (its work is kept).
    PhaseEnd {
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
        /// Part sketches built from scratch during the phase.
        sketch_builds: u64,
        /// Part sketches served from the incremental cache.
        sketch_cache_hits: u64,
    },
    /// A phase attempt was aborted by machine crashes and rolled back to
    /// the last checkpoint. The aborted work is charged to this event, not
    /// to a [`TraceEvent::PhaseEnd`].
    Rollback {
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
    Checkpoint {
        /// The phase the checkpoint snapshots the end of.
        phase: u32,
    },
    /// One superstep's delivered window.
    Superstep {
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
    Faults {
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
    Retransmit {
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
    DynBatch {
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
    DynCertify {
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
    DynEscalate {
        /// How many immediately-preceding rows belong to the aborted
        /// incremental attempt.
        span: u64,
        /// Total rounds the aborted attempt charged.
        rounds: u64,
        /// Total bits the aborted attempt charged.
        bits: u64,
    },
}

/// One sequence-numbered logical record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Emission order, starting at 0.
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

/// One physical-channel event: host-side observations (wall-clock,
/// transport counters) that may differ run-to-run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PhysEvent {
    /// One transport window crossed the worker mesh: the physical counter
    /// deltas of a single `exchange` call plus its wall-clock cost.
    Window {
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
        /// Frames that physically arrived.
        frames_delivered: u64,
        /// Acks received.
        acks: u64,
        /// Worker processes respawned during the window.
        worker_restarts: u64,
        /// Wall-clock duration of the exchange, in microseconds.
        micros: u64,
    },
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

struct JsonObj {
    buf: String,
}

impl JsonObj {
    fn new(seq: u64, kind: &str) -> Self {
        let mut buf = String::with_capacity(96);
        buf.push_str("{\"seq\":");
        buf.push_str(&seq.to_string());
        buf.push_str(",\"type\":");
        push_json_str(&mut buf, kind);
        JsonObj { buf }
    }

    fn num(mut self, key: &str, v: u64) -> Self {
        self.buf.push(',');
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
        self.buf.push_str(&v.to_string());
        self
    }

    fn boolean(mut self, key: &str, v: bool) -> Self {
        self.buf.push(',');
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    fn string(mut self, key: &str, v: &str) -> Self {
        self.buf.push(',');
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
        push_json_str(&mut self.buf, v);
        self
    }

    fn raw(mut self, key: &str, v: &str) -> Self {
        self.buf.push(',');
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
        self.buf.push_str(v);
        self
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn links_json(links: &[(u32, u32, u64)]) -> String {
    let mut s = String::from("[");
    for (i, (a, b, bits)) in links.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("[{a},{b},{bits}]"));
    }
    s.push(']');
    s
}

fn kinds_json(kinds: &[(String, u64)]) -> String {
    let mut s = String::from("[");
    for (i, (name, count)) in kinds.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        push_json_str(&mut s, name);
        s.push_str(&format!(",{count}]"));
    }
    s.push(']');
    s
}

fn u32s_json(vals: &[u32]) -> String {
    let mut s = String::from("[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&v.to_string());
    }
    s.push(']');
    s
}

impl TraceRecord {
    /// One-line JSON with a fixed key order — the byte-exact JSONL format
    /// of `--trace-out` (determinism-pinned in `tests/trace.rs`).
    pub fn to_json(&self) -> String {
        match &self.event {
            TraceEvent::Segment {
                name,
                rounds,
                bits,
                recovery_rounds,
                retransmit_bits,
            } => JsonObj::new(self.seq, "segment")
                .string("name", name)
                .num("rounds", *rounds)
                .num("bits", *bits)
                .num("recovery_rounds", *recovery_rounds)
                .num("retransmit_bits", *retransmit_bits)
                .finish(),
            TraceEvent::PhaseStart {
                phase,
                components,
                contracted,
            } => JsonObj::new(self.seq, "phase_start")
                .num("phase", u64::from(*phase))
                .num("components", *components)
                .boolean("contracted", *contracted)
                .finish(),
            TraceEvent::PhaseEnd {
                phase,
                rounds,
                bits,
                recovery_rounds,
                retransmit_bits,
                sketch_builds,
                sketch_cache_hits,
            } => JsonObj::new(self.seq, "phase_end")
                .num("phase", u64::from(*phase))
                .num("rounds", *rounds)
                .num("bits", *bits)
                .num("recovery_rounds", *recovery_rounds)
                .num("retransmit_bits", *retransmit_bits)
                .num("sketch_builds", *sketch_builds)
                .num("sketch_cache_hits", *sketch_cache_hits)
                .finish(),
            TraceEvent::Rollback {
                phase,
                crashed,
                rounds,
                bits,
                recovery_rounds,
                retransmit_bits,
            } => JsonObj::new(self.seq, "rollback")
                .num("phase", u64::from(*phase))
                .raw("crashed", &u32s_json(crashed))
                .num("rounds", *rounds)
                .num("bits", *bits)
                .num("recovery_rounds", *recovery_rounds)
                .num("retransmit_bits", *retransmit_bits)
                .finish(),
            TraceEvent::Checkpoint { phase } => JsonObj::new(self.seq, "checkpoint")
                .num("phase", u64::from(*phase))
                .finish(),
            TraceEvent::Superstep {
                index,
                rounds,
                bits,
                messages,
                max_link_bits,
                links,
                kinds,
            } => JsonObj::new(self.seq, "superstep")
                .num("index", *index)
                .num("rounds", *rounds)
                .num("bits", *bits)
                .num("messages", *messages)
                .num("max_link_bits", *max_link_bits)
                .raw("links", &links_json(links))
                .raw("kinds", &kinds_json(kinds))
                .finish(),
            TraceEvent::Faults {
                superstep,
                dropped,
                duplicated,
                reordered,
                delayed,
                crashed,
            } => JsonObj::new(self.seq, "faults")
                .num("superstep", *superstep)
                .num("dropped", *dropped)
                .num("duplicated", *duplicated)
                .num("reordered", *reordered)
                .num("delayed", *delayed)
                .num("crashed", *crashed)
                .finish(),
            TraceEvent::Retransmit {
                superstep,
                attempt,
                messages,
                bits,
                rounds,
            } => JsonObj::new(self.seq, "retransmit")
                .num("superstep", *superstep)
                .num("attempt", *attempt)
                .num("messages", *messages)
                .num("bits", *bits)
                .num("rounds", *rounds)
                .finish(),
            TraceEvent::DynBatch {
                ops,
                inserts,
                deletes,
                rounds,
                bits,
                compacted,
            } => JsonObj::new(self.seq, "dyn_batch")
                .num("ops", *ops)
                .num("inserts", *inserts)
                .num("deletes", *deletes)
                .num("rounds", *rounds)
                .num("bits", *bits)
                .boolean("compacted", *compacted)
                .finish(),
            TraceEvent::DynCertify {
                labels,
                rounds,
                bits,
                ok,
            } => JsonObj::new(self.seq, "dyn_certify")
                .num("labels", *labels)
                .num("rounds", *rounds)
                .num("bits", *bits)
                .boolean("ok", *ok)
                .finish(),
            TraceEvent::DynEscalate { span, rounds, bits } => {
                JsonObj::new(self.seq, "dyn_escalate")
                    .num("span", *span)
                    .num("rounds", *rounds)
                    .num("bits", *bits)
                    .finish()
            }
        }
    }
}

impl PhysRecord {
    /// One-line JSON for the physical channel (not determinism-pinned:
    /// this channel carries wall-clock).
    pub fn to_json(&self) -> String {
        match &self.event {
            PhysEvent::Window {
                superstep,
                windows,
                attempts,
                frames_sent,
                payload_bytes,
                frames_delivered,
                acks,
                worker_restarts,
                micros,
            } => JsonObj::new(self.seq, "window")
                .num("superstep", *superstep)
                .num("windows", *windows)
                .num("attempts", *attempts)
                .num("frames_sent", *frames_sent)
                .num("payload_bytes", *payload_bytes)
                .num("frames_delivered", *frames_delivered)
                .num("acks", *acks)
                .num("worker_restarts", *worker_restarts)
                .num("micros", *micros)
                .finish(),
        }
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

struct JsonParser<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        JsonParser {
            b: s.as_bytes(),
            at: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.at < self.b.len() && self.b[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.b
            .get(self.at)
            .copied()
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
            b'{' => self.object(),
            b'[' => self.array(),
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
        if self.b[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at byte {}", self.at))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self.at < self.b.len() && self.b[self.at].is_ascii_digit() {
            self.at += 1;
        }
        std::str::from_utf8(&self.b[start..self.at])
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map(Json::U)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self
                .b
                .get(self.at)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.at += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .b
                        .get(self.at)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.at += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.at += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at - 1)),
                    }
                }
                c => {
                    // Re-decode the UTF-8 tail of a multi-byte char.
                    if c < 0x80 {
                        out.push(char::from(c));
                    } else {
                        let start = self.at - 1;
                        let mut end = self.at;
                        while end < self.b.len() && (self.b[end] & 0xC0) == 0x80 {
                            end += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.b[start..end])
                                .map_err(|_| "bad utf-8 in string".to_string())?,
                        );
                        self.at = end;
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.at += 1;
            return Ok(Json::A(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.at += 1,
                b']' => {
                    self.at += 1;
                    return Ok(Json::A(items));
                }
                c => return Err(format!("expected `,` or `]`, got `{}`", char::from(c))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.at += 1;
            return Ok(Json::O(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.at += 1,
                b'}' => {
                    self.at += 1;
                    return Ok(Json::O(fields));
                }
                c => return Err(format!("expected `,` or `}}`, got `{}`", char::from(c))),
            }
        }
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

    fn u(&self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            Json::U(v) => Ok(*v),
            _ => Err(format!("field `{key}` is not an integer")),
        }
    }

    fn b(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            Json::B(v) => Ok(*v),
            _ => Err(format!("field `{key}` is not a boolean")),
        }
    }

    fn s(&self, key: &str) -> Result<String, String> {
        match self.get(key)? {
            Json::S(v) => Ok(v.clone()),
            _ => Err(format!("field `{key}` is not a string")),
        }
    }

    fn arr(&self, key: &str) -> Result<&[Json], String> {
        match self.get(key)? {
            Json::A(v) => Ok(v),
            _ => Err(format!("field `{key}` is not an array")),
        }
    }
}

fn record_from_json(v: &Json) -> Result<TraceRecord, String> {
    let seq = v.u("seq")?;
    let kind = v.s("type")?;
    let p32 = |x: u64, f: &str| -> Result<u32, String> {
        u32::try_from(x).map_err(|_| format!("field `{f}` overflows u32"))
    };
    let event = match kind.as_str() {
        "segment" => TraceEvent::Segment {
            name: v.s("name")?,
            rounds: v.u("rounds")?,
            bits: v.u("bits")?,
            recovery_rounds: v.u("recovery_rounds")?,
            retransmit_bits: v.u("retransmit_bits")?,
        },
        "phase_start" => TraceEvent::PhaseStart {
            phase: p32(v.u("phase")?, "phase")?,
            components: v.u("components")?,
            contracted: v.b("contracted")?,
        },
        "phase_end" => TraceEvent::PhaseEnd {
            phase: p32(v.u("phase")?, "phase")?,
            rounds: v.u("rounds")?,
            bits: v.u("bits")?,
            recovery_rounds: v.u("recovery_rounds")?,
            retransmit_bits: v.u("retransmit_bits")?,
            sketch_builds: v.u("sketch_builds")?,
            sketch_cache_hits: v.u("sketch_cache_hits")?,
        },
        "rollback" => TraceEvent::Rollback {
            phase: p32(v.u("phase")?, "phase")?,
            crashed: v
                .arr("crashed")?
                .iter()
                .map(|j| match j {
                    Json::U(m) => p32(*m, "crashed"),
                    _ => Err("crashed entry is not an integer".to_string()),
                })
                .collect::<Result<_, _>>()?,
            rounds: v.u("rounds")?,
            bits: v.u("bits")?,
            recovery_rounds: v.u("recovery_rounds")?,
            retransmit_bits: v.u("retransmit_bits")?,
        },
        "checkpoint" => TraceEvent::Checkpoint {
            phase: p32(v.u("phase")?, "phase")?,
        },
        "superstep" => TraceEvent::Superstep {
            index: v.u("index")?,
            rounds: v.u("rounds")?,
            bits: v.u("bits")?,
            messages: v.u("messages")?,
            max_link_bits: v.u("max_link_bits")?,
            links: v
                .arr("links")?
                .iter()
                .map(|j| match j {
                    Json::A(t) if t.len() == 3 => match (&t[0], &t[1], &t[2]) {
                        (Json::U(a), Json::U(b), Json::U(bits)) => {
                            Ok((p32(*a, "links")?, p32(*b, "links")?, *bits))
                        }
                        _ => Err("links entry is not [u32,u32,u64]".to_string()),
                    },
                    _ => Err("links entry is not a 3-tuple".to_string()),
                })
                .collect::<Result<_, _>>()?,
            kinds: v
                .arr("kinds")?
                .iter()
                .map(|j| match j {
                    Json::A(t) if t.len() == 2 => match (&t[0], &t[1]) {
                        (Json::S(name), Json::U(count)) => Ok((name.clone(), *count)),
                        _ => Err("kinds entry is not [name,count]".to_string()),
                    },
                    _ => Err("kinds entry is not a 2-tuple".to_string()),
                })
                .collect::<Result<_, _>>()?,
        },
        "faults" => TraceEvent::Faults {
            superstep: v.u("superstep")?,
            dropped: v.u("dropped")?,
            duplicated: v.u("duplicated")?,
            reordered: v.u("reordered")?,
            delayed: v.u("delayed")?,
            crashed: v.u("crashed")?,
        },
        "retransmit" => TraceEvent::Retransmit {
            superstep: v.u("superstep")?,
            attempt: v.u("attempt")?,
            messages: v.u("messages")?,
            bits: v.u("bits")?,
            rounds: v.u("rounds")?,
        },
        "dyn_batch" => TraceEvent::DynBatch {
            ops: v.u("ops")?,
            inserts: v.u("inserts")?,
            deletes: v.u("deletes")?,
            rounds: v.u("rounds")?,
            bits: v.u("bits")?,
            compacted: v.b("compacted")?,
        },
        "dyn_certify" => TraceEvent::DynCertify {
            labels: v.u("labels")?,
            rounds: v.u("rounds")?,
            bits: v.u("bits")?,
            ok: v.b("ok")?,
        },
        "dyn_escalate" => TraceEvent::DynEscalate {
            span: v.u("span")?,
            rounds: v.u("rounds")?,
            bits: v.u("bits")?,
        },
        other => return Err(format!("unknown event type `{other}`")),
    };
    Ok(TraceRecord { seq, event })
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
        let mut p = JsonParser::new(line);
        let v = p.value().map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(record_from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
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

/// Renders a finished logical stream as a Chrome trace-event JSON object
/// (load in `chrome://tracing` or Perfetto). The time axis is **model
/// rounds**, not wall-clock — 1 round renders as 1 µs — so the timeline is
/// as deterministic as the stream itself. Tracks: tid 0 phases/segments,
/// tid 1 supersteps, tid 2 fault & recovery instants, tid 3 the dynamic
/// layer.
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (tid, name) in [
        (0u32, "phases"),
        (1, "supersteps"),
        (2, "faults"),
        (3, "dynamic"),
    ] {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    let complete = |name: &str, ts: u64, dur: u64, tid: u32, args: &str| {
        let mut s = String::new();
        s.push_str("{\"name\":");
        push_json_str(&mut s, name);
        s.push_str(&format!(
            ",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":0,\"tid\":{tid},\"args\":{{{args}}}}}"
        ));
        s
    };
    let instant = |name: &str, ts: u64, tid: u32, args: &str| {
        let mut s = String::new();
        s.push_str("{\"name\":");
        push_json_str(&mut s, name);
        s.push_str(&format!(
            ",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"s\":\"t\",\"args\":{{{args}}}}}"
        ));
        s
    };
    // Two cumulative-rounds clocks: the phase track advances by
    // segment/phase/rollback rounds; the superstep track (which also
    // timestamps fault instants) advances by superstep/retransmit rounds.
    let mut phase_clock = 0u64;
    let mut step_clock = 0u64;
    for r in records {
        match &r.event {
            TraceEvent::Segment {
                name, rounds, bits, ..
            } => {
                events.push(complete(
                    name,
                    phase_clock,
                    *rounds,
                    0,
                    &format!("\"bits\":{bits}"),
                ));
                phase_clock += rounds;
            }
            TraceEvent::PhaseStart {
                phase,
                components,
                contracted,
            } => {
                events.push(instant(
                    &format!("phase {phase} start"),
                    phase_clock,
                    0,
                    &format!("\"components\":{components},\"contracted\":{contracted}"),
                ));
            }
            TraceEvent::PhaseEnd {
                phase,
                rounds,
                bits,
                recovery_rounds,
                retransmit_bits,
                ..
            } => {
                events.push(complete(
                    &format!("phase {phase}"),
                    phase_clock,
                    *rounds,
                    0,
                    &format!(
                        "\"bits\":{bits},\"recovery_rounds\":{recovery_rounds},\
                         \"retransmit_bits\":{retransmit_bits}"
                    ),
                ));
                phase_clock += rounds;
            }
            TraceEvent::Rollback {
                phase,
                rounds,
                bits,
                crashed,
                ..
            } => {
                events.push(complete(
                    &format!("rollback {phase}"),
                    phase_clock,
                    *rounds,
                    0,
                    &format!("\"bits\":{bits},\"crashed\":{}", u32s_json(crashed)),
                ));
                phase_clock += rounds;
            }
            TraceEvent::Checkpoint { phase } => {
                events.push(instant(&format!("checkpoint {phase}"), phase_clock, 0, ""));
            }
            TraceEvent::Superstep {
                index,
                rounds,
                bits,
                messages,
                max_link_bits,
                ..
            } => {
                events.push(complete(
                    &format!("superstep {index}"),
                    step_clock,
                    *rounds,
                    1,
                    &format!(
                        "\"bits\":{bits},\"messages\":{messages},\
                         \"max_link_bits\":{max_link_bits}"
                    ),
                ));
                step_clock += rounds;
            }
            TraceEvent::Faults {
                superstep,
                dropped,
                duplicated,
                reordered,
                delayed,
                crashed,
            } => {
                events.push(instant(
                    &format!("faults @{superstep}"),
                    step_clock,
                    2,
                    &format!(
                        "\"dropped\":{dropped},\"duplicated\":{duplicated},\
                         \"reordered\":{reordered},\"delayed\":{delayed},\
                         \"crashed\":{crashed}"
                    ),
                ));
            }
            TraceEvent::Retransmit {
                superstep,
                attempt,
                messages,
                bits,
                rounds,
            } => {
                events.push(complete(
                    &format!("retransmit @{superstep}#{attempt}"),
                    step_clock,
                    *rounds,
                    2,
                    &format!("\"messages\":{messages},\"bits\":{bits}"),
                ));
                step_clock += rounds;
            }
            TraceEvent::DynBatch {
                ops,
                rounds,
                bits,
                compacted,
                ..
            } => {
                events.push(complete(
                    "dyn batch",
                    phase_clock,
                    *rounds,
                    3,
                    &format!("\"ops\":{ops},\"bits\":{bits},\"compacted\":{compacted}"),
                ));
                phase_clock += rounds;
            }
            TraceEvent::DynCertify {
                labels,
                rounds,
                bits,
                ok,
            } => {
                events.push(complete(
                    "dyn certify",
                    phase_clock,
                    *rounds,
                    3,
                    &format!("\"labels\":{labels},\"bits\":{bits},\"ok\":{ok}"),
                ));
                phase_clock += rounds;
            }
            TraceEvent::DynEscalate { span, rounds, bits } => {
                events.push(instant(
                    "dyn escalate",
                    phase_clock,
                    3,
                    &format!("\"span\":{span},\"rounds\":{rounds},\"bits\":{bits}"),
                ));
            }
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------
// Per-phase breakdown and the summarize inspector
// ---------------------------------------------------------------------

/// One row of a run's per-phase cost table: a segment, a completed phase
/// or a rolled-back phase attempt. Rows tile the run — summing any cost
/// column over the rows gives the run's `CommStats` total for engine runs
/// (pinned by `tests/trace.rs`).
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// Sketch cache hits during the row (phases only).
    pub sketch_cache_hits: u64,
    /// Whether this row is a rolled-back (aborted) phase attempt.
    pub rolled_back: bool,
}

/// Folds a logical stream into per-phase rows (see [`PhaseSummary`]).
/// Streams without phase-level events (baseline runs) fold to an empty
/// table.
pub fn phase_breakdown(records: &[TraceRecord]) -> Vec<PhaseSummary> {
    let mut rows = Vec::new();
    for r in records {
        match &r.event {
            TraceEvent::Segment {
                name,
                rounds,
                bits,
                recovery_rounds,
                retransmit_bits,
            } => rows.push(PhaseSummary {
                label: name.clone(),
                rounds: *rounds,
                bits: *bits,
                recovery_rounds: *recovery_rounds,
                retransmit_bits: *retransmit_bits,
                sketch_builds: 0,
                sketch_cache_hits: 0,
                rolled_back: false,
            }),
            TraceEvent::PhaseEnd {
                phase,
                rounds,
                bits,
                recovery_rounds,
                retransmit_bits,
                sketch_builds,
                sketch_cache_hits,
            } => rows.push(PhaseSummary {
                label: format!("phase {phase}"),
                rounds: *rounds,
                bits: *bits,
                recovery_rounds: *recovery_rounds,
                retransmit_bits: *retransmit_bits,
                sketch_builds: *sketch_builds,
                sketch_cache_hits: *sketch_cache_hits,
                rolled_back: false,
            }),
            TraceEvent::Rollback {
                phase,
                rounds,
                bits,
                recovery_rounds,
                retransmit_bits,
                ..
            } => rows.push(PhaseSummary {
                label: format!("rollback {phase}"),
                rounds: *rounds,
                bits: *bits,
                recovery_rounds: *recovery_rounds,
                retransmit_bits: *retransmit_bits,
                sketch_builds: 0,
                sketch_cache_hits: 0,
                rolled_back: true,
            }),
            TraceEvent::DynCertify { rounds, bits, .. } => rows.push(PhaseSummary {
                label: "certify".to_string(),
                rounds: *rounds,
                bits: *bits,
                recovery_rounds: 0,
                retransmit_bits: 0,
                sketch_builds: 0,
                sketch_cache_hits: 0,
                rolled_back: false,
            }),
            TraceEvent::DynEscalate { span, .. } => {
                // The aborted incremental attempt's rows (certify pass
                // included) stay in the table — marked rolled back so the
                // row sum still tiles the merged escalation stats.
                let n = rows.len();
                let span = usize::try_from(*span).unwrap_or(n).min(n);
                for row in &mut rows[n - span..] {
                    row.rolled_back = true;
                }
            }
            _ => {}
        }
    }
    rows
}

/// Renders the `kmm trace summarize` report: the per-phase cost table,
/// the top-loaded directed links and the fault/recovery hotspots. Pure
/// string building — the CLI decides where it goes.
pub fn summarize(records: &[TraceRecord]) -> String {
    let rows = phase_breakdown(records);
    let mut out = String::new();
    out.push_str(&format!("logical records: {}\n\n", records.len()));

    // Per-phase table.
    out.push_str("per-phase breakdown\n");
    out.push_str(&format!(
        "{:<14} {:>8} {:>12} {:>10} {:>12} {:>8} {:>8}\n",
        "phase", "rounds", "bits", "rec.rnds", "rtx.bits", "builds", "hits"
    ));
    let mut tot = PhaseSummary {
        label: "total".into(),
        rounds: 0,
        bits: 0,
        recovery_rounds: 0,
        retransmit_bits: 0,
        sketch_builds: 0,
        sketch_cache_hits: 0,
        rolled_back: false,
    };
    for row in &rows {
        out.push_str(&format!(
            "{:<14} {:>8} {:>12} {:>10} {:>12} {:>8} {:>8}\n",
            row.label,
            row.rounds,
            row.bits,
            row.recovery_rounds,
            row.retransmit_bits,
            row.sketch_builds,
            row.sketch_cache_hits
        ));
        tot.rounds += row.rounds;
        tot.bits += row.bits;
        tot.recovery_rounds += row.recovery_rounds;
        tot.retransmit_bits += row.retransmit_bits;
        tot.sketch_builds += row.sketch_builds;
        tot.sketch_cache_hits += row.sketch_cache_hits;
    }
    out.push_str(&format!(
        "{:<14} {:>8} {:>12} {:>10} {:>12} {:>8} {:>8}\n",
        tot.label,
        tot.rounds,
        tot.bits,
        tot.recovery_rounds,
        tot.retransmit_bits,
        tot.sketch_builds,
        tot.sketch_cache_hits
    ));

    // Top-loaded links, aggregated over every superstep.
    let mut link_total: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut kind_total: BTreeMap<String, u64> = BTreeMap::new();
    for r in records {
        if let TraceEvent::Superstep { links, kinds, .. } = &r.event {
            for &(a, b, bits) in links {
                *link_total.entry((a, b)).or_insert(0) += bits;
            }
            for (name, count) in kinds {
                *kind_total.entry(name.clone()).or_insert(0) += count;
            }
        }
    }
    if !link_total.is_empty() {
        let mut by_load: Vec<((u32, u32), u64)> = link_total.into_iter().collect();
        // Heaviest first; the BTreeMap key order breaks ties.
        by_load.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.push_str("\ntop loaded links\n");
        for ((a, b), bits) in by_load.into_iter().take(5) {
            out.push_str(&format!("  {a} -> {b}: {bits} bits\n"));
        }
    }
    if !kind_total.is_empty() {
        let mut by_count: Vec<(String, u64)> = kind_total.into_iter().collect();
        by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.push_str("\npayload kinds\n");
        for (name, count) in by_count.into_iter().take(8) {
            out.push_str(&format!("  {name}: {count} messages\n"));
        }
    }

    // Fault hotspots: supersteps ranked by injected fault count.
    let mut hot: Vec<(u64, u64)> = Vec::new();
    let mut waves = 0u64;
    let mut wave_bits = 0u64;
    for r in records {
        match &r.event {
            TraceEvent::Faults {
                superstep,
                dropped,
                duplicated,
                reordered,
                delayed,
                crashed,
            } => hot.push((
                *superstep,
                dropped + duplicated + reordered + delayed + crashed,
            )),
            TraceEvent::Retransmit { bits, .. } => {
                waves += 1;
                wave_bits += bits;
            }
            _ => {}
        }
    }
    if !hot.is_empty() {
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.push_str("\nfault hotspots\n");
        for (superstep, faults) in hot.into_iter().take(5) {
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

    fn sample_records() -> Vec<TraceRecord> {
        let t = Tracer::recording();
        t.emit(|| TraceEvent::Segment {
            name: "setup".into(),
            rounds: 2,
            bits: 128,
            recovery_rounds: 0,
            retransmit_bits: 0,
        });
        t.emit(|| TraceEvent::PhaseStart {
            phase: 0,
            components: 40,
            contracted: false,
        });
        t.emit(|| TraceEvent::Superstep {
            index: 0,
            rounds: 3,
            bits: 900,
            messages: 12,
            max_link_bits: 300,
            links: vec![(0, 1, 300), (1, 0, 200), (1, 2, 400)],
            kinds: vec![("part_sketch".into(), 10), ("relabel".into(), 2)],
        });
        t.emit(|| TraceEvent::Faults {
            superstep: 0,
            dropped: 2,
            duplicated: 1,
            reordered: 0,
            delayed: 1,
            crashed: 0,
        });
        t.emit(|| TraceEvent::Retransmit {
            superstep: 0,
            attempt: 1,
            messages: 3,
            bits: 120,
            rounds: 2,
        });
        t.emit(|| TraceEvent::PhaseEnd {
            phase: 0,
            rounds: 9,
            bits: 1020,
            recovery_rounds: 2,
            retransmit_bits: 160,
            sketch_builds: 40,
            sketch_cache_hits: 0,
        });
        t.emit(|| TraceEvent::Rollback {
            phase: 1,
            crashed: vec![2],
            rounds: 5,
            bits: 300,
            recovery_rounds: 4,
            retransmit_bits: 90,
        });
        t.emit(|| TraceEvent::Checkpoint { phase: 1 });
        t.emit(|| TraceEvent::DynBatch {
            ops: 20,
            inserts: 15,
            deletes: 5,
            rounds: 1,
            bits: 640,
            compacted: true,
        });
        t.emit(|| TraceEvent::DynCertify {
            labels: 4,
            rounds: 2,
            bits: 96,
            ok: true,
        });
        t.emit(|| TraceEvent::DynEscalate {
            span: 1,
            rounds: 2,
            bits: 96,
        });
        t.emit(|| TraceEvent::Segment {
            name: "output".into(),
            rounds: 1,
            bits: 64,
            recovery_rounds: 0,
            retransmit_bits: 0,
        });
        t.events()
    }

    // One exemplar of every row, by hand until the event table generates it.
    impl TraceEvent {
        fn one_of_each() -> Vec<Self> {
            sample_records().into_iter().map(|r| r.event).collect()
        }
    }

    impl PhysEvent {
        fn one_of_each() -> Vec<Self> {
            vec![PhysEvent::Window {
                superstep: 0,
                windows: 0,
                attempts: 0,
                frames_sent: 0,
                payload_bytes: 0,
                frames_delivered: 0,
                acks: 0,
                worker_restarts: 0,
                micros: 0,
            }]
        }
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
                frames_delivered: 17,
                acks: 16,
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
                frames_delivered: 0,
                acks: 0,
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
        let records = sample_records();
        assert_eq!(records.len(), 12);
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
        let records = sample_records();
        let text = to_jsonl(&records);
        let parsed = parse_jsonl(&text).expect("round trip must parse");
        assert_eq!(parsed, records);
        // And the rendering is stable: parse → render is the identity.
        assert_eq!(to_jsonl(&parsed), text);
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let good = sample_records();
        let mut text = to_jsonl(&good[..1]);
        text.push_str("{\"seq\":1,\"type\":\"wat\"}\n");
        let e = parse_jsonl(&text).expect_err("unknown type must fail");
        assert!(e.contains("line 2"), "{e}");
        assert!(parse_jsonl("not json\n").is_err());
        assert!(parse_jsonl("").expect("empty is fine").is_empty());
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
        let records = sample_records();
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
            frames_delivered: 3,
            acks: 3,
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
        let rows = phase_breakdown(&sample_records());
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["setup", "phase 0", "rollback 1", "certify", "output"]
        );
        assert!(rows[2].rolled_back);
        // The escalation marker retroactively rolls back the certify row.
        assert!(rows[3].rolled_back);
        assert!(!rows[4].rolled_back);
        let rounds: u64 = rows.iter().map(|r| r.rounds).sum();
        assert_eq!(rounds, 2 + 9 + 5 + 2 + 1);
    }

    #[test]
    fn summarize_reports_phases_links_and_hotspots() {
        let s = summarize(&sample_records());
        assert!(s.contains("phase 0"), "{s}");
        assert!(s.contains("rollback 1"), "{s}");
        assert!(s.contains("certify"), "{s}");
        assert!(s.contains("total"), "{s}");
        assert!(s.contains("1 -> 2: 400 bits"), "{s}");
        assert!(s.contains("part_sketch: 10 messages"), "{s}");
        assert!(s.contains("superstep 0: 4 faults"), "{s}");
        assert!(s.contains("retransmit waves: 1 (120 bits)"), "{s}");
    }

    #[test]
    fn chrome_trace_is_valid_json_and_covers_all_tracks() {
        let trace = chrome_trace(&sample_records());
        let mut p = JsonParser::new(&trace);
        let v = p.value().expect("chrome trace must be valid JSON");
        let events = v.arr("traceEvents").expect("traceEvents array");
        // 4 thread_name metadata events + one per source record.
        assert_eq!(events.len(), 4 + 12);
        // Phase clock: setup(2) then phase 0 at ts=2.
        let phase0 = events
            .iter()
            .find(|e| e.s("name").is_ok_and(|n| n == "phase 0"))
            .expect("phase 0 event");
        assert_eq!(phase0.u("ts").unwrap(), 2);
        assert_eq!(phase0.u("dur").unwrap(), 9);
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
