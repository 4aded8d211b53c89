//! Superstep (BSP) execution: the layer the paper's algorithms run on.
//!
//! Every algorithm in the paper is a sequence of message batches whose
//! delivery cost is the congestion bound of Lemma 1: delivering a batch
//! takes exactly `max_{directed link} ⌈bits(link)/W⌉` rounds, because the
//! complete topology gives every ordered pair its own dedicated link and
//! batches are enqueued simultaneously. [`Bsp::superstep`] charges exactly
//! that (a round-by-round store-and-forward drain of the same batch takes
//! the same number of rounds — checked against such a reference in
//! `tests/model_properties.rs` and `tests/conformance.rs`, DESIGN.md
//! §3.1), and routes messages into per-machine inboxes.
//!
//! A superstep moves every envelope once, from the outboxes
//! [`Bsp::superstep_outboxes`] takes (the flat [`Bsp::superstep`] is its
//! one-outbox case) straight into pre-sized inboxes, in window order.
//! Links are grouped by counting sort, in O(messages + k), and each is
//! priced from its slice. An installed fault plan changes the bill, never
//! the delivery (DESIGN.md §3.10).
//!
//! Bandwidth is charged under the configured [`Encoding`]: the historical
//! default charges every message its own [`Envelope::bits`]
//! ([`Encoding::Naive`]); [`Encoding::Varint`] charges each directed link's
//! batch as one encoded buffer ([`crate::message::BatchWire`]). Whatever is
//! charged, the per-message naive sum is always accumulated into
//! [`CommStats::naive_bits`] as the oracle the compression ratio is
//! measured against. The encoding changes *only* the charged sizes — fate,
//! delivery order and message counts are encoding-independent, so a run's
//! trajectory is identical under both.

#![warn(clippy::unwrap_used, clippy::expect_used)]
// ^ window-protocol / worker-path panic hygiene (kcheck KC05): a
// panic here kills a worker mid-window instead of failing the
// attempt cleanly. Tests opt back in below.

use crate::fault::FaultPlan;
use crate::message::{put_varint, BatchWire, Encoding, Envelope, WireCodec, WireError, WireReader};
use crate::metrics::CommStats;
use crate::network::NetworkConfig;
use crate::trace::{PhysEvent, Stopwatch, TraceEvent, Tracer};
use crate::transport::{CodecBridge, Frame, Transport};
use std::collections::BTreeMap;

/// Safety bound on recovery rounds per superstep. With `drop < 1` and the
/// per-attempt decision rerolls, any backlog clears in a handful of
/// attempts; hitting this bound means the plan is effectively starving the
/// link and the run panics rather than spinning.
const MAX_RECOVERY_ATTEMPTS: u64 = 4096;

/// Installed fault-injection state: the plan plus the crash events that
/// have fired so far (queryable by the engine's checkpoint recovery).
struct FaultCtx {
    plan: FaultPlan,
    /// Every crash event that fired: `(superstep, machine)`.
    crash_log: Vec<(u64, usize)>,
}

/// The payload-kind histogram of one window's cross-machine messages,
/// ascending by kind name (trace emission only — runs solely inside an
/// enabled tracer's closure).
fn kind_histogram<M: BatchWire>(window: &[Vec<Envelope<M>>]) -> Vec<(String, u64)> {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for env in window.iter().flatten() {
        if !env.is_local() {
            *counts.entry(env.payload.kind_name()).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Stable counting sort of `items` by `key(item) < k` into `out`:
/// O(items + k), whatever the keys.
fn counting_sort<T: Copy>(items: &[T], k: usize, key: impl Fn(T) -> usize, out: &mut Vec<T>) {
    out.clear();
    let Some(&first) = items.first() else {
        return;
    };
    let mut next = vec![0usize; k];
    for &x in items {
        next[key(x)] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        (*slot, start) = (start, start + *slot);
    }
    out.resize(items.len(), first);
    for &x in items {
        let slot = &mut next[key(x)];
        out[*slot] = x;
        *slot += 1;
    }
}

/// One delivery window's base charge, as [`Bsp::close_window`] books it:
/// the links that carry messages as `(src, dst, charged bits)`, ascending;
/// per machine the bits sent and received and the messages received
/// (locals included); the charged and naive-oracle bits and the count of
/// cross-machine messages.
struct Window {
    links: Vec<(u32, u32, u64)>,
    machine_out: Vec<u64>,
    machine_in: Vec<u64>,
    arrivals: Vec<usize>,
    total: u64,
    naive: u64,
    messages: u64,
}

impl Window {
    fn max_link(&self) -> u64 {
        self.links
            .iter()
            .map(|&(_, _, bits)| bits)
            .max()
            .unwrap_or(0)
    }

    /// Adds the loads of `extra`, whose links this window already carries.
    fn absorb(&mut self, extra: &Window) {
        let mut more = extra.links.iter().peekable();
        for (src, dst, bits) in &mut self.links {
            if let Some((_, _, b)) = more.next_if(|&&(s, d, _)| (s, d) == (*src, *dst)) {
                *bits += b;
            }
        }
        for (mine, theirs) in [
            (&mut self.machine_out, &extra.machine_out),
            (&mut self.machine_in, &extra.machine_in),
        ] {
            mine.iter_mut().zip(theirs).for_each(|(a, b)| *a += b);
        }
        self.total += extra.total;
    }
}

/// The superstep runner.
///
/// ```
/// use kmachine::bsp::Bsp;
/// use kmachine::bandwidth::Bandwidth;
/// use kmachine::message::Envelope;
/// use kmachine::network::NetworkConfig;
///
/// let mut bsp: Bsp<u64> = Bsp::new(NetworkConfig::new(3, Bandwidth::Bits(64), 64));
/// // Two 64-bit messages on the same link: 2 rounds; one elsewhere: parallel.
/// bsp.superstep(vec![
///     Envelope::new(0, 1, 7u64),
///     Envelope::new(0, 1, 8u64),
///     Envelope::new(2, 0, 9u64),
/// ]);
/// assert_eq!(bsp.stats().rounds, 2);
/// assert_eq!(bsp.take_inbox(1).len(), 2);
/// ```
pub struct Bsp<M> {
    cfg: NetworkConfig,
    w: u64,
    stats: CommStats,
    inboxes: Vec<Vec<Envelope<M>>>,
    /// Optional machine bipartition: `cut[i]` is machine `i`'s side; bits
    /// crossing sides accumulate into `stats.cut_bits` (§4 harness).
    cut: Option<Vec<bool>>,
    /// Installed fault plan, if any (see [`Bsp::install_faults`]).
    faults: Option<FaultCtx>,
    /// Installed byte transport, if any (see [`Bsp::set_transport`]). With
    /// one, every superstep window physically crosses the worker mesh
    /// before it is accounted.
    bridge: Option<CodecBridge<M>>,
    /// Structured trace stream (off by default; see [`Bsp::set_tracer`]).
    trace: Tracer,
}

impl<M> Bsp<M> {
    /// Creates a runner over `k` machines.
    pub fn new(cfg: NetworkConfig) -> Self {
        assert!(cfg.k >= 2, "the model requires k >= 2");
        Bsp {
            w: cfg.link_bits(),
            stats: CommStats::new(cfg.k),
            inboxes: (0..cfg.k).map(|_| Vec::new()).collect(),
            cut: None,
            faults: None,
            bridge: None,
            trace: Tracer::off(),
            cfg,
        }
    }

    /// Installs a trace stream (DESIGN.md §3.14): every subsequent
    /// superstep emits a [`TraceEvent::Superstep`] record, fault injection
    /// emits [`TraceEvent::Faults`] / [`TraceEvent::Retransmit`], and a
    /// process transport reports window lifecycle on the physical channel.
    /// Emission never perturbs accounting or delivery — a traced run is
    /// bit-identical to an untraced one.
    pub fn set_tracer(&mut self, trace: Tracer) {
        self.trace = trace;
    }

    /// Installs a byte transport (DESIGN.md §3.12): every subsequent
    /// superstep's cross-machine messages are encoded with [`WireCodec`],
    /// shipped through the worker mesh as per-link frames, decoded from the
    /// bytes that physically arrived, and only then accounted — so
    /// `CommStats` on the process backend is reconstructed from real
    /// framed/acked traffic. Without one, the in-process simulator
    /// delivers: it is the accounting oracle and is never perturbed.
    ///
    /// Worker restarts observed by the transport (a machine process died
    /// and was respawned, the window replayed) are folded into
    /// [`CommStats::machine_crashes`] — the physical realization of the
    /// PR 5 crash-stop-with-immediate-restart semantics.
    pub fn set_transport(&mut self, transport: Box<dyn Transport>)
    where
        M: WireCodec,
    {
        self.bridge = Some(CodecBridge::new(transport));
    }

    /// Whether supersteps are physically routed through a process mesh.
    fn transported(&self) -> bool {
        self.bridge.is_some()
    }

    /// Ships `sent` — cross-machine envelopes with their window positions,
    /// ascending — through the installed process transport and reads them
    /// back: each directed link's envelopes travel as one frame (a varint
    /// count, then per envelope its position, bits and payload bytes), and
    /// come back decoded from the bytes that physically arrived. Returns
    /// them in position order, checked to be exactly the ones sent.
    fn round_trip(&mut self, sent: &[(u64, &Envelope<M>)]) -> Vec<Envelope<M>> {
        let Some(bridge) = self.bridge.as_mut() else {
            panic!("a round trip needs an installed transport");
        };
        // `charge_window`'s two counting sorts: links ascending by
        // (src, dst), each in window order.
        let (mut by_dst, mut by_link) = (Vec::new(), Vec::new());
        counting_sort(sent, self.cfg.k, |(_, env)| env.dst, &mut by_dst);
        counting_sort(&by_dst, self.cfg.k, |(_, env)| env.src, &mut by_link);
        let mut frames = Vec::new();
        for link in by_link.chunk_by(|(_, a), (_, b)| (a.src, a.dst) == (b.src, b.dst)) {
            let mut payload = Vec::new();
            put_varint(&mut payload, link.len() as u64);
            for &(pos, env) in link {
                put_varint(&mut payload, pos);
                put_varint(&mut payload, env.bits);
                (bridge.enc)(&env.payload, &mut payload);
            }
            let (src, dst) = (link[0].1.src as u32, link[0].1.dst as u32);
            frames.push(Frame::new(src, dst, payload));
        }
        // Physical-channel tracing: snapshot the transport counters and the
        // wall clock around the exchange. The wall-clock value feeds ONLY
        // the phys channel (never logical events or accounting), so the
        // logical stream and the run stay deterministic.
        let phys_mark = self
            .trace
            .is_on()
            .then(|| (bridge.transport.phys().clone(), Stopwatch::start()));
        let mut back = Vec::with_capacity(sent.len());
        for f in bridge.transport.exchange(frames) {
            let mut r = WireReader::new(&f.payload);
            let n = r
                .varint("batch.count")
                .unwrap_or_else(|e| panic!("transport frame {}→{}: {e}", f.src, f.dst));
            for _ in 0..n {
                let decoded = (|| -> Result<(u64, Envelope<M>), WireError> {
                    let pos = r.varint("batch.pos")?;
                    let bits = r.varint("batch.bits")?;
                    let payload = (bridge.dec)(&mut r)?;
                    Ok((
                        pos,
                        Envelope::with_bits(f.src as usize, f.dst as usize, payload, bits),
                    ))
                })()
                .unwrap_or_else(|e| panic!("transport frame {}→{}: {e}", f.src, f.dst));
                back.push(decoded);
            }
            assert!(
                r.is_empty(),
                "transport frame {}→{}: {} trailing bytes",
                f.src,
                f.dst,
                f.payload.len() - r.offset()
            );
        }
        if let Some((before, started)) = phys_mark {
            let after = bridge.transport.phys().clone();
            let micros = started.elapsed().as_micros() as u64;
            let superstep = self.stats.supersteps;
            self.trace.emit_phys(|| PhysEvent::Window {
                superstep,
                windows: after.windows - before.windows,
                attempts: after.attempts - before.attempts,
                frames_sent: after.frames_sent - before.frames_sent,
                payload_bytes: after.payload_bytes - before.payload_bytes,
                worker_restarts: after.worker_restarts - before.worker_restarts,
                micros,
            });
        }
        let restarts = bridge.transport.phys().worker_restarts;
        self.stats.machine_crashes += restarts - bridge.restarts_seen;
        bridge.restarts_seen = restarts;
        back.sort_unstable_by_key(|&(pos, _)| pos);
        assert!(
            back.iter()
                .map(|(pos, _)| pos)
                .eq(sent.iter().map(|(pos, _)| pos)),
            "transport window lost, duplicated or moved envelopes ({} of {} returned)",
            back.len(),
            sent.len()
        );
        back.into_iter().map(|(_, env)| env).collect()
    }

    /// Installs a deterministic [`FaultPlan`]: every subsequent
    /// [`Bsp::superstep`] bills the plan's faults as the ack/retransmit
    /// protocol would mask them — lost messages re-sent in *recovery
    /// rounds* until everything arrives, duplicates dropped by sequence
    /// number, each inbox reassembled in sequence order. The application
    /// observes exactly the fault-free inboxes while the stats record
    /// `faults_injected`, `retransmit_bits` and `recovery_rounds`.
    ///
    /// Delivery is always reliable: panics unless `reliable` is `true`,
    /// on an invalid plan (see [`FaultPlan::validate`]), or on a crash
    /// event naming a machine `≥ k`.
    pub fn install_faults(&mut self, plan: FaultPlan, reliable: bool) {
        assert!(reliable, "best-effort delivery is not supported");
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        for c in &plan.crashes {
            assert!(
                c.machine < self.cfg.k,
                "crash event machine {} out of range (k = {})",
                c.machine,
                self.cfg.k
            );
        }
        self.faults = Some(FaultCtx {
            plan,
            crash_log: Vec::new(),
        });
    }

    /// How many crash events have fired so far (a monotone cursor: callers
    /// snapshot it, run supersteps, and pass the snapshot to
    /// [`Bsp::crashed_since`] to learn what crashed in between).
    pub fn crash_count(&self) -> usize {
        self.faults.as_ref().map_or(0, |c| c.crash_log.len())
    }

    /// The machines that crashed since the `mark`-th crash event,
    /// deduplicated and ascending.
    pub fn crashed_since(&self, mark: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .faults
            .as_ref()
            .map_or(&[][..], |c| &c.crash_log[mark.min(c.crash_log.len())..])
            .iter()
            .map(|&(_, m)| m)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Attributes already-charged rounds and bits to recovery (the engine
    /// uses this for crash rollback: the aborted phase attempt and the
    /// checkpoint-restore barrier are real rounds/bits in `stats.rounds` /
    /// `stats.total_bits`; this marks them as recovery overhead without
    /// double-charging — callers pass only the portion the superstep layer
    /// has not already attributed).
    pub fn attribute_recovery(&mut self, rounds: u64, bits: u64) {
        self.stats.recovery_rounds += rounds;
        self.stats.retransmit_bits += bits;
    }

    /// Tracks bits crossing a machine bipartition (`side[i]` = machine `i`'s
    /// side). Used by the §4 Alice/Bob communication-complexity harness.
    pub fn set_cut(&mut self, side: Vec<bool>) {
        assert_eq!(side.len(), self.cfg.k);
        self.cut = Some(side);
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// The per-link budget `W` in bits per round.
    pub fn link_bits(&self) -> u64 {
        self.w
    }

    /// Executes one superstep: routes `outgoing` (any order), charges
    /// `max_link ⌈bits/W⌉` rounds, and appends to the receivers' inboxes.
    ///
    /// Self-addressed messages are delivered for free (local computation
    /// costs nothing in the model). A superstep with no cross-machine
    /// message charges zero rounds: it is not a communication step.
    ///
    /// With a fault plan installed ([`Bsp::install_faults`]) the superstep
    /// additionally bills the plan's faults and their recovery on top of
    /// the base superstep cost; delivery is unchanged.
    pub fn superstep(&mut self, outgoing: Vec<Envelope<M>>)
    where
        M: BatchWire,
    {
        self.superstep_outboxes(vec![outgoing]);
    }

    /// [`Bsp::superstep`] over a window handed over as outboxes, typically
    /// one per machine in machine order. The window is their concatenation:
    /// inboxes, charges and trace are exactly those of the flat superstep on
    /// it, but each envelope moves once, from its outbox straight into its
    /// receiver's pre-sized inbox, in window order.
    ///
    /// With a process transport installed, the window's cross-machine
    /// envelopes first cross the worker mesh and are delivered as decoded
    /// from the bytes that arrived.
    pub fn superstep_outboxes(&mut self, outboxes: Vec<Vec<Envelope<M>>>)
    where
        M: BatchWire,
    {
        let mut outboxes = outboxes;
        if self.transported() {
            let sent: Vec<(u64, &Envelope<M>)> = (0..)
                .zip(outboxes.iter().flatten())
                .filter(|(_, env)| !env.is_local())
                .collect();
            let back = self.round_trip(&sent);
            let slots = outboxes.iter_mut().flatten().filter(|env| !env.is_local());
            slots.zip(back).for_each(|(slot, env)| *slot = env);
        }
        let w = self.charge_window(outboxes.iter().flatten(), self.cfg.encoding);
        self.stats.naive_bits += w.naive;
        for (inbox, &arrivals) in self.inboxes.iter_mut().zip(&w.arrivals) {
            inbox.reserve(arrivals);
        }
        match self.faults.take() {
            None => {
                self.close_window(&w, || kind_histogram(&outboxes));
            }
            Some(mut ctx) => {
                self.bill_faults(w, &outboxes, &mut ctx);
                self.faults = Some(ctx);
            }
        }
        for env in outboxes.into_iter().flatten() {
            self.inboxes[env.dst].push(env);
        }
    }

    /// Groups one window's cross-machine messages by directed link and
    /// charges them. Two stable counting sorts, by destination and then by
    /// source, put each link's messages side by side in send order, in
    /// O(messages + k): no link without a message is ever visited. Each
    /// link's slice is priced under `encoding` (never zero: a message costs
    /// ≥ 1 bit) and booked into the sent / recv / cut counters.
    fn charge_window<'a>(
        &mut self,
        window: impl IntoIterator<Item = &'a Envelope<M>>,
        encoding: Encoding,
    ) -> Window
    where
        M: BatchWire + 'a,
    {
        let k = self.cfg.k;
        let mut arrivals = vec![0usize; k];
        let mut grouped: Vec<&Envelope<M>> = Vec::new();
        for env in window {
            assert!(env.src < k && env.dst < k, "bad machine id");
            arrivals[env.dst] += 1;
            if !env.is_local() {
                grouped.push(env);
            }
        }
        let mut by_dst = Vec::new();
        counting_sort(&grouped, k, |env| env.dst, &mut by_dst);
        counting_sort(&by_dst, k, |env| env.src, &mut grouped);
        let mut w = Window {
            links: Vec::new(),
            machine_out: vec![0; k],
            machine_in: vec![0; k],
            arrivals,
            total: 0,
            naive: 0,
            messages: grouped.len() as u64,
        };
        for link in grouped.chunk_by(|a, b| (a.src, a.dst) == (b.src, b.dst)) {
            let (src, dst) = (link[0].src, link[0].dst);
            let naive = link.iter().map(|env| env.bits.max(1)).sum();
            let bits = match encoding {
                Encoding::Naive => naive,
                Encoding::Varint => M::batch_wire_bits(link).max(1),
            };
            w.links.push((src as u32, dst as u32, bits));
            w.machine_out[src] += bits;
            w.machine_in[dst] += bits;
            w.total += bits;
            w.naive += naive;
            self.stats.sent_bits[src] += bits;
            self.stats.recv_bits[dst] += bits;
            if let Some(cut) = &self.cut {
                if cut[src] != cut[dst] {
                    self.stats.cut_bits += bits;
                }
            }
        }
        w
    }

    /// Closes the books on one delivery window — the only place a superstep
    /// is counted and the only `Superstep` emit site: prices the window's
    /// loads in rounds, books it into the run totals and traces it (`kinds`
    /// runs only when tracing is on). The trace event is the only
    /// per-superstep record. Returns the window's rounds.
    fn close_window(&mut self, w: &Window, kinds: impl FnOnce() -> Vec<(String, u64)>) -> u64 {
        let (max_link, rounds) = (w.max_link(), self.rounds(w));
        let (total, messages) = (w.total, w.messages);
        self.stats
            .record_superstep(rounds, total, messages, max_link);
        let index = self.stats.supersteps - 1;
        self.trace.emit(|| TraceEvent::Superstep {
            index,
            rounds,
            bits: total,
            messages,
            max_link_bits: max_link,
            links: w.links.clone(),
            kinds: kinds(),
        });
        rounds
    }

    /// Rounds one charged window costs under the configured §1.1
    /// restriction.
    fn rounds(&self, w: &Window) -> u64 {
        match self.cfg.cost_model {
            crate::bandwidth::CostModel::PerLink => w.max_link().div_ceil(self.w),
            crate::bandwidth::CostModel::PerMachine => {
                // §1.1 alternate view: each machine moves at most
                // W·(k−1) bits per round, send and receive separately.
                let budget = self.w * (self.cfg.k as u64 - 1);
                let max_machine = w
                    .machine_out
                    .iter()
                    .chain(&w.machine_in)
                    .copied()
                    .max()
                    .unwrap_or(0);
                max_machine.div_ceil(budget)
            }
        }
    }

    /// Bills one faulty window on top of its base charge `w` (DESIGN.md
    /// §3.10); the caller delivers it exactly as a fault-free window. Fates
    /// are keyed by window position alone, so the bill is the same under
    /// every encoding and transport. Spurious copies share the window;
    /// every lost message is re-sent in recovery rounds until it arrives
    /// (each retransmission rerolls the drop), and delayed ones land in the
    /// first. Copies and waves are priced at naive width — a re-send is
    /// not part of any encoded batch — and each recovery round costs one
    /// ack round plus its wave's rounds.
    fn bill_faults(&mut self, mut w: Window, window: &[Vec<Envelope<M>>], ctx: &mut FaultCtx)
    where
        M: BatchWire,
    {
        let s = self.stats.supersteps;
        let crashed = ctx.plan.crashes_at(s);
        ctx.crash_log.extend(crashed.iter().map(|&m| (s, m)));
        let (mut dropped, mut reordered, mut delayed) = (0u64, 0u64, 0u64);
        let mut copies = Vec::new();
        let mut lost = Vec::new();
        for (seq, env) in (0..).zip(window.iter().flatten()) {
            if env.is_local() {
                // Local messages never touch a link: no faults apply.
                continue;
            }
            if crashed.binary_search(&env.src).is_ok() || crashed.binary_search(&env.dst).is_ok() {
                // The crash event itself is the counted fault; every
                // message it loses still needs retransmitting.
                lost.push((seq, env));
            } else if ctx.plan.drops(s, 0, seq) {
                dropped += 1;
                lost.push((seq, env));
            } else if ctx.plan.delays(s, seq) {
                delayed += 1;
            } else {
                if ctx.plan.duplicates(s, seq) {
                    copies.push(env);
                }
                reordered += u64::from(ctx.plan.reorders(s, seq));
            }
        }
        let (duplicated, crashes) = (copies.len() as u64, crashed.len() as u64);
        self.stats.machine_crashes += crashes;
        self.stats.faults_injected += dropped + duplicated + reordered + delayed + crashes;
        // The window's rounds cover base and copies together; what the
        // copies add beyond the clean window is recovery overhead, so
        // `rounds − recovery_rounds` is the fault-free run's for every plan.
        let clean_rounds = self.rounds(&w);
        let dup = self.charge_window(copies, Encoding::Naive);
        self.stats.retransmit_bits += dup.total;
        self.stats.naive_bits += dup.naive;
        w.absorb(&dup);
        let rounds = self.close_window(&w, || kind_histogram(window));
        self.stats.recovery_rounds += rounds - clean_rounds;
        if dropped + duplicated + reordered + delayed + crashes > 0 {
            self.trace.emit(|| TraceEvent::Faults {
                superstep: s,
                dropped,
                duplicated,
                reordered,
                delayed,
                crashed: crashes,
            });
        }
        // Crashed machines are back up from the first recovery round
        // (crash-stop with immediate restart), so their traffic clears here
        // too. Senders retransmit from their durable send log; on a process
        // transport each wave crosses the worker mesh as its own window.
        let mut attempt = 1u64;
        while !lost.is_empty() || (attempt == 1 && delayed > 0) {
            assert!(
                attempt <= MAX_RECOVERY_ATTEMPTS,
                "fault plan starves superstep {s}: {} messages still \
                 outstanding after {} recovery rounds",
                lost.len(),
                attempt - 1
            );
            if self.transported() && !lost.is_empty() {
                self.round_trip(&lost);
            }
            let wave = self.charge_window(lost.iter().map(|&(_, env)| env), Encoding::Naive);
            self.stats.total_bits += wave.total;
            self.stats.retransmit_bits += wave.total;
            self.stats.naive_bits += wave.naive;
            let rounds = 1 + self.rounds(&wave);
            self.stats.rounds += rounds;
            self.stats.recovery_rounds += rounds;
            self.trace.emit(|| TraceEvent::Retransmit {
                superstep: s,
                attempt,
                messages: lost.len() as u64,
                bits: wave.total,
                rounds,
            });
            let faults = &mut self.stats.faults_injected;
            lost.retain(|&(seq, _)| {
                let again = ctx.plan.drops(s, attempt, seq);
                *faults += u64::from(again);
                again
            });
            attempt += 1;
        }
    }

    /// Takes machine `i`'s inbox (clearing it).
    pub fn take_inbox(&mut self, i: usize) -> Vec<Envelope<M>> {
        std::mem::take(&mut self.inboxes[i])
    }

    /// Takes all inboxes at once (indexed by machine).
    pub fn take_all_inboxes(&mut self) -> Vec<Vec<Envelope<M>>> {
        let k = self.cfg.k;
        (0..k)
            .map(|i| std::mem::take(&mut self.inboxes[i]))
            .collect()
    }

    /// Charges extra rounds for a modeled sub-protocol that is not executed
    /// message-by-message (e.g. the §2.2 shared-randomness distribution).
    /// `bits_from_one_machine` is attributed to machine `src`'s send load.
    pub fn charge_modeled_rounds(&mut self, rounds: u64, bits_from_one_machine: u64, src: usize) {
        self.stats.rounds += rounds;
        self.stats.total_bits += bits_from_one_machine;
        self.stats.naive_bits += bits_from_one_machine;
        if src < self.stats.sent_bits.len() {
            self.stats.sent_bits[src] += bits_from_one_machine;
        }
    }

    /// Charges one barrier round (e.g. a termination-detection exchange that
    /// moves O(k) tiny messages; the model still spends a round on it).
    pub fn charge_barrier(&mut self) {
        self.stats.rounds += 1;
    }

    /// Communication statistics so far.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Consumes the runner, returning its statistics.
    pub fn into_stats(self) -> CommStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::bandwidth::Bandwidth;
    use crate::message::WireSize;

    #[derive(Clone, Debug)]
    struct B(u64);
    impl WireSize for B {
        fn wire_bits(&self) -> u64 {
            self.0
        }
    }
    impl BatchWire for B {}

    fn cfg(k: usize, w: u64) -> NetworkConfig {
        NetworkConfig::new(k, Bandwidth::Bits(w), 64)
    }

    #[test]
    fn superstep_charges_max_link_rounds() {
        let mut bsp: Bsp<B> = Bsp::new(cfg(4, 10));
        bsp.superstep(vec![
            Envelope::new(0, 1, B(25)), // link (0,1): 25 bits -> 3 rounds
            Envelope::new(2, 3, B(10)), // 1 round, in parallel
            Envelope::new(3, 2, B(9)),
        ]);
        assert_eq!(bsp.stats().rounds, 3);
        assert_eq!(bsp.take_inbox(1).len(), 1);
        assert_eq!(bsp.take_inbox(2).len(), 1);
    }

    #[test]
    fn local_messages_are_free() {
        let mut bsp: Bsp<B> = Bsp::new(cfg(3, 10));
        bsp.superstep(vec![Envelope::new(1, 1, B(1_000_000))]);
        assert_eq!(bsp.stats().rounds, 0);
        assert_eq!(bsp.stats().total_bits, 0);
        assert_eq!(bsp.take_inbox(1).len(), 1);
    }

    #[test]
    fn empty_superstep_charges_nothing() {
        let mut bsp: Bsp<B> = Bsp::new(cfg(2, 10));
        bsp.superstep(vec![]);
        assert_eq!(bsp.stats().rounds, 0);
        assert_eq!(bsp.stats().supersteps, 1);
    }

    #[test]
    fn per_machine_cost_model_sandwich() {
        // For any batch: perMachine rounds ≤ perLink rounds ≤ (k−1)·perMachine
        // (the §1.1 equivalence up to a k−1 factor).
        use crate::bandwidth::CostModel;
        use krand::prf::Prf;
        let prf = Prf::new(31);
        for trial in 0..40u64 {
            let k = 3 + (prf.eval(0, trial) % 5) as usize;
            let w = 1 + prf.eval(1, trial) % 30;
            let msgs: Vec<(usize, usize, u64)> = (0..(prf.eval(2, trial) % 50))
                .map(|i| {
                    let s = prf.eval_mod(3, trial * 100 + i, k as u64) as usize;
                    let mut d = prf.eval_mod(4, trial * 100 + i, k as u64) as usize;
                    if d == s {
                        d = (d + 1) % k;
                    }
                    (s, d, 1 + prf.eval(5, trial * 100 + i) % 80)
                })
                .collect();
            let run = |model: CostModel| {
                let mut c = cfg(k, w);
                c.cost_model = model;
                let mut bsp: Bsp<B> = Bsp::new(c);
                bsp.superstep(
                    msgs.iter()
                        .map(|&(s, d, b)| Envelope::new(s, d, B(b)))
                        .collect(),
                );
                bsp.stats().rounds
            };
            let per_link = run(CostModel::PerLink);
            let per_machine = run(CostModel::PerMachine);
            assert!(per_machine <= per_link, "trial {trial}");
            assert!(
                per_link <= per_machine * (k as u64 - 1) + 1,
                "trial {trial}: {per_link} vs {per_machine} (k={k})"
            );
        }
    }

    #[test]
    fn per_machine_counts_send_and_receive_separately() {
        use crate::bandwidth::CostModel;
        // One machine receives from everyone: in-load drives the rounds.
        let k = 5;
        let mut c = cfg(k, 10);
        c.cost_model = CostModel::PerMachine;
        let mut bsp: Bsp<B> = Bsp::new(c);
        // Machine 0 receives 4 × 40 bits = 160; budget = 10·4 = 40/round.
        bsp.superstep((1..k).map(|s| Envelope::new(s, 0, B(40))).collect());
        assert_eq!(bsp.stats().rounds, 4);
    }

    #[test]
    fn cut_bits_track_the_bipartition() {
        let mut bsp: Bsp<B> = Bsp::new(cfg(4, 10));
        bsp.set_cut(vec![true, true, false, false]);
        bsp.superstep(vec![
            Envelope::new(0, 1, B(5)),  // same side: not counted
            Envelope::new(1, 2, B(7)),  // crossing
            Envelope::new(3, 0, B(11)), // crossing
            Envelope::new(2, 3, B(13)), // same side
        ]);
        assert_eq!(bsp.stats().cut_bits, 18);
        assert_eq!(bsp.stats().total_bits, 36);
    }

    #[test]
    fn modeled_charges_accumulate() {
        let mut bsp: Bsp<B> = Bsp::new(cfg(2, 10));
        bsp.charge_modeled_rounds(7, 140, 0);
        bsp.charge_barrier();
        assert_eq!(bsp.stats().rounds, 8);
        assert_eq!(bsp.stats().total_bits, 140);
        assert_eq!(bsp.stats().sent_bits[0], 140);
    }

    /// A payload whose varint batch price depends on which messages share
    /// a link, with two kind names for the trace histogram.
    #[derive(Clone, Debug, PartialEq)]
    struct Id(u64);
    impl WireSize for Id {
        fn wire_bits(&self) -> u64 {
            80
        }
    }
    impl BatchWire for Id {
        fn batch_wire_bits(batch: &[&Envelope<Self>]) -> u64 {
            let mut ids: Vec<u64> = batch.iter().map(|e| e.payload.0).collect();
            16 + crate::message::delta_varint_bits(&mut ids)
        }
        fn kind_name(&self) -> &'static str {
            ["even", "odd"][(self.0 % 2) as usize]
        }
    }

    /// A faulty superstep's whole bill, pinned: six seeded windows under
    /// per-machine pricing, a tracked cut and varint charging, with all
    /// five fault kinds firing. The fixture holds the `CommStats` `Debug`
    /// line, then the logical trace as JSONL.
    #[test]
    fn faulty_supersteps_bill_the_pinned_ledger() {
        use crate::bandwidth::CostModel;
        use crate::fault::FaultPlan;
        use crate::message::Encoding;
        use crate::trace::{to_jsonl, Tracer};
        use krand::prf::Prf;
        let k = 5;
        let mut c = cfg(k, 48);
        c.cost_model = CostModel::PerMachine;
        c.encoding = Encoding::Varint;
        let trace = Tracer::recording();
        let mut bsp: Bsp<Id> = Bsp::new(c);
        bsp.set_tracer(trace.clone());
        bsp.set_cut(vec![true, false, true, false, false]);
        let plan = FaultPlan::new(23)
            .with_drop(0.25)
            .with_dup(0.2)
            .with_reorder(0.3)
            .with_delay(0.15)
            .with_crash(3, 2);
        bsp.install_faults(plan, true);
        let prf = Prf::new(29);
        for step in 0..6u64 {
            let window = (0..20 + prf.eval_mod(0, step, 40))
                .map(|i| {
                    let at = step * 1_000 + i;
                    let src = prf.eval_mod(1, at, k as u64) as usize;
                    let dst = prf.eval_mod(2, at, k as u64) as usize;
                    Envelope::new(src, dst, Id(prf.eval_mod(3, at, 3_000)))
                })
                .collect();
            bsp.superstep(window);
        }
        let got = format!("{:?}\n{}", bsp.stats(), to_jsonl(&trace.events()));
        assert_eq!(got, include_str!("../fixtures/bsp_faulty_golden.txt"));
    }

    mod prop_tests {
        use super::*;
        use crate::bandwidth::CostModel;
        use crate::fault::FaultPlan;
        use crate::message::Encoding;
        use crate::trace::{TraceRecord, Tracer};
        use krand::prf::Prf;
        use proptest::prelude::*;

        /// Everything one superstep leaves behind: the inboxes, every
        /// `CommStats` field, and the logical trace.
        type Outcome = (Vec<Vec<u64>>, String, Vec<TraceRecord>);

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A window handed over as outboxes delivers, charges and traces
            /// exactly like the flat superstep on their concatenation, with
            /// or without a fault plan; faults never change the inboxes.
            #[test]
            fn outboxes_superstep_like_their_concatenation(seed in 0u64..1_000_000, k in 2usize..10) {
                let prf = Prf::new(seed);
                let mut c = cfg(k, 1 + prf.eval_mod(0, 0, 100));
                c.encoding = [Encoding::Naive, Encoding::Varint][prf.eval_mod(0, 1, 2) as usize];
                c.cost_model = [CostModel::PerLink, CostModel::PerMachine][prf.eval_mod(0, 2, 2) as usize];
                let cut = (prf.eval_mod(0, 3, 2) == 1)
                    .then(|| (0..k as u64).map(|m| prf.eval_mod(1, m, 2) == 1).collect::<Vec<_>>());
                let window: Vec<Envelope<Id>> = (0..prf.eval_mod(0, 4, 80))
                    .map(|i| {
                        let src = prf.eval_mod(2, i, k as u64) as usize;
                        // One message in four stays local.
                        let dst = if prf.eval_mod(3, i, 4) == 0 {
                            src
                        } else {
                            prf.eval_mod(4, i, k as u64) as usize
                        };
                        Envelope::new(src, dst, Id(prf.eval_mod(5, i, 5_000)))
                    })
                    .collect();
                // Random cut points, empty outboxes included.
                let mut outboxes = Vec::new();
                let mut rest = window.clone();
                for part in 0..prf.eval_mod(0, 5, 2 * k as u64) {
                    let take = prf.eval_mod(6, part, rest.len() as u64 + 1) as usize;
                    let tail = rest.split_off(take);
                    outboxes.push(std::mem::replace(&mut rest, tail));
                }
                outboxes.push(rest);
                // Half the cases run under every fault kind at once.
                let faults = (prf.eval_mod(0, 6, 2) == 1).then(|| {
                    FaultPlan::new(seed)
                        .with_drop(0.2)
                        .with_dup(0.2)
                        .with_reorder(0.2)
                        .with_delay(0.2)
                        .with_crash(prf.eval_mod(0, 7, k as u64) as usize, 0)
                });
                let run = |step: &dyn Fn(&mut Bsp<Id>)| -> Outcome {
                    let trace = Tracer::recording();
                    let mut bsp: Bsp<Id> = Bsp::new(c);
                    bsp.set_tracer(trace.clone());
                    if let Some(side) = &cut {
                        bsp.set_cut(side.clone());
                    }
                    if let Some(plan) = &faults {
                        bsp.install_faults(plan.clone(), true);
                    }
                    step(&mut bsp);
                    let inboxes = bsp.take_all_inboxes().into_iter();
                    let inboxes = inboxes.map(|inbox| inbox.into_iter().map(|e| e.payload.0).collect());
                    (inboxes.collect(), format!("{:?}", bsp.stats()), trace.events())
                };
                let flat = run(&|bsp| bsp.superstep(window.clone()));
                let split = run(&|bsp| bsp.superstep_outboxes(outboxes.clone()));
                // Each inbox is the window filtered by destination, in order.
                let expect: Vec<Vec<u64>> = (0..k)
                    .map(|m| window.iter().filter(|e| e.dst == m).map(|e| e.payload.0).collect())
                    .collect();
                prop_assert_eq!(&flat.0, &expect);
                prop_assert!(matches!(flat.2[..], [TraceRecord { event: TraceEvent::Superstep { .. }, .. }, ..]));
                prop_assert!(faults.is_some() || flat.2.len() == 1);
                prop_assert_eq!(&split.0, &flat.0);
                prop_assert_eq!(&split.1, &flat.1);
                prop_assert_eq!(&split.2, &flat.2);
            }
        }
    }
}

#[cfg(test)]
mod fault_tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::bandwidth::Bandwidth;

    use crate::fault::FaultPlan;
    use crate::message::WireSize;

    #[derive(Clone, Debug, PartialEq)]
    struct Tagged(u64); // payload id; fixed 16-bit wire size
    impl WireSize for Tagged {
        fn wire_bits(&self) -> u64 {
            16
        }
    }
    impl BatchWire for Tagged {}

    fn cfg(k: usize, w: u64) -> NetworkConfig {
        NetworkConfig::new(k, Bandwidth::Bits(w), 64)
    }

    /// A deterministic batch touching every ordered pair several times,
    /// with some local messages interleaved.
    fn batch(k: usize, per_pair: u64) -> Vec<Envelope<Tagged>> {
        let mut out = Vec::new();
        let mut id = 0;
        for r in 0..per_pair {
            for i in 0..k {
                for j in 0..k {
                    if i != j || r == 0 {
                        out.push(Envelope::new(i, j, Tagged(id)));
                        id += 1;
                    }
                }
            }
        }
        out
    }

    fn inboxes(bsp: &mut Bsp<Tagged>, k: usize) -> Vec<Vec<u64>> {
        (0..k)
            .map(|i| bsp.take_inbox(i).iter().map(|e| e.payload.0).collect())
            .collect()
    }

    #[test]
    fn reliable_mode_reconstructs_the_fault_free_inboxes_exactly() {
        let k = 5;
        let plan = FaultPlan::new(42)
            .with_drop(0.4)
            .with_dup(0.3)
            .with_reorder(0.5)
            .with_delay(0.2)
            .with_crash(2, 1);
        let mut clean: Bsp<Tagged> = Bsp::new(cfg(k, 32));
        let mut faulty: Bsp<Tagged> = Bsp::new(cfg(k, 32));
        faulty.install_faults(plan, true);
        for step in 0..4 {
            clean.superstep(batch(k, 2 + step));
            faulty.superstep(batch(k, 2 + step));
            assert_eq!(
                inboxes(&mut clean, k),
                inboxes(&mut faulty, k),
                "superstep {step}: recovered inboxes must be bit-identical"
            );
        }
        let (c, f) = (clean.stats(), faulty.stats());
        assert_eq!(c.faults_injected, 0);
        assert_eq!(c.retransmit_bits, 0);
        assert_eq!(c.recovery_rounds, 0);
        assert!(f.faults_injected > 0, "the plan must actually fire");
        assert!(f.retransmit_bits > 0);
        assert!(f.recovery_rounds > 0);
        assert_eq!(f.machine_crashes, 1);
        assert!(
            f.rounds > c.rounds && f.total_bits > c.total_bits,
            "masking faults must cost extra rounds and bits"
        );
        // The recovery overhead is separable: base accounting matches the
        // fault-free run after subtracting the recovery counters (the base
        // attempt is charged identically; extras are dup + retransmit).
        assert_eq!(f.total_bits - f.retransmit_bits, c.total_bits);
        assert_eq!(f.rounds - f.recovery_rounds, c.rounds);
        assert_eq!(f.messages, c.messages, "logical message count unchanged");
        assert_eq!(f.supersteps, c.supersteps);
    }

    #[test]
    fn delay_only_plans_cost_recovery_rounds_but_no_retransmissions() {
        let k = 3;
        let mut bsp: Bsp<Tagged> = Bsp::new(cfg(k, 64));
        bsp.install_faults(FaultPlan::new(5).with_delay(0.5), true);
        bsp.superstep(batch(k, 4));
        let s = bsp.stats();
        assert!(s.faults_injected > 0);
        assert_eq!(s.retransmit_bits, 0, "delays are in flight, never re-sent");
        assert!(s.recovery_rounds > 0, "late arrivals need a recovery round");
    }

    #[test]
    fn dup_only_plans_cost_retransmit_bits_but_no_recovery_rounds() {
        let k = 3;
        // Wide links: the duplicate traffic fits the same one-round window,
        // so the only observable overhead is its bits.
        let mut bsp: Bsp<Tagged> = Bsp::new(cfg(k, 1 << 20));
        bsp.install_faults(FaultPlan::new(5).with_dup(0.5), true);
        bsp.superstep(batch(k, 4));
        let s = bsp.stats();
        assert!(s.faults_injected > 0);
        assert!(s.retransmit_bits > 0, "spurious copies are real traffic");
        assert_eq!(s.recovery_rounds, 0, "nothing was lost");
    }

    #[test]
    fn crash_events_fire_once_and_are_queryable() {
        let k = 4;
        let mut bsp: Bsp<Tagged> = Bsp::new(cfg(k, 32));
        bsp.install_faults(FaultPlan::new(1).with_crash(3, 0).with_crash(1, 2), true);
        assert_eq!(bsp.crash_count(), 0);
        bsp.superstep(batch(k, 1)); // superstep 0: machine 3 crashes
        assert_eq!(bsp.crash_count(), 1);
        assert_eq!(bsp.crashed_since(0), vec![3]);
        let mark = bsp.crash_count();
        bsp.superstep(batch(k, 1)); // superstep 1: nothing scheduled
        assert_eq!(bsp.crashed_since(mark), Vec::<usize>::new());
        bsp.superstep(batch(k, 1)); // superstep 2: machine 1 crashes
        assert_eq!(bsp.crashed_since(mark), vec![1]);
        assert_eq!(bsp.stats().machine_crashes, 2);
        // Everything the crashes lost was retransmitted.
        assert!(bsp.stats().retransmit_bits > 0);
        let mut clean: Bsp<Tagged> = Bsp::new(cfg(k, 32));
        for _ in 0..3 {
            clean.superstep(batch(k, 1));
        }
        assert_eq!(inboxes(&mut bsp, k), inboxes(&mut clean, k));
    }

    #[test]
    #[should_panic(expected = "best-effort delivery is not supported")]
    fn best_effort_installs_are_rejected() {
        let mut bsp: Bsp<Tagged> = Bsp::new(cfg(2, 8));
        bsp.install_faults(FaultPlan::new(9).with_drop(0.3), false);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn crash_events_must_name_a_real_machine() {
        let mut bsp: Bsp<Tagged> = Bsp::new(cfg(2, 8));
        bsp.install_faults(FaultPlan::new(0).with_crash(5, 0), true);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn unrecoverable_plans_are_rejected_at_install() {
        let mut bsp: Bsp<Tagged> = Bsp::new(cfg(2, 8));
        bsp.install_faults(FaultPlan::new(0).with_drop(1.0), true);
    }
}

#[cfg(test)]
mod encoding_tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::bandwidth::Bandwidth;

    use crate::fault::FaultPlan;
    use crate::message::{delta_varint_bits, Encoding, WireSize};

    /// An id-carrying payload with a compressible batch encoding: naively a
    /// 16-bit tag plus a 64-bit id per message; batched, one shared tag
    /// plus a delta-sorted varint id run.
    #[derive(Clone, Debug, PartialEq)]
    struct Id(u64);
    impl WireSize for Id {
        fn wire_bits(&self) -> u64 {
            16 + 64
        }
    }
    impl BatchWire for Id {
        fn batch_wire_bits(batch: &[&Envelope<Self>]) -> u64 {
            let mut ids: Vec<u64> = batch.iter().map(|e| e.payload.0).collect();
            16 + delta_varint_bits(&mut ids)
        }
    }

    fn cfg(k: usize, w: u64, encoding: Encoding) -> NetworkConfig {
        let mut c = NetworkConfig::new(k, Bandwidth::Bits(w), 64);
        c.encoding = encoding;
        c
    }

    /// A batch of clustered ids on two links plus a local message.
    fn batch() -> Vec<Envelope<Id>> {
        let mut out: Vec<Envelope<Id>> = (500..540).map(|i| Envelope::new(0, 1, Id(i))).collect();
        out.push(Envelope::new(2, 0, Id(7)));
        out.push(Envelope::new(1, 1, Id(99))); // local: free, uncounted
        out
    }

    #[test]
    fn varint_charges_the_batch_encoder_size_exactly() {
        let mut bsp: Bsp<Id> = Bsp::new(cfg(3, 8, Encoding::Varint));
        bsp.superstep(batch());
        let s = bsp.stats();
        // Link (0,1): shared tag + varint(500) + 39 one-byte deltas.
        let link01 = 16 + 16 + 39 * 8;
        // Link (2,0): shared tag + varint(7).
        let link20 = 16 + 8;
        assert_eq!(s.total_bits, link01 + link20);
        assert_eq!(s.max_link_bits, link01);
        assert_eq!(s.naive_bits, 41 * 80, "oracle is the per-message sum");
        assert_eq!(s.rounds, link01.div_ceil(8));
        assert_eq!(s.sent_bits[0], link01);
        assert_eq!(s.recv_bits[1], link01);
        assert_eq!(s.messages, 41);
    }

    #[test]
    fn naive_total_is_the_oracle_and_varint_beats_it() {
        let mut naive: Bsp<Id> = Bsp::new(cfg(3, 8, Encoding::Naive));
        let mut varint: Bsp<Id> = Bsp::new(cfg(3, 8, Encoding::Varint));
        naive.superstep(batch());
        varint.superstep(batch());
        let (n, v) = (naive.stats(), varint.stats());
        assert_eq!(n.total_bits, n.naive_bits, "naive charges the oracle");
        assert_eq!(v.naive_bits, n.total_bits, "same oracle across encodings");
        assert!(v.total_bits < n.total_bits, "clustered ids must compress");
        assert!(v.rounds < n.rounds);
        // Delivery is encoding-independent: identical inboxes, same order.
        for m in 0..3 {
            let a: Vec<Id> = naive.take_inbox(m).into_iter().map(|e| e.payload).collect();
            let b: Vec<Id> = varint
                .take_inbox(m)
                .into_iter()
                .map(|e| e.payload)
                .collect();
            assert_eq!(a, b, "machine {m}");
        }
    }

    #[test]
    fn separability_identities_hold_under_varint_faults() {
        let plan = FaultPlan::new(12)
            .with_drop(0.35)
            .with_dup(0.25)
            .with_reorder(0.4)
            .with_delay(0.15)
            .with_crash(1, 1);
        let mut clean: Bsp<Id> = Bsp::new(cfg(3, 32, Encoding::Varint));
        let mut faulty: Bsp<Id> = Bsp::new(cfg(3, 32, Encoding::Varint));
        faulty.install_faults(plan, true);
        for _ in 0..3 {
            clean.superstep(batch());
            faulty.superstep(batch());
        }
        let (c, f) = (clean.stats(), faulty.stats());
        assert!(f.faults_injected > 0, "the plan must fire");
        // Recovery overhead is separable per encoding: base accounting is
        // the clean varint charge, extras are naive-charged re-sends.
        assert_eq!(f.total_bits - f.retransmit_bits, c.total_bits);
        assert_eq!(f.rounds - f.recovery_rounds, c.rounds);
        assert_eq!(f.messages, c.messages);
        for m in 0..3 {
            let a: Vec<Id> = clean.take_inbox(m).into_iter().map(|e| e.payload).collect();
            let b: Vec<Id> = faulty
                .take_inbox(m)
                .into_iter()
                .map(|e| e.payload)
                .collect();
            assert_eq!(a, b, "reliable recovery must mask faults (machine {m})");
        }
    }
}

#[cfg(all(test, not(miri)))] // thread mesh over real sockets; outside Miri's syscall model
mod proc_conformance {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    //! Thread-mode transport conformance: the same seeds must yield
    //! bit-identical inboxes and identical logical [`CommStats`] whether a
    //! window crosses real Unix-domain sockets or stays in the in-process
    //! simulator (the accounting oracle). The root `tests/transport.rs`
    //! matrix pins the same contract across genuine OS processes and full
    //! algorithm runs; these cells keep the guarantee reachable from
    //! `cargo test -p kmachine` with no worker binary.

    use super::*;
    use crate::bandwidth::Bandwidth;
    use crate::message::Encoding;
    use crate::transport::ProcTransport;
    use crate::FaultPlan;
    use krand::prf::Prf;

    fn batch(prf: &Prf, k: usize, step: u64, len: u64) -> Vec<Envelope<u64>> {
        (0..len)
            .map(|i| {
                let src = prf.eval_mod(10, step * 1_000 + i, k as u64) as usize;
                let dst = prf.eval_mod(11, step * 1_000 + i, k as u64) as usize;
                Envelope::new(src, dst, prf.eval(12, step * 1_000 + i))
            })
            .collect()
    }

    /// Runs six seeded supersteps and returns `(inboxes, stats)`.
    fn run(
        seed: u64,
        k: usize,
        encoding: Encoding,
        plan: Option<FaultPlan>,
        proc_mode: bool,
    ) -> (Vec<Vec<u64>>, CommStats) {
        let mut cfg = NetworkConfig::new(k, Bandwidth::Bits(32), 256);
        cfg.encoding = encoding;
        let mut bsp: Bsp<u64> = Bsp::new(cfg);
        if proc_mode {
            bsp.set_transport(Box::new(ProcTransport::threads(k).expect("thread mesh")));
        }
        if let Some(p) = plan {
            bsp.install_faults(p, true);
        }
        let prf = Prf::new(seed);
        for step in 0..6u64 {
            let len = prf.eval(9, step) % 30;
            bsp.superstep(batch(&prf, k, step, len));
        }
        let inboxes = (0..k)
            .map(|m| bsp.take_inbox(m).into_iter().map(|e| e.payload).collect())
            .collect();
        (inboxes, bsp.into_stats())
    }

    fn assert_conformant(sim: (Vec<Vec<u64>>, CommStats), phys: (Vec<Vec<u64>>, CommStats)) {
        assert_eq!(sim.0, phys.0, "inboxes must be bit-identical");
        let (s, p) = (sim.1, phys.1);
        assert_eq!(s.rounds, p.rounds);
        assert_eq!(s.total_bits, p.total_bits);
        assert_eq!(s.naive_bits, p.naive_bits);
        assert_eq!(s.messages, p.messages);
        assert_eq!(s.supersteps, p.supersteps);
        assert_eq!(s.faults_injected, p.faults_injected);
        assert_eq!(s.retransmit_bits, p.retransmit_bits);
        assert_eq!(s.recovery_rounds, p.recovery_rounds);
        assert_eq!(s.sent_bits, p.sent_bits);
        assert_eq!(s.recv_bits, p.recv_bits);
    }

    #[test]
    fn thread_mesh_matches_sim_fault_free() {
        for seed in [3u64, 77] {
            assert_conformant(
                run(seed, 4, Encoding::Naive, None, false),
                run(seed, 4, Encoding::Naive, None, true),
            );
        }
    }

    #[test]
    fn thread_mesh_matches_sim_under_varint() {
        assert_conformant(
            run(11, 3, Encoding::Varint, None, false),
            run(11, 3, Encoding::Varint, None, true),
        );
    }

    #[test]
    fn thread_mesh_matches_sim_under_faults() {
        let plan = || {
            FaultPlan::new(42)
                .with_drop(0.2)
                .with_dup(0.1)
                .with_reorder(0.15)
        };
        // Retransmission waves re-cross the physical mesh; the logical
        // accounting (including recovery overhead) must not notice.
        assert_conformant(
            run(5, 3, Encoding::Naive, Some(plan()), false),
            run(5, 3, Encoding::Naive, Some(plan()), true),
        );
        assert_conformant(
            run(5, 3, Encoding::Varint, Some(plan()), false),
            run(5, 3, Encoding::Varint, Some(plan()), true),
        );
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(10))]

            /// Satellite pin (ISSUE 7): random superstep batches round-trip
            /// the real wire codec — every window is varint-framed, shipped
            /// over sockets, decoded, and must reproduce the simulator's
            /// inboxes and stats exactly.
            #[test]
            fn random_windows_round_trip_the_real_codec(
                seed in 0u64..1_000_000,
                k in 2usize..5,
            ) {
                let sim = run(seed, k, Encoding::Varint, None, false);
                let phys = run(seed, k, Encoding::Varint, None, true);
                prop_assert_eq!(&sim.0, &phys.0);
                prop_assert_eq!(sim.1.total_bits, phys.1.total_bits);
                prop_assert_eq!(sim.1.rounds, phys.1.rounds);
                prop_assert_eq!(sim.1.naive_bits, phys.1.naive_bits);
            }
        }
    }
}
