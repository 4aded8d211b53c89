//! The network runtime (DESIGN.md §6): every communicating path — the
//! engine, the dynamic tiers, Theorem 2(b)'s routing, Theorem 4's final
//! compare, the baselines — opens a [`Net`] from an [`EngineConfig`] and
//! talks only through it, so each honours every network knob. The [`Bsp`]
//! inside is private: nothing else prices an envelope or takes an inbox.

use crate::engine::EngineConfig;
use crate::messages::{id_bits, Payload};
use kmachine::bsp::Bsp;
use kmachine::message::Envelope;
use kmachine::metrics::CommStats;
use kmachine::network::NetworkConfig;
use kmachine::trace::{TraceEvent, Tracer};
use kmachine::transport::{ProcTransport, TransportSel};
use krand::shared::SharedRandomness;

/// A mailbox: what an exchange delivered to a machine, or what it sends.
pub(crate) type Mail = Vec<Envelope<Payload>>;

/// A snapshot of the four counters every span of a run is attributed by;
/// the difference of two snapshots is the cost of the span between them.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Ledger {
    pub(crate) rounds: u64,
    pub(crate) total_bits: u64,
    pub(crate) recovery_rounds: u64,
    pub(crate) retransmit_bits: u64,
}

impl std::ops::Sub for Ledger {
    type Output = Ledger;

    fn sub(self, since: Ledger) -> Ledger {
        Ledger {
            rounds: self.rounds - since.rounds,
            total_bits: self.total_bits - since.total_bits,
            recovery_rounds: self.recovery_rounds - since.recovery_rounds,
            retransmit_bits: self.retransmit_bits - since.retransmit_bits,
        }
    }
}

/// The width a message is priced at: ids and labels at `l = ⌈log₂ n⌉`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Price {
    pub(crate) l: u64,
}

impl Price {
    /// Wraps `payload` for the link `src → dst` — the one place a message
    /// meets its [`Payload::wire_bits`] charge.
    fn wrap(self, src: usize, dst: usize, payload: Payload) -> Envelope<Payload> {
        let bits = payload.wire_bits(self.l);
        Envelope::with_bits(src, dst, payload, bits)
    }

    /// Machine `src`'s sends of one step, collecting in `buf`.
    pub(crate) fn out(self, src: usize, buf: Mail) -> Out {
        let price = self;
        Out { src, price, buf }
    }
}

/// One machine's sends of an engine step: [`Net::send`] for a closure that
/// may run on a worker thread; the engine posts them afterwards.
pub(crate) struct Out {
    src: usize,
    price: Price,
    buf: Mail,
}

impl Out {
    pub(crate) fn send(&mut self, dst: usize, payload: Payload) {
        self.buf.push(self.price.wrap(self.src, dst, payload));
    }

    pub(crate) fn into_mail(self) -> Mail {
        self.buf
    }
}

/// One superstep runner over `k` machines. A protocol that used to open
/// its own runner opens its own `Net` — crash events and `Superstep.index`
/// are keyed by the per-runner superstep counter — and one that skips an
/// exchange when it has nothing to send asks [`Net::idle`] (DESIGN.md §6).
pub(crate) struct Net {
    bsp: Bsp<Payload>,
    trace: Tracer,
    price: Price,
    /// [`EngineConfig::charge_shared_randomness`].
    charge_shared: bool,
    /// Sends since the last exchange, as the outboxes they arrived in.
    out: Vec<Mail>,
}

impl Net {
    /// The network `cfg` charges: `k` machines over an `n`-vertex input.
    /// The fault plan is always installed reliable; [`TransportSel::Sim`]
    /// installs no bridge, so the simulator stays the accounting oracle
    /// (DESIGN.md §3.12).
    pub(crate) fn new(cfg: &EngineConfig, k: usize, n: usize) -> Self {
        let mut bsp = Bsp::new(NetworkConfig {
            k,
            bandwidth: cfg.bandwidth,
            n,
            cost_model: cfg.cost_model,
            encoding: cfg.encoding,
        });
        if let Some(plan) = cfg.faults.clone() {
            bsp.install_faults(plan, true);
        }
        if cfg.transport == TransportSel::Proc {
            let mesh = ProcTransport::processes(k)
                .unwrap_or_else(|e| panic!("spawning {k} transport workers: {e}"));
            bsp.set_transport(Box::new(mesh));
        }
        bsp.set_tracer(cfg.trace.clone());
        Net {
            bsp,
            trace: cfg.trace.clone(),
            price: Price { l: id_bits(n) },
            charge_shared: cfg.charge_shared_randomness,
            out: Vec::new(),
        }
    }

    /// The pricing width.
    pub(crate) fn price(&self) -> Price {
        self.price
    }

    /// Queues `payload` on the link `src → dst` for the next exchange and
    /// returns the bits it is priced at.
    pub(crate) fn send(&mut self, src: usize, dst: usize, payload: Payload) -> u64 {
        let env = self.price.wrap(src, dst, payload);
        let bits = env.bits;
        match self.out.last_mut() {
            Some(mail) => mail.push(env),
            None => self.out.push(vec![env]),
        }
        bits
    }

    /// Queues already-priced outboxes for the next exchange, by move.
    pub(crate) fn post(&mut self, outboxes: impl IntoIterator<Item = Mail>) {
        self.out
            .extend(outboxes.into_iter().filter(|mail| !mail.is_empty()));
    }

    /// Whether nothing has been sent since the last exchange.
    pub(crate) fn idle(&self) -> bool {
        self.out.is_empty()
    }

    /// One superstep over the queued outboxes: each message moves once,
    /// into its receiver's inbox, and every inbox is handed over (indexed
    /// by machine).
    pub(crate) fn exchange(&mut self) -> Vec<Mail> {
        self.bsp.superstep_outboxes(std::mem::take(&mut self.out));
        self.bsp.take_all_inboxes()
    }

    /// The two-superstep 1-bit convergence exchange of the baselines
    /// (machines → M0 → machines), counted like the core algorithm's.
    pub(crate) fn flag_exchange(&mut self) {
        for up in [true, false] {
            for m in 1..self.bsp.config().k {
                let (src, dst) = if up { (m, 0) } else { (0, m) };
                self.send(src, dst, Payload::Flag { bit: true });
            }
            self.exchange();
        }
    }

    /// Charges M1's distribution of `bits` shared random bits to every
    /// machine (§2.2), if the run charges shared randomness: modeled
    /// rounds, not executed message by message.
    pub(crate) fn charge_distribution(&mut self, bits: u64) {
        if self.charge_shared {
            let k = self.bsp.config().k;
            let rounds = SharedRandomness::distribution_rounds(bits, k, self.bsp.link_bits());
            self.bsp.charge_modeled_rounds(rounds, bits, 0);
        }
    }

    /// Books the span since `since` as an aborted attempt: its rounds and
    /// bits plus one restart barrier are attributed to recovery — minus what
    /// the superstep layer already attributed, so the identities `rounds −
    /// recovery_rounds` / `total_bits − retransmit_bits` = the fault-free
    /// run's stay exact when the attempt is replayed.
    pub(crate) fn charge_restart(&mut self, since: Ledger) {
        let wasted = self.ledger() - since;
        self.bsp.charge_barrier();
        self.bsp.attribute_recovery(
            wasted.rounds - wasted.recovery_rounds + 1,
            wasted.total_bits - wasted.retransmit_bits,
        );
    }

    /// How many crash events have fired (see [`Bsp::crash_count`]).
    pub(crate) fn crash_count(&self) -> usize {
        self.bsp.crash_count()
    }

    /// The machines that crashed since the `mark`-th crash event.
    pub(crate) fn crashed_since(&self, mark: usize) -> Vec<usize> {
        self.bsp.crashed_since(mark)
    }

    /// Tracks an Alice/Bob machine bipartition (§4 harness).
    pub(crate) fn set_cut(&mut self, side: Vec<bool>) {
        self.bsp.set_cut(side);
    }

    /// Communication statistics so far.
    pub(crate) fn stats(&self) -> &CommStats {
        self.bsp.stats()
    }

    /// The ledger so far.
    pub(crate) fn ledger(&self) -> Ledger {
        let stats = self.bsp.stats();
        Ledger {
            rounds: stats.rounds,
            total_bits: stats.total_bits,
            recovery_rounds: stats.recovery_rounds,
            retransmit_bits: stats.retransmit_bits,
        }
    }

    /// Emits the span since `since` as a named [`TraceEvent::Segment`] row.
    pub(crate) fn emit_segment(&self, name: &str, since: Ledger) {
        let span = self.ledger() - since;
        self.trace.emit(|| TraceEvent::Segment {
            name: name.to_string(),
            rounds: span.rounds,
            bits: span.total_bits,
            recovery_rounds: span.recovery_rounds,
            retransmit_bits: span.retransmit_bits,
        });
    }

    /// Ends the runner and returns its statistics. A protocol whose cost is
    /// absorbed into a reported total names its `segment`, so the traced
    /// breakdown keeps tiling that total (DESIGN.md §3.14).
    pub(crate) fn finish(self, segment: Option<&str>) -> CommStats {
        debug_assert!(self.idle(), "sends queued after the last exchange");
        if let Some(name) = segment {
            self.emit_segment(name, Ledger::default());
        }
        self.bsp.into_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmachine::bandwidth::{Bandwidth, CostModel};
    use kmachine::fault::FaultPlan;
    use kmachine::message::Encoding;

    /// 64 relabels down the single link 0 → 1 of a 4-machine network.
    fn one_busy_link(cfg: &EngineConfig) -> CommStats {
        let mut net = Net::new(cfg, 4, 1000);
        for old in 0..64 {
            net.send(0, 1, Payload::Relabel { old, new: 0 });
        }
        let inboxes = net.exchange();
        assert_eq!(inboxes[1].len(), 64, "delivery is exact under every knob");
        net.finish(None)
    }

    #[test]
    fn one_exchange_honours_every_network_knob() {
        let plain = EngineConfig {
            bandwidth: Bandwidth::Bits(64),
            ..EngineConfig::default()
        };
        let base = one_busy_link(&plain);
        let knobs = EngineConfig {
            encoding: Encoding::Varint,
            cost_model: CostModel::PerMachine,
            faults: Some(FaultPlan::new(7).with_drop(0.3)),
            trace: Tracer::recording(),
            ..plain
        };
        let stats = one_busy_link(&knobs);
        assert!(
            stats.total_bits - stats.retransmit_bits < base.total_bits,
            "the batch is priced under the varint codec"
        );
        assert_eq!(stats.naive_bits - stats.retransmit_bits, base.total_bits);
        assert!(
            stats.rounds - stats.recovery_rounds < base.rounds,
            "one busy link is cheaper when a machine may spread W·(k−1) bits"
        );
        assert!(stats.retransmit_bits > 0, "the drop plan is installed");
        let supersteps = knobs.trace.events();
        let supersteps = supersteps
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Superstep { .. }));
        assert_eq!(supersteps.count(), 1, "the tracer is installed");
    }
}
