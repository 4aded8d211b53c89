//! Communication accounting.
//!
//! Everything the experiments report comes from here: the round counter
//! (the model's cost measure), bit totals, per-machine loads (the §2
//! congestion arguments are about machines receiving too much), and the
//! two running sums behind the Lemma 1 link-balance ratio. Every field is
//! fixed-size: per-superstep loads live only in the logical trace's
//! `Superstep` events (DESIGN.md §3.14).

/// Cumulative communication statistics for one algorithm run.
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    /// Total synchronous rounds — the model's cost measure.
    pub rounds: u64,
    /// Number of supersteps (message batches) executed.
    pub supersteps: u64,
    /// Total cross-machine messages.
    pub messages: u64,
    /// Total cross-machine bits.
    pub total_bits: u64,
    /// Bits on the heaviest directed link of any single superstep: the
    /// max over supersteps of each one's `max_link_bits`, never a sum
    /// across supersteps.
    pub max_link_bits: u64,
    /// Bits sent by each machine.
    pub sent_bits: Vec<u64>,
    /// Bits received by each machine.
    pub recv_bits: Vec<u64>,
    /// Bits that crossed the tracked machine bipartition, when one is set
    /// (the §4 Alice/Bob simulation harness).
    pub cut_bits: u64,
    /// Faults injected by an installed [`crate::fault::FaultPlan`]: every
    /// dropped, duplicated, reordered or delayed message plus every crash
    /// event. Exactly `0` when no plan is installed or the plan never
    /// fires — fault-free accounting is untouched.
    pub faults_injected: u64,
    /// Bits spent re-sending: retransmissions of lost messages by the
    /// ack/retransmit protocol plus spurious duplicate transmissions.
    /// Counted into `total_bits` as well (they are real traffic); this
    /// counter isolates the recovery overhead.
    pub retransmit_bits: u64,
    /// Rounds spent on recovery: the per-superstep ack/retransmit rounds
    /// of the reliable-delivery protocol plus rounds an engine attributes
    /// to crash rollback (aborted-phase work and checkpoint restore).
    /// Counted into `rounds` as well; this counter isolates the overhead.
    pub recovery_rounds: u64,
    /// Machine crash events that fired.
    pub machine_crashes: u64,
    /// What `total_bits` would have been under per-message
    /// [`crate::message::Encoding::Naive`] accounting. Always accumulated,
    /// whatever encoding is charged, so a varint run carries its own oracle:
    /// under `Encoding::Naive` this equals `total_bits` exactly, and under
    /// `Encoding::Varint` the ratio `total_bits / naive_bits` is the
    /// measured compression.
    pub naive_bits: u64,
    /// Supersteps that moved at least one bit: the samples of
    /// [`CommStats::link_imbalance`].
    busy_supersteps: u64,
    /// Σ `max_link_bits / total_bits` over the busy supersteps.
    link_share_sum: f64,
}

impl CommStats {
    /// Fresh statistics for `k` machines.
    pub fn new(k: usize) -> Self {
        CommStats {
            sent_bits: vec![0; k],
            recv_bits: vec![0; k],
            ..Default::default()
        }
    }

    /// The heaviest per-machine receive load — the quantity the paper's
    /// Ω~(n/k) arguments are about.
    pub fn max_machine_recv_bits(&self) -> u64 {
        self.recv_bits.iter().copied().max().unwrap_or(0)
    }

    /// Books one superstep: its rounds, charged bits, cross-machine
    /// messages and heaviest directed link. The only place a superstep
    /// enters the totals (`Bsp` calls it once per delivery window), and
    /// the one owner of the [`CommStats::link_imbalance`] formula.
    pub fn record_superstep(&mut self, rounds: u64, bits: u64, messages: u64, max_link_bits: u64) {
        self.rounds += rounds;
        self.supersteps += 1;
        self.messages += messages;
        self.total_bits += bits;
        self.max_link_bits = self.max_link_bits.max(max_link_bits);
        if bits > 0 {
            self.busy_supersteps += 1;
            self.link_share_sum += max_link_bits as f64 / bits as f64;
        }
    }

    /// Load-balance ratio over the supersteps that moved bits: the mean of
    /// `max_link_bits / (total_bits / links)`. A value close to 1 means
    /// perfectly even link usage; Lemma 1 predicts O(polylog) for proxy
    /// routing. Returns `0.0` when the ratio is undefined: a degenerate
    /// `links == 0` topology, or no superstep that moved a bit.
    ///
    /// `min_bits` must be `0` or `1`; both select exactly the supersteps
    /// that moved bits. A higher threshold cannot be answered from running
    /// sums: filter the trace's `Superstep` events and book the survivors
    /// into a fresh `CommStats` with [`CommStats::record_superstep`].
    pub fn link_imbalance(&self, links: u64, min_bits: u64) -> f64 {
        assert!(
            min_bits <= 1,
            "link_imbalance keeps no per-superstep loads: min_bits {min_bits} > 1 \
             needs the trace's Superstep events"
        );
        if links == 0 || self.busy_supersteps == 0 {
            return 0.0;
        }
        links as f64 * self.link_share_sum / self.busy_supersteps as f64
    }

    /// Folds another run's statistics into this one (used when an algorithm
    /// invokes a sub-protocol that kept its own counters).
    pub fn absorb(&mut self, other: &CommStats) {
        self.rounds += other.rounds;
        self.supersteps += other.supersteps;
        self.messages += other.messages;
        self.total_bits += other.total_bits;
        self.max_link_bits = self.max_link_bits.max(other.max_link_bits);
        if self.sent_bits.len() < other.sent_bits.len() {
            self.sent_bits.resize(other.sent_bits.len(), 0);
            self.recv_bits.resize(other.recv_bits.len(), 0);
        }
        for (a, b) in self.sent_bits.iter_mut().zip(&other.sent_bits) {
            *a += b;
        }
        for (a, b) in self.recv_bits.iter_mut().zip(&other.recv_bits) {
            *a += b;
        }
        self.cut_bits += other.cut_bits;
        self.faults_injected += other.faults_injected;
        self.retransmit_bits += other.retransmit_bits;
        self.recovery_rounds += other.recovery_rounds;
        self.machine_crashes += other.machine_crashes;
        self.naive_bits += other.naive_bits;
        self.busy_supersteps += other.busy_supersteps;
        self.link_share_sum += other.link_share_sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = CommStats::new(2);
        a.rounds = 5;
        a.total_bits = 100;
        a.sent_bits[0] = 60;
        a.max_link_bits = 40;
        let mut b = CommStats::new(2);
        b.rounds = 3;
        b.total_bits = 50;
        b.sent_bits[1] = 50;
        b.max_link_bits = 50;
        a.absorb(&b);
        assert_eq!(a.rounds, 8);
        assert_eq!(a.total_bits, 150);
        assert_eq!(a.sent_bits, vec![60, 50]);
        assert_eq!(a.max_link_bits, 50);
    }

    #[test]
    fn absorb_accumulates_fault_counters() {
        let mut a = CommStats::new(2);
        a.faults_injected = 3;
        a.retransmit_bits = 40;
        a.recovery_rounds = 2;
        a.machine_crashes = 1;
        let mut b = CommStats::new(2);
        b.faults_injected = 7;
        b.retransmit_bits = 5;
        b.recovery_rounds = 9;
        a.absorb(&b);
        assert_eq!(a.faults_injected, 10);
        assert_eq!(a.retransmit_bits, 45);
        assert_eq!(a.recovery_rounds, 11);
        assert_eq!(a.machine_crashes, 1);
    }

    #[test]
    fn absorb_accumulates_the_naive_oracle() {
        let mut a = CommStats::new(2);
        a.naive_bits = 100;
        let mut b = CommStats::new(2);
        b.naive_bits = 42;
        a.absorb(&b);
        assert_eq!(a.naive_bits, 142);
    }

    #[test]
    fn record_superstep_books_the_totals() {
        let mut s = CommStats::new(2);
        s.record_superstep(3, 120, 12, 20);
        s.record_superstep(1, 30, 2, 25);
        assert_eq!(
            (s.rounds, s.supersteps, s.messages, s.total_bits),
            (4, 2, 14, 150)
        );
        assert_eq!(s.max_link_bits, 25, "the heaviest single superstep's link");
    }

    #[test]
    fn imbalance_of_even_load_is_one() {
        let mut s = CommStats::new(4);
        // 12 links, 120 bits total, max link 10 => perfectly even.
        s.record_superstep(1, 120, 12, 10);
        let r = s.link_imbalance(12, 1);
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_of_zero_links_is_zero_not_a_division() {
        let mut s = CommStats::new(2);
        s.record_superstep(1, 40, 1, 40);
        let r = s.link_imbalance(0, 1);
        assert_eq!(r, 0.0, "links == 0 must short-circuit, got {r}");
    }

    #[test]
    fn imbalance_of_empty_stats_is_zero() {
        let s = CommStats::new(3);
        assert_eq!(s.link_imbalance(6, 1), 0.0);
    }

    #[test]
    fn imbalance_skips_empty_supersteps_even_at_zero_threshold() {
        // A barrier-only superstep records zero bits; it must not add a
        // 0/0-shaped sample to the mean.
        let mut s = CommStats::new(4);
        s.record_superstep(1, 0, 0, 0);
        s.record_superstep(1, 120, 12, 20);
        for min_bits in [0, 1] {
            let r = s.link_imbalance(12, min_bits);
            assert!(
                (r - 2.0).abs() < 1e-9,
                "empty superstep polluted the mean: {r}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "needs the trace's Superstep events")]
    fn imbalance_above_one_bit_is_not_answerable_from_totals() {
        CommStats::new(4).link_imbalance(12, 1_000);
    }

    #[test]
    fn imbalance_on_a_single_link_is_exactly_one() {
        // With one directed link, max == total every superstep: the ratio
        // is 1.0 by construction, whatever the traffic pattern.
        let mut s = CommStats::new(2);
        for bits in [7u64, 1000, 3] {
            s.record_superstep(1, bits, 1, bits);
        }
        let r = s.link_imbalance(1, 1);
        assert!((r - 1.0).abs() < 1e-9, "single-link ratio drifted: {r}");
    }

    #[test]
    fn imbalance_is_fold_order_independent() {
        // Folding a sub-protocol's stats into a host's, or the other way
        // round, gives the same ratio: the mean over both runs' supersteps.
        let mut host = CommStats::new(2);
        host.record_superstep(1, 20, 2, 10);
        let mut sub = CommStats::new(2);
        sub.record_superstep(2, 30, 3, 30);
        let mut folded = host.clone();
        folded.absorb(&sub);
        let mut reversed = sub.clone();
        reversed.absorb(&host);
        let (a, b) = (folded.link_imbalance(2, 1), reversed.link_imbalance(2, 1));
        assert!((a - 1.5).abs() < 1e-9, "mean of 1.0 and 2.0, got {a}");
        assert_eq!(a, b, "imbalance must be fold-order independent");
    }

    #[test]
    fn absorb_grows_per_machine_vectors_to_the_larger_run() {
        let mut a = CommStats::new(1);
        a.sent_bits[0] = 5;
        let mut b = CommStats::new(3);
        b.sent_bits[2] = 7;
        b.recv_bits[1] = 9;
        a.absorb(&b);
        assert_eq!(a.sent_bits, vec![5, 0, 7]);
        assert_eq!(a.recv_bits, vec![0, 9, 0]);
    }

    #[test]
    fn machine_maxima() {
        let mut s = CommStats::new(3);
        s.recv_bits = vec![5, 70, 20];
        assert_eq!(s.max_machine_recv_bits(), 70);
    }
}
