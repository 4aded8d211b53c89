//! Communication accounting.
//!
//! Everything the experiments report comes from here: the round counter
//! (the model's cost measure), bit totals, per-machine loads (the §2
//! congestion arguments are about machines receiving too much), and
//! per-superstep link-load records used to validate Lemma 1 empirically.

/// A record of one superstep's communication load.
#[derive(Clone, Copy, Debug, Default)]
pub struct SuperstepLoad {
    /// Bits on the most loaded directed link in this superstep.
    pub max_link_bits: u64,
    /// Total bits across all links in this superstep.
    pub total_bits: u64,
    /// Cross-machine messages delivered.
    pub messages: u64,
    /// Rounds charged for this superstep.
    pub rounds: u64,
}

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
    /// Max cumulative bits over any directed link.
    pub max_link_bits: u64,
    /// Bits sent by each machine.
    pub sent_bits: Vec<u64>,
    /// Bits received by each machine.
    pub recv_bits: Vec<u64>,
    /// One load record per superstep; a `DynamicCluster` report absorbs every batch's.
    pub superstep_loads: Vec<SuperstepLoad>,
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

    /// Load-balance ratio over supersteps: mean over supersteps of
    /// `max_link_bits / (total_bits / links)`, counting only supersteps
    /// that moved at least `min_bits`. A value close to 1 means perfectly
    /// even link usage; Lemma 1 predicts O(polylog) for proxy routing.
    ///
    /// Returns `0.0` when the ratio is undefined: a degenerate `links == 0`
    /// topology (division by zero otherwise), or when every superstep's
    /// bits fall below `min_bits` (no qualifying sample — previously this
    /// returned a fabricated "perfectly balanced" 1.0, which made empty
    /// runs indistinguishable from genuinely balanced ones).
    pub fn link_imbalance(&self, links: u64, min_bits: u64) -> f64 {
        if links == 0 {
            return 0.0;
        }
        let mut num = 0.0;
        let mut cnt = 0u64;
        for l in &self.superstep_loads {
            if l.total_bits >= min_bits && l.max_link_bits > 0 {
                let mean = l.total_bits as f64 / links as f64;
                num += l.max_link_bits as f64 / mean.max(1e-9);
                cnt += 1;
            }
        }
        if cnt == 0 {
            0.0
        } else {
            num / cnt as f64
        }
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
        self.superstep_loads
            .extend(other.superstep_loads.iter().copied());
        self.cut_bits += other.cut_bits;
        self.faults_injected += other.faults_injected;
        self.retransmit_bits += other.retransmit_bits;
        self.recovery_rounds += other.recovery_rounds;
        self.machine_crashes += other.machine_crashes;
        self.naive_bits += other.naive_bits;
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
    fn imbalance_of_even_load_is_one() {
        let mut s = CommStats::new(4);
        // 12 links, 120 bits total, max link 10 => perfectly even.
        s.superstep_loads.push(SuperstepLoad {
            max_link_bits: 10,
            total_bits: 120,
            messages: 12,
            rounds: 1,
        });
        let r = s.link_imbalance(12, 1);
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_ignores_tiny_supersteps() {
        let mut s = CommStats::new(4);
        s.superstep_loads.push(SuperstepLoad {
            max_link_bits: 5,
            total_bits: 5,
            messages: 1,
            rounds: 1,
        });
        // No superstep qualifies: the ratio is undefined, reported as 0.0.
        assert_eq!(s.link_imbalance(12, 100), 0.0);
    }

    #[test]
    fn imbalance_of_zero_links_is_zero_not_a_division() {
        let mut s = CommStats::new(2);
        s.superstep_loads.push(SuperstepLoad {
            max_link_bits: 40,
            total_bits: 40,
            messages: 1,
            rounds: 1,
        });
        let r = s.link_imbalance(0, 1);
        assert_eq!(r, 0.0, "links == 0 must short-circuit, got {r}");
        assert!(r.is_finite());
    }

    #[test]
    fn imbalance_of_empty_stats_is_zero() {
        let s = CommStats::new(3);
        assert_eq!(s.link_imbalance(6, 1), 0.0);
    }

    #[test]
    fn imbalance_counts_only_qualifying_supersteps() {
        let mut s = CommStats::new(4);
        // Qualifying: ratio 2.0 (max 20 vs mean 120/12 = 10).
        s.superstep_loads.push(SuperstepLoad {
            max_link_bits: 20,
            total_bits: 120,
            messages: 12,
            rounds: 1,
        });
        // Below min_bits: must not drag the mean.
        s.superstep_loads.push(SuperstepLoad {
            max_link_bits: 3,
            total_bits: 3,
            messages: 1,
            rounds: 1,
        });
        let r = s.link_imbalance(12, 100);
        assert!((r - 2.0).abs() < 1e-9, "got {r}");
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
    fn imbalance_skips_empty_supersteps_even_at_zero_threshold() {
        // A barrier-only superstep records zero bits; with min_bits = 0 it
        // passes the threshold test but must still not contribute a
        // 0/0-shaped sample to the mean.
        let mut s = CommStats::new(4);
        s.superstep_loads.push(SuperstepLoad::default());
        s.superstep_loads.push(SuperstepLoad {
            max_link_bits: 20,
            total_bits: 120,
            messages: 12,
            rounds: 1,
        });
        let r = s.link_imbalance(12, 0);
        assert!(
            (r - 2.0).abs() < 1e-9,
            "empty superstep polluted the mean: {r}"
        );
    }

    #[test]
    fn imbalance_on_a_single_link_is_exactly_one() {
        // With one directed link, max == total every superstep: the ratio
        // is 1.0 by construction, whatever the traffic pattern.
        let mut s = CommStats::new(2);
        for bits in [7u64, 1000, 3] {
            s.superstep_loads.push(SuperstepLoad {
                max_link_bits: bits,
                total_bits: bits,
                messages: 1,
                rounds: 1,
            });
        }
        let r = s.link_imbalance(1, 1);
        assert!((r - 1.0).abs() < 1e-9, "single-link ratio drifted: {r}");
    }

    #[test]
    fn absorb_preserves_superstep_load_order() {
        // Folding a sub-protocol's stats appends its loads *after* the
        // host's — the combined record must read in execution order, and
        // the imbalance over the fold must not depend on who absorbed whom.
        let mut host = CommStats::new(2);
        host.superstep_loads.push(SuperstepLoad {
            max_link_bits: 10,
            total_bits: 20,
            messages: 2,
            rounds: 1,
        });
        let mut sub = CommStats::new(2);
        sub.superstep_loads.push(SuperstepLoad {
            max_link_bits: 30,
            total_bits: 30,
            messages: 3,
            rounds: 2,
        });
        let mut folded = host.clone();
        folded.absorb(&sub);
        let tails: Vec<u64> = folded
            .superstep_loads
            .iter()
            .map(|l| l.total_bits)
            .collect();
        assert_eq!(tails, vec![20, 30], "host loads first, absorbed after");

        let mut reversed = sub.clone();
        reversed.absorb(&host);
        assert!(
            (folded.link_imbalance(2, 1) - reversed.link_imbalance(2, 1)).abs() < 1e-9,
            "imbalance must be fold-order independent"
        );
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
