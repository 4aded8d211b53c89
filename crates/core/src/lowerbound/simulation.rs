//! The 2-party simulation harness (Theorem 5's measurement side).
//!
//! Splits the `k` machines into Alice's half and Bob's half, runs the real
//! SCS verifier (a connectivity run on `H`) on the Figure-1 gadget, and
//! counts every bit that crosses the Alice/Bob cut. Theorem 5's argument
//! is that a `T`-round algorithm yields a 2-party protocol exchanging
//! `O(T · k² · polylog n)` bits, while Lemma 8 forces `Ω(b)` bits —
//! experiment E13 exhibits both sides empirically: cut bits grow linearly
//! in `b`, and `rounds · k² · W` upper-bounds the cut traffic.

use crate::connectivity::ConnectivityConfig;
use crate::engine::{Engine, Mode};
use crate::lowerbound::disjointness::DisjointnessInstance;
use crate::lowerbound::figure1::scs_gadget;
use kgraph::Partition;

/// What one 2-party simulation measured.
#[derive(Clone, Debug)]
pub struct TwoPartyReport {
    /// Instance length `b`.
    pub b: usize,
    /// Ground truth: were the sets disjoint?
    pub disjoint: bool,
    /// The verifier's verdict (H is a spanning connected subgraph).
    pub verdict: bool,
    /// Bits that crossed the Alice/Bob machine cut.
    pub cut_bits: u64,
    /// Total bits over all links.
    pub total_bits: u64,
    /// Rounds of the k-machine execution.
    pub rounds: u64,
    /// The per-link bandwidth `W` used (for the `T·k²·W` comparison).
    pub link_bits: u64,
}

impl TwoPartyReport {
    /// The `T · k² · polylog(n)` upper bound on 2-party communication that
    /// the simulation argument extracts from a `T`-round execution.
    pub fn simulation_budget(&self, k: usize) -> u64 {
        self.rounds * (k as u64) * (k as u64) * self.link_bits
    }
}

/// Runs the SCS verifier on the Figure-1 gadget with machines split into
/// Alice = `[0, k/2)` and Bob = `[k/2, k)`, and reports the cut traffic.
pub fn simulate_scs_two_party(
    inst: &DisjointnessInstance,
    k: usize,
    seed: u64,
    cfg: &ConnectivityConfig,
) -> TwoPartyReport {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "need an even machine count to split"
    );
    let (g, h_edges) = scs_gadget(inst);
    let h = g.edge_subgraph(&h_edges);
    let part = Partition::random_vertex(&g, k, seed);
    let sh = kgraph::ShardedGraph::from_graph(&h, &part);
    let mut engine = Engine::new(&sh, Mode::Connectivity, seed, cfg.clone());
    engine.set_cut((0..k).map(|m| m < k / 2).collect());
    let result = engine.run();
    let verdict = result.component_count() == 1;
    TwoPartyReport {
        b: inst.len(),
        disjoint: inst.disjoint(),
        verdict,
        cut_bits: result.stats.cut_bits,
        total_bits: result.stats.total_bits,
        rounds: result.stats.rounds,
        link_bits: cfg.bandwidth.bits_per_round(g.n()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ConnectivityConfig {
        ConnectivityConfig::default()
    }

    #[test]
    fn verdict_matches_disjointness_ground_truth() {
        for seed in 0..8u64 {
            for force in [Some(true), Some(false)] {
                let inst = DisjointnessInstance::random(32, 300, seed, force);
                let r = simulate_scs_two_party(&inst, 4, seed + 100, &cfg());
                assert_eq!(r.verdict, r.disjoint, "seed {seed} force {force:?}");
            }
        }
    }

    #[test]
    fn cut_bits_grow_with_instance_length() {
        let small = DisjointnessInstance::random(32, 300, 1, Some(true));
        let large = DisjointnessInstance::random(256, 300, 1, Some(true));
        let a = simulate_scs_two_party(&small, 4, 2, &cfg());
        let b = simulate_scs_two_party(&large, 4, 2, &cfg());
        assert!(
            b.cut_bits > 3 * a.cut_bits,
            "8x the instance should move much more across the cut: {} vs {}",
            a.cut_bits,
            b.cut_bits
        );
    }

    #[test]
    fn simulation_budget_dominates_cut_traffic() {
        let inst = DisjointnessInstance::random(128, 250, 3, None);
        let r = simulate_scs_two_party(&inst, 4, 4, &cfg());
        assert!(
            r.simulation_budget(4) >= r.cut_bits,
            "T·k²·W = {} must bound the cut bits = {}",
            r.simulation_budget(4),
            r.cut_bits
        );
        assert!(r.cut_bits > 0);
        assert!(r.cut_bits <= r.total_bits);
    }
}
