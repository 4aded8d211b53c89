//! CI pin for the chaos scenario family (DESIGN.md §4, E22): under every
//! seeded fault plan the headliner answers must be bit-identical to their
//! fault-free twins, the plans must demonstrably fire, and the recovery
//! overhead must stay inside a pinned bits/rounds envelope.

use kbench::chaos::{family, measure};

#[test]
fn chaos_plans_are_masked_exactly_and_within_the_overhead_envelope() {
    for s in family(true) {
        let measurements = measure(&s);
        assert!(!measurements.is_empty(), "{}: nothing measured", s.id);
        for m in &measurements {
            // The headline guarantee: recovery masks every fault exactly.
            assert!(
                m.identical,
                "{}/{}: faulted answers diverged from the fault-free run",
                s.id, m.algo
            );
            // The plan must actually fire, and its masking must be
            // reported — an accidentally inert plan would pin nothing.
            assert!(
                m.faults_injected > 0,
                "{}/{}: plan never fired",
                s.id,
                m.algo
            );
            assert!(
                m.recovery_rounds > 0 || m.retransmit_bits > 0,
                "{}/{}: faults fired but no recovery cost was reported",
                s.id,
                m.algo
            );
            if s.plan_name == "one-crash-per-phase" {
                assert!(
                    m.machine_crashes > 0,
                    "{}/{}: no crash event fired",
                    s.id,
                    m.algo
                );
            }
            // The overhead envelope: with drop ≤ 0.25 the expected
            // retransmission overhead is ≈ p/(1−p) ≤ 1/3 of the base
            // bits, and dup ≤ 0.25 adds ≤ ~1/4; 75% leaves deterministic
            // headroom. Recovery rounds (ack exchanges + retransmission
            // windows + crash rollback) stay below the fault-free round
            // count for these plans.
            assert!(
                m.bits_overhead() <= 0.75,
                "{}/{}: retransmit bits {} exceed 75% of base bits {}",
                s.id,
                m.algo,
                m.retransmit_bits,
                m.base_bits
            );
            assert!(
                m.rounds_overhead() <= 1.0,
                "{}/{}: recovery rounds {} exceed base rounds {}",
                s.id,
                m.algo,
                m.recovery_rounds,
                m.base_rounds
            );
        }
    }
}
