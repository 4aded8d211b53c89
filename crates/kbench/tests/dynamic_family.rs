//! CI pin for the dynamic scenario family (DESIGN.md §4, E21): every
//! update batch's incremental path — connectivity AND MST — must move
//! measurably fewer bits than a full re-ingest + re-solve of the mutated
//! edge set.

use kbench::dynamic::{family, measure, measure_mst};
use kconn::dynamic::RefreshKind;

/// The headline claim of the dynamic subsystem, asserted per batch.
#[test]
fn incremental_updates_undercut_full_reingest_and_resolve() {
    for s in family(true) {
        let measurements = measure(&s);
        assert!(!measurements.is_empty(), "{}: no batches measured", s.id);
        for m in &measurements {
            // The acceptance pin: a small batch's total communicated bits
            // (update routing + incremental re-solve + certification) must
            // sit strictly below re-shipping the graph and solving fresh.
            assert!(
                m.undercuts_full(),
                "{} batch {}: incremental {} bits !< full {} bits",
                s.id,
                m.batch,
                m.incremental_bits,
                m.full_bits
            );
            // The incremental path must actually *be* incremental: after
            // the warm base solve, batches take the restricted path (or
            // the free cached path), never a cold full re-solve.
            assert!(
                !matches!(m.refresh, RefreshKind::Full),
                "{} batch {}: fell back to a full refresh",
                s.id,
                m.batch
            );
        }
    }
}

/// The MST twin of the pin above: the maintained-forest path (cycle
/// replacement / sketch replacement-search / restricted re-run +
/// certification) must undercut a full re-ingest + fresh static MST on
/// every batch of every profile — the same <1× ratio the connectivity
/// path achieves.
#[test]
fn incremental_mst_undercuts_full_reingest_and_resolve() {
    for s in family(true) {
        let measurements = measure_mst(&s);
        assert!(!measurements.is_empty(), "{}: no batches measured", s.id);
        for m in &measurements {
            assert!(
                m.undercuts_full(),
                "{} batch {}: incremental MST {} bits !< full {} bits",
                s.id,
                m.batch,
                m.incremental_bits,
                m.full_bits
            );
            assert!(
                !matches!(m.refresh, RefreshKind::Full),
                "{} batch {}: MST fell back to a full refresh",
                s.id,
                m.batch
            );
        }
    }
}
