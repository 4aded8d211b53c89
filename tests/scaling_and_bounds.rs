//! The paper's bounds at small-but-meaningful scale — Lemma 6 (DRR depth),
//! Lemma 7 (phase count), Lemma 1 (proxy load balance), Theorem 1
//! (superlinear k-scaling), the Theorem 2(b) bottleneck, the flooding
//! crossover, the §2.2 charge and the REP routing term — are expectations
//! of the claims table (`kmm::repro`, DESIGN.md §4), measured once there.
//!
//! `tests/repro.rs` proves the committed fixture is what the table prints.
//! The tests here prove that each bound is still *declared*: regenerating
//! the fixture after deleting or weakening an expectation would satisfy
//! the byte comparison, and fails here.

const FIXTURE: &str = include_str!("fixtures/repro_quick.txt");

/// Row `id` of the pinned table carries `expectation` as a passing line.
fn pinned(id: &str, expectation: &str) {
    let start = FIXTURE.find(&format!("## {id} — "));
    let section = &FIXTURE[start.unwrap_or_else(|| panic!("row {id} is not in the fixture"))..];
    let section = &section[..section
        .find("\nverdict: ")
        .expect("a row ends on its verdict")];
    let ok = format!("- ok   {expectation}");
    let slopes = format!("{ok}: ");
    assert!(
        section.lines().any(|l| l == ok || l.starts_with(&slopes)),
        "row {id} no longer pins `{expectation}`:\n{section}"
    );
}

#[test]
fn lemma7_phase_count_is_logarithmic() {
    pinned("E5/E6", "phases/log₂n ≤ 2.5");
    pinned("E5/E6", "all(components_monotone)");
}

#[test]
fn lemma6_drr_depth_is_logarithmic() {
    pinned("E5/E6", "depth/log₂n ≤ 6");
}

#[test]
fn lemma1_proxy_routing_is_balanced() {
    pinned("E4", "heavy_imbalance > 0");
    pinned("E4", "heavy_imbalance < 4");
}

#[test]
fn theorem1_rounds_scale_superlinearly_in_k() {
    // Raw rounds keep falling, but most of them are now the additive one
    // round per superstep; the theorem is fitted on per-link traffic and on
    // rounds net of that floor.
    pinned("E1", "rounds strictly decreasing");
    pinned("E1", "slope(mean_link_bits ~ k) ≤ -1.75");
    pinned("E1", "slope(rounds−supersteps ~ k) ≤ -1.00");
}

#[test]
fn theorem2b_star_bottleneck_appears() {
    pinned("E8", "concentration > 4 on `star`");
    pinned("E8", "concentration < 2 on `path`");
}

#[test]
fn flooding_beats_sketches_only_on_low_diameter() {
    pinned("E2", "flooding_rounds < sketch_rounds on `planted`");
    pinned("E2", "sketch_rounds < flooding_rounds on `path`");
}

#[test]
fn shared_randomness_charge_is_visible_and_ablatable() {
    pinned("E15", "all(same_labels)");
    pinned("E15", "rounds_free < rounds_charged");
}

#[test]
fn rep_model_pays_the_n_over_k_routing() {
    pinned("E12", "all(same_weight)");
    pinned("E12", "rep/rvp > 0.25");
}
