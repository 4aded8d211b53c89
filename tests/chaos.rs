//! Chaos conformance (DESIGN.md §3.10, §5): the scenario matrix replayed
//! under seeded fault plans — message drops, duplicates, reorders, delays
//! and scheduled machine crashes — with every answer pinned **bit-identical**
//! to the fault-free run on the same ingested cluster.
//!
//! The recovery machinery under test: the per-superstep ack/retransmit
//! protocol of `kmachine::bsp` (masks message-level faults and reassembles
//! canonical inboxes) and the engine's phase checkpoints, which roll a
//! crashed phase back and re-enter it, replaying the exact fault-free
//! trajectory. Fault counters are pinned both ways: active plans must fire
//! and report their masking cost; fault-free runs must report exactly zero.

mod common;

use common::{assert_stats_sane, graph_families, matrix, sub_matrix, SEEDS};
use kmm::machine::fault::FaultPlan;
use kmm::prelude::*;

/// The seeded fault plans of the chaos matrix, parameterized by the cell's
/// machine count so crash events always name real machines — shared with
/// row E22 of `kmm repro`, so the conformance suite pins exactly the
/// matrix the claims table reports.
use kmm::repro::chaos_plans as plans;

/// Fault-free runs must report exactly zero on every fault counter — the
/// new accounting may not perturb clean runs in any way.
fn assert_clean_counters(id: &str, stats: &CommStats) {
    assert_eq!(stats.faults_injected, 0, "{id}: clean run injected faults");
    assert_eq!(stats.retransmit_bits, 0, "{id}: clean run retransmitted");
    assert_eq!(stats.recovery_rounds, 0, "{id}: clean run recovered");
    assert_eq!(stats.machine_crashes, 0, "{id}: clean run crashed");
}

/// A faulted run must report what it survived: injected faults plus a
/// nonzero masking cost, all still within the model-accounting invariants
/// — and the recovery overhead must be exactly separable: subtracting the
/// recovery counters recovers the fault-free run's cost (DESIGN.md §3.10).
fn assert_faulted_counters(
    id: &str,
    stats: &CommStats,
    clean: &CommStats,
    k: usize,
    events: &[TraceRecord],
) {
    assert!(stats.faults_injected > 0, "{id}: the plan never fired");
    assert!(
        stats.retransmit_bits > 0 || stats.recovery_rounds > 0,
        "{id}: faults fired but no recovery cost was reported"
    );
    assert_eq!(
        stats.rounds - stats.recovery_rounds,
        clean.rounds,
        "{id}: rounds − recovery_rounds must equal the fault-free rounds"
    );
    assert_eq!(
        stats.total_bits - stats.retransmit_bits,
        clean.total_bits,
        "{id}: total_bits − retransmit_bits must equal the fault-free bits"
    );
    assert_stats_sane(id, stats, k, events);
}

// ---------------------------------------------------------------------
// Headliner 1: connectivity — full matrix × every plan.
// ---------------------------------------------------------------------

#[test]
fn connectivity_is_bit_identical_under_every_fault_plan() {
    for s in matrix() {
        let cluster = s.cluster();
        let baseline = cluster.run(Connectivity::with(s.cfg()));
        assert_clean_counters(&s.id, &baseline.report.stats);
        assert_eq!(
            baseline.report.update.supersteps, 0,
            "{}: a static run has no update phase",
            s.id
        );
        for (name, plan) in plans(s.k, s.seed) {
            let id = format!("{}/{name}", s.id);
            let cfg = ConnectivityConfig {
                faults: Some(plan),
                ..s.cfg()
            };
            let faulted = cluster.run(Connectivity::with(cfg.clone()));
            assert_eq!(
                faulted.output.labels, baseline.output.labels,
                "{id}: labels must be bit-identical to the fault-free run"
            );
            assert_eq!(
                faulted.output.counted_components, baseline.output.counted_components,
                "{id}: §2.6 protocol count"
            );
            assert_eq!(
                faulted.output.phases, baseline.output.phases,
                "{id}: phases"
            );
            let events = cfg.trace.events();
            let (stats, clean) = (&faulted.report.stats, &baseline.report.stats);
            assert_faulted_counters(&id, stats, clean, s.k, &events);
            assert_eq!(
                faulted.report.update.recovery_rounds, 0,
                "{id}: a static run's recovery is all in its stats"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Headliners 2–4: spanning forest, MST, min cut — sub-matrices × plans.
// The forest pins are the strongest: forest edges are trajectory-
// sensitive, so they catch any divergence in the replayed merge path.
// ---------------------------------------------------------------------

#[test]
fn spanning_forest_is_bit_identical_under_every_fault_plan() {
    for s in sub_matrix(3, 0) {
        let cluster = s.cluster();
        let baseline = cluster.run(SpanningForest::with(s.cfg()));
        assert_clean_counters(&s.id, &baseline.report.stats);
        for (name, plan) in plans(s.k, s.seed) {
            let id = format!("{}/{name}", s.id);
            let cfg = MstConfig {
                faults: Some(plan),
                ..s.cfg()
            };
            let faulted = cluster.run(SpanningForest::with(cfg.clone()));
            assert_eq!(
                faulted.output.edges, baseline.output.edges,
                "{id}: forest edges must replay the exact trajectory"
            );
            assert_eq!(
                faulted.output.edges_per_machine, baseline.output.edges_per_machine,
                "{id}: per-machine output distribution"
            );
            let events = cfg.trace.events();
            let (stats, clean) = (&faulted.report.stats, &baseline.report.stats);
            assert_faulted_counters(&id, stats, clean, s.k, &events);
        }
    }
}

#[test]
fn mst_is_bit_identical_under_every_fault_plan() {
    for s in sub_matrix(4, 1) {
        let cluster = s.cluster();
        let baseline = cluster.run(Mst::with(s.cfg()));
        assert_clean_counters(&s.id, &baseline.report.stats);
        for (name, plan) in plans(s.k, s.seed) {
            let id = format!("{}/{name}", s.id);
            let cfg = MstConfig {
                faults: Some(plan),
                ..s.cfg()
            };
            let faulted = cluster.run(Mst::with(cfg.clone()));
            assert_eq!(
                faulted.output.edges, baseline.output.edges,
                "{id}: MST edges"
            );
            assert_eq!(
                faulted.output.total_weight, baseline.output.total_weight,
                "{id}: MST weight"
            );
            let events = cfg.trace.events();
            let (stats, clean) = (&faulted.report.stats, &baseline.report.stats);
            assert_faulted_counters(&id, stats, clean, s.k, &events);
        }
    }
}

#[test]
fn mincut_is_bit_identical_under_every_fault_plan() {
    for s in sub_matrix(8, 2) {
        if !refalgo::is_connected(&s.g) {
            continue;
        }
        let cluster = s.cluster();
        let baseline = cluster.run(MinCut::with(s.cfg()));
        assert_clean_counters(&s.id, &baseline.report.stats);
        for (name, plan) in plans(s.k, s.seed) {
            let id = format!("{}/{name}", s.id);
            let cfg = MinCutConfig {
                faults: Some(plan),
                ..s.cfg()
            };
            let faulted = cluster.run(MinCut::with(cfg.clone()));
            assert_eq!(
                faulted.output.estimate, baseline.output.estimate,
                "{id}: min-cut estimate"
            );
            assert_eq!(
                faulted.output.disconnecting_probe, baseline.output.disconnecting_probe,
                "{id}: disconnecting probe"
            );
            let events = cfg.trace.events();
            let (stats, clean) = (&faulted.report.stats, &baseline.report.stats);
            assert_faulted_counters(&id, stats, clean, s.k, &events);
        }
    }
}

// ---------------------------------------------------------------------
// The dynamic path: update routing, certification and incremental
// re-solves all run under the plan and must match both the fault-free
// dynamic run and a fresh static solve of the mutated graph.
// ---------------------------------------------------------------------

#[test]
fn dynamic_batches_are_bit_identical_under_faults() {
    for &seed in &SEEDS {
        for (fi, (family, g)) in graph_families(seed).into_iter().enumerate().step_by(4) {
            // fi steps 0, 4, 8, …: divide out the stride so the machine
            // count actually sweeps 2, 3, 4, 5 across the sampled cells.
            let k = 2 + (fi / 4) % 4;
            for (name, plan) in plans(k, seed) {
                let id = format!("dyn-chaos/{family}/k{k}/{name}/seed{seed}");
                let conn_faulted = ConnectivityConfig {
                    faults: Some(plan.clone()),
                    ..ConnectivityConfig::default()
                };
                let conn_clean = ConnectivityConfig::default();
                let mut faulted = DynamicCluster::wrap(
                    Cluster::builder(k).seed(seed).ingest_graph(&g),
                    DynConfig {
                        faults: Some(plan.clone()),
                        ..DynConfig::default()
                    },
                );
                let mut clean = DynamicCluster::wrap(
                    Cluster::builder(k).seed(seed).ingest_graph(&g),
                    DynConfig::default(),
                );
                let base_f = faulted.connectivity(&conn_faulted);
                let base_c = clean.connectivity(&conn_clean);
                assert_eq!(
                    base_f.output.labels, base_c.output.labels,
                    "{id}: base solve"
                );
                // One insert + one delete batch touching real edges.
                let mut batch = UpdateBatch::new().insert(0, (g.n() as u32) - 1, 7);
                if let Some(e) = g.edges().first() {
                    batch = batch.delete(e.u, e.v);
                }
                if g.edges()
                    .iter()
                    .any(|e| (e.u, e.v) == (0, (g.n() as u32) - 1))
                {
                    continue; // the insert would collide on this family
                }
                faulted
                    .apply(&batch)
                    .unwrap_or_else(|e| panic!("{id}: {e}"));
                clean.apply(&batch).unwrap_or_else(|e| panic!("{id}: {e}"));
                let after_f = faulted.connectivity(&conn_faulted);
                let after_c = clean.connectivity(&conn_clean);
                assert_eq!(
                    after_f.output.labels, after_c.output.labels,
                    "{id}: labels after the batch"
                );
                assert_eq!(
                    after_f.output.component_count(),
                    after_c.output.component_count(),
                    "{id}: component count after the batch"
                );
                assert_labels_hold(&id, &after_c.output.labels, &g, &batch);
            }
        }
    }
}

/// Update-phase faults must surface on the next solve's report even when
/// the solve itself runs clean: the plan sits on `DynConfig` only, so the
/// routing superstep is the sole faulted one.
#[test]
fn update_routing_faults_are_reported_even_when_the_solve_is_clean() {
    let g = generators::path(120);
    let plan = FaultPlan::new(13).with_drop(0.9);
    let mut dc = DynamicCluster::wrap(
        Cluster::builder(4).seed(3).ingest_graph(&g),
        DynConfig {
            faults: Some(plan),
            ..DynConfig::default()
        },
    );
    let clean_cfg = ConnectivityConfig::default();
    let base = dc.connectivity(&clean_cfg);
    assert_eq!(
        base.report.update.faults_injected, 0,
        "no updates routed yet"
    );
    dc.apply(&UpdateBatch::new().insert(0, 119, 5).delete(3, 4))
        .expect("valid batch");
    let run = dc.connectivity(&clean_cfg);
    // The solve's engine run is clean, but its certification exchange also
    // runs under the DynConfig plan and lands in the solve stats; the
    // routing superstep's faults are reported beside those, in `update`.
    assert!(
        run.report.update.faults_injected > 0,
        "routing-superstep faults must reach the report"
    );
    assert!(
        run.report.update.recovery_rounds > 0,
        "dropped update messages cost recovery rounds"
    );
    assert!(
        run.report.update.rounds > 1,
        "the faulted routing superstep costs more than the one clean round"
    );
    // And the routed updates still landed exactly: the insert closed the
    // path into a cycle, the delete cut it — one component either way,
    // which only holds if both staged deltas survived the lossy routing.
    assert_eq!(run.output.component_count(), 1);
    assert_eq!(dc.m(), 119, "both staged deltas must have landed (+1/−1)");
}

/// Oracle check for the mutated graph: rebuild it centrally and compare
/// partitions.
fn assert_labels_hold(id: &str, labels: &[u64], g: &Graph, batch: &UpdateBatch) {
    let mut edges = g.edges().to_vec();
    batch
        .apply_to_edge_list(g.n(), &mut edges)
        .unwrap_or_else(|e| panic!("{id}: {e}"));
    let mutated = Graph::from_dedup_edges(g.n(), edges);
    common::assert_labels_match_reference(id, labels, &mutated);
}

// ---------------------------------------------------------------------
// Crash recovery internals: the checkpoint-restore path must actually be
// exercised (durable shard re-read + recovery accounting).
// ---------------------------------------------------------------------

#[test]
fn crash_recovery_reads_shards_back_from_durable_storage() {
    let g = generators::planted_components(600, 3, 3, 91);
    let cluster = Cluster::builder(6).seed(91).ingest_graph(&g);
    let baseline = cluster.run(Connectivity::default());
    let plan = plans(6, 91)
        .into_iter()
        .find(|(n, _)| *n == "one-crash-per-phase")
        .expect("crash plan exists")
        .1;
    let rebuilds_before = kmm::graph::sharded::rebuild_count();
    let faulted = cluster.run(Connectivity::with(ConnectivityConfig {
        faults: Some(plan),
        ..ConnectivityConfig::default()
    }));
    assert_eq!(faulted.output.labels, baseline.output.labels);
    assert!(
        faulted.report.stats.machine_crashes > 0,
        "the crash schedule must fire on this run"
    );
    assert!(
        kmm::graph::sharded::rebuild_count() > rebuilds_before,
        "every crash must re-read the shard from durable storage"
    );
    assert!(faulted.report.stats.recovery_rounds > 0);
    assert!(
        faulted.report.stats.rounds > baseline.report.stats.rounds,
        "aborted phase attempts and restores must cost rounds"
    );
}

/// A crash in the second or third phase of a sketch-function epoch rolls
/// back a phase whose parts were built from the previous phase's memoised
/// part sketches (DESIGN.md §3.7). The memo is soft state: the rollback
/// drops it and the re-entered phase hashes every part afresh, so the run
/// still replays the fault-free trajectory and its recovery bill separates.
#[test]
fn a_crash_mid_epoch_replays_without_the_part_sketch_memo() {
    use kmm::algo::engine::{Engine, Mode};
    /// A superstep in the middle of this run's phase 3.
    const CRASH_MID_EPOCH: u64 = 35;
    let g = generators::gnm(3000, 12_000, 0x3E);
    let cluster = Cluster::builder(4).seed(3).ingest_graph(&g);
    let run = |faults: Option<FaultPlan>| {
        let cfg = ConnectivityConfig {
            faults,
            trace: Tracer::recording(),
            ..ConnectivityConfig::default()
        };
        let trace = cfg.trace.clone();
        let out = Engine::new(cluster.sharded(), Mode::Connectivity, 3, cfg).run();
        (out, trace.events())
    };
    let (clean, _) = run(None);
    let plan = FaultPlan::new(7)
        .with_drop(0.05)
        .with_crash(1, CRASH_MID_EPOCH);
    let (faulted, events) = run(Some(plan));
    let rolled_back: Vec<u32> = events
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Rollback { phase, .. } => Some(phase),
            _ => None,
        })
        .collect();
    assert!(
        matches!(rolled_back[..], [2 | 3]),
        "the crash must roll back phase 2 or 3, not {rolled_back:?}: re-aim CRASH_MID_EPOCH"
    );
    assert!(clean.memo_hits > 0, "the memo must serve on this cell");
    assert_eq!(faulted.labels, clean.labels);
    assert_eq!(faulted.phases, clean.phases);
    assert_eq!(faulted.stats.machine_crashes, 1);
    let id = "conn/mid-epoch-crash";
    assert_faulted_counters(id, &faulted.stats, &clean.stats, 4, &events);
}

// ---------------------------------------------------------------------
// Property tests: random plans (arbitrary rates, random crash schedules
// that always leave ≥ 1 machine alive per superstep) against the oracle
// on small random graphs. Case counts are capped by PROPTEST_CASES.
// ---------------------------------------------------------------------

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Connectivity under a random plan terminates, matches the
        /// union-find oracle, and is bit-identical to its fault-free twin.
        #[test]
        fn connectivity_survives_random_fault_plans(
            seed in 0u64..1000,
            k in 2usize..7,
            drop in 0.0f64..0.45,
            dup in 0.0f64..0.4,
            reorder in 0.0f64..0.9,
            delay in 0.0f64..0.3,
            crashes in prop::collection::vec((0u64..60, 0usize..64), 0..5),
        ) {
            let g = generators::gnm(70, 160, seed ^ 0x9A);
            let mut plan = FaultPlan::new(seed ^ 0xFA)
                .with_drop(drop)
                .with_dup(dup)
                .with_reorder(reorder)
                .with_delay(delay);
            let mut down = std::collections::HashMap::new();
            for &(superstep, m) in &crashes {
                // Crash-stop restarts by the next superstep, so "≥ 1 alive"
                // means: never crash every machine in the same superstep.
                let at = *down.entry(superstep).or_insert(0usize);
                if at + 1 < k {
                    plan = plan.with_crash(m % k, superstep);
                    down.insert(superstep, at + 1);
                }
            }
            let cluster = Cluster::builder(k).seed(seed).ingest_graph(&g);
            let clean = cluster.run(Connectivity::default());
            let faulted = cluster.run(Connectivity::with(ConnectivityConfig {
                faults: Some(plan),
                ..ConnectivityConfig::default()
            }));
            prop_assert_eq!(&faulted.output.labels, &clean.output.labels);
            prop_assert_eq!(
                faulted.output.component_count(),
                refalgo::component_count(&g)
            );
        }

        /// The spanning forest (trajectory-sensitive output) under a
        /// random plan: termination, oracle validity, bit-identity.
        #[test]
        fn spanning_forest_survives_random_fault_plans(
            seed in 0u64..1000,
            k in 2usize..6,
            drop in 0.0f64..0.4,
            delay in 0.0f64..0.25,
            crash_step in 0u64..40,
            crash_machine in 0usize..64,
        ) {
            let g = generators::gnm(60, 110, seed ^ 0x57);
            let plan = FaultPlan::new(seed ^ 0x5F)
                .with_drop(drop)
                .with_delay(delay)
                .with_crash(crash_machine % k, crash_step);
            let cluster = Cluster::builder(k).seed(seed).ingest_graph(&g);
            let clean = cluster.run(SpanningForest::default());
            let faulted = cluster.run(SpanningForest::with(MstConfig {
                faults: Some(plan),
                ..MstConfig::default()
            }));
            prop_assert_eq!(&faulted.output.edges, &clean.output.edges);
            prop_assert!(refalgo::is_spanning_forest(&g, &faulted.output.edges));
            prop_assert_eq!(
                faulted.output.edges.len(),
                g.n() - refalgo::component_count(&g)
            );
        }
    }
}
