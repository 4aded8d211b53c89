//! Supergraph contraction + batch encoding conformance (DESIGN.md §3.11).
//!
//! Contraction is a pure round/bit optimization: after phase 0's Borůvka
//! merges the engine materializes the component supergraph (intra-component
//! edges dropped, multi-edges deduplicated keeping the lightest under the
//! tie-free `(w, u, v)` key) and runs the remaining phases on it, each
//! component keeping its label. The observable outputs are pinned here against the
//! uncontracted engine across the scenario matrix: identical component
//! partitions, identical MST edge sets (the tie-free keys make the MST
//! unique), and spanning forests that remain valid forests inducing the
//! same partition.
//!
//! The varint batch encoding is likewise accounting-only: delivery and
//! trajectory are encoding-independent, and every varint run carries the
//! per-message naive sum as an oracle (`CommStats::naive_bits`) pinned
//! bit-identical to the `Encoding::Naive` run's `total_bits`.

mod common;

use common::{
    assert_labels_match_reference, assert_stats_sane, matrix, same_partition, sub_matrix,
};
use kmm::prelude::*;
use kmm::repro::chaos_plans as plans;

/// The contracted ablation of a scenario's connectivity config.
fn contract_conn(s: &common::Scenario, encoding: Encoding) -> ConnectivityConfig {
    ConnectivityConfig {
        contract: true,
        encoding,
        ..s.cfg()
    }
}

/// The contracted ablation of a scenario's MST/forest config.
fn contract_mst(s: &common::Scenario, encoding: Encoding) -> MstConfig {
    MstConfig {
        contract: true,
        encoding,
        ..s.cfg()
    }
}

// ---------------------------------------------------------------------
// Contract → solve equals solve-uncontracted: the full matrix for
// connectivity, sub-matrices for the edge-output modes.
// ---------------------------------------------------------------------

#[test]
fn contracted_connectivity_matches_uncontracted_on_full_matrix() {
    for s in matrix() {
        let cluster = s.cluster();
        let plain = cluster.run(Connectivity::with(s.cfg())).output;
        let cfg = contract_conn(&s, Encoding::Naive);
        let contracted = cluster.run(Connectivity::with(cfg.clone())).output;
        // Labels are canonicalized to the minimum vertex per component, so
        // they must be *equal*, not merely partition-equivalent.
        assert_eq!(
            contracted.labels, plain.labels,
            "{}: canonical labels must agree",
            s.id
        );
        assert_eq!(
            contracted.component_count(),
            plain.component_count(),
            "{}: component count",
            s.id
        );
        assert_eq!(
            contracted.counted_components, plain.counted_components,
            "{}: §2.6 output protocol count",
            s.id
        );
        assert_labels_match_reference(&s.id, &contracted.labels, &s.g);
        assert_stats_sane(&s.id, &contracted.stats, s.k, &cfg.trace.events());
    }
}

#[test]
fn contracted_mst_matches_uncontracted_edge_for_edge() {
    for s in sub_matrix(2, 0) {
        let cluster = s.cluster();
        let plain = cluster.run(Mst::with(s.cfg())).output;
        let cfg = contract_mst(&s, Encoding::Naive);
        let contracted = cluster.run(Mst::with(cfg.clone())).output;
        // Tie-free (w, u, v) keys make the MST unique: the contracted run
        // must reproduce the exact edge set, not just the weight.
        assert_eq!(
            contracted.edges, plain.edges,
            "{}: the unique MST edge set",
            s.id
        );
        assert_eq!(
            contracted.total_weight,
            refalgo::forest_weight(&refalgo::kruskal(&s.g)),
            "{}: Kruskal weight",
            s.id
        );
        assert!(
            refalgo::is_spanning_forest(&s.g, &contracted.edges),
            "{}: output must span",
            s.id
        );
        assert_stats_sane(&s.id, &contracted.stats, s.k, &cfg.trace.events());
    }
}

#[test]
fn contracted_spanning_forest_spans_the_same_partition() {
    for s in sub_matrix(3, 1) {
        let cluster = s.cluster();
        let plain = cluster.run(SpanningForest::with(s.cfg())).output;
        let cfg = contract_mst(&s, Encoding::Naive);
        let contracted = cluster.run(SpanningForest::with(cfg.clone())).output;
        // Forest edges are trajectory-dependent, so only the induced
        // structure is pinned: a valid forest with one tree per component.
        assert!(
            refalgo::is_spanning_forest(&s.g, &contracted.edges),
            "{}: contracted forest must span",
            s.id
        );
        assert_eq!(
            contracted.edges.len(),
            plain.edges.len(),
            "{}: forest size = n - #components",
            s.id
        );
        assert_stats_sane(&s.id, &contracted.stats, s.k, &cfg.trace.events());
    }
}

#[test]
fn contracted_mincut_estimate_is_unchanged() {
    for s in sub_matrix(9, 2) {
        if !refalgo::is_connected(&s.g) {
            continue;
        }
        let cluster = s.cluster();
        let plain = cluster.run(MinCut::with(s.cfg())).output;
        let cfg = MinCutConfig {
            contract: true,
            ..s.cfg()
        };
        let contracted = cluster.run(MinCut::with(cfg.clone())).output;
        // Every probe's connectivity verdict is exact either way, so the
        // disconnecting probe — hence the estimate — must agree.
        assert_eq!(contracted.estimate, plain.estimate, "{}: estimate", s.id);
        assert_eq!(
            contracted.disconnecting_probe, plain.disconnecting_probe,
            "{}: disconnecting probe",
            s.id
        );
        assert_stats_sane(&s.id, &contracted.stats, s.k, &cfg.trace.events());
    }
}

#[test]
fn contraction_conforms_on_random_graphs() {
    // Random-graph sweep beyond the named families: gnp/gnm at several
    // densities, pinned against the sequential oracles under contraction.
    for seed in [1u64, 2, 3, 4, 5] {
        for (g, tag) in [
            (generators::gnp(300, 0.01, seed), "gnp-sparse"),
            (generators::gnp(220, 0.05, seed ^ 7), "gnp-mid"),
            (generators::gnm(400, 900, seed ^ 13), "gnm"),
            (
                generators::randomize_weights(&generators::gnm(256, 1024, seed), 1 << 20, seed),
                "gnm-weighted",
            ),
        ] {
            let id = format!("{tag}/seed{seed}");
            let cluster = Cluster::builder(4).seed(seed ^ 0xA5).ingest_graph(&g);
            let conn = cluster
                .run(Connectivity::with(ConnectivityConfig {
                    contract: true,
                    encoding: Encoding::Varint,
                    ..ConnectivityConfig::default()
                }))
                .output;
            assert_eq!(
                conn.component_count(),
                refalgo::component_count(&g),
                "{id}: component count"
            );
            assert_labels_match_reference(&id, &conn.labels, &g);
            let mst = cluster
                .run(Mst::with(MstConfig {
                    contract: true,
                    encoding: Encoding::Varint,
                    ..MstConfig::default()
                }))
                .output;
            assert_eq!(
                mst.total_weight,
                refalgo::forest_weight(&refalgo::kruskal(&g)),
                "{id}: MST weight"
            );
            assert!(
                refalgo::is_spanning_forest(&g, &mst.edges),
                "{id}: MST spans"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Encoding ablation: Varint is accounting-only, with the Naive per-message
// sum kept as an oracle on every run.
// ---------------------------------------------------------------------

#[test]
fn varint_encoding_changes_accounting_only() {
    for contract in [false, true] {
        for s in sub_matrix(2, 1) {
            let id = format!("{}/contract={contract}", s.id);
            let cluster = s.cluster();
            let mk = |encoding| ConnectivityConfig {
                contract,
                encoding,
                ..s.cfg()
            };
            let naive = cluster.run(Connectivity::with(mk(Encoding::Naive))).output;
            let varint_cfg = mk(Encoding::Varint);
            let varint = cluster.run(Connectivity::with(varint_cfg.clone())).output;
            // Delivery and trajectory are encoding-independent.
            assert_eq!(varint.labels, naive.labels, "{id}: labels");
            assert_eq!(
                varint.counted_components, naive.counted_components,
                "{id}: protocol count"
            );
            assert_eq!(varint.phases, naive.phases, "{id}: phases");
            // The oracle identity: every run accumulates the per-message
            // naive sum in `naive_bits`, and for the Naive encoding that sum
            // *is* the charged total.
            assert_eq!(
                naive.stats.naive_bits, naive.stats.total_bits,
                "{id}: naive run's oracle equals its charge"
            );
            assert_eq!(
                varint.stats.naive_bits, naive.stats.total_bits,
                "{id}: varint run's oracle equals the naive run's charge"
            );
            assert_eq!(
                varint.stats.messages, naive.stats.messages,
                "{id}: message counts"
            );
            assert_stats_sane(&id, &varint.stats, s.k, &varint_cfg.trace.events());
        }
    }
}

#[test]
fn varint_compresses_real_workloads() {
    // Not an invariant of the encoding (tiny batches can pay the tag), but
    // on real multi-message workloads the shared-tag delta runs must win.
    let g = generators::random_connected(4000, 9000, 42);
    let cluster = Cluster::builder(8).seed(42).ingest_graph(&g);
    let mk = |contract, encoding| ConnectivityConfig {
        contract,
        encoding,
        ..ConnectivityConfig::default()
    };
    let naive = cluster
        .run(Connectivity::with(mk(false, Encoding::Naive)))
        .output;
    let varint = cluster
        .run(Connectivity::with(mk(false, Encoding::Varint)))
        .output;
    assert!(
        varint.stats.total_bits < naive.stats.total_bits,
        "varint must compress the uncontracted run: {} vs {}",
        varint.stats.total_bits,
        naive.stats.total_bits
    );
    let both = cluster
        .run(Connectivity::with(mk(true, Encoding::Varint)))
        .output;
    assert!(
        both.stats.total_bits < naive.stats.total_bits,
        "contract+varint must beat the naive baseline: {} vs {}",
        both.stats.total_bits,
        naive.stats.total_bits
    );
    assert_eq!(both.labels, naive.labels, "ablations agree on the answer");
}

// ---------------------------------------------------------------------
// Composition with PR 5 fault plans: checkpoints snapshot the supergraph,
// so contracted runs replay bit-identically under chaos too.
// ---------------------------------------------------------------------

#[test]
fn contracted_connectivity_is_bit_identical_under_fault_plans() {
    for s in sub_matrix(3, 2) {
        let cluster = s.cluster();
        let cfg = contract_conn(&s, Encoding::Varint);
        let baseline = cluster.run(Connectivity::with(cfg.clone()));
        assert_eq!(
            baseline.report.stats.faults_injected, 0,
            "{}: clean contracted run injected faults",
            s.id
        );
        for (name, plan) in plans(s.k, s.seed) {
            let id = format!("{}/{name}", s.id);
            let faulted_cfg = ConnectivityConfig {
                faults: Some(plan.clone()),
                trace: Tracer::recording(),
                ..cfg.clone()
            };
            let faulted = cluster.run(Connectivity::with(faulted_cfg.clone()));
            assert_eq!(
                faulted.output.labels, baseline.output.labels,
                "{id}: labels must replay the contracted trajectory"
            );
            assert_eq!(
                faulted.output.phases, baseline.output.phases,
                "{id}: phases"
            );
            assert!(
                faulted.report.stats.faults_injected > 0,
                "{id}: the plan never fired"
            );
            // The PR 5 separability identities hold per encoding: stripping
            // the recovery counters recovers the clean contracted run.
            assert_eq!(
                faulted.report.stats.rounds - faulted.report.stats.recovery_rounds,
                baseline.report.stats.rounds,
                "{id}: rounds separability"
            );
            assert_eq!(
                faulted.report.stats.total_bits - faulted.report.stats.retransmit_bits,
                baseline.report.stats.total_bits,
                "{id}: bits separability"
            );
            // The oracle holds under chaos too: the fault plan's decisions
            // are per (superstep, seq), so the naive-encoded faulted run
            // walks the same trajectory and its charge *is* the varint
            // run's per-message oracle.
            let faulted_naive = cluster.run(Connectivity::with(ConnectivityConfig {
                faults: Some(plan),
                ..contract_conn(&s, Encoding::Naive)
            }));
            assert_eq!(
                faulted.report.stats.naive_bits, faulted_naive.report.stats.total_bits,
                "{id}: naive oracle across encodings under faults"
            );
            let events = faulted_cfg.trace.events();
            assert_stats_sane(&id, &faulted.report.stats, s.k, &events);
        }
    }
}

#[test]
fn contracted_mst_is_bit_identical_under_fault_plans() {
    for s in sub_matrix(6, 0) {
        let cluster = s.cluster();
        let cfg = contract_mst(&s, Encoding::Varint);
        let baseline = cluster.run(Mst::with(cfg.clone()));
        for (name, plan) in plans(s.k, s.seed) {
            let id = format!("{}/{name}", s.id);
            let faulted_cfg = MstConfig {
                faults: Some(plan),
                trace: Tracer::recording(),
                ..cfg.clone()
            };
            let faulted = cluster.run(Mst::with(faulted_cfg.clone()));
            assert_eq!(
                faulted.output.edges, baseline.output.edges,
                "{id}: contracted MST edges under chaos"
            );
            assert_eq!(
                faulted.output.total_weight, baseline.output.total_weight,
                "{id}: weight"
            );
            assert_eq!(
                faulted.report.stats.total_bits - faulted.report.stats.retransmit_bits,
                baseline.report.stats.total_bits,
                "{id}: bits separability"
            );
            let events = faulted_cfg.trace.events();
            assert_stats_sane(&id, &faulted.report.stats, s.k, &events);
        }
    }
}

// ---------------------------------------------------------------------
// The partition view: contraction may not perturb which vertices end up
// together even when labels are trajectory-dependent intermediates.
// ---------------------------------------------------------------------

#[test]
fn contracted_partitions_are_identical_across_all_ablations() {
    for s in sub_matrix(5, 0) {
        let cluster = s.cluster();
        let reference = cluster.run(Connectivity::with(s.cfg())).output;
        for encoding in [Encoding::Naive, Encoding::Varint] {
            let out = cluster
                .run(Connectivity::with(contract_conn(&s, encoding)))
                .output;
            if let Err((u, v)) = same_partition(&reference.labels, &out.labels) {
                panic!(
                    "{}/{encoding:?}: vertices {u} and {v} disagree on co-membership",
                    s.id
                );
            }
        }
    }
}
