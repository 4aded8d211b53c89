//! End-to-end integration tests: every distributed algorithm validated
//! against its exact sequential reference across graph families, machine
//! counts, and seeds.

use kmm::prelude::*;

mod common;

/// The shared graph menagerie (tests/common/, also driven cell-by-cell by
/// the conformance suite).
fn families(seed: u64) -> Vec<(&'static str, Graph)> {
    common::graph_families(seed)
}

#[test]
fn connectivity_matches_union_find_across_families_and_k() {
    for (name, g) in families(11) {
        for k in [2usize, 5, 8] {
            let cluster = Cluster::builder(k).seed(1000 + k as u64).ingest_graph(&g);
            let out = cluster.run(Connectivity::default()).output;
            let truth = refalgo::connected_components(&g);
            // Same-label iff same true component.
            let mut rep: std::collections::HashMap<u64, u32> = Default::default();
            for (v, &t) in truth.iter().enumerate() {
                let r = rep.entry(out.labels[v]).or_insert(t);
                assert_eq!(*r, t, "{name} k={k} vertex {v}");
            }
            assert_eq!(
                out.component_count(),
                refalgo::component_count(&g),
                "{name} k={k}"
            );
            assert_eq!(
                out.counted_components.unwrap() as usize,
                refalgo::component_count(&g),
                "{name} k={k}: §2.6 output protocol"
            );
        }
    }
}

#[test]
fn mst_matches_kruskal_across_families_and_k() {
    for (name, g) in families(23) {
        let g = generators::randomize_weights(&g, 5000, 77);
        for k in [2usize, 6] {
            let cluster = Cluster::builder(k).seed(2000 + k as u64).ingest_graph(&g);
            let out = cluster.run(Mst::default()).output;
            let reference = refalgo::kruskal(&g);
            assert!(
                refalgo::is_spanning_forest(&g, &out.edges),
                "{name} k={k}: not a spanning forest"
            );
            assert_eq!(
                out.total_weight,
                refalgo::forest_weight(&reference),
                "{name} k={k}: weight mismatch"
            );
        }
    }
}

#[test]
fn all_connectivity_algorithms_agree() {
    let g = generators::planted_components(300, 3, 6, 5);
    let truth = refalgo::component_count(&g);
    let cluster = Cluster::builder(6).seed(9).ingest_graph(&g);
    let sketch = cluster.run(Connectivity::default()).output;
    assert_eq!(sketch.component_count(), truth);
    let flood = cluster.run(Flooding::default()).output;
    assert_eq!(flood.component_count(), truth);
    let referee = cluster.run(Referee::default()).output;
    let mut labels = referee.labels.clone();
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), truth);
}

#[test]
fn all_mst_algorithms_agree_on_weight() {
    let g = generators::randomize_weights(&generators::random_connected(200, 400, 3), 999, 4);
    let expect = refalgo::forest_weight(&refalgo::kruskal(&g));
    let cluster = Cluster::builder(4).seed(5).ingest_graph(&g);
    let core = cluster.run(Mst::default()).output;
    assert_eq!(core.total_weight, expect, "sketch MST");
    let ghs = cluster.run(EdgeBoruvka::default()).output;
    assert_eq!(ghs.total_weight, expect, "edge-checking Borůvka");
    let rep = cluster.run(RepMst::default()).output;
    assert_eq!(rep.mst.total_weight, expect, "REP-model MST");
}

#[test]
fn bipartiteness_matches_two_coloring_reference() {
    use kmm::algo::verify::bipartiteness;
    let cases: Vec<(Graph, &str)> = vec![
        (generators::cycle(20), "even cycle"),
        (generators::cycle(21), "odd cycle"),
        (generators::grid(5, 7), "grid"),
        (generators::star(30), "star"),
        (generators::gnp(80, 0.08, 9), "gnp"),
        (generators::random_tree(90, 10), "tree"),
    ];
    for (i, (g, name)) in cases.into_iter().enumerate() {
        let expect = refalgo::bipartition(&g).is_some();
        let got = bipartiteness(&g, 4, 100 + i as u64, &ConnectivityConfig::default());
        assert_eq!(got.holds, expect, "{name}");
    }
}

#[test]
fn mincut_approximation_is_within_theorem3_bound() {
    for (seed, block, bridges, w) in [(1u64, 20usize, 2usize, 3u64), (2, 30, 5, 1), (3, 16, 1, 8)] {
        let g = generators::barbell(block, bridges, w, seed);
        let lambda = kmm::graph::mincut::stoer_wagner(&g).unwrap();
        assert_eq!(lambda, bridges as u64 * w);
        let cluster = Cluster::builder(4).seed(seed + 50).ingest_graph(&g);
        let out = cluster.run(MinCut::default()).output;
        let logn = (g.n() as f64).log2();
        let est = out.estimate.max(1) as f64;
        let ratio = (est / lambda as f64).max(lambda as f64 / est);
        assert!(
            ratio <= 4.0 * logn,
            "seed {seed}: ratio {ratio:.1} vs O(log n)={logn:.1}"
        );
    }
}

#[test]
fn runs_are_deterministic_and_seed_sensitive() {
    let g = generators::gnp(300, 0.015, 42);
    let cluster = Cluster::builder(6).seed(7).ingest_graph(&g);
    let a = cluster.run(Connectivity::default()).output;
    let b = cluster.run(Connectivity::default()).output;
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.stats.rounds, b.stats.rounds);
    assert_eq!(a.stats.total_bits, b.stats.total_bits);
    let reseeded = Cluster::builder(6).seed(8).ingest_graph(&g);
    let c = reseeded.run(Connectivity::default()).output;
    // Different seed: same answer, different execution.
    assert_eq!(a.component_count(), c.component_count());
    assert_ne!(
        (a.stats.rounds, a.stats.total_bits),
        (c.stats.rounds, c.stats.total_bits),
        "different seeds should randomize the execution"
    );
}

#[test]
fn stats_invariants_hold() {
    let g = generators::gnm(400, 1200, 13);
    let cluster = Cluster::builder(8).seed(14).ingest_graph(&g);
    let trace = Tracer::recording();
    let out = cluster
        .run(Connectivity::with(ConnectivityConfig {
            trace: trace.clone(),
            ..ConnectivityConfig::default()
        }))
        .output;
    let s = &out.stats;
    let sent: u64 = s.sent_bits.iter().sum();
    let recv: u64 = s.recv_bits.iter().sum();
    // The modeled §2.2 seed charge adds to sent (machine 0) but has no
    // receiver; everything else must balance.
    assert!(sent >= recv);
    assert!(s.total_bits >= recv);
    assert!(s.rounds > 0);
    assert!(s.max_link_bits <= s.total_bits);
    assert!(s.messages > 0);
    let sum_rounds: u64 = trace
        .events()
        .iter()
        .map(|r| match r.event {
            TraceEvent::Superstep { rounds, .. } => rounds,
            _ => 0,
        })
        .sum();
    assert!(
        sum_rounds <= s.rounds,
        "superstep rounds plus modeled charges"
    );
}

#[test]
fn monte_carlo_failure_injection_degrades_gracefully() {
    // Absurdly small sketches (1 repetition) make sampling failures common.
    // A failed sample only delays its component's merge: the run stops at
    // the first phase in which no merged sketch is non-zero, so the
    // partition is exact on every seed.
    let cfg = ConnectivityConfig {
        reps: 1,
        ..ConnectivityConfig::default()
    };
    for seed in 0..40 {
        let g = generators::planted_components(150, 3, 4, 15 + seed);
        let cluster = Cluster::builder(4).seed(16 + seed).ingest_graph(&g);
        let out = cluster.run(Connectivity::with(cfg.clone())).output;
        common::assert_labels_match_reference(&format!("seed {seed}"), &out.labels, &g);
    }
}

/// The long form of the sweep above, for a release build (CI runs it
/// with `--ignored`): 2 000 seeds at n = 800, k = 8, two families, `reps`
/// 2 and 3, and not one wrong partition.
#[test]
#[ignore = "release-build sweep, about a minute"]
fn low_reps_partitions_are_exact_over_2000_seeds() {
    let mut wrong = Vec::new();
    for reps in [2, 3] {
        let cfg = ConnectivityConfig {
            reps,
            ..ConnectivityConfig::default()
        };
        for seed in 0..2000 {
            let g = match seed % 2 {
                0 => generators::random_connected(800, 1200, seed),
                _ => generators::planted_components(800, 8, 100, seed),
            };
            let cluster = Cluster::builder(8).seed(seed).ingest_graph(&g);
            let out = cluster.run(Connectivity::with(cfg.clone())).output;
            let truth = refalgo::connected_components(&g);
            if common::same_partition(&out.labels, &truth).is_err() {
                wrong.push((reps, seed));
            }
        }
    }
    assert!(wrong.is_empty(), "wrong partitions (reps, seed): {wrong:?}");
}

#[test]
fn mst_both_criteria_agree_on_the_tree() {
    let g = generators::randomize_weights(&generators::grid(10, 10), 500, 17);
    let cluster = Cluster::builder(4).seed(18).ingest_graph(&g);
    let run = |criterion| {
        let cfg = MstConfig {
            criterion,
            ..MstConfig::default()
        };
        cluster.run(Mst::with(cfg)).output
    };
    let a = run(OutputCriterion::AnyMachine);
    let b = run(OutputCriterion::BothEndpoints);
    assert_eq!(a.edges, b.edges);
    assert!(b.stats.rounds >= a.stats.rounds);
}

#[test]
fn double_cover_partition_is_consistent() {
    let g = generators::gnp(100, 0.05, 19);
    let part = Partition::random_vertex(&g, 4, 20);
    let lifted = part.lifted_double_cover();
    for v in 0..g.n() as u32 {
        assert_eq!(part.home(v), lifted.home(v));
        assert_eq!(part.home(v), lifted.home(v + g.n() as u32));
    }
}
