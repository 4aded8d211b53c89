//! Edge-case battery: minimum machine counts, extreme bandwidth, trivial
//! graphs, partial progress, and cost-model plumbing.

use kmm::machine::{Bandwidth, CostModel};
use kmm::prelude::*;

#[test]
fn k_equals_two_works_everywhere() {
    let g = generators::randomize_weights(&generators::random_connected(80, 60, 1), 100, 2);
    let cluster = Cluster::builder(2).seed(3).ingest_graph(&g);
    let conn = cluster.run(Connectivity::default()).output;
    assert_eq!(conn.component_count(), 1);
    let mst = cluster.run(Mst::default()).output;
    assert_eq!(
        mst.total_weight,
        refalgo::forest_weight(&refalgo::kruskal(&g))
    );
    let st = cluster.run(SpanningForest::default()).output;
    assert_eq!(st.edges.len(), 79);
    let cut = cluster.run(MinCut::default()).output;
    assert!(cut.estimate >= 1);
}

#[test]
fn one_bit_links_still_terminate_correctly() {
    // Extreme congestion: every message takes its full bit-length in rounds.
    let g = generators::planted_components(40, 2, 2, 5);
    let cfg = ConnectivityConfig {
        bandwidth: Bandwidth::Bits(1),
        ..ConnectivityConfig::default()
    };
    let cluster = Cluster::builder(4).seed(6).ingest_graph(&g);
    let out = cluster.run(Connectivity::with(cfg)).output;
    assert_eq!(out.component_count(), 2);
    // Rounds explode (every bit is a round) but stay finite and exact.
    assert!(out.stats.rounds >= out.stats.max_link_bits);
}

#[test]
fn single_vertex_and_tiny_graphs() {
    let g1 = Graph::unweighted(1, []);
    let cluster = Cluster::builder(2).seed(7).ingest_graph(&g1);
    let out = cluster.run(Connectivity::default()).output;
    assert_eq!(out.component_count(), 1);
    assert_eq!(out.counted_components, Some(1));

    let g2 = Graph::unweighted(2, [(0, 1)]);
    let cluster = Cluster::builder(2).seed(8).ingest_graph(&g2);
    let out = cluster.run(Connectivity::default()).output;
    assert_eq!(out.component_count(), 1);

    let cluster = Cluster::builder(2).seed(9).ingest_graph(&g2);
    let mst = cluster.run(Mst::default()).output;
    assert_eq!(mst.edges.len(), 1);
}

#[test]
fn k_larger_than_n_is_fine() {
    // More machines than vertices: most machines hold nothing.
    let g = generators::cycle(12);
    let cluster = Cluster::builder(32).seed(10).ingest_graph(&g);
    let out = cluster.run(Connectivity::default()).output;
    assert_eq!(out.component_count(), 1);
}

#[test]
fn phase_cap_yields_partial_but_sound_labels() {
    // One phase only: labels must still never span true components.
    let g = generators::planted_components(120, 4, 3, 11);
    let cfg = ConnectivityConfig {
        max_phases: Some(1),
        run_output_protocol: false,
        ..ConnectivityConfig::default()
    };
    let cluster = Cluster::builder(4).seed(12).ingest_graph(&g);
    let out = cluster.run(Connectivity::with(cfg)).output;
    let truth = refalgo::connected_components(&g);
    let mut rep: std::collections::HashMap<u64, u32> = Default::default();
    for (v, &t) in truth.iter().enumerate() {
        let r = rep.entry(out.labels[v]).or_insert(t);
        assert_eq!(*r, t, "labels must stay within true components");
    }
    // And it cannot have finished: more labels than true components.
    assert!(out.component_count() >= 4);
}

#[test]
fn cost_models_agree_on_outputs_and_order() {
    let g = generators::gnm(600, 1800, 13);
    let mk = |model| ConnectivityConfig {
        cost_model: model,
        ..ConnectivityConfig::default()
    };
    let cluster = Cluster::builder(8).seed(14).ingest_graph(&g);
    let link = cluster
        .run(Connectivity::with(mk(CostModel::PerLink)))
        .output;
    let machine = cluster
        .run(Connectivity::with(mk(CostModel::PerMachine)))
        .output;
    assert_eq!(
        link.labels, machine.labels,
        "cost model must not change outputs"
    );
    assert!(
        machine.stats.rounds <= link.stats.rounds,
        "per-machine charging can only be cheaper: {} vs {}",
        machine.stats.rounds,
        link.stats.rounds
    );
}

#[test]
fn huge_weights_do_not_overflow() {
    let edges = [
        (0u32, 1u32, u64::MAX / 4),
        (1, 2, u64::MAX / 4),
        (0, 2, u64::MAX / 2),
    ];
    let g = Graph::from_edges(3, edges);
    let cluster = Cluster::builder(2).seed(15).ingest_graph(&g);
    let mst = cluster.run(Mst::default()).output;
    assert_eq!(mst.edges.len(), 2);
    assert_eq!(mst.total_weight, (u64::MAX / 4) as u128 * 2);
}

#[test]
fn self_verification_of_own_cut_edges() {
    use kmm::algo::verify;
    use rustc_hash::FxHashSet;
    // s == t style degenerate verification questions.
    let g = generators::path(20);
    let v = verify::st_connectivity(&g, 5, 5, 2, 16, &ConnectivityConfig::default());
    assert!(v.holds, "a vertex is connected to itself");
    // Removing all edges disconnects everything.
    let all: FxHashSet<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
    let v = verify::cut_verification(&g, &all, 2, 17, &ConnectivityConfig::default());
    assert!(v.holds);
}

#[test]
fn coin_flip_merging_is_correct_end_to_end() {
    use kmm::algo::engine::MergeStrategy;
    let g = generators::planted_components(250, 3, 5, 18);
    let cfg = ConnectivityConfig {
        merge: MergeStrategy::CoinFlip,
        ..ConnectivityConfig::default()
    };
    let cluster = Cluster::builder(4).seed(19).ingest_graph(&g);
    let out = cluster.run(Connectivity::with(cfg)).output;
    assert_eq!(out.component_count(), 3);
    // Coin-flip trees are stars: recorded depths never exceed 1.
    assert!(
        out.drr_depths.iter().all(|&d| d <= 1),
        "{:?}",
        out.drr_depths
    );
}

#[test]
fn spanning_forest_weight_is_at_least_mst_weight() {
    let g = generators::randomize_weights(&generators::gnm(300, 1200, 20), 10_000, 21);
    let cluster = Cluster::builder(4).seed(22).ingest_graph(&g);
    let st = cluster.run(SpanningForest::default()).output;
    let mst = cluster.run(Mst::default()).output;
    let st_weight: u128 = st.edges.iter().map(|e| e.w as u128).sum();
    assert!(st_weight >= mst.total_weight);
    assert_eq!(st.edges.len(), mst.edges.len());
}
