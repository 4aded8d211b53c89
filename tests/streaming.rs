//! Streaming-ingestion conformance: every generator family must yield
//! bit-identical graphs through the lazy `EdgeStream` path and the
//! materialized path, shards must agree with central adjacency, no shard
//! may store more than `O(m/k + Δ)` edges, and the three ways to build a
//! cluster — stream, materialized graph, adopted shards — must run every
//! algorithm identically.

use kmm::graph::stream::materialize;
use kmm::prelude::*;
use proptest::prelude::*;

/// Every generator family as (name, stream, materialized) for one seed.
fn families(seed: u64) -> Vec<(&'static str, DynEdgeStream, Graph)> {
    vec![
        (
            "gnp",
            generators::gnp_stream(180, 0.02, seed),
            generators::gnp(180, 0.02, seed),
        ),
        (
            "gnm",
            generators::gnm_stream(150, 420, seed),
            generators::gnm(150, 420, seed),
        ),
        ("path", generators::path_stream(90), generators::path(90)),
        ("cycle", generators::cycle_stream(91), generators::cycle(91)),
        (
            "grid",
            generators::grid_stream(9, 11),
            generators::grid(9, 11),
        ),
        ("star", generators::star_stream(77), generators::star(77)),
        (
            "complete",
            generators::complete_stream(24),
            generators::complete(24),
        ),
        (
            "tree",
            generators::random_tree_stream(130, seed),
            generators::random_tree(130, seed),
        ),
        (
            "connected",
            generators::random_connected_stream(120, 140, seed),
            generators::random_connected(120, 140, seed),
        ),
        (
            "planted",
            generators::planted_components_stream(140, 4, 5, seed),
            generators::planted_components(140, 4, 5, seed),
        ),
        (
            "barbell",
            generators::barbell_stream(20, 3, 5, seed),
            generators::barbell(20, 3, 5, seed),
        ),
        (
            "parity-cycle",
            generators::parity_cycle_stream(33, true),
            generators::parity_cycle(33, true),
        ),
        (
            "weighted",
            generators::weighted_stream(generators::gnm_stream(110, 260, seed), 999, seed ^ 1),
            generators::randomize_weights(&generators::gnm(110, 260, seed), 999, seed ^ 1),
        ),
    ]
}

#[test]
fn every_family_streams_bit_identically() {
    for seed in [3u64, 11, 42] {
        for (name, stream, graph) in families(seed) {
            let streamed = materialize(stream);
            assert_eq!(streamed.n(), graph.n(), "{name}/seed{seed}: n");
            assert_eq!(
                streamed.edges(),
                graph.edges(),
                "{name}/seed{seed}: edge lists must be bit-identical"
            );
        }
    }
}

#[test]
fn every_family_shards_identically_from_stream_and_graph() {
    for seed in [3u64, 11] {
        for (name, stream, graph) in families(seed) {
            let k = 5;
            let part = Partition::random_vertex(&graph, k, seed ^ 0xA11);
            let from_stream = ShardedGraph::from_stream_with_partition(stream, part.clone());
            let from_graph = ShardedGraph::from_graph(&graph, &part);
            assert_eq!(from_stream.m(), from_graph.m(), "{name}/seed{seed}: m");
            for i in 0..k {
                let (a, b) = (from_stream.view(i), from_graph.view(i));
                assert_eq!(a.verts(), b.verts(), "{name}/seed{seed}: shard {i} verts");
                for &v in a.verts() {
                    assert_eq!(
                        a.neighbors(v),
                        b.neighbors(v),
                        "{name}/seed{seed}: adjacency of {v}"
                    );
                }
            }
        }
    }
}

/// stream ≡ materialized ≡ `adopt(from_graph)` through `Cluster::run`:
/// however the shards were built, the same `(k, seed)` gives the same
/// answers and the same ledger, on every family.
#[test]
fn every_family_runs_identically_however_the_cluster_was_built() {
    let (k, seed) = (4, 11u64);
    let builder = Cluster::builder(k).seed(seed);
    for (name, stream, graph) in families(seed) {
        let part = Partition::random_vertex(&graph, k, seed);
        let clusters = [
            builder.ingest_stream(stream),
            builder.ingest_graph(&graph),
            builder.adopt(ShardedGraph::from_graph(&graph, &part)),
        ];
        let runs: Vec<_> = clusters
            .iter()
            .map(|c| (c.run(Connectivity::default()), c.run(Mst::default())))
            .collect();
        let ledger = |s: &CommStats| {
            (
                s.rounds,
                s.supersteps,
                s.messages,
                s.total_bits,
                s.max_link_bits,
                s.sent_bits.clone(),
                s.recv_bits.clone(),
            )
        };
        let (conn, mst) = &runs[0];
        assert_eq!(
            conn.output.component_count(),
            refalgo::component_count(&graph),
            "{name}: components"
        );
        assert!(
            refalgo::is_spanning_forest(&graph, &mst.output.edges),
            "{name}: forest"
        );
        for (how, (c, m)) in ["graph", "adopt"].iter().zip(&runs[1..]) {
            assert_eq!(c.output.labels, conn.output.labels, "{name}/{how}: labels");
            assert_eq!(m.output.edges, mst.output.edges, "{name}/{how}: MST edges");
            assert_eq!(
                ledger(&c.report.stats),
                ledger(&conn.report.stats),
                "{name}/{how}: connectivity ledger"
            );
            assert_eq!(
                ledger(&m.report.stats),
                ledger(&mst.report.stats),
                "{name}/{how}: MST ledger"
            );
        }
    }
}

#[test]
fn shard_storage_stays_within_fair_share_plus_max_degree() {
    // The O(m/k + Δ) storage bound, on a balanced random graph and on the
    // adversarial star (where the hub's home must hold Δ = n − 1).
    for (name, g, k) in [
        ("gnm", generators::gnm(4000, 16_000, 7), 16usize),
        ("star", generators::star(2000), 8),
        ("grid", generators::grid(40, 50), 8),
    ] {
        let part = Partition::random_vertex(&g, k, 13);
        let sg = ShardedGraph::from_graph(&g, &part);
        let delta = sg.max_degree();
        let fair = 2 * g.m() / k;
        assert_eq!(sg.total_half_edges(), 2 * g.m(), "{name}: conservation");
        for (i, load) in sg.shard_loads().into_iter().enumerate() {
            assert!(
                load <= 3 * fair + 2 * delta,
                "{name}: shard {i} stores {load} half-edges, bound O(m/k + Δ) \
                 with m/k share {fair} and Δ {delta}"
            );
        }
    }
}

#[test]
fn streamed_shard_runs_headliners_against_oracles() {
    // End-to-end: stream → shards → algorithms, checked against the
    // sequential oracles on the (separately materialized) same graph.
    let seed = 17u64;
    let cluster = Cluster::builder(8)
        .seed(seed)
        .ingest_stream(generators::gnm_stream(1500, 3000, seed));
    let g = generators::gnm(1500, 3000, seed);
    let conn = cluster.run(Connectivity::default()).output;
    assert_eq!(conn.component_count(), refalgo::component_count(&g));

    let wseed = 19u64;
    let wcluster = Cluster::builder(6)
        .seed(wseed)
        .ingest_stream(generators::weighted_stream(
            generators::random_connected_stream(600, 900, wseed),
            500,
            3,
        ));
    let wg = generators::randomize_weights(&generators::random_connected(600, 900, wseed), 500, 3);
    let mst = wcluster.run(Mst::default()).output;
    assert!(refalgo::is_spanning_forest(&wg, &mst.edges));
    assert_eq!(
        mst.total_weight,
        refalgo::forest_weight(&refalgo::kruskal(&wg))
    );

    let st = wcluster.run(SpanningForest::default()).output;
    assert!(refalgo::is_spanning_forest(&wg, &st.edges));
    assert_eq!(st.edges.len(), wg.n() - refalgo::component_count(&wg));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (n, m, seed): the gnm stream and the materialized gnm agree
    /// bit for bit, and sharding conserves every half-edge.
    #[test]
    fn gnm_streaming_parity_holds_for_random_shapes(
        n in 2usize..200,
        density in 0usize..4,
        seed in 0u64..1000,
    ) {
        let total = n * (n - 1) / 2;
        let m = (total * density / 4).min(total);
        let streamed = materialize(generators::gnm_stream(n, m, seed));
        let direct = generators::gnm(n, m, seed);
        prop_assert_eq!(streamed.edges(), direct.edges());
        let sg = ShardedGraph::from_stream(generators::gnm_stream(n, m, seed), 4, seed ^ 7);
        prop_assert_eq!(sg.m(), m);
        prop_assert_eq!(sg.total_half_edges(), 2 * m);
    }

    /// Random G(n, p): parity between the geometric-skip stream and the
    /// materialized constructor.
    #[test]
    fn gnp_streaming_parity_holds_for_random_shapes(
        n in 2usize..150,
        p_mil in 0u32..200,
        seed in 0u64..1000,
    ) {
        let p = p_mil as f64 / 1000.0;
        let streamed = materialize(generators::gnp_stream(n, p, seed));
        let direct = generators::gnp(n, p, seed);
        prop_assert_eq!(streamed.edges(), direct.edges());
    }
}
