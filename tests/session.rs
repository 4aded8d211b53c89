//! The session API contract (ISSUE 3 acceptance):
//!
//! (a) **Cluster reuse is bit-identical to single-use clusters.** Running
//!     connectivity, then MST, then spanning forest, then flooding on *one*
//!     ingested `Cluster` produces exactly the labels, edges and full
//!     `CommStats` of running each on a fresh cluster of its own — built
//!     through `ingest_graph` or by adopting independently built shards —
//!     on every graph family of the scenario matrix (`sub_matrix` provably
//!     keeps every family, `k`, bandwidth and seed represented).
//!
//! (b) **Ingestion happens exactly once per cluster**, however many
//!     algorithms run on it — pinned via the thread-local shard-build
//!     counter `kgraph::sharded::ingest_count`.

mod common;

use common::{assert_stats_sane, sub_matrix};
use kmm::graph::sharded::ingest_count;
use kmm::prelude::*;

/// Every ledger field two runs must share to count as the same run.
fn assert_same_stats(id: &str, what: &str, a: &CommStats, b: &CommStats) {
    assert_eq!(a.rounds, b.rounds, "{id}: {what} rounds");
    assert_eq!(a.supersteps, b.supersteps, "{id}: {what} supersteps");
    assert_eq!(a.messages, b.messages, "{id}: {what} messages");
    assert_eq!(a.total_bits, b.total_bits, "{id}: {what} total bits");
    assert_eq!(a.max_link_bits, b.max_link_bits, "{id}: {what} max link");
    assert_eq!(a.sent_bits, b.sent_bits, "{id}: {what} per-machine sent");
    assert_eq!(a.recv_bits, b.recv_bits, "{id}: {what} per-machine recv");
}

/// (a): four runs on one cluster ≡ four fresh single-use clusters, bit for
/// bit — outputs and `CommStats` — whichever way the fresh cluster got its
/// shards.
#[test]
fn cluster_reuse_is_bit_identical_to_one_shot_paths() {
    for s in sub_matrix(4, 1) {
        let cluster = s.cluster();
        let (conn_cfg, mst_cfg, st_cfg) = (s.cfg(), s.cfg(), s.cfg());
        let conn = cluster.run(Connectivity::with(conn_cfg.clone()));
        let mst = cluster.run(Mst::with(mst_cfg.clone()));
        let st = cluster.run(SpanningForest::with(st_cfg.clone()));
        let flood = cluster.run(Flooding::with(s.cfg()));
        assert_eq!(conn.report.problem, "conn", "{}: report name", s.id);
        assert_eq!(conn.report.phases, conn.output.phases, "{}: phases", s.id);
        assert_eq!(
            flood.report.phases, flood.output.graph_rounds,
            "{}: flooding graph-rounds surface as report phases",
            s.id
        );

        // One fresh single-use cluster per problem.
        let conn1 = s.cluster().run(Connectivity::with(s.cfg()));
        let mst1 = s.cluster().run(Mst::with(s.cfg()));
        let st1 = s.cluster().run(SpanningForest::with(s.cfg()));
        let flood1 = s.cluster().run(Flooding::with(s.cfg()));
        assert_eq!(conn.output.labels, conn1.output.labels, "{}: labels", s.id);
        assert_eq!(
            conn.output.sketch_builds, conn1.output.sketch_builds,
            "{}: conn sketch builds",
            s.id
        );
        assert_eq!(mst.output.edges, mst1.output.edges, "{}: MST edges", s.id);
        assert_eq!(st.output.edges, st1.output.edges, "{}: forest edges", s.id);
        assert_eq!(flood.output.labels, flood1.output.labels, "{}: flood", s.id);
        assert_same_stats(&s.id, "conn", &conn.report.stats, &conn1.report.stats);
        assert_same_stats(&s.id, "MST", &mst.report.stats, &mst1.report.stats);
        assert_same_stats(&s.id, "forest", &st.report.stats, &st1.report.stats);
        assert_same_stats(&s.id, "flood", &flood.report.stats, &flood1.report.stats);

        // Shards built without the session layer, then adopted — the path
        // for callers that carry their own partition.
        let part = Partition::random_vertex(&s.g, s.k, s.seed);
        let adopted = Cluster::builder(s.k)
            .seed(s.seed)
            .adopt(ShardedGraph::from_graph(&s.g, &part));
        let conn2 = adopted.run(Connectivity::with(s.cfg()));
        let mst2 = adopted.run(Mst::with(s.cfg()));
        assert_eq!(conn.output.labels, conn2.output.labels, "{}: adopted", s.id);
        assert_eq!(mst.output.edges, mst2.output.edges, "{}: adopted MST", s.id);
        assert_same_stats(
            &s.id,
            "adopted conn",
            &conn.report.stats,
            &conn2.report.stats,
        );
        assert_same_stats(&s.id, "adopted MST", &mst.report.stats, &mst2.report.stats);

        // Every report passes the model-accounting invariants.
        assert_stats_sane(&s.id, &conn.report.stats, s.k, &conn_cfg.trace.events());
        assert_stats_sane(&s.id, &mst.report.stats, s.k, &mst_cfg.trace.events());
        assert_stats_sane(&s.id, &st.report.stats, s.k, &st_cfg.trace.events());
    }
}

/// (b): the shard-build counter advances exactly once per cluster, however
/// many problems run on it. (The counter is thread-local, so concurrently
/// running tests in this binary cannot interfere.)
#[test]
fn cluster_ingests_exactly_once() {
    let g = generators::randomize_weights(&generators::gnm(200, 600, 5), 100, 6);
    let before = ingest_count();
    let cluster = Cluster::builder(4).seed(9).ingest_graph(&g);
    assert_eq!(
        ingest_count(),
        before + 1,
        "building the cluster ingests once"
    );
    let _ = cluster.run(Connectivity::default());
    let _ = cluster.run(Mst::default());
    let _ = cluster.run(SpanningForest::default());
    let _ = cluster.run(MinCut::default());
    let _ = cluster.run(Flooding::default());
    let _ = cluster.run(Referee::default());
    let _ = cluster.run(EdgeBoruvka::default());
    assert_eq!(
        ingest_count(),
        before + 1,
        "running seven problems must not re-shard the input"
    );
}

/// Streamed and materialized ingestion build the same cluster: same shard
/// contents, same downstream bits.
#[test]
fn streamed_and_materialized_clusters_agree() {
    let (k, seed) = (5, 31);
    let builder = Cluster::builder(k).seed(seed);
    let streamed = builder.ingest_stream(generators::random_connected_stream(600, 400, 8));
    let materialized = builder.ingest_graph(&generators::random_connected(600, 400, 8));
    let a = streamed.run(Connectivity::default());
    let b = materialized.run(Connectivity::default());
    assert_eq!(a.output.labels, b.output.labels);
    assert_eq!(a.report.stats.rounds, b.report.stats.rounds);
    assert_eq!(a.report.stats.total_bits, b.report.stats.total_bits);
    let ma = streamed.run(Mst::default());
    let mb = materialized.run(Mst::default());
    assert_eq!(ma.output.edges, mb.output.edges);
}

/// The REP baseline flows through the session too, and matches the Kruskal
/// oracle on a reused cluster.
#[test]
fn rep_mst_runs_on_a_reused_cluster() {
    let g = generators::randomize_weights(&generators::gnm(180, 700, 13), 300, 14);
    let cluster = Cluster::builder(6).seed(15).ingest_graph(&g);
    let rvp = cluster.run(Mst::default());
    let rep = cluster.run(RepMst::default());
    let want = refalgo::forest_weight(&refalgo::kruskal(&g));
    assert_eq!(rvp.output.total_weight as u128, want as u128);
    assert_eq!(rep.output.mst.total_weight as u128, want as u128);
    // The REP pipeline pays its Θ~(n/k) routing stage on top.
    assert!(rep.output.routing.rounds > 0);
    assert_eq!(rep.report.problem, "rep-mst");
}
