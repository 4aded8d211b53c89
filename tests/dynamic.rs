//! Differential pin of the dynamic update subsystem (DESIGN.md §3.9):
//! for every scenario-matrix graph family, a live [`DynamicCluster`]
//! replays ≥ 4 update batches (insert-heavy, delete-heavy, churn,
//! reweight), and after *each* batch its Connectivity, SpanningForest and
//! Mst answers must be **bit-identical** to a fresh static `Cluster::run`
//! on the mutated edge set — plus sound against the sequential oracles,
//! with the model-accounting invariants intact, fault-free and under a
//! chaos cell.
//!
//! Also property-tests the storage layer: staged deltas + compaction must
//! reproduce fresh ingestion of the mutated edge sequence exactly, and the
//! per-shard `O(m/k + Δ)` bound must survive arbitrary churn.

mod common;

use common::{
    assert_labels_match_reference, assert_stats_sane, bandwidths, graph_families, traced, KS, SEEDS,
};
use kmm::prelude::*;
use kmm::randomness::prf::Prf;
use rustc_hash::FxHashSet;

/// Four deterministic batches for one family cell: insert-leaning, then
/// delete-leaning, then churn with a delete→re-insert, then a reweight
/// batch (delete + same-endpoint re-insert at a new weight inside ONE
/// batch). Every batch is valid in sequence against the evolving edge set.
fn batches_for(g: &Graph, seed: u64) -> Vec<UpdateBatch> {
    let prf = Prf::new(seed ^ 0xD74CE);
    let n = g.n() as u64;
    let mut present: FxHashSet<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
    let mut alive: Vec<(u32, u32)> = present.iter().copied().collect();
    alive.sort_unstable();
    let mut ctr = 0u64;
    let mut step = |m: u64| {
        ctr += 1;
        prf.eval_mod(0, ctr, m)
    };
    let mut first_deleted: Option<(u32, u32)> = None;
    let mut out = Vec::new();
    for (bi, insert_octile) in [(0usize, 7u64), (1, 1), (2, 4)] {
        let mut batch = UpdateBatch::new();
        for _ in 0..4 + bi {
            let want_insert = step(8) < insert_octile || alive.is_empty();
            if want_insert {
                for _ in 0..64 {
                    let (u, v) = (step(n) as u32, step(n) as u32);
                    if u == v {
                        continue;
                    }
                    let key = (u.min(v), u.max(v));
                    if present.insert(key) {
                        alive.push(key);
                        batch.push(UpdateOp::Insert {
                            u: key.0,
                            v: key.1,
                            w: 1 + step(100),
                        });
                        break;
                    }
                }
            } else {
                let i = step(alive.len() as u64) as usize;
                let key = alive.swap_remove(i);
                present.remove(&key);
                first_deleted.get_or_insert(key);
                batch.push(UpdateOp::Delete { u: key.0, v: key.1 });
            }
        }
        if bi == 2 {
            // Churn batch: resurrect the first casualty (linearity must
            // handle delete → re-insert of the same edge exactly).
            if let Some(key) = first_deleted {
                if present.insert(key) {
                    alive.push(key);
                    batch.push(UpdateOp::Insert {
                        u: key.0,
                        v: key.1,
                        w: 1 + step(100),
                    });
                }
            }
        }
        assert!(!batch.is_empty(), "degenerate batch for this cell");
        out.push(batch);
    }
    // Reweight batch: pick two live edges and re-insert each at a fresh
    // weight in the same batch (the splice must keep exactly one copy).
    let mut batch = UpdateBatch::new();
    let mut picked = FxHashSet::default();
    for _ in 0..2 {
        if alive.is_empty() {
            break;
        }
        let key = alive[step(alive.len() as u64) as usize];
        if !picked.insert(key) {
            continue;
        }
        batch.push(UpdateOp::Delete { u: key.0, v: key.1 });
        batch.push(UpdateOp::Insert {
            u: key.0,
            v: key.1,
            w: 1 + step(100),
        });
    }
    assert!(!batch.is_empty(), "degenerate reweight batch for this cell");
    out.push(batch);
    out
}

/// The tentpole pin: incremental answers are bit-identical to fresh static
/// runs after every batch, across every graph family of the matrix (k and
/// bandwidth rotate per family so every axis value appears). A low-`reps`
/// cell rides along: at one repetition sampling fails often, and a failed
/// sample may only delay a merge, never change what the splice produces.
#[test]
fn dynamic_answers_match_fresh_static_runs_across_families() {
    for &seed in &SEEDS {
        for (fi, (family, g)) in graph_families(seed).into_iter().enumerate() {
            let k = KS[fi % KS.len()];
            let bandwidth = bandwidths()[fi % 2];
            let id = format!("dyn/{family}/k{k}/{bandwidth:?}/seed{seed}");
            let conn_cfg = ConnectivityConfig {
                bandwidth,
                ..ConnectivityConfig::default()
            };
            let mst_cfg = MstConfig {
                bandwidth,
                ..MstConfig::default()
            };
            // `dc`'s solves and its update layer share one recording tracer,
            // so each solve's `Superstep` events cover its whole bill.
            let trace = Tracer::recording();
            let mut dc = DynamicCluster::wrap(
                Cluster::builder(k).seed(seed).ingest_graph(&g),
                DynConfig {
                    trace: trace.clone(),
                    ..DynConfig::default()
                },
            );
            let dc_conn_cfg = ConnectivityConfig {
                trace: trace.clone(),
                ..conn_cfg.clone()
            };
            let dc_mst_cfg = MstConfig {
                trace: trace.clone(),
                ..mst_cfg.clone()
            };
            // Connectivity and spanning forest only: the sketch MST is not
            // yet exact at low `reps` (ROADMAP item 1(a)).
            let low_cfg = ConnectivityConfig {
                reps: 1,
                ..conn_cfg.clone()
            };
            let mut low = DynamicCluster::wrap(
                Cluster::builder(k).seed(seed).ingest_graph(&g),
                DynConfig::default(),
            );
            let mut edges = g.edges().to_vec();
            dc.connectivity(&dc_conn_cfg); // warm base solves
            dc.mst(&dc_mst_cfg);
            low.connectivity(&low_cfg);
            let batches = batches_for(&g, seed.wrapping_add(fi as u64 * 101));
            assert!(batches.len() >= 4, "{id}: the pin needs ≥ 4 batches");
            for (bi, batch) in batches.iter().enumerate() {
                batch
                    .apply_to_edge_list(g.n(), &mut edges)
                    .unwrap_or_else(|e| panic!("{id} batch {bi}: {e}"));
                dc.apply(batch)
                    .unwrap_or_else(|e| panic!("{id} batch {bi}: {e}"));
                let (conn, conn_events) = traced(&trace, || dc.connectivity(&dc_conn_cfg));
                let (st, st_events) = traced(&trace, || dc.spanning_forest(&dc_mst_cfg));
                let (mst, mst_events) = traced(&trace, || dc.mst(&dc_mst_cfg));
                let mutated = Graph::from_dedup_edges(g.n(), edges.clone());
                let fresh = Cluster::builder(k).seed(seed).ingest_graph(&mutated);
                let fresh_conn = fresh.run(Connectivity::with(conn_cfg.clone()));
                let fresh_st = fresh.run(SpanningForest::with(mst_cfg.clone()));
                let fresh_mst = fresh.run(Mst::with(mst_cfg.clone()));
                // Bit-identity: the incremental path must reproduce the
                // static answers exactly, not just up to relabeling.
                assert_eq!(
                    conn.output.labels, fresh_conn.output.labels,
                    "{id} batch {bi}: connectivity labels must be bit-identical"
                );
                assert_eq!(
                    conn.output.counted_components, fresh_conn.output.counted_components,
                    "{id} batch {bi}: counted components"
                );
                assert_eq!(
                    st.output.edges, fresh_st.output.edges,
                    "{id} batch {bi}: spanning forest must be bit-identical"
                );
                assert_eq!(
                    mst.output.edges, fresh_mst.output.edges,
                    "{id} batch {bi}: MST must be bit-identical"
                );
                assert_eq!(
                    mst.output.total_weight, fresh_mst.output.total_weight,
                    "{id} batch {bi}: MST weight"
                );
                assert_eq!(
                    mst.output.total_weight,
                    refalgo::forest_weight(&refalgo::kruskal(&mutated)),
                    "{id} batch {bi}: Kruskal oracle"
                );
                // Soundness against the sequential oracles.
                assert_labels_match_reference(&id, &conn.output.labels, &mutated);
                assert!(
                    refalgo::is_spanning_forest(&mutated, &st.output.edges),
                    "{id} batch {bi}: forest must span the mutated graph"
                );
                assert_eq!(
                    st.output.edges.len(),
                    mutated.n() - refalgo::component_count(&mutated),
                    "{id} batch {bi}: forest size"
                );
                // Model accounting stays sane through update + certify.
                assert_stats_sane(&id, &conn.output.stats, k, &conn_events);
                assert_stats_sane(&id, &st.output.stats, k, &st_events);
                assert_stats_sane(&id, &mst.output.stats, k, &mst_events);
                // The low-`reps` cell.
                low.apply(batch)
                    .unwrap_or_else(|e| panic!("{id} batch {bi}: {e}"));
                let low_conn = low.connectivity(&low_cfg);
                let low_st = low.spanning_forest(&low_cfg);
                assert_eq!(
                    low_conn.output.labels,
                    fresh.run(Connectivity::with(low_cfg.clone())).output.labels,
                    "{id} batch {bi}: reps 1 connectivity labels must be bit-identical"
                );
                assert_eq!(
                    low_st.output.edges,
                    fresh
                        .run(SpanningForest::with(low_cfg.clone()))
                        .output
                        .edges,
                    "{id} batch {bi}: reps 1 spanning forest must be bit-identical"
                );
                assert_labels_match_reference(&id, &low_conn.output.labels, &mutated);
            }
            // The mutated cluster's storage still matches fresh ingestion.
            assert_eq!(dc.m(), edges.len(), "{id}: edge count after churn");
        }
    }
}

/// The same per-batch MST pin under a chaos cell: a seeded drop+dup+reorder
/// plan on both the update routing and the solves must leave every answer
/// bit-identical to the fault-free dynamic run AND a fresh static solve —
/// and the plan must actually fire.
#[test]
fn dynamic_mst_matches_static_under_faults() {
    use kmm::machine::fault::FaultPlan;
    for &seed in &SEEDS {
        for (fi, (family, g)) in graph_families(seed).into_iter().enumerate().step_by(5) {
            let k = KS[(fi / 5) % KS.len()];
            let plan = FaultPlan::new(seed ^ 0xD15C0)
                .with_drop(0.2)
                .with_dup(0.15)
                .with_reorder(0.3);
            let id = format!("dyn-mst-chaos/{family}/k{k}/seed{seed}");
            let mst_faulted = MstConfig {
                faults: Some(plan.clone()),
                ..MstConfig::default()
            };
            let mst_clean = MstConfig::default();
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
            let mut edges = g.edges().to_vec();
            faulted.mst(&mst_faulted);
            clean.mst(&mst_clean);
            let mut fired = 0u64;
            for (bi, batch) in batches_for(&g, seed ^ 0xC0FFEE).iter().enumerate() {
                batch
                    .apply_to_edge_list(g.n(), &mut edges)
                    .unwrap_or_else(|e| panic!("{id} batch {bi}: {e}"));
                faulted
                    .apply(batch)
                    .unwrap_or_else(|e| panic!("{id} batch {bi}: {e}"));
                clean
                    .apply(batch)
                    .unwrap_or_else(|e| panic!("{id} batch {bi}: {e}"));
                let run_f = faulted.mst(&mst_faulted);
                let run_c = clean.mst(&mst_clean);
                fired += run_f.report.stats.faults_injected + run_f.report.update.faults_injected;
                assert_eq!(
                    run_f.output.edges, run_c.output.edges,
                    "{id} batch {bi}: faulted vs clean dynamic MST"
                );
                let mutated = Graph::from_dedup_edges(g.n(), edges.clone());
                let fresh = Cluster::builder(k)
                    .seed(seed)
                    .ingest_graph(&mutated)
                    .run(Mst::with(mst_clean.clone()));
                assert_eq!(
                    run_c.output.edges, fresh.output.edges,
                    "{id} batch {bi}: dynamic vs fresh static MST"
                );
                assert_eq!(
                    run_f.output.total_weight, fresh.output.total_weight,
                    "{id} batch {bi}: MST weight under faults"
                );
            }
            assert!(fired > 0, "{id}: the chaos plan never fired");
        }
    }
}

/// A batch that only touches one component leaves every other component's
/// labels and forest edges untouched — the surviving structure really is
/// reused, not recomputed.
#[test]
fn untouched_components_survive_verbatim() {
    // Two far-apart planted paths plus an isolated blob.
    let mut list: Vec<(u32, u32)> = (0..40).map(|i| (i, i + 1)).collect();
    list.extend((50..90).map(|i| (i, i + 1)));
    let g = Graph::unweighted(100, list);
    let (k, seed) = (5, 9);
    let cfg = ConnectivityConfig::default();
    let mut dc = DynamicCluster::wrap(
        Cluster::builder(k).seed(seed).ingest_graph(&g),
        DynConfig::default(),
    );
    let before = dc.connectivity(&cfg);
    let forest_before: Vec<_> = dc.forest().unwrap().to_vec();
    // Churn strictly inside the second path's component.
    let batch = UpdateBatch::new().delete(60, 61).insert(60, 75, 2);
    dc.apply(&batch).unwrap();
    let after = dc.connectivity(&cfg);
    match dc.last_refresh() {
        RefreshKind::Incremental { active_vertices } => assert!(
            active_vertices <= 41,
            "only the touched component may be re-solved, got {active_vertices}"
        ),
        other => panic!("expected an incremental refresh, got {other:?}"),
    }
    // First path (vertices 0..=40) and the isolated vertices: identical.
    for v in (0..=40).chain(91..100) {
        assert_eq!(
            before.output.labels[v], after.output.labels[v],
            "vertex {v} is in an untouched component"
        );
    }
    let forest_after = dc.forest().unwrap();
    for e in &forest_before {
        if e.u <= 40 {
            assert!(
                forest_after.contains(e),
                "untouched forest edge {e:?} must survive"
            );
        }
    }
}

/// A solve stopped by `max_phases` leaves labels that need not be closed
/// components, and a restricted re-run needs a mask closed under
/// adjacency: the next refresh must re-solve in full, and both answers
/// match a fresh static run under the same cap.
#[test]
fn a_phase_capped_solve_is_never_spliced() {
    let k = 4;
    let cfg = ConnectivityConfig {
        max_phases: Some(2),
        ..ConnectivityConfig::default()
    };
    for seed in 0..8 {
        let g = generators::planted_components(240, 6, 30, seed);
        let e = g.edges()[0];
        let batch = UpdateBatch::new().delete(e.u, e.v);
        let mut edges = g.edges().to_vec();
        batch.apply_to_edge_list(g.n(), &mut edges).unwrap();
        let mutated = Graph::from_dedup_edges(g.n(), edges);
        let fresh = Cluster::builder(k).seed(seed).ingest_graph(&mutated);
        let solved_then_deleted = || {
            let cluster = Cluster::builder(k).seed(seed).ingest_graph(&g);
            let mut dc = DynamicCluster::wrap(cluster, DynConfig::default());
            dc.connectivity(&cfg);
            dc.apply(&batch).unwrap();
            dc
        };
        assert_eq!(
            solved_then_deleted().connectivity(&cfg).output.labels,
            fresh.run(Connectivity::with(cfg.clone())).output.labels,
            "seed {seed}: connectivity"
        );
        assert_eq!(
            solved_then_deleted().spanning_forest(&cfg).output.edges,
            fresh.run(SpanningForest::with(cfg.clone())).output.edges,
            "seed {seed}: spanning forest"
        );
    }
}

mod storage_properties {
    use super::*;
    use kmm::graph::graph::Edge;
    use kmm::graph::stream::VecStream;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Arbitrary valid churn, staged in random chunks with compactions
        /// interleaved, always lands shards bit-identical to fresh
        /// ingestion of the mutated sequence — and inside the storage
        /// bound.
        #[test]
        fn staged_churn_equals_fresh_ingestion(
            seed in 0u64..1000,
            k in 2usize..7,
            churn in 8usize..40,
        ) {
            let g = generators::gnm(60, 140, seed);
            let part = Partition::random_vertex(&g, k, seed ^ 0xF00);
            let mut sg = ShardedGraph::from_graph(&g, &part);
            let mut edges = g.edges().to_vec();
            let prf = Prf::new(seed ^ 0xBEEF);
            let mut ctr = 0u64;
            let mut step = |m: u64| { ctr += 1; prf.eval_mod(1, ctr, m) };
            for i in 0..churn {
                if step(2) == 0 && !edges.is_empty() {
                    let at = step(edges.len() as u64) as usize;
                    let e = edges.remove(at);
                    sg.stage_delete(e.u, e.v);
                } else {
                    let (u, v) = (step(60) as u32, step(60) as u32);
                    if u == v || edges.iter().any(|e| (e.u, e.v) == (u.min(v), u.max(v))) {
                        continue;
                    }
                    let w = 1 + step(50);
                    sg.stage_insert(u, v, w);
                    edges.push(Edge::new(u, v, w));
                }
                if i % 7 == 3 {
                    sg.compact();
                }
            }
            sg.compact();
            let want = ShardedGraph::from_stream_with_partition(
                VecStream::new(60, edges.clone()),
                part.clone(),
            );
            prop_assert_eq!(sg.m(), want.m());
            prop_assert_eq!(sg.total_half_edges(), 2 * want.m());
            for i in 0..k {
                prop_assert_eq!(sg.view(i).verts(), want.view(i).verts());
                for &v in sg.view(i).verts() {
                    prop_assert_eq!(
                        sg.view(i).neighbors(v),
                        want.view(i).neighbors(v),
                        "adjacency of {} after churn", v
                    );
                }
            }
            // The O(m/k + Δ) storage envelope survives churn.
            let fair = (2 * sg.m() / k).max(1);
            let delta = sg.max_degree();
            for load in sg.shard_loads() {
                prop_assert!(load <= 3 * fair + 2 * delta);
            }
        }
    }
}
