//! Differential conformance: every distributed algorithm — the four
//! headliners (connectivity, MST, min cut, verification) and the four
//! baselines (flooding, edge-checking Borůvka, referee, REP MST) — is
//! driven through the shared scenario matrix (`tests/common/`) and pinned
//! against exact sequential oracles from `kgraph::refalgo` /
//! `kgraph::mincut`, with the model-accounting invariants checked on every
//! single run. All seeds are fixed: a green run is reproducibly green.
//!
//! Every algorithm dispatches through the session API (`Scenario::cluster`
//! → `Cluster::run`), which is bit-identical to the legacy one-shot entry
//! points (pinned separately in `tests/session.rs`); tests that compare
//! several algorithms on one cell reuse a single ingested cluster.

mod common;

use common::{
    assert_labels_match_reference, assert_stats_sane, bandwidths, fifo_drain, graph_families,
    matrix, sub_matrix, traced, KS, SEEDS,
};
use kmm::algo::baselines::edge_boruvka::CheckMode;
use kmm::algo::verify;
use kmm::machine::bsp::Bsp;
use kmm::machine::message::{BatchWire, Envelope, WireSize};
use kmm::machine::network::NetworkConfig;
use kmm::prelude::*;
use rustc_hash::FxHashSet;

// ---------------------------------------------------------------------
// Headliner 1: connected components (Theorem 1) — full matrix.
// ---------------------------------------------------------------------

#[test]
fn connectivity_conforms_on_full_matrix() {
    for s in matrix() {
        let cfg = s.cfg();
        let out = s.cluster().run(Connectivity::with(cfg.clone())).output;
        assert_eq!(
            out.component_count(),
            refalgo::component_count(&s.g),
            "{}: component count",
            s.id
        );
        assert_labels_match_reference(&s.id, &out.labels, &s.g);
        if let Some(counted) = out.counted_components {
            assert_eq!(
                counted as usize,
                refalgo::component_count(&s.g),
                "{}: §2.6 output protocol count",
                s.id
            );
        }
        assert!(out.phases > 0, "{}: at least one phase", s.id);
        assert_stats_sane(&s.id, &out.stats, s.k, &cfg.trace.events());
        assert!(out.stats.rounds > 0, "{}: rounds must be charged", s.id);
    }
}

// ---------------------------------------------------------------------
// Headliner 2: MST (Theorem 2) — both output criteria.
// ---------------------------------------------------------------------

#[test]
fn mst_conforms_against_kruskal() {
    for s in sub_matrix(2, 0) {
        let cfg = s.cfg();
        let out = s.cluster().run(Mst::with(cfg.clone())).output;
        assert!(
            refalgo::is_spanning_forest(&s.g, &out.edges),
            "{}: output must span",
            s.id
        );
        assert_eq!(
            out.total_weight,
            refalgo::forest_weight(&refalgo::kruskal(&s.g)),
            "{}: MST weight",
            s.id
        );
        assert_eq!(
            out.total_weight,
            refalgo::forest_weight(&out.edges),
            "{}: reported weight matches reported edges",
            s.id
        );
        assert_stats_sane(&s.id, &out.stats, s.k, &cfg.trace.events());
    }
}

#[test]
fn mst_both_endpoints_criterion_conforms() {
    for s in sub_matrix(5, 1) {
        let cfg = MstConfig {
            criterion: OutputCriterion::BothEndpoints,
            ..s.cfg()
        };
        let out = s.cluster().run(Mst::with(cfg.clone())).output;
        assert_eq!(
            out.total_weight,
            refalgo::forest_weight(&refalgo::kruskal(&s.g)),
            "{}: criterion (b) weight",
            s.id
        );
        assert_stats_sane(&s.id, &out.stats, s.k, &cfg.trace.events());
    }
}

#[test]
fn spanning_forest_conforms() {
    for s in sub_matrix(4, 2) {
        let cfg = s.cfg();
        let out = s.cluster().run(SpanningForest::with(cfg.clone())).output;
        assert!(
            refalgo::is_spanning_forest(&s.g, &out.edges),
            "{}: forest must span",
            s.id
        );
        assert_eq!(
            out.edges.len(),
            s.g.n() - refalgo::component_count(&s.g),
            "{}: forest size = n - #components",
            s.id
        );
        assert_stats_sane(&s.id, &out.stats, s.k, &cfg.trace.events());
    }
}

// ---------------------------------------------------------------------
// Headliner 3: approximate min cut (Theorem 3) — connected cells only.
// ---------------------------------------------------------------------

#[test]
fn mincut_estimate_brackets_stoer_wagner() {
    for s in sub_matrix(3, 0) {
        if !refalgo::is_connected(&s.g) {
            continue;
        }
        let lambda = kmm::graph::mincut::stoer_wagner(&s.g).expect("connected graph has a cut");
        let cfg = s.cfg();
        let out = s.cluster().run(MinCut::with(cfg.clone())).output;
        let logn = (s.g.n() as f64).log2();
        let est = out.estimate.max(1) as f64;
        let ratio = (est / lambda as f64).max(lambda as f64 / est);
        assert!(
            ratio <= 4.0 * logn,
            "{}: estimate {} vs λ={lambda} (ratio {ratio:.1}, O(log n)={logn:.1})",
            s.id,
            out.estimate
        );
        assert!(out.probes > 0, "{}: must probe", s.id);
        assert_stats_sane(&s.id, &out.stats, s.k, &cfg.trace.events());
    }
}

// ---------------------------------------------------------------------
// Headliner 4: the Theorem 4 verification problems, all eight, against
// sequential predicates. Derived H-subgraphs make both answers appear.
// ---------------------------------------------------------------------

fn edge_set(edges: &[kmm::graph::graph::Edge]) -> FxHashSet<(u32, u32)> {
    edges.iter().map(|e| (e.u, e.v)).collect()
}

#[test]
fn verification_problems_conform() {
    for s in sub_matrix(4, 3) {
        let cfg = s.cfg();
        let g = &s.g;
        let connected = refalgo::is_connected(g);

        // spanning connected subgraph: the full edge set is one iff G is
        // connected; dropping a spanning-forest edge always breaks it.
        let all = edge_set(g.edges());
        let (v, events) = traced(&cfg.trace, || {
            verify::spanning_connected_subgraph(g, &all, s.k, s.seed, &cfg)
        });
        assert_eq!(v.holds, connected, "{}: scs(full)", s.id);
        assert_stats_sane(&s.id, &v.stats, s.k, &events);
        let forest = refalgo::kruskal(g);
        if let Some(drop) = forest.first() {
            let mut pruned = all.clone();
            pruned.remove(&(drop.u, drop.v));
            let v = verify::spanning_connected_subgraph(g, &pruned, s.k, s.seed, &cfg);
            let hg = g.edge_subgraph(&pruned);
            assert_eq!(v.holds, refalgo::is_connected(&hg), "{}: scs(pruned)", s.id);
        }

        // cycle containment: a spanning forest has none; the full graph has
        // one iff m > n - #components.
        let vf = verify::cycle_containment(g, &edge_set(&forest), s.k, s.seed, &cfg);
        assert!(!vf.holds, "{}: forests are acyclic", s.id);
        let (vg, events) = traced(&cfg.trace, || {
            verify::cycle_containment(g, &all, s.k, s.seed, &cfg)
        });
        assert_eq!(vg.holds, refalgo::has_cycle(g), "{}: cycle(full)", s.id);
        assert_stats_sane(&s.id, &vg.stats, s.k, &events);

        // e-cycle containment for the first graph edge.
        if let Some(e) = g.edges().first() {
            let (ve, events) = traced(&cfg.trace, || {
                verify::e_cycle_containment(g, &all, (e.u, e.v), s.k, s.seed, &cfg)
            });
            assert_eq!(
                ve.holds,
                refalgo::edge_on_cycle(g, e.u, e.v),
                "{}: e-cycle({},{})",
                s.id,
                e.u,
                e.v
            );
            assert_stats_sane(&s.id, &ve.stats, s.k, &events);
        }

        // s-t connectivity: endpoints of an edge are connected; vertices in
        // different reference components are not.
        let labels = refalgo::connected_components(g);
        let (s0, t_conn) = match g.edges().first() {
            Some(e) => (e.u, e.v),
            None => (0, 0),
        };
        if g.m() > 0 {
            let (v, events) = traced(&cfg.trace, || {
                verify::st_connectivity(g, s0, t_conn, s.k, s.seed, &cfg)
            });
            assert!(v.holds, "{}: edge endpoints are connected", s.id);
            assert_stats_sane(&s.id, &v.stats, s.k, &events);
        }
        if let Some(t_far) = (0..g.n() as u32).find(|&v| labels[v as usize] != labels[s0 as usize])
        {
            let v = verify::st_connectivity(g, s0, t_far, s.k, s.seed, &cfg);
            assert!(
                !v.holds,
                "{}: cross-component pair must be disconnected",
                s.id
            );
        }

        // cut verification: all edges incident to vertex 0 form a cut iff
        // removing them disconnects 0 from something still present.
        if g.degree(0) > 0 {
            let cut: FxHashSet<(u32, u32)> =
                g.neighbors(0).iter().map(|&(nb, _)| (0, nb)).collect();
            let (v, events) = traced(&cfg.trace, || {
                verify::cut_verification(g, &cut, s.k, s.seed, &cfg)
            });
            let reduced = g.without_edges(&cut);
            let expect = refalgo::component_count(&reduced) > refalgo::component_count(g);
            assert_eq!(v.holds, expect, "{}: cut(vertex 0 star)", s.id);
            assert_stats_sane(&s.id, &v.stats, s.k, &events);
        }

        // edge on all s-t paths: a spanning-forest edge of a connected pair.
        if let Some(e) = forest.first() {
            let (v, events) = traced(&cfg.trace, || {
                verify::edge_on_all_paths(g, (e.u, e.v), e.u, e.v, s.k, s.seed, &cfg)
            });
            let expect = !refalgo::edge_on_cycle(g, e.u, e.v);
            assert_eq!(v.holds, expect, "{}: edge-on-all-paths", s.id);
            assert_stats_sane(&s.id, &v.stats, s.k, &events);
        }

        // s-t cut verification: the full edge set always cuts a connected
        // pair; the empty set never does.
        if g.m() > 0 {
            let v = verify::st_cut_verification(g, &all, s0, t_conn, s.k, s.seed, &cfg);
            assert!(v.holds, "{}: removing all edges cuts any edge pair", s.id);
            let none = FxHashSet::default();
            let (v, events) = traced(&cfg.trace, || {
                verify::st_cut_verification(g, &none, s0, t_conn, s.k, s.seed, &cfg)
            });
            assert!(!v.holds, "{}: the empty set cuts nothing connected", s.id);
            assert_stats_sane(&s.id, &v.stats, s.k, &events);
        }

        // bipartiteness against two-coloring.
        let (v, events) = traced(&cfg.trace, || verify::bipartiteness(g, s.k, s.seed, &cfg));
        assert_eq!(
            v.holds,
            refalgo::bipartition(g).is_some(),
            "{}: bipartiteness",
            s.id
        );
        assert_stats_sane(&s.id, &v.stats, s.k, &events);
    }
}

// ---------------------------------------------------------------------
// Baselines 1–2: flooding and referee connectivity.
// ---------------------------------------------------------------------

/// Max over vertices reachable from `src` of the minimum number of
/// *inter-machine* edges on any path from `src` (0-1 BFS). Flooding
/// relaxes labels within a machine for free, so this — not the graph
/// eccentricity — is the causal lower bound on its graph-rounds.
fn machine_hop_eccentricity(g: &Graph, part: &Partition, src: u32) -> u32 {
    let mut dist = vec![u32::MAX; g.n()];
    let mut dq = std::collections::VecDeque::new();
    dist[src as usize] = 0;
    dq.push_back(src);
    let mut ecc = 0;
    while let Some(u) = dq.pop_front() {
        let du = dist[u as usize];
        ecc = ecc.max(du);
        for &(v, _) in g.neighbors(u) {
            let cost = u32::from(part.home(u) != part.home(v));
            if du + cost < dist[v as usize] {
                dist[v as usize] = du + cost;
                if cost == 0 {
                    dq.push_front(v);
                } else {
                    dq.push_back(v);
                }
            }
        }
    }
    ecc
}

#[test]
fn flooding_conforms_on_matrix() {
    for s in sub_matrix(2, 1) {
        let cfg = s.cfg();
        let out = s.cluster().run(Flooding::with(cfg.clone())).output;
        assert_labels_match_reference(&s.id, &out.labels, &s.g);
        // Label 0 starts at vertex 0 and must cross every inter-machine
        // edge on some causal path, one per graph-round; flooding uses the
        // same (g, k, seed) partition reconstructed here.
        let part = Partition::random_vertex(&s.g, s.k, s.seed);
        let bound = machine_hop_eccentricity(&s.g, &part, 0).max(1);
        assert!(
            out.graph_rounds >= bound,
            "{}: flooding needs ≥ {bound} graph-rounds (machine-hop ecc), took {}",
            s.id,
            out.graph_rounds
        );
        assert_stats_sane(&s.id, &out.stats, s.k, &cfg.trace.events());
    }
}

#[test]
fn referee_conforms_on_matrix() {
    for s in sub_matrix(2, 0) {
        let cfg = s.cfg();
        let out = s.cluster().run(Referee::with(cfg.clone())).output;
        assert_labels_match_reference(&s.id, &out.labels, &s.g);
        assert_stats_sane(&s.id, &out.stats, s.k, &cfg.trace.events());
        // The referee hoards everything: every transmitted bit lands on
        // machine 0. (On e.g. a star whose center is homed at machine 0,
        // all edges can be referee-local and nothing is transmitted.)
        assert_eq!(
            out.stats.recv_bits[0], out.stats.total_bits,
            "{}: all transmitted bits must land on the referee",
            s.id
        );
    }
}

// ---------------------------------------------------------------------
// Baselines 3–4: edge-checking Borůvka (both check modes) and REP MST.
// ---------------------------------------------------------------------

#[test]
fn edge_boruvka_conforms_in_both_check_modes() {
    for s in sub_matrix(4, 1) {
        let want = refalgo::forest_weight(&refalgo::kruskal(&s.g));
        let c = s.cluster();
        for mode in [CheckMode::BatchedPush, CheckMode::PerEdgeTest] {
            let cfg = s.cfg();
            let out = c
                .run(EdgeBoruvka {
                    cfg: cfg.clone(),
                    mode,
                })
                .output;
            assert!(
                refalgo::is_spanning_forest(&s.g, &out.edges),
                "{}/{mode:?}: spans",
                s.id
            );
            assert_eq!(out.total_weight, want, "{}/{mode:?}: weight", s.id);
            assert_stats_sane(&s.id, &out.stats, s.k, &cfg.trace.events());
        }
    }
}

#[test]
fn rep_mst_conforms_under_edge_partition() {
    for s in sub_matrix(4, 0) {
        let cfg = s.cfg();
        let out = s.cluster().run(RepMst::with(cfg.clone())).output;
        assert!(
            refalgo::is_spanning_forest(&s.g, &out.mst.edges),
            "{}: spans",
            s.id
        );
        assert_eq!(
            out.mst.total_weight,
            refalgo::forest_weight(&refalgo::kruskal(&s.g)),
            "{}: weight under REP",
            s.id
        );
        assert!(
            out.filtered_edges <= s.g.m(),
            "{}: filtering cannot invent edges",
            s.id
        );
        assert!(
            out.filtered_edges >= s.g.n() - refalgo::component_count(&s.g),
            "{}: filtering must keep a spanning structure",
            s.id
        );
        assert_stats_sane(&s.id, &out.mst.stats, s.k, &cfg.trace.events());
    }
}

// ---------------------------------------------------------------------
// Cross-algorithm agreement: independent implementations of the same
// problem agree cell by cell.
// ---------------------------------------------------------------------

#[test]
fn all_connectivity_algorithms_agree() {
    for s in sub_matrix(5, 2) {
        let want = refalgo::component_count(&s.g);
        // Three independent implementations of the same problem, one
        // ingested cluster: the duplicated per-algorithm dispatch the
        // session API exists to collapse.
        let cl = s.cluster();
        let a = cl.run(Connectivity::with(s.cfg())).output.component_count();
        let b = cl.run(Flooding::with(s.cfg())).output.component_count();
        let c = {
            let mut l = cl.run(Referee::with(s.cfg())).output.labels;
            l.sort_unstable();
            l.dedup();
            l.len()
        };
        assert!(
            a == want && b == want && c == want,
            "{}: sketches={a} flooding={b} referee={c} reference={want}",
            s.id
        );
    }
}

#[test]
fn all_mst_algorithms_agree() {
    for s in sub_matrix(6, 4) {
        let want = refalgo::forest_weight(&refalgo::kruskal(&s.g));
        let cl = s.cluster();
        let a = cl.run(Mst::with(s.cfg())).output.total_weight;
        let b = cl.run(EdgeBoruvka::with(s.cfg())).output.total_weight;
        let c = cl.run(RepMst::with(s.cfg())).output.mst.total_weight;
        assert!(
            a == want && b == want && c == want,
            "{}: sketch={a} boruvka={b} rep={c} kruskal={want}",
            s.id
        );
    }
}

// ---------------------------------------------------------------------
// Determinism: reruns of a cell are bit-identical; the partition axis
// (RVP vs REP) and the seed axis actually matter.
// ---------------------------------------------------------------------

#[test]
fn scenario_runs_are_deterministic() {
    for s in sub_matrix(7, 3) {
        // Rerunning on the same cluster and on a freshly ingested one must
        // both be bit-identical.
        let cl = s.cluster();
        let a = cl.run(Connectivity::with(s.cfg())).output;
        let b = cl.run(Connectivity::with(s.cfg())).output;
        let fresh = s.cluster().run(Connectivity::with(s.cfg())).output;
        assert_eq!(a.labels, b.labels, "{}: labels identical", s.id);
        assert_eq!(a.labels, fresh.labels, "{}: fresh-cluster labels", s.id);
        assert_eq!(a.stats.rounds, b.stats.rounds, "{}: rounds identical", s.id);
        assert_eq!(
            a.stats.total_bits, b.stats.total_bits,
            "{}: bits identical",
            s.id
        );
        let m = cl.run(Mst::with(s.cfg())).output;
        let m2 = cl.run(Mst::with(s.cfg())).output;
        assert_eq!(m.edges, m2.edges, "{}: MST edges identical", s.id);
    }
}

#[test]
fn partition_models_are_distinct_but_agree_on_answers() {
    let g = generators::randomize_weights(&generators::gnm(120, 300, 5), 500, 6);
    for &k in &KS {
        for &seed in &SEEDS {
            let id = format!("partition-axis/k{k}/seed{seed}");
            let rvp = Partition::random_vertex(&g, k, seed);
            let rep = Partition::random_edge(&g, k, seed);
            assert_eq!(rvp.kind(), PartitionKind::Rvp, "{id}");
            assert_eq!(rep.kind(), PartitionKind::Rep, "{id}");
            let covered: usize = (0..k).map(|i| rep.edges_of(&g, i).len()).sum();
            assert_eq!(covered, g.m(), "{id}: REP covers each edge exactly once");
            // Same answer through both models' MST paths, one cluster.
            let want = refalgo::forest_weight(&refalgo::kruskal(&g));
            let cl = Cluster::builder(k).seed(seed).ingest_graph(&g);
            let a = cl.run(Mst::default()).output.total_weight;
            let b = cl.run(RepMst::default()).output.mst.total_weight;
            assert!(a == want && b == want, "{id}: rvp={a} rep={b} want={want}");
        }
    }
}

// ---------------------------------------------------------------------
// BSP charge = store-and-forward drain time (DESIGN.md §3.1): the analytic
// round charge of the superstep layer equals the round count of the
// round-by-round per-link FIFO reference (`common::fifo_drain`) for the
// same batch, across the matrix's bandwidth and k axes. Three batch
// shapes per cell: uniform random traffic; heavy skew (everything on one
// link, so `max_link` is the whole batch and most messages exceed a tight
// W and carry over several rounds); and many small messages (several per
// round per link, so the partial-transmission carry is what decides the
// count).
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Blob(u64);

impl WireSize for Blob {
    fn wire_bits(&self) -> u64 {
        self.0
    }
}

impl BatchWire for Blob {}

#[test]
fn bsp_round_charge_matches_fine_grained_network() {
    for &k in &KS {
        for &bandwidth in &bandwidths() {
            for &seed in &SEEDS {
                // Deterministic pseudo-random batches from the cell seed.
                let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k as u64;
                let mut step = || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let mut batch = |count: usize, max_bits: u64, one_link: bool| {
                    (0..count)
                        .map(|_| {
                            let (s, d) = if one_link {
                                (0, 1)
                            } else {
                                let s = step() as usize % k;
                                (s, (s + 1 + step() as usize % (k - 1)) % k)
                            };
                            (s, d, 1 + step() % max_bits)
                        })
                        .collect::<Vec<(usize, usize, u64)>>()
                };
                let batches = [
                    ("random", batch(60, 300, false)),
                    ("one-link", batch(60, 300, true)),
                    ("many-small", batch(400, 7, false)),
                ];
                for (shape, msgs) in batches {
                    let id = format!("bsp-parity/{shape}/k{k}/{bandwidth:?}/seed{seed}");
                    let cfg = NetworkConfig::new(k, bandwidth, 256);
                    let mut bsp: Bsp<Blob> = Bsp::new(cfg);
                    bsp.superstep(
                        msgs.iter()
                            .map(|&(s, d, b)| Envelope::new(s, d, Blob(b)))
                            .collect(),
                    );
                    let (rounds, total_bits) = fifo_drain(k, cfg.link_bits(), &msgs);
                    assert_eq!(bsp.stats().rounds, rounds, "{id}: round parity");
                    assert_eq!(bsp.stats().total_bits, total_bits, "{id}: bit parity");
                    assert!(rounds > 0, "{id}: the batch must cost rounds");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The matrix itself is wide enough for the acceptance criteria and fully
// deterministic (guards against accidental narrowing or nondeterminism).
// ---------------------------------------------------------------------

#[test]
fn matrix_shape_meets_acceptance_floor() {
    let cells = matrix();
    let families: std::collections::BTreeSet<&str> = cells.iter().map(|s| s.family).collect();
    let ks: std::collections::BTreeSet<usize> = cells.iter().map(|s| s.k).collect();
    assert!(
        families.len() >= 4,
        "matrix must span ≥ 4 graph families, has {families:?}"
    );
    assert!(
        ks.len() >= 3,
        "matrix must span ≥ 3 machine counts, has {ks:?}"
    );
    assert!(cells.len() >= families.len() * ks.len());
    // Scenario ids are unique (so failures identify a single cell) and
    // graphs are seed-deterministic across materializations.
    let ids: std::collections::BTreeSet<&str> = cells.iter().map(|s| s.id.as_str()).collect();
    assert_eq!(ids.len(), cells.len(), "scenario ids must be unique");
    for (a, b) in matrix().iter().zip(cells.iter()) {
        assert_eq!(a.g.edges(), b.g.edges(), "{}: generator determinism", a.id);
    }
    // Every scenario graph is non-trivial for k-machine purposes.
    for s in &cells {
        assert!(s.k >= 2, "{}: model needs k ≥ 2", s.id);
        assert!(s.g.n() >= 2, "{}: degenerate graph", s.id);
    }
    // Subsampling keeps every axis value represented.
    for (stride, phase) in [(2usize, 0usize), (2, 1), (3, 0), (4, 1), (5, 2)] {
        let sub = sub_matrix(stride, phase);
        let sub_ks: std::collections::BTreeSet<usize> = sub.iter().map(|s| s.k).collect();
        let sub_fams: std::collections::BTreeSet<&str> = sub.iter().map(|s| s.family).collect();
        assert!(
            sub_ks.len() >= 3,
            "sub-matrix({stride},{phase}) lost k coverage: {sub_ks:?}"
        );
        assert!(
            sub_fams.len() >= 4,
            "sub-matrix({stride},{phase}) lost family coverage: {sub_fams:?}"
        );
    }
    // The family menagerie includes both connected and disconnected, and
    // both bipartite and odd-cycle inputs — the verification problems need
    // both answers to occur.
    let fams = graph_families(SEEDS[0]);
    assert!(fams.iter().any(|(_, g)| refalgo::is_connected(g)));
    assert!(fams.iter().any(|(_, g)| !refalgo::is_connected(g)));
    assert!(fams.iter().any(|(_, g)| refalgo::bipartition(g).is_some()));
    assert!(fams.iter().any(|(_, g)| refalgo::bipartition(g).is_none()));
}
