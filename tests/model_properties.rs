//! Property-based tests of the model substrate and the paper's invariants.

mod common;

use kmm::algo::lowerbound::{scs_gadget, DisjointnessInstance};
use kmm::machine::bandwidth::Bandwidth;
use kmm::machine::bsp::Bsp;
use kmm::machine::message::{BatchWire, Envelope, WireSize};
use kmm::machine::network::NetworkConfig;
use kmm::prelude::*;
use kmm::randomness::shared::SharedRandomness;
use kmm::sketch::{L0Sketch, SketchFns, SketchParams};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Blob(u64);
impl WireSize for Blob {
    fn wire_bits(&self) -> u64 {
        self.0
    }
}

impl BatchWire for Blob {}

fn net_cfg(k: usize, w: u64) -> NetworkConfig {
    NetworkConfig::new(k, Bandwidth::Bits(w), 1024)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The BSP analytic round charge equals the round-by-round
    /// store-and-forward drain time for any batch (DESIGN.md §3.1).
    #[test]
    fn bsp_equals_fine_grained_rounds(
        k in 2usize..8,
        w in 1u64..64,
        msgs in prop::collection::vec((0usize..8, 0usize..8, 1u64..200), 0..80),
    ) {
        let msgs: Vec<(usize, usize, u64)> = msgs
            .into_iter()
            .map(|(s, d, b)| {
                let s = s % k;
                let mut d = d % k;
                if d == s { d = (d + 1) % k; }
                (s, d, b)
            })
            .collect();
        let mut bsp: Bsp<Blob> = Bsp::new(net_cfg(k, w));
        bsp.superstep(msgs.iter().map(|&(s, d, b)| Envelope::new(s, d, Blob(b))).collect());
        let (rounds, total_bits) = common::fifo_drain(k, w, &msgs);
        prop_assert_eq!(bsp.stats().rounds, rounds);
        prop_assert_eq!(bsp.stats().total_bits, total_bits);
    }

    /// RVP partitions are balanced within the w.h.p. bound (§1.1).
    #[test]
    fn rvp_partition_balance(n in 500usize..3000, k in 2usize..16, seed in 0u64..1000) {
        let g = generators::path(n);
        let part = Partition::random_vertex(&g, k, seed);
        let loads = part.vertex_loads();
        prop_assert_eq!(loads.iter().sum::<usize>(), n);
        let mean = n as f64 / k as f64;
        for &l in &loads {
            // 6-sigma binomial bound, generous for proptest stability.
            prop_assert!((l as f64 - mean).abs() < 6.0 * mean.sqrt() + 8.0);
        }
    }

    /// Sketch linearity: summing the sketches of a vertex subset leaves a
    /// sketch whose every sample is a cut edge of that subset — never an
    /// internal edge (the §2.3 cancellation property).
    #[test]
    fn sketch_cancellation_samples_only_cut_edges(
        seed in 0u64..500,
        n in 30usize..120,
        split in 2usize..15,
    ) {
        let g = generators::random_connected(n, n / 2, seed);
        let params = SketchParams::for_graph(n, 4);
        let shared = SharedRandomness::new(seed ^ 0xF00);
        let fns = SketchFns::new(&shared, 1, params);
        // Subset = vertices 0..split.
        let mut acc = L0Sketch::new(params);
        for v in 0..split.min(n) as u32 {
            for &(nb, _) in g.neighbors(v) {
                acc.add_incident_edge(&fns, v, nb);
            }
        }
        if let Some((u, v)) = acc.query(&fns) {
            let inside = |x: u32| (x as usize) < split.min(n);
            prop_assert!(g.has_edge(u, v), "sampled edge must exist");
            prop_assert!(
                inside(u) != inside(v),
                "sampled edge ({u},{v}) must cross the subset boundary"
            );
        }
    }

    /// The Figure-1 reduction: H is a spanning connected subgraph iff the
    /// disjointness instance is disjoint (Lemma 8 / Theorem 5 setup).
    #[test]
    fn figure1_reduction_is_exact(
        b in 2usize..40,
        density in 0u64..1000,
        seed in 0u64..500,
    ) {
        let inst = DisjointnessInstance::random(b, density, seed, None);
        let (g, h) = scs_gadget(&inst);
        let hg = g.edge_subgraph(&h);
        prop_assert_eq!(refalgo::is_connected(&hg), inst.disjoint());
    }

    /// Kruskal on small graphs is optimal: no spanning tree found by brute
    /// force enumeration of edge subsets beats it.
    #[test]
    fn kruskal_is_optimal_on_small_graphs(seed in 0u64..200) {
        let g = generators::randomize_weights(&generators::random_connected(7, 6, seed), 50, seed);
        let mst = refalgo::kruskal(&g);
        let best = refalgo::forest_weight(&mst);
        let m = g.m();
        // Enumerate all subsets of size n-1 (tiny graph).
        let edges = g.edges();
        let mut better = None;
        for mask in 0u32..(1 << m) {
            if mask.count_ones() as usize != g.n() - 1 {
                continue;
            }
            let subset: Vec<_> = (0..m).filter(|i| mask >> i & 1 == 1).map(|i| edges[i]).collect();
            if refalgo::is_spanning_forest(&g, &subset) {
                let w = refalgo::forest_weight(&subset);
                if w < best {
                    better = Some(w);
                }
            }
        }
        prop_assert!(better.is_none(), "found spanning tree cheaper than Kruskal");
    }

    /// Distributed connectivity equals the reference on arbitrary G(n, m).
    #[test]
    fn distributed_connectivity_is_correct(
        n in 20usize..150,
        density in 0usize..3,
        k in 2usize..7,
        seed in 0u64..300,
    ) {
        let m = (n * (density + 1) / 2).min(n * (n - 1) / 2);
        let g = generators::gnm(n, m, seed);
        let cluster = Cluster::builder(k).seed(seed ^ 0xABC).ingest_graph(&g);
        let out = cluster.run(Connectivity::default()).output;
        prop_assert_eq!(out.component_count(), refalgo::component_count(&g));
    }

    /// Distributed MST weight equals Kruskal on arbitrary weighted graphs.
    #[test]
    fn distributed_mst_is_optimal(
        n in 10usize..80,
        extra in 0usize..60,
        k in 2usize..6,
        seed in 0u64..200,
    ) {
        let g = generators::randomize_weights(
            &generators::random_connected(n, extra, seed), 1000, seed ^ 7);
        let cluster = Cluster::builder(k).seed(seed ^ 0xDEF).ingest_graph(&g);
        let out = cluster.run(Mst::default()).output;
        prop_assert!(refalgo::is_spanning_forest(&g, &out.edges));
        prop_assert_eq!(
            out.total_weight,
            refalgo::forest_weight(&refalgo::kruskal(&g))
        );
    }
}

#[test]
fn edge_list_io_roundtrip_property() {
    // Deterministic loop standing in for a proptest (string strategy costs
    // outweigh benefits here).
    for seed in 0..30u64 {
        let g = generators::randomize_weights(&generators::gnm(40, 100, seed), 77, seed);
        let text = kmm::graph::io::to_edge_list(&g);
        let h = kmm::graph::io::from_edge_list(&text).unwrap();
        assert_eq!(g.edges(), h.edges());
    }
}
