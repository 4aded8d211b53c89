//! Quantitative checks of the paper's bounds at small-but-meaningful scale:
//! Lemma 6 (DRR depth), Lemma 7 (phase count), Lemma 1 (proxy load
//! balance), Theorem 1 (superlinear k-scaling), and the Theorem 2(b)
//! bottleneck.

use kmm::prelude::*;

#[test]
fn lemma7_phase_count_is_logarithmic() {
    for (n, seed) in [(512usize, 1u64), (1024, 2), (2048, 3)] {
        let g = generators::random_connected(n, n, seed);
        let cluster = Cluster::builder(8).seed(seed + 10).ingest_graph(&g);
        let out = cluster.run(Connectivity::default()).output;
        let log = (n as f64).log2();
        assert!(
            (out.phases as f64) <= 2.5 * log,
            "n={n}: {} phases vs 12 log n = {}",
            out.phases,
            12.0 * log
        );
        // Component counts must be non-increasing across phases.
        for w in out.phase_components.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }
}

#[test]
fn lemma6_drr_depth_is_logarithmic() {
    // Adversarially chain-able workload: a long path.
    let g = generators::path(4096);
    let cluster = Cluster::builder(8).seed(5).ingest_graph(&g);
    let out = cluster.run(Connectivity::default()).output;
    let bound = 6.0 * (4096f64 + 1.0).log2();
    for (i, &d) in out.drr_depths.iter().enumerate() {
        assert!(
            (d as f64) <= bound,
            "phase {i}: DRR depth {d} above the Lemma 6 bound {bound:.0}"
        );
    }
}

#[test]
fn lemma1_proxy_routing_is_balanced() {
    // On a big superstep the max link load must be within a polylog factor
    // of the mean (Lemma 1's w.h.p. guarantee).
    let g = generators::gnm(4000, 10_000, 7);
    let k = 8;
    let cluster = Cluster::builder(k).seed(8).ingest_graph(&g);
    let out = cluster.run(Connectivity::default()).output;
    let links = (k * (k - 1)) as u64;
    // Only supersteps moving at least one sketch per link on average.
    let imbalance = out.stats.link_imbalance(links, 100_000);
    assert!(
        imbalance < 4.0,
        "proxy routing imbalance {imbalance:.2} should be O(polylog)/mean"
    );
}

#[test]
fn theorem1_rounds_scale_superlinearly_in_k() {
    let g = generators::gnm(6000, 18_000, 9);
    let rounds: Vec<u64> = [4usize, 8, 16]
        .iter()
        .map(|&k| {
            let cluster = Cluster::builder(k).seed(10).ingest_graph(&g);
            cluster.run(Connectivity::default()).report.stats.rounds
        })
        .collect();
    // Doubling k must beat halving (superlinear).
    assert!(
        rounds[0] as f64 / rounds[1] as f64 > 2.0,
        "k: 4→8 gave only {:.2}x",
        rounds[0] as f64 / rounds[1] as f64
    );
    assert!(
        rounds[1] as f64 / rounds[2] as f64 > 2.0,
        "k: 8→16 gave only {:.2}x",
        rounds[1] as f64 / rounds[2] as f64
    );
}

#[test]
fn theorem2b_star_bottleneck_appears() {
    // On a star, the criterion-(b) routing stage must concentrate Θ(n)
    // receive bits at the hub's home machine while the average machine
    // receives only Θ(n/k): the Ω~(n/k) bottleneck of [22].
    let g = generators::randomize_weights(&generators::star(2000), 100, 11);
    let k = 8;
    let both_endpoints = MstConfig {
        criterion: OutputCriterion::BothEndpoints,
        ..MstConfig::default()
    };
    let cluster = Cluster::builder(k).seed(12).ingest_graph(&g);
    let b = cluster.run(Mst::with(both_endpoints.clone())).output;
    let routing = b.endpoint_routing.expect("criterion (b) ran");
    let max = routing.max_machine_recv_bits() as f64;
    let mean = routing.recv_bits.iter().sum::<u64>() as f64 / routing.recv_bits.len() as f64;
    assert!(
        max > (k as f64 / 4.0) * mean,
        "hub machine should receive ~k/2 times the mean: max={max}, mean={mean}"
    );
    // Sanity: on a path the same stage stays balanced.
    let p = generators::randomize_weights(&generators::path(2000), 100, 13);
    let cluster = Cluster::builder(k).seed(14).ingest_graph(&p);
    let bp = cluster.run(Mst::with(both_endpoints)).output;
    let routing_p = bp.endpoint_routing.expect("criterion (b) ran");
    let max_p = routing_p.max_machine_recv_bits() as f64;
    let mean_p = routing_p.recv_bits.iter().sum::<u64>() as f64 / routing_p.recv_bits.len() as f64;
    assert!(
        max_p < 2.0 * mean_p,
        "path routing should stay balanced: max={max_p}, mean={mean_p}"
    );
}

#[test]
fn flooding_beats_sketches_only_on_low_diameter() {
    let k = 16;
    // Low diameter: flooding wins.
    let low_d = generators::planted_components(3000, 6, 400, 13);
    let cluster = Cluster::builder(k).seed(14).ingest_graph(&low_d);
    let s1 = cluster.run(Connectivity::default()).output;
    let f1 = cluster.run(Flooding::default()).output;
    assert!(
        f1.stats.rounds < s1.stats.rounds,
        "low-D: flooding should win"
    );
    // High diameter: sketches win.
    let high_d = generators::path(3000);
    let cluster = Cluster::builder(k).seed(15).ingest_graph(&high_d);
    let s2 = cluster.run(Connectivity::default()).output;
    let f2 = cluster.run(Flooding::default()).output;
    assert!(
        s2.stats.rounds < f2.stats.rounds,
        "high-D: sketches should win ({} vs {})",
        s2.stats.rounds,
        f2.stats.rounds
    );
}

#[test]
fn shared_randomness_charge_is_visible_and_ablatable() {
    let g = generators::gnm(2000, 6000, 17);
    let cluster = Cluster::builder(8).seed(18).ingest_graph(&g);
    let run = |charge_shared_randomness| {
        let cfg = ConnectivityConfig {
            charge_shared_randomness,
            ..ConnectivityConfig::default()
        };
        cluster.run(Connectivity::with(cfg)).output
    };
    let (with, without) = (run(true), run(false));
    assert_eq!(
        with.labels, without.labels,
        "charging must not change outputs"
    );
    assert!(
        with.stats.rounds > without.stats.rounds,
        "the §2.2 distribution cost must be visible in rounds"
    );
}

#[test]
fn rep_model_pays_the_n_over_k_routing() {
    let g = generators::randomize_weights(&generators::gnm(3000, 9000, 19), 777, 20);
    let cluster = Cluster::builder(16).seed(21).ingest_graph(&g);
    let rvp = cluster.run(Mst::default()).output;
    let rep = cluster.run(RepMst::default()).output;
    assert_eq!(rep.mst.total_weight, rvp.total_weight);
    // REP total includes the Θ~(n/k) conversion; at k=16 it should clearly
    // exceed the RVP run on the (already filtered, smaller) graph.
    assert!(
        rep.mst.stats.rounds > rvp.stats.rounds / 4,
        "REP should not be mysteriously cheap: {} vs {}",
        rep.mst.stats.rounds,
        rvp.stats.rounds
    );
}
