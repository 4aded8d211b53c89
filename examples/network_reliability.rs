//! Network reliability triage: min-cut estimation plus verification.
//!
//! Scenario: a data-center fabric built from two dense pods joined by a few
//! uplinks. Operators want (1) a fast estimate of the global min cut (how
//! many line failures can partition the fabric), and (2) verification
//! queries — is this edge set a cut? does this link lie on every path
//! between two hosts? is the fabric bipartite (two-level)?
//!
//! Exercises Theorems 3 and 4 on one topology.
//!
//! Run with: `cargo run --release --example network_reliability`

use kmm::algo::verify;
use kmm::prelude::*;
use rustc_hash::FxHashSet;

fn main() {
    let seed = 99;
    let k = 8;
    // Two 400-switch pods, 3 uplinks of capacity 2 each: min cut = 6.
    let g = generators::barbell(400, 3, 2, seed);
    let block = 400u32;
    println!("fabric: n = {}, m = {}, k = {}\n", g.n(), g.m(), k);

    // --- Theorem 3: O(log n)-approximate min cut. ---
    let exact = kmm::graph::mincut::stoer_wagner(&g).expect("connected");
    let cluster = Cluster::builder(k).seed(seed).ingest_graph(&g);
    let approx = cluster.run(MinCut::default()).output;
    println!("exact min cut (Stoer–Wagner reference): {exact}");
    println!(
        "approximate min cut:  {} (probe {} of {}, {} rounds)",
        approx.estimate, approx.disconnecting_probe, approx.probes, approx.stats.rounds
    );
    let ratio = (approx.estimate.max(1) as f64 / exact as f64)
        .max(exact as f64 / approx.estimate.max(1) as f64);
    println!(
        "approximation ratio:  {ratio:.2} (Theorem 3 allows O(log n) = {:.1})\n",
        (g.n() as f64).log2()
    );

    // --- Theorem 4 verification queries. ---
    let cfg = ConnectivityConfig::default();
    // The three uplinks form a cut.
    let uplinks: FxHashSet<(u32, u32)> = (0..3u32).map(|i| (i, i + block)).collect();
    let v1 = verify::cut_verification(&g, &uplinks, k, seed + 1, &cfg);
    println!(
        "cut verification (3 uplinks):        {} ({} rounds)",
        v1.holds, v1.stats.rounds
    );
    assert!(v1.holds);

    // Two of the three uplinks are not a cut.
    let two: FxHashSet<(u32, u32)> = (0..2u32).map(|i| (i, i + block)).collect();
    let v2 = verify::cut_verification(&g, &two, k, seed + 2, &cfg);
    println!(
        "cut verification (2 uplinks):        {} ({} rounds)",
        v2.holds, v2.stats.rounds
    );
    assert!(!v2.holds);

    // Hosts in different pods are connected (through the uplinks).
    let v3 = verify::st_connectivity(&g, 5, block + 5, k, seed + 3, &cfg);
    println!(
        "s-t connectivity across pods:        {} ({} rounds)",
        v3.holds, v3.stats.rounds
    );
    assert!(v3.holds);

    // A dense pod is full of redundant paths: no single uplink is on all
    // paths between two same-pod hosts.
    let v4 = verify::edge_on_all_paths(&g, (0, block), 1, 2, k, seed + 4, &cfg);
    println!(
        "uplink on all paths within a pod:    {} ({} rounds)",
        v4.holds, v4.stats.rounds
    );
    assert!(!v4.holds);

    // Dense random pods contain odd cycles: not bipartite.
    let v5 = verify::bipartiteness(&g, k, seed + 5, &cfg);
    println!(
        "bipartiteness:                       {} ({} rounds)",
        v5.holds, v5.stats.rounds
    );
}
