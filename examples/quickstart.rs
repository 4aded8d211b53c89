//! Quickstart: connected components of a small graph over k machines.
//!
//! Run with: `cargo run --release --example quickstart`

use kmm::prelude::*;

fn main() {
    // A graph with three planted components on 3,000 vertices, scattered
    // over k = 8 machines by hashing (the random vertex partition of §1.1).
    let n = 3_000;
    let k = 8;
    let seed = 42;
    let g = generators::planted_components(n, 3, 4, seed);
    println!("input: n = {}, m = {}, k = {} machines", g.n(), g.m(), k);

    // Run the O~(n/k²)-round connectivity algorithm.
    let cluster = Cluster::builder(k).seed(seed).ingest_graph(&g);
    let out = cluster.run(Connectivity::default()).output;

    println!("components found:       {}", out.component_count());
    println!(
        "components via §2.6 protocol: {}",
        out.counted_components.expect("output protocol ran")
    );
    println!("Borůvka phases:         {}", out.phases);
    println!("rounds:                 {}", out.stats.rounds);
    println!("total bits on links:    {}", out.stats.total_bits);
    println!("max bits over any link:  {}", out.stats.max_link_bits);
    println!(
        "DRR tree depths by phase: {:?} (Lemma 6 predicts O(log n))",
        out.drr_depths
    );

    // Verify against the exact sequential reference.
    let truth = refalgo::component_count(&g);
    assert_eq!(out.component_count(), truth);
    println!("verified against union-find reference: {truth} components ✓");
}
