//! Minimum spanning tree of a weighted utility grid.
//!
//! A classic MST consumer: choose the cheapest set of lines that keeps a
//! power grid connected. The grid is a 2-D mesh with random per-line costs,
//! distributed over k machines; we run Theorem 2's sketch-based MST under
//! both output criteria and validate the result against Kruskal.
//!
//! Run with: `cargo run --release --example power_grid_mst`

use kmm::prelude::*;

fn main() {
    let seed = 2016;
    let grid = generators::grid(40, 50); // 2000 substations
    let g = generators::randomize_weights(&grid, 10_000, seed);
    let k = 8;
    println!(
        "power grid: {} substations, {} candidate lines, k = {}\n",
        g.n(),
        g.m(),
        k
    );

    // Ingest once; both criteria run on the same shards.
    let cluster = Cluster::builder(k).seed(seed).ingest_graph(&g);

    // Criterion (a): each chosen line known by at least one machine.
    let cfg_a = MstConfig {
        criterion: OutputCriterion::AnyMachine,
        ..MstConfig::default()
    };
    let a = cluster.run(Mst::with(cfg_a)).output;

    // Criterion (b): both endpoint machines must learn each line.
    let cfg_b = MstConfig {
        criterion: OutputCriterion::BothEndpoints,
        ..MstConfig::default()
    };
    let b = cluster.run(Mst::with(cfg_b)).output;

    let reference = refalgo::kruskal(&g);
    println!("MST lines chosen:       {}", a.edges.len());
    println!("MST total cost:         {}", a.total_weight);
    println!(
        "Kruskal reference cost: {}",
        refalgo::forest_weight(&reference)
    );
    assert_eq!(a.total_weight, refalgo::forest_weight(&reference));
    assert!(refalgo::is_spanning_forest(&g, &a.edges));
    println!("validated: spanning + minimum ✓\n");

    println!(
        "output criterion (a) AnyMachine:    {} rounds",
        a.stats.rounds
    );
    println!(
        "output criterion (b) BothEndpoints: {} rounds",
        b.stats.rounds
    );
    println!(
        "(b) pays the Theorem-2(b) endpoint routing: +{} rounds",
        b.stats.rounds - a.stats.rounds
    );

    // How evenly criterion (a) spreads the output across machines:
    println!(
        "\nlines output per machine (criterion a): {:?}",
        a.edges_per_machine
    );
    println!("Borůvka phases: {}", a.phases);
}
