//! Community detection on synthetic social networks — and the
//! sketch-vs-flooding crossover.
//!
//! Flooding solves connectivity in `Θ(n/k + D)` rounds (paper §1.2); the
//! sketch algorithm needs `O~(n/k²)`. Which wins depends on the diameter
//! `D`: tight communities (D ≈ 3) favor flooding, while elongated networks
//! (chains of acquaintances, D ≈ n) leave flooding stuck at its `D` term —
//! exactly the regime the paper's algorithm dominates. This example runs
//! both regimes and shows the crossover plus the superlinear k-scaling of
//! the sketch algorithm (Theorem 1).
//!
//! Run with: `cargo run --release --example social_components`

use kmm::prelude::*;

fn run_case(name: &str, g: &kmm::graph::Graph, truth: usize) {
    println!("\n== {name}: n = {}, m = {}, D-regime ==", g.n(), g.m());
    println!(
        "{:>4} | {:>13} | {:>15} | {:>9}",
        "k", "sketch rounds", "flooding rounds", "winner"
    );
    println!("{}", "-".repeat(52));
    let mut prev = None;
    for k in [8usize, 16, 32] {
        let cluster = Cluster::builder(k).seed(7).ingest_graph(g);
        let ours = cluster.run(Connectivity::default()).output;
        assert_eq!(ours.component_count(), truth);
        let flood = cluster.run(Flooding::default()).output;
        assert_eq!(flood.component_count(), truth);
        let winner = if ours.stats.rounds < flood.stats.rounds {
            "sketch"
        } else {
            "flooding"
        };
        println!(
            "{:>4} | {:>13} | {:>15} | {:>9}",
            k, ours.stats.rounds, flood.stats.rounds, winner
        );
        if let Some(p) = prev {
            println!(
                "     |  (doubling k: sketch rounds fell {:.2}x)",
                p as f64 / ours.stats.rounds as f64
            );
        }
        prev = Some(ours.stats.rounds);
    }
}

fn main() {
    let n = 6_000;
    let seed = 7;

    // Regime 1: 12 dense communities — diameter ~3, flooding's home turf.
    let communities = generators::planted_components(n, 12, 800, seed);
    run_case("dense communities (low diameter)", &communities, 12);

    // Regime 2: one long chain of acquaintances — diameter ~n, where
    // flooding pays Θ(D) and the sketch algorithm wins by its n/k² bound.
    let chain = generators::path(n);
    run_case("acquaintance chain (high diameter)", &chain, 1);

    println!(
        "\nTakeaway: flooding costs Θ(n/k + D) and wins only when the\n\
         diameter is tiny; the paper's O~(n/k²) algorithm is insensitive to\n\
         D and scales superlinearly in k (Theorem 1). Experiment E2 sweeps\n\
         this crossover systematically."
    );
}
