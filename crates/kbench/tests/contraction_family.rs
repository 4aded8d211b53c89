//! CI pin for the contraction/encoding ablation family (DESIGN.md §4,
//! E23): on the E20 streamed scenario ladder, every grid cell must return
//! the baseline answer bit-for-bit, every varint cell must carry the
//! matching naive cell's charge as its oracle, and the headline envelope
//! must hold — contracted + varint total bits ≤ 0.5× the uncontracted
//! naive baseline. The contracted path must also compose with the PR 5
//! chaos plans (checkpoints snapshot the supergraph, so faulted contracted
//! runs replay exactly).

use kbench::chaos::plans;
use kbench::contraction::measure;
use kbench::large::family;
use kconn::session::{Connectivity, Problem};
use kconn::ConnectivityConfig;
use kmachine::message::Encoding;

#[test]
fn contraction_ablations_hold_the_bits_envelope_and_compose_with_chaos() {
    // ---- The E20 rung: the 2×2 ablation grid on the streamed family. ----
    let s = &family(true)[0]; // n = 50_000, k = 16
    let ms = measure(&s.cluster());
    let baseline = &ms[0];
    for m in &ms {
        assert!(
            m.identical,
            "{}/{}: answers diverged from the baseline cell",
            s.id, m.cell
        );
    }
    // The naive cells charge exactly their oracle, and each varint cell
    // carries the matching naive cell's charge (same trajectory, same
    // per-message sum — encoding is accounting-only).
    assert_eq!(ms[0].total_bits, ms[0].naive_bits, "baseline oracle");
    assert_eq!(ms[1].total_bits, ms[1].naive_bits, "contract-cell oracle");
    assert_eq!(ms[2].naive_bits, ms[0].total_bits, "varint vs baseline");
    assert_eq!(
        ms[3].naive_bits, ms[1].total_bits,
        "contract+varint vs contract"
    );
    // The headline envelope: contraction + varint at least halves the bits.
    let both = ms
        .iter()
        .find(|m| m.cell == "contract+varint")
        .expect("grid cell");
    assert!(
        both.bits_ratio(baseline) <= 0.5,
        "{}: contract+varint bits {} exceed 0.5× the naive baseline {}",
        s.id,
        both.total_bits,
        baseline.total_bits
    );
    // Each knob alone must already win (the grid is monotone on E20).
    for cell in ["contract", "varint"] {
        let m = ms.iter().find(|m| m.cell == cell).expect("grid cell");
        assert!(
            m.total_bits < baseline.total_bits,
            "{}/{cell}: {} bits vs baseline {}",
            s.id,
            m.total_bits,
            baseline.total_bits
        );
    }

    // ---- Chaos composition: contract+varint under every PR 5 plan. ----
    let (n, k, seed) = (1200usize, 8usize, 1207u64);
    let g = kgraph::generators::planted_components(n, 4, 3, seed ^ 0xCAB0);
    let cluster = kconn::session::Cluster::builder(k)
        .seed(seed)
        .ingest_graph(&g);
    let cfg = ConnectivityConfig {
        contract: true,
        encoding: Encoding::Varint,
        ..ConnectivityConfig::default()
    };
    let clean = cluster.run(Connectivity::with(cfg.clone()));
    for (plan_name, plan) in plans(k, seed) {
        let faulted = cluster.run(Connectivity::with(ConnectivityConfig {
            faults: Some(plan),
            ..cfg.clone()
        }));
        assert_eq!(
            faulted.output.labels, clean.output.labels,
            "chaos/{plan_name}: contracted labels must replay exactly"
        );
        assert!(
            faulted.report.faults_injected > 0,
            "chaos/{plan_name}: plan never fired"
        );
        assert_eq!(
            faulted.report.stats.total_bits - faulted.report.stats.retransmit_bits,
            clean.report.stats.total_bits,
            "chaos/{plan_name}: recovery bits must separate exactly"
        );
    }
}
