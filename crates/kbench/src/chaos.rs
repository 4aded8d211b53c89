//! The chaos scenario family (DESIGN.md §4, E22): seeded fault plans
//! replayed against the connectivity and spanning-forest headliners, with
//! every run compared bit-for-bit against its fault-free twin.
//!
//! The headline guarantee of the fault subsystem is *exactness*: under any
//! seeded [`FaultPlan`] the recovery machinery (per-superstep
//! ack/retransmit + phase checkpoints) masks every injected fault, so the
//! answers are identical to the fault-free run and the only difference is
//! the costed overhead (`retransmit_bits`, `recovery_rounds`). The
//! `tables` binary renders E22 from these measurements and
//! `tests/chaos_family.rs` pins the guarantee plus an overhead envelope.

use crate::experiments::ExperimentRecord;
use kconn::session::{Cluster, Connectivity, Problem, SpanningForest};
use kconn::{ConnectivityConfig, MstConfig};
use kgraph::{generators, Graph};
use kmachine::fault::FaultPlan;

/// The adversarial plans of the chaos matrix, parameterized by the machine
/// count so crash events always name real machines. Names match the chaos
/// conformance suite (`tests/chaos.rs`).
pub fn plans(k: usize, seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let mut crash = FaultPlan::new(seed ^ 0xC4A5).with_drop(0.02);
    // Roughly one crash per Borůvka phase: an engine phase spans at least
    // ~8 supersteps (sketch shipping, two probe exchanges, convergence
    // flags, pointer jumps, relabels), so events 8 supersteps apart land
    // in distinct phases.
    for j in 0..6u64 {
        crash = crash.with_crash((j as usize + 1) % k, 3 + 8 * j);
    }
    vec![
        ("drop-heavy", FaultPlan::new(seed ^ 0xD209).with_drop(0.25)),
        (
            "dup-reorder",
            FaultPlan::new(seed ^ 0xD0B0)
                .with_dup(0.25)
                .with_reorder(0.5)
                .with_delay(0.05),
        ),
        ("one-crash-per-phase", crash),
    ]
}

/// One chaos cell: a base workload plus one seeded fault plan.
#[derive(Clone, Debug)]
pub struct ChaosScenario {
    /// Human-readable id.
    pub id: String,
    /// Vertex count.
    pub n: usize,
    /// Machine count.
    pub k: usize,
    /// Master seed (partition + algorithm randomness).
    pub seed: u64,
    /// The plan's name in tables and ids.
    pub plan_name: &'static str,
    /// The injected plan.
    pub plan: FaultPlan,
}

impl ChaosScenario {
    /// The base graph: multi-component so both merge-heavy and settled
    /// phases occur (settled components exercise the sketch cache under
    /// rollback).
    pub fn base(&self) -> Graph {
        generators::planted_components(self.n, 4, 3, self.seed ^ 0xCAB0)
    }

    /// The base graph ingested once; fault-free and faulted runs share it.
    pub fn cluster(&self) -> Cluster {
        Cluster::builder(self.k)
            .seed(self.seed)
            .ingest_graph(&self.base())
    }
}

/// The chaos family: every plan × a couple of `(n, k)` shapes.
pub fn family(quick: bool) -> Vec<ChaosScenario> {
    let shapes: &[(usize, usize)] = if quick {
        &[(1200, 8)]
    } else {
        &[(1200, 8), (6000, 16)]
    };
    let mut out = Vec::new();
    for &(n, k) in shapes {
        let seed = 7 + n as u64;
        for (plan_name, plan) in plans(k, seed) {
            out.push(ChaosScenario {
                id: format!("chaos/{plan_name}/n{n}/k{k}"),
                n,
                k,
                seed,
                plan_name,
                plan,
            });
        }
    }
    out
}

/// One algorithm's fault-free vs faulted comparison on a chaos cell.
#[derive(Clone, Debug)]
pub struct ChaosMeasurement {
    /// The algorithm measured (`conn` or `st`).
    pub algo: &'static str,
    /// Whether the faulted outputs were bit-identical to the fault-free
    /// ones (labels + §2.6 count for `conn`; the forest edge list for
    /// `st`).
    pub identical: bool,
    /// Fault-free rounds.
    pub base_rounds: u64,
    /// Fault-free total bits.
    pub base_bits: u64,
    /// Rounds under the plan.
    pub faulted_rounds: u64,
    /// Total bits under the plan.
    pub faulted_bits: u64,
    /// Faults the plan injected.
    pub faults_injected: u64,
    /// Bits spent masking them.
    pub retransmit_bits: u64,
    /// Rounds spent masking them.
    pub recovery_rounds: u64,
    /// Crash events that fired.
    pub machine_crashes: u64,
}

impl ChaosMeasurement {
    /// Recovery bits overhead relative to the fault-free run.
    pub fn bits_overhead(&self) -> f64 {
        self.retransmit_bits as f64 / self.base_bits.max(1) as f64
    }

    /// Recovery rounds overhead relative to the fault-free run.
    pub fn rounds_overhead(&self) -> f64 {
        self.recovery_rounds as f64 / self.base_rounds.max(1) as f64
    }

    /// The machine-readable record of this cell for the E22 report.
    pub fn record(&self, experiment: &str, s: &ChaosScenario) -> ExperimentRecord {
        ExperimentRecord {
            experiment: experiment.into(),
            label: format!("{}/{}", s.id, self.algo),
            params: [("n".to_string(), s.n as f64), ("k".to_string(), s.k as f64)]
                .into_iter()
                .collect(),
            metrics: [
                ("identical".to_string(), f64::from(u8::from(self.identical))),
                ("base_rounds".to_string(), self.base_rounds as f64),
                ("base_bits".to_string(), self.base_bits as f64),
                ("faulted_rounds".to_string(), self.faulted_rounds as f64),
                ("faulted_bits".to_string(), self.faulted_bits as f64),
                ("faults_injected".to_string(), self.faults_injected as f64),
                ("retransmit_bits".to_string(), self.retransmit_bits as f64),
                ("recovery_rounds".to_string(), self.recovery_rounds as f64),
                ("machine_crashes".to_string(), self.machine_crashes as f64),
            ]
            .into_iter()
            .collect(),
        }
    }
}

/// Runs connectivity and spanning forest on the cell, fault-free and under
/// the plan, on one shared ingested cluster.
pub fn measure(s: &ChaosScenario) -> Vec<ChaosMeasurement> {
    let cluster = s.cluster();
    let mut out = Vec::new();

    let clean_conn = cluster.run(Connectivity::with(ConnectivityConfig::default()));
    let fault_conn = cluster.run(Connectivity::with(ConnectivityConfig {
        faults: Some(s.plan.clone()),
        ..ConnectivityConfig::default()
    }));
    out.push(ChaosMeasurement {
        algo: "conn",
        identical: clean_conn.output.labels == fault_conn.output.labels
            && clean_conn.output.counted_components == fault_conn.output.counted_components,
        base_rounds: clean_conn.report.stats.rounds,
        base_bits: clean_conn.report.stats.total_bits,
        faulted_rounds: fault_conn.report.stats.rounds,
        faulted_bits: fault_conn.report.stats.total_bits,
        faults_injected: fault_conn.report.faults_injected,
        retransmit_bits: fault_conn.report.retransmit_bits,
        recovery_rounds: fault_conn.report.recovery_rounds,
        machine_crashes: fault_conn.report.stats.machine_crashes,
    });

    let clean_st = cluster.run(SpanningForest::with(MstConfig::default()));
    let fault_st = cluster.run(SpanningForest::with(MstConfig {
        faults: Some(s.plan.clone()),
        ..MstConfig::default()
    }));
    out.push(ChaosMeasurement {
        algo: "st",
        identical: clean_st.output.edges == fault_st.output.edges,
        base_rounds: clean_st.report.stats.rounds,
        base_bits: clean_st.report.stats.total_bits,
        faulted_rounds: fault_st.report.stats.rounds,
        faulted_bits: fault_st.report.stats.total_bits,
        faults_injected: fault_st.report.faults_injected,
        retransmit_bits: fault_st.report.retransmit_bits,
        recovery_rounds: fault_st.report.recovery_rounds,
        machine_crashes: fault_st.report.stats.machine_crashes,
    });
    out
}
