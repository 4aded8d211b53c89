//! The six workloads: what runs, at what size, and why it exists.
//!
//! Sizes are fixed here (and mirrored in `BENCHMARK.json`); the only free
//! input is the `--seed`, from which the graph, weight, partition,
//! fault-plan and update-trace seeds all derive.

use kgraph::generators;
use kgraph::stream::DynEdgeStream;
use kmachine::fault::FaultPlan;
use krand::prf::Prf;

/// Which sizes a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every reported number is measured at.
    Full,
    /// `n ÷ 10`, one warm-up and one timed rep (of 4 batches on
    /// `dyn_churn`), short probe loops: the in-package smoke test.
    Smoke,
}

impl Scale {
    /// Parses `full` / `smoke`.
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "full" => Ok(Scale::Full),
            "smoke" => Ok(Scale::Smoke),
            other => Err(format!("unknown scale `{other}` (expected full|smoke)")),
        }
    }

    /// The name [`Scale::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// What a workload's timed rep executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// One `Cluster::run(Connectivity)`.
    Conn {
        /// Real worker processes over Unix sockets instead of the simulator.
        proc_transport: bool,
        /// Install the workload's fault plan (drops + one crash).
        faults: bool,
    },
    /// One `Cluster::run(Mst)`.
    Mst {
        /// Supergraph contraction + varint batch pricing (the scale path).
        contract_varint: bool,
        /// Sketch repetitions. The default (5) returns a non-minimum
        /// spanning tree on about one seed in six at `mst_phases`' size: a
        /// query that misses a non-empty sketch ends an elimination loop
        /// early. A benchmark needs workloads on which no op fails, so
        /// `mst_phases` runs at 8 (0 misses in 70 seeds); contracted phases
        /// compute exact local MWOEs and are fine at the default.
        reps: u32,
    },
    /// A `DynamicCluster` update stream: every batch is `apply` +
    /// `connectivity` + `mst`.
    Dyn {
        /// Planted components of the base graph.
        parts: usize,
        /// Batches per timed rep.
        batches: usize,
        /// Batches of the discarded warm-up rep.
        warm_batches: usize,
        /// Nominal ops per batch (reweight batches carry delete+insert pairs).
        batch_ops: usize,
    },
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The name used on the command line, in reports and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// What a rep executes.
    pub op: Op,
    /// Vertices at full scale.
    pub n: usize,
    /// Non-tree edges on top of the spanning tree (`m = n − 1 + extra`);
    /// for the planted-components base graph: extra edges per part.
    pub extra: usize,
    /// Machines.
    pub k: usize,
    /// Largest edge weight (`1` = unweighted).
    pub max_weight: u64,
}

/// Every workload, in report order.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "conn_sketch",
        why: "Theorem 1 as written: sketch build/merge/query, proxy routing and Bsp delivery of 32 kbit sketch payloads dominate; the historical n=50k/k=16 rung",
        op: Op::Conn { proc_transport: false, faults: false },
        n: 50_000,
        extra: 75_000,
        k: 16,
        max_weight: 1,
    },
    Spec {
        name: "mst_phases",
        why: "Theorem 2's elimination loop: 4-5x the supersteps of conn_sketch with small batches, so per-superstep fixed cost (link grouping, thread scopes, det sorts) dominates, not sketch arithmetic",
        op: Op::Mst { contract_varint: false, reps: 8 },
        n: 10_000,
        extra: 15_000,
        k: 16,
        max_weight: 1_000_000,
    },
    Spec {
        name: "contract_large",
        why: "The scale path: k=64 (4032 links), contraction makes phases >=1 sketch-free, varint pricing on, ingest visible in set-up; sketch and socket optimisations should not move it",
        op: Op::Mst { contract_varint: true, reps: 5 },
        n: 150_000,
        extra: 150_000,
        k: 64,
        max_weight: 1_000_000,
    },
    Spec {
        name: "proc_transport",
        why: "k real worker processes over Unix sockets: byte codec, framing, window protocol and socket I/O dominate; every other workload bypasses them",
        op: Op::Conn { proc_transport: true, faults: false },
        n: 30_000,
        extra: 45_000,
        k: 8,
        max_weight: 1,
    },
    Spec {
        name: "dyn_churn",
        why: "DynamicCluster update stream: in-place sketch add/remove, staged shard writes + compaction, restricted re-runs and tiered MST repair; a static read-path gain that costs the write path shows here",
        op: Op::Dyn { parts: 8, batches: 16, warm_batches: 4, batch_ops: 16 },
        n: 3_000,
        extra: 3,
        k: 8,
        max_weight: 1_000,
    },
    Spec {
        name: "chaos_conn",
        why: "Same Bsp::superstep entry as conn_sketch but through ack/retransmit, checkpoint/rollback and rebuild_shard (5% drops + one crash); guards a Bsp fast-path rewrite from breaking recovery",
        op: Op::Conn { proc_transport: false, faults: true },
        n: 30_000,
        extra: 45_000,
        k: 16,
        max_weight: 1,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload at a concrete scale and seed: the input generator.
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    /// The workload.
    pub spec: &'static Spec,
    /// Vertices at this scale.
    pub n: usize,
    /// Extra edges at this scale (see [`Spec::extra`]).
    pub extra: usize,
    /// The `--seed` everything derives from.
    pub seed: u64,
}

/// Domain tags of the derived seeds.
const GRAPH: u64 = 1;
const WEIGHTS: u64 = 2;
const CLUSTER: u64 = 3;
const FAULTS: u64 = 4;
const UPDATES: u64 = 5;
/// Seed domain the probes draw their synthetic traffic from.
pub const PROBES: u64 = 6;

impl Inputs {
    /// Sizes `spec` for `scale` under `seed`.
    pub fn new(spec: &'static Spec, scale: Scale, seed: u64) -> Inputs {
        let div = match scale {
            Scale::Full => 1,
            Scale::Smoke => 10,
        };
        let planted = matches!(spec.op, Op::Dyn { .. });
        Inputs {
            spec,
            n: spec.n / div,
            // Extra edges *per part* do not shrink with n.
            extra: if planted {
                spec.extra
            } else {
                spec.extra / div
            },
            seed,
        }
    }

    /// A seed for one purpose, derived from the `--seed`.
    pub fn derived(&self, domain: u64) -> u64 {
        Prf::new(self.seed).eval(domain, 0)
    }

    /// The seed cluster number `variant` is built with (partition + all
    /// algorithm randomness). Timed reps rotate over a few variants of one
    /// graph so that `solve_s` does not hinge on one run's phase count.
    pub fn cluster_seed(&self, variant: usize) -> u64 {
        Prf::new(self.seed).eval(CLUSTER, variant as u64)
    }

    /// The seed of variant `variant`'s update trace (`dyn_churn`).
    pub fn update_seed(&self, variant: usize) -> u64 {
        Prf::new(self.seed).eval(UPDATES, variant as u64)
    }

    /// Edges of the generated graph.
    pub fn m(&self) -> usize {
        match self.spec.op {
            Op::Dyn { parts, .. } => self.n - parts + parts * self.extra,
            _ => self.n - 1 + self.extra,
        }
    }

    /// The workload's lazy edge stream (same seed, same edges).
    pub fn stream(&self) -> DynEdgeStream {
        let base = match self.spec.op {
            Op::Dyn { parts, .. } => generators::planted_components_stream(
                self.n,
                parts,
                self.extra,
                self.derived(GRAPH),
            ),
            _ => generators::random_connected_stream(self.n, self.extra, self.derived(GRAPH)),
        };
        if self.spec.max_weight > 1 {
            generators::weighted_stream(base, self.spec.max_weight, self.derived(WEIGHTS))
        } else {
            base
        }
    }

    /// The drop plan every workload's `bsp.faulty_superstep_us` probe runs
    /// under; `chaos_conn` adds its crash on top ([`Inputs::fault_plan`]).
    pub fn drop_plan(&self) -> FaultPlan {
        FaultPlan::new(self.derived(FAULTS)).with_drop(0.05)
    }

    /// The fault plan the workload's solves run under, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        match self.spec.op {
            Op::Conn { faults: true, .. } => Some(self.drop_plan().with_crash(3, 40)),
            _ => None,
        }
    }

    /// Solves the problem once per rep, or once per batch and problem.
    pub fn ops_per_rep(&self) -> usize {
        match self.spec.op {
            Op::Dyn { batches, .. } => 2 * batches,
            _ => 1,
        }
    }
}
