//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction, regression bound and the workloads it applies to. The report
//! writer, `compare`, the `BENCHMARK.json` manifest and the smoke test all
//! read this one table.

use crate::spec::{Op, Spec};

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a layer value was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A wall-clock or OS measurement: varies run to run.
    Measured,
    /// An exact count (or a ratio of exact counts) made by the program: must
    /// repeat bit-for-bit for the same seed.
    Count,
    /// Probe unit cost × the run's exact count ÷ `solve_s` — an estimate,
    /// labelled as such.
    Computed,
}

impl Kind {
    /// The report spelling.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Count => "count",
            Kind::Computed => "computed",
        }
    }
}

/// Which workloads a metric is defined on; elsewhere it reports `null`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Every workload.
    All,
    /// `proc_transport` only (the other workloads never touch a socket).
    Proc,
    /// `chaos_conn` only (the other workloads run fault-free).
    Chaos,
    /// `dyn_churn` only (the other workloads have no update phase).
    Dyn,
}

impl Scope {
    /// Whether the metric is defined on `spec`.
    pub fn covers(self, spec: &Spec) -> bool {
        match (self, spec.op) {
            (Scope::All, _) => true,
            (Scope::Proc, Op::Conn { proc_transport, .. }) => proc_transport,
            (Scope::Chaos, Op::Conn { faults, .. }) => faults,
            (Scope::Dyn, Op::Dyn { .. }) => true,
            _ => false,
        }
    }
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// How far the median may worsen before `compare` calls it a
    /// regression, as a share of the base median. `0` = must be equal.
    pub bound: f64,
    /// The bound `BENCHMARK.json` carries, for the metrics it lists (those
    /// with a non-zero value on every workload). The driver measures spread
    /// across *different seeds* (different graphs), so this has to cover
    /// the seed-to-seed spread, not only the run-to-run noise `bound` does.
    pub manifest_bound: Option<f64>,
    /// Where the metric is defined.
    pub scope: Scope,
}

/// One per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// How the value is obtained.
    pub kind: Kind,
    /// Where the metric is defined.
    pub scope: Scope,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    manifest_bound: Option<f64>,
    scope: Scope,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        manifest_bound,
        scope,
    }
}

/// The ten end-to-end metrics, in report order.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.10, Some(0.25), Scope::All),
    e2e("solve_s", "s", Better::Lower, 0.10, Some(0.25), Scope::All),
    e2e("edges_per_s", "edges/s", Better::Higher, 0.10, Some(0.25), Scope::All),
    e2e("cpu_s", "s", Better::Lower, 0.10, Some(0.25), Scope::All),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, Some(0.15), Scope::All),
    e2e("rounds", "count", Better::Lower, 0.0, Some(0.20), Scope::All),
    e2e("total_bits", "count", Better::Lower, 0.0, Some(0.25), Scope::All),
    // Always 0 on a healthy run, so the driver reads it from the result
    // line's `failed`/`attempted` instead of the metric list.
    e2e("failed_share", "ratio", Better::Lower, 0.0, None, Scope::All),
    e2e("batch_ms_p50", "ms", Better::Lower, 0.10, None, Scope::Dyn),
    e2e("batch_ms_p90", "ms", Better::Lower, 0.15, None, Scope::Dyn),
];

/// Floor under the `setup_s` bound: set-ups of a few tens of milliseconds
/// jitter by more than 10 %.
pub const SETUP_BOUND_FLOOR_S: f64 = 0.010;

/// The bound `compare` applies to `metric` on `workload`.
pub fn bound_for(metric: &EndToEnd, workload: &str) -> f64 {
    // k blocking worker processes add scheduler noise the simulator lacks.
    if workload == "proc_transport" && matches!(metric.name, "solve_s" | "edges_per_s" | "cpu_s") {
        return 0.15;
    }
    metric.bound
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    scope: Scope,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        kind,
        scope,
    }
}

use Better::{Higher, Lower};
use Kind::{Computed, Count, Measured};

/// Every per-layer metric, grouped by layer (= module), in report order.
#[rustfmt::skip]
pub const LAYERS: [Layer; 92] = [
    // os — the whole workload process, timed pass.
    layer("os.cpu_user_s", "s", Lower, Measured, Scope::All),
    layer("os.cpu_sys_s", "s", Lower, Measured, Scope::All),
    layer("os.sys_share", "ratio", Lower, Measured, Scope::All),
    layer("os.minor_faults", "count", Lower, Measured, Scope::All),
    layer("os.vol_ctx_switches", "count", Lower, Measured, Scope::All),
    layer("os.cold_over_warm", "ratio", Lower, Measured, Scope::All),
    // kgraph — stream generation, shard build, the staged write path.
    layer("kgraph.stream_gen_s", "s", Lower, Measured, Scope::All),
    layer("kgraph.stream_edges_per_s", "edges/s", Higher, Measured, Scope::All),
    layer("kgraph.shard_build_s", "s", Lower, Measured, Scope::All),
    layer("kgraph.shard_edges_per_s", "edges/s", Higher, Measured, Scope::All),
    layer("kgraph.max_shard_half_edges", "count", Lower, Count, Scope::All),
    layer("kgraph.shard_imbalance", "ratio", Lower, Count, Scope::All),
    layer("kgraph.stage_op_ns", "ns", Lower, Measured, Scope::All),
    layer("kgraph.compact_ms", "ms", Lower, Measured, Scope::All),
    layer("kgraph.rebuild_shard_ms", "ms", Lower, Measured, Scope::All),
    // krand — the hash primitives under every sketch update.
    layer("krand.prf_eval_ns", "ns", Lower, Measured, Scope::All),
    layer("krand.poly_eval_ns", "ns", Lower, Measured, Scope::All),
    layer("krand.m61_mul_ns", "ns", Lower, Measured, Scope::All),
    // ksketch — linear sketch build / merge / query at the workload's n.
    layer("ksketch.fns_new_ms", "ms", Lower, Measured, Scope::All),
    layer("ksketch.add_ns", "ns", Lower, Measured, Scope::All),
    layer("ksketch.vertex_sketch_s", "s", Lower, Measured, Scope::All),
    layer("ksketch.merge_ns", "ns", Lower, Measured, Scope::All),
    layer("ksketch.query_ns", "ns", Lower, Measured, Scope::All),
    layer("ksketch.remove_ns", "ns", Lower, Measured, Scope::All),
    layer("ksketch.cells", "count", Lower, Count, Scope::All),
    layer("ksketch.wire_bits", "count", Lower, Count, Scope::All),
    layer("ksketch.query_success_ratio", "ratio", Higher, Count, Scope::All),
    // kmachine::par / det — per-call fixed costs.
    layer("par.map_noop_us", "us", Lower, Measured, Scope::All),
    layer("par.for_each_noop_us", "us", Lower, Measured, Scope::All),
    layer("det.sorted_entries_ns_per_entry", "ns", Lower, Measured, Scope::All),
    // kmachine::bsp — superstep accounting + delivery.
    layer("bsp.superstep_fixed_us", "us", Lower, Measured, Scope::All),
    layer("bsp.superstep_dense_us", "us", Lower, Measured, Scope::All),
    layer("bsp.msgs_per_s", "1/s", Higher, Measured, Scope::All),
    layer("bsp.varint_pricing_ns_per_msg", "ns", Lower, Measured, Scope::All),
    layer("bsp.faulty_superstep_us", "us", Lower, Measured, Scope::All),
    // kmachine::message — the byte codec.
    layer("codec.encode_mb_per_s", "MB/s", Higher, Measured, Scope::All),
    layer("codec.decode_mb_per_s", "MB/s", Higher, Measured, Scope::All),
    layer("codec.bytes_per_charged_byte", "ratio", Lower, Count, Scope::All),
    // kmachine::transport — worker processes and socket windows.
    layer("transport.spawn_ms", "ms", Lower, Measured, Scope::Proc),
    layer("transport.window_small_us", "us", Lower, Measured, Scope::Proc),
    layer("transport.window_mb_per_s", "MB/s", Higher, Measured, Scope::Proc),
    layer("transport.windows", "count", Lower, Count, Scope::Proc),
    layer("transport.frames_sent", "count", Lower, Count, Scope::Proc),
    layer("transport.wire_bytes", "count", Lower, Count, Scope::Proc),
    layer("transport.window_wall_s", "s", Lower, Measured, Scope::Proc),
    layer("transport.window_share", "ratio", Lower, Measured, Scope::Proc),
    // kmachine::fault — what the recovery machinery cost.
    layer("fault.faults_injected", "count", Lower, Count, Scope::Chaos),
    layer("fault.retransmit_bits", "count", Lower, Count, Scope::Chaos),
    layer("fault.recovery_rounds", "count", Lower, Count, Scope::Chaos),
    layer("fault.machine_crashes", "count", Lower, Count, Scope::Chaos),
    layer("fault.recovery_round_share", "ratio", Lower, Count, Scope::Chaos),
    // kmachine::trace — the logical event stream and what recording costs.
    layer("trace.events", "count", Lower, Count, Scope::All),
    layer("trace.bytes", "count", Lower, Count, Scope::All),
    layer("trace.overhead_ratio", "ratio", Lower, Measured, Scope::All),
    // kconn::engine — the traced run's report and phase breakdown.
    layer("engine.phases", "count", Lower, Count, Scope::All),
    layer("engine.supersteps", "count", Lower, Count, Scope::All),
    layer("engine.messages", "count", Lower, Count, Scope::All),
    layer("engine.bits_per_message", "bits", Lower, Count, Scope::All),
    layer("engine.max_link_bits", "count", Lower, Count, Scope::All),
    layer("engine.link_imbalance", "ratio", Lower, Count, Scope::All),
    layer("engine.max_machine_recv_bits", "count", Lower, Count, Scope::All),
    layer("engine.sketch_builds", "count", Lower, Count, Scope::All),
    layer("engine.sketch_cache_hits", "count", Higher, Count, Scope::All),
    layer("engine.sketch_cache_hit_ratio", "ratio", Higher, Count, Scope::All),
    layer("engine.setup_rounds", "count", Lower, Count, Scope::All),
    layer("engine.phase_rounds_max", "count", Lower, Count, Scope::All),
    layer("engine.phase0_bits_share", "ratio", Lower, Count, Scope::All),
    layer("engine.rollbacks", "count", Lower, Count, Scope::All),
    layer("engine.rounds_over_n_div_k2", "ratio", Lower, Count, Scope::All),
    layer("engine.us_per_superstep", "us", Lower, Measured, Scope::All),
    layer("engine.ns_per_message", "ns", Lower, Measured, Scope::All),
    // kconn::session — the wall the session layer itself reports.
    layer("session.run_ms_p50", "ms", Lower, Measured, Scope::All),
    // kconn::dynamic — the update path.
    layer("dyn.apply_ms_p50", "ms", Lower, Measured, Scope::Dyn),
    layer("dyn.conn_refresh_ms_p50", "ms", Lower, Measured, Scope::Dyn),
    layer("dyn.mst_refresh_ms_p50", "ms", Lower, Measured, Scope::Dyn),
    layer("dyn.refresh_cached", "count", Higher, Count, Scope::Dyn),
    layer("dyn.refresh_incremental", "count", Higher, Count, Scope::Dyn),
    layer("dyn.refresh_full", "count", Lower, Count, Scope::Dyn),
    layer("dyn.update_rounds", "count", Lower, Count, Scope::Dyn),
    layer("dyn.update_bits", "count", Lower, Count, Scope::Dyn),
    layer("dyn.incremental_over_full_bits", "ratio", Lower, Count, Scope::Dyn),
    layer("dyn.incremental_over_full_wall", "ratio", Lower, Measured, Scope::Dyn),
    layer("dyn.compactions", "count", Lower, Count, Scope::Dyn),
    layer("dyn.pending_half_ops_max", "count", Lower, Count, Scope::Dyn),
    // est — the computed budget: unit cost × exact count ÷ solve_s.
    layer("est.ksketch_share", "ratio", Lower, Computed, Scope::All),
    layer("est.bsp_share", "ratio", Lower, Computed, Scope::All),
    layer("est.par_share", "ratio", Lower, Computed, Scope::All),
    layer("est.codec_share", "ratio", Lower, Computed, Scope::All),
    layer("est.transport_share", "ratio", Lower, Computed, Scope::All),
    layer("est.residual_share", "ratio", Lower, Computed, Scope::All),
    // bench — the harness itself.
    layer("bench.verify_s", "s", Lower, Measured, Scope::All),
    layer("bench.rep_spread", "ratio", Lower, Measured, Scope::All),
];

/// The end-to-end metrics `BENCHMARK.json` lists.
pub fn manifest_end_to_end() -> impl Iterator<Item = (&'static EndToEnd, f64)> {
    END_TO_END
        .iter()
        .filter_map(|m| Some((m, m.manifest_bound?)))
}

/// The per-layer metrics `BENCHMARK.json` lists: those defined on every
/// workload (the driver needs a number for each listed name on each run).
pub fn manifest_layers() -> impl Iterator<Item = &'static Layer> {
    LAYERS.iter().filter(|m| m.scope == Scope::All)
}
