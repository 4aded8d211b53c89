//! The run protocol of one workload, executed inside its own process:
//! set-up reps → discarded warm-up → timed reps (tracing off) → oracle
//! verification → one traced rep + layer probes.
//!
//! Closed loop, one client: each op starts when the previous one returns.
//! The harness adds no threads; `kmachine::par` caps its own workers at
//! `available_parallelism`.

use crate::churn;
use crate::json::Json;
use crate::metrics::{self, END_TO_END, LAYERS};
use crate::osstat::{self, ProcSample};
use crate::probes;
use crate::spans::Spans;
use crate::spec::{Inputs, Op, Scale};
use crate::stats::{median, quantile, range};
use kconn::dynamic::{DynConfig, DynamicCluster, RefreshKind, UpdateBatch};
use kconn::session::{Cluster, Connectivity, Mst, Problem, RunReport};
use kconn::{ConnectivityConfig, MstConfig};
use kgraph::graph::Edge;
use kgraph::stream::VecStream;
use kgraph::{refalgo, Graph};
use kmachine::message::Encoding;
use kmachine::metrics::CommStats;
use kmachine::trace::{phase_breakdown, to_jsonl, PhysEvent, TraceEvent, TraceRecord, Tracer};
use kmachine::transport::TransportSel;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-up repetitions of the static workloads (median → `setup_s`).
const SETUP_REPS: usize = 5;
/// Hard cap on timed reps, whatever `--seconds` says.
const MAX_REPS: usize = 25;
/// Timed reps rotate over this many clusters of the same graph, built with
/// different seeds (partition + algorithm randomness). A single seed's wall
/// swings ±20 % with its Borůvka phase count (11–17 on these graphs); the
/// median over three seeds is what a user of the system would expect.
const VARIANTS: usize = 3;

/// Which passes the workload process runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Timed pass only: the end-to-end metrics.
    Timed,
    /// Timed pass, then the traced rep and the probes: every metric.
    Both,
}

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// The workload seed.
    pub seed: u64,
    /// Length of the timed window (warm-up + timed reps), seconds.
    pub seconds: f64,
    /// Full sizes or the smoke sizes.
    pub scale: Scale,
    /// Which passes to run.
    pub pass: Pass,
}

// ---------------------------------------------------------------------
// Answers and reps
// ---------------------------------------------------------------------

/// One solve's output, in the form the oracles check.
pub enum Answer {
    /// Connectivity: a component label per vertex.
    Labels(Vec<u64>),
    /// MST: the forest's edges, sorted by `(u, v)`.
    Forest(Vec<Edge>),
}

impl Answer {
    /// FNV-1a over the answer's words: equal answers, equal hashes.
    fn hash(&self, h: &mut u64) {
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        match self {
            Answer::Labels(labels) => labels.iter().for_each(|&l| eat(l)),
            Answer::Forest(edges) => edges.iter().for_each(|e| {
                eat(u64::from(e.u) << 32 | u64::from(e.v));
                eat(e.w);
            }),
        }
    }
}

/// What must be identical across every rep of a workload, traced or not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Ledger {
    rounds: u64,
    total_bits: u64,
    faults_injected: u64,
    retransmit_bits: u64,
    recovery_rounds: u64,
    machine_crashes: u64,
    answer_hash: u64,
}

/// Per-batch timings of a `dyn_churn` rep, milliseconds.
#[derive(Default)]
struct DynTimes {
    apply_ms: Vec<f64>,
    conn_ms: Vec<f64>,
    mst_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    /// `[cached, incremental, full]` refreshes over the rep's solves.
    refreshes: [u64; 3],
    update_rounds: u64,
    update_bits: u64,
    compactions: u64,
    pending_half_ops_max: usize,
}

/// One rep: its timing, its answers and its ledger.
struct Rep {
    /// Which cluster seed the rep ran on.
    variant: usize,
    /// `dyn_churn` only: this rep's own set-up (ingest + wrap + base solves).
    setup_s: Option<f64>,
    wall_s: f64,
    os: ProcSample,
    answers: Vec<Answer>,
    reports: Vec<RunReport>,
    ledger: Ledger,
    dynamic: Option<DynTimes>,
}

impl Rep {
    /// Wall per op, so `dyn_churn`'s shorter warm-up rep compares with a
    /// full one.
    fn per_op_s(&self) -> f64 {
        self.wall_s / self.answers.len().max(1) as f64
    }
}

/// Everything a rep needs besides the cluster.
struct Ctx<'a> {
    inputs: &'a Inputs,
    /// The update stream of each cluster variant (`dyn_churn`; empty
    /// elsewhere).
    updates: &'a [Vec<UpdateBatch>],
}

fn build_cluster(inputs: &Inputs, variant: usize) -> Cluster {
    Cluster::builder(inputs.spec.k)
        .seed(inputs.cluster_seed(variant))
        .ingest_stream(inputs.stream())
}

fn conn_cfg(inputs: &Inputs, trace: &Tracer) -> ConnectivityConfig {
    let proc_transport = matches!(
        inputs.spec.op,
        Op::Conn {
            proc_transport: true,
            ..
        }
    );
    ConnectivityConfig {
        transport: if proc_transport {
            TransportSel::Proc
        } else {
            TransportSel::Sim
        },
        faults: inputs.fault_plan(),
        trace: trace.clone(),
        ..ConnectivityConfig::default()
    }
}

fn mst_cfg(inputs: &Inputs, trace: &Tracer) -> MstConfig {
    let default = MstConfig::default();
    let (contract, reps) = match inputs.spec.op {
        Op::Mst {
            contract_varint,
            reps,
        } => (contract_varint, reps),
        _ => (false, default.reps),
    };
    MstConfig {
        reps,
        contract,
        encoding: if contract {
            Encoding::Varint
        } else {
            Encoding::Naive
        },
        trace: trace.clone(),
        ..default
    }
}

fn sorted_forest(mut edges: Vec<Edge>) -> Vec<Edge> {
    edges.sort_unstable_by_key(|e| (e.u, e.v));
    edges
}

fn ledger_of(reports: &[RunReport], answers: &[Answer], update: (u64, u64)) -> Ledger {
    let mut l = Ledger {
        rounds: update.0,
        total_bits: update.1,
        answer_hash: 0xcbf2_9ce4_8422_2325,
        ..Ledger::default()
    };
    for r in reports {
        l.rounds += r.stats.rounds;
        l.total_bits += r.stats.total_bits;
        l.faults_injected += r.stats.faults_injected;
        l.retransmit_bits += r.stats.retransmit_bits;
        l.recovery_rounds += r.stats.recovery_rounds;
        l.machine_crashes += r.stats.machine_crashes;
    }
    for a in answers {
        a.hash(&mut l.answer_hash);
    }
    l
}

/// One rep of a static workload: a single `Cluster::run`.
fn static_rep(
    cluster: &Cluster,
    variant: usize,
    ctx: &Ctx,
    trace: &Tracer,
    spans: &mut Spans,
) -> Rep {
    let os0 = ProcSample::now();
    let t0 = Instant::now();
    let (answer, report) = match ctx.inputs.spec.op {
        Op::Conn { .. } => spans.scope("op.conn", |_| {
            let run = cluster.run(Connectivity::with(conn_cfg(ctx.inputs, trace)));
            (Answer::Labels(run.output.labels), run.report)
        }),
        Op::Mst { .. } => spans.scope("op.mst", |_| {
            let run = cluster.run(Mst::with(mst_cfg(ctx.inputs, trace)));
            (Answer::Forest(sorted_forest(run.output.edges)), run.report)
        }),
        Op::Dyn { .. } => unreachable!("dyn_churn reps go through dyn_rep"),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let os = ProcSample::now().since(&os0);
    let (answers, reports) = (vec![answer], vec![report]);
    Rep {
        variant,
        setup_s: None,
        wall_s,
        os,
        ledger: ledger_of(&reports, &answers, (0, 0)),
        answers,
        reports,
        dynamic: None,
    }
}

/// One rep of `dyn_churn`: wrap + base solves (its set-up), then `batches`
/// update batches, each `apply` + `connectivity` + `mst`.
fn dyn_rep(variant: usize, ctx: &Ctx, batches: usize, trace: &Tracer, spans: &mut Spans) -> Rep {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let ccfg = conn_cfg(ctx.inputs, trace);
    let mcfg = mst_cfg(ctx.inputs, trace);
    let t_setup = Instant::now();
    let cluster = spans.scope("setup.ingest", |_| build_cluster(ctx.inputs, variant));
    let mut dc = spans.scope("setup.base_solve", |_| {
        let mut dc = DynamicCluster::wrap(
            cluster,
            DynConfig {
                trace: trace.clone(),
                ..DynConfig::default()
            },
        );
        dc.connectivity(&ccfg);
        dc.mst(&mcfg);
        dc
    });
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut times = DynTimes::default();
    let (mut answers, mut reports) = (Vec::new(), Vec::new());
    let count_refresh = |kind: RefreshKind, times: &mut DynTimes| {
        times.refreshes[match kind {
            RefreshKind::Cached => 0,
            RefreshKind::Incremental { .. } => 1,
            RefreshKind::Full => 2,
        }] += 1;
    };
    let os0 = ProcSample::now();
    let t0 = Instant::now();
    for batch in &ctx.updates[variant][..batches] {
        let t_batch = Instant::now();
        let t = Instant::now();
        spans.scope("batch.apply", |_| {
            dc.apply(batch).expect("generated batches are valid")
        });
        times.apply_ms.push(ms(t));
        times.pending_half_ops_max = times.pending_half_ops_max.max(dc.pending_half_ops());
        let t = Instant::now();
        let conn = spans.scope("batch.conn", |_| dc.connectivity(&ccfg));
        times.conn_ms.push(ms(t));
        count_refresh(dc.last_refresh(), &mut times);
        let t = Instant::now();
        let mst = spans.scope("batch.mst", |_| dc.mst(&mcfg));
        times.mst_ms.push(ms(t));
        count_refresh(dc.last_refresh(), &mut times);
        times.batch_ms.push(ms(t_batch));
        answers.push(Answer::Labels(conn.output.labels));
        answers.push(Answer::Forest(sorted_forest(mst.output.edges)));
        reports.push(conn.report);
        reports.push(mst.report);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let os = ProcSample::now().since(&os0);
    times.update_rounds = dc.update_stats().rounds;
    times.update_bits = dc.update_stats().total_bits;
    times.compactions = dc.compactions();
    Rep {
        variant,
        setup_s: Some(setup_s),
        wall_s,
        os,
        ledger: ledger_of(&reports, &answers, (times.update_rounds, times.update_bits)),
        answers,
        reports,
        dynamic: Some(times),
    }
}

// ---------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------

/// Whether two labelings induce the same partition of the vertices.
fn same_partition(labels: &[u64], oracle: &[u32]) -> bool {
    if labels.len() != oracle.len() {
        return false;
    }
    let (mut fwd, mut back) = (BTreeMap::new(), BTreeMap::new());
    labels
        .iter()
        .zip(oracle)
        .all(|(&l, &o)| *fwd.entry(l).or_insert(o) == o && *back.entry(o).or_insert(l) == l)
}

/// The sequential oracles for one graph.
struct Oracle {
    components: Vec<u32>,
    forest: Vec<Edge>,
}

impl Oracle {
    fn of(n: usize, edges: Vec<Edge>) -> Oracle {
        let g = Graph::from_dedup_edges(n, edges);
        Oracle {
            components: refalgo::connected_components(&g),
            forest: sorted_forest(refalgo::kruskal(&g)),
        }
    }

    /// Partition equality for labels; Kruskal weight + edge set for forests.
    /// `Err` says how the answer differs.
    fn check(&self, answer: &Answer) -> Result<(), String> {
        match answer {
            Answer::Labels(labels) if same_partition(labels, &self.components) => Ok(()),
            Answer::Labels(labels) => {
                let mut distinct = labels.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let mut truth = self.components.clone();
                truth.sort_unstable();
                truth.dedup();
                Err(format!(
                    "labels induce {} components, the oracle has {}",
                    distinct.len(),
                    truth.len()
                ))
            }
            Answer::Forest(edges) if *edges == self.forest => Ok(()),
            Answer::Forest(edges) => Err(format!(
                "forest of {} edges weighing {}, Kruskal finds {} edges weighing {}",
                edges.len(),
                refalgo::forest_weight(edges),
                self.forest.len(),
                refalgo::forest_weight(&self.forest)
            )),
        }
    }
}

/// Checks every op of every rep against the oracles, and that all reps of
/// one cluster variant carry one ledger. Returns `(attempted, failed)` in
/// ops.
fn verify(ctx: &Ctx, reps: &[&Rep]) -> (u64, u64) {
    let n = ctx.inputs.n;
    let base: Vec<Edge> = ctx.inputs.stream().collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |oracle: &Oracle, rep: &Rep, ops: &[Answer]| {
        // An op of a rep whose ledger drifted from the first rep on the same
        // cluster fails even if its answer is right.
        let first = reps
            .iter()
            .find(|r| r.variant == rep.variant && r.answers.len() == rep.answers.len())
            .map_or(rep.ledger, |r| r.ledger);
        for answer in ops {
            attempted += 1;
            let verdict = oracle.check(answer).and_then(|()| {
                (rep.ledger == first)
                    .then_some(())
                    .ok_or_else(|| format!("ledger {:?} != {first:?}", rep.ledger))
            });
            if let Err(why) = verdict {
                eprintln!("kmm-bench: {}: failed op: {why}", ctx.inputs.spec.name);
                failed += 1;
            }
        }
    };
    if ctx.updates.is_empty() {
        // Every variant solves the same graph: one oracle.
        let oracle = Oracle::of(n, base);
        for rep in reps {
            check(&oracle, rep, &rep.answers);
        }
    } else {
        // One oracle per variant and update batch: the graph after it.
        for (variant, updates) in ctx.updates.iter().enumerate() {
            let mine: Vec<&&Rep> = reps.iter().filter(|r| r.variant == variant).collect();
            let steps = mine.iter().map(|r| r.answers.len() / 2).max().unwrap_or(0);
            let mut edges = base.clone();
            for (step, batch) in updates[..steps].iter().enumerate() {
                batch
                    .apply_to_edge_list(n, &mut edges)
                    .expect("generated batches are valid");
                let oracle = Oracle::of(n, edges.clone());
                for rep in &mine {
                    check(
                        &oracle,
                        rep,
                        rep.answers.get(2 * step..2 * step + 2).unwrap_or(&[]),
                    );
                }
            }
        }
    }
    (attempted, failed)
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// The `p`-quantile of each rep's own batch times.
fn per_rep_batches(reps: &[Rep], p: f64) -> Vec<f64> {
    reps.iter()
        .filter_map(|r| r.dynamic.as_ref())
        .map(|d| quantile(&d.batch_ms, p))
        .collect()
}

/// `{median, min, max, n, unit, samples, variants}` of one end-to-end
/// metric: `variants[i]` is the cluster `samples[i]` was measured on (all 0
/// when `variants` is empty: every sample describes the same input), so
/// `compare` can tell run-to-run noise (same cluster) from input effects.
fn stat_json(samples: &[f64], variants: &[usize], center: f64, unit: &str) -> Json {
    let variants = if variants.is_empty() {
        vec![0; samples.len()]
    } else {
        variants.to_vec()
    };
    let (min, max) = range(samples);
    let nums = |v: &mut dyn Iterator<Item = f64>| Json::Arr(v.map(Json::Num).collect());
    Json::obj()
        .with("median", Json::Num(center))
        .with("min", Json::Num(min))
        .with("max", Json::Num(max))
        .with("n", Json::Num(samples.len() as f64))
        .with("unit", Json::Str(unit.to_string()))
        .with("samples", nums(&mut samples.iter().copied()))
        .with("variants", nums(&mut variants.iter().map(|&v| v as f64)))
}

/// The widest `(max − min) / median` among samples measured on one
/// cluster — run-to-run noise with the input held fixed.
fn same_input_spread(samples: &[(usize, f64)]) -> f64 {
    let mut groups: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(variant, x) in samples {
        groups.entry(variant).or_default().push(x);
    }
    groups
        .values()
        .filter(|g| g.len() >= 2)
        .map(|g| {
            let (min, max) = range(g);
            (max - min) / median(g)
        })
        .fold(0.0, f64::max)
}

// ---------------------------------------------------------------------
// The workload process
// ---------------------------------------------------------------------

/// Where the proc-transport workers of this process leave their peak RSS
/// (see `main`'s `__transport-worker`), and how to read it back.
struct WorkerStats {
    dir: std::path::PathBuf,
}

/// Environment variable naming the directory workers report into.
pub const WORKER_STATS_ENV: &str = "KMM_BENCH_WORKER_STATS";

impl WorkerStats {
    fn install(out_dir: &std::path::Path) -> Option<WorkerStats> {
        let dir = out_dir.join(format!("workers-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok()?;
        std::env::set_var(WORKER_STATS_ENV, &dir);
        Some(WorkerStats { dir })
    }

    /// Sum of every reported worker's `VmHWM`, in MB.
    fn total_mb(&self) -> f64 {
        std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                std::fs::read_to_string(e.path())
                    .ok()?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .sum::<f64>()
            / 1024.0
    }
}

impl Drop for WorkerStats {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs one workload end to end and returns its report section. `out_dir`
/// receives `trace-<workload>.json` after a traced pass.
pub fn run_workload(inputs: &Inputs, opts: &RunOpts, out_dir: &std::path::Path) -> Json {
    let spec = inputs.spec;
    let is_dyn = matches!(spec.op, Op::Dyn { .. });
    let is_proc = metrics::Scope::Proc.covers(spec);
    let smoke = opts.scale == Scale::Smoke;
    let worker_stats = is_proc.then(|| WorkerStats::install(out_dir)).flatten();

    // ---- set-up: generate + ingest, repeated; the last cluster of each
    // variant is kept.
    let variants = if smoke { 1 } else { VARIANTS };
    let mut setup_samples = Vec::new();
    let mut clusters: Vec<Option<Cluster>> = (0..variants).map(|_| None).collect();
    let updates: Vec<Vec<UpdateBatch>> = if let Op::Dyn {
        batches, batch_ops, ..
    } = spec.op
    {
        // Each variant replays its own update stream: what a batch costs
        // depends on which components it happens to touch.
        let base: Vec<Edge> = inputs.stream().collect();
        (0..variants)
            .map(|v| {
                churn::trace(
                    inputs.n,
                    &base,
                    batches,
                    batch_ops,
                    spec.max_weight,
                    inputs.update_seed(v),
                )
            })
            .collect()
    } else {
        for rep in 0..if smoke { 1 } else { SETUP_REPS } {
            let slot = &mut clusters[rep % variants];
            drop(slot.take()); // one resident copy per variant
            let t = Instant::now();
            *slot = Some(build_cluster(inputs, rep % variants));
            setup_samples.push(t.elapsed().as_secs_f64());
        }
        Vec::new()
    };
    let ctx = Ctx {
        inputs,
        updates: &updates,
    };
    let (full_batches, warm_batches) = match spec.op {
        // Smoke: one rotation of the profiles.
        Op::Dyn { warm_batches, .. } if smoke => (warm_batches, warm_batches),
        Op::Dyn {
            batches,
            warm_batches,
            ..
        } => (batches, warm_batches),
        _ => (0, 0),
    };
    let one_rep = |variant: usize, batches: usize, trace: &Tracer, spans: &mut Spans| {
        catch_unwind(AssertUnwindSafe(|| match &clusters[variant] {
            Some(c) => static_rep(c, variant, &ctx, trace, spans),
            None => dyn_rep(variant, &ctx, batches, trace, spans),
        }))
        .ok()
    };

    // ---- timed pass: one discarded warm-up, then reps until the window
    // (warm-up included) is used up.
    let off = Tracer::off();
    let min_reps = if smoke { 1 } else { 3 };
    let window = Instant::now();
    let warm = one_rep(0, warm_batches, &off, &mut Spans::off());
    let mut reps: Vec<Rep> = Vec::new();
    let mut panicked = u64::from(warm.is_none());
    while panicked == 0 && reps.len() < MAX_REPS {
        match one_rep(reps.len() % variants, full_batches, &off, &mut Spans::off()) {
            Some(rep) => reps.push(rep),
            None => panicked += 1,
        }
        if reps.len() >= min_reps && (smoke || window.elapsed().as_secs_f64() >= opts.seconds) {
            break;
        }
    }
    let generations = 1 + reps.len();
    let peak_rss_mb = osstat::peak_rss_mb()
        + worker_stats
            .as_ref()
            .map_or(0.0, |w| w.total_mb() / generations as f64);
    if warm.is_none() || reps.is_empty() {
        fail_fast(spec.name, "the warm-up rep or every timed rep panicked");
    }
    setup_samples.extend(warm.iter().chain(&reps).filter_map(|r| r.setup_s));

    // ---- traced pass: the same rep with a recording tracer and the
    // harness's own spans on.
    let mut spans = Spans::recording();
    let tracer = Tracer::recording();
    let mut traced: Option<Rep> = None;
    let mut verify_s = 0.0;
    let (mut attempted, mut failed) = (0, 0);
    // The traced rep runs on cluster 0: the untraced wall it is set against
    // is that of the timed reps on the same cluster.
    let solve0_s = median(
        &reps
            .iter()
            .filter(|r| r.variant == 0)
            .map(|r| r.wall_s)
            .collect::<Vec<_>>(),
    );
    let mut layer_values: BTreeMap<&'static str, f64> = BTreeMap::new();
    spans.scope("run", |spans| {
        if opts.pass == Pass::Both {
            traced = spans.scope("rep", |spans| one_rep(0, full_batches, &tracer, spans));
            panicked += u64::from(traced.is_none());
        }
        // ---- verification, after all timing of solves.
        let t = Instant::now();
        // The warm-up is a rep like any other when it comes to answers and
        // ledger: on cluster 0, like the first timed rep and the traced one.
        let checked: Vec<&Rep> = warm.iter().chain(&reps).chain(traced.as_ref()).collect();
        (attempted, failed) = spans.scope("verify", |_| verify(&ctx, &checked));
        verify_s = t.elapsed().as_secs_f64();
        if let Some(traced) = &traced {
            let events = tracer.events();
            engine_layers(
                inputs,
                traced,
                &tracer,
                &events,
                solve0_s,
                &mut layer_values,
            );
            probes::run(inputs, smoke, spans, &mut layer_values);
            if is_dyn {
                dyn_layers(&ctx, &reps, traced, spans, &mut layer_values);
            }
            estimate_shares(inputs, solve0_s, &events, traced, &mut layer_values);
        }
    });
    // A panicked rep counts every op it would have run.
    attempted += panicked * inputs.ops_per_rep() as u64;
    failed += panicked * inputs.ops_per_rep() as u64;

    // ---- end-to-end metrics.
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let rep_variants: Vec<usize> = reps.iter().map(|r| r.variant).collect();
    let solve_s = median(&walls);
    let ops_per_rep = reps[0].answers.len();
    let work = (inputs.m() * ops_per_rep) as f64;
    let per_variant = |f: &dyn Fn(&Ledger) -> u64| -> Vec<f64> {
        (0..variants)
            .filter_map(|v| reps.iter().find(|r| r.variant == v))
            .map(|r| f(&r.ledger) as f64)
            .collect()
    };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let batch_ms: Vec<f64> = reps
        .iter()
        .filter_map(|r| r.dynamic.as_ref())
        .flat_map(|d| d.batch_ms.iter().copied())
        .collect();
    let mut e2e = Json::obj();
    for m in &END_TO_END {
        let value = if !m.scope.covers(spec) {
            Json::Null
        } else {
            // Centre, samples, and the cluster variant each sample ran on.
            let (center, samples, tags): (f64, Vec<f64>, Vec<usize>) = match m.name {
                "setup_s" => (median(&setup_samples), setup_samples.clone(), Vec::new()),
                "solve_s" => (solve_s, walls.clone(), rep_variants.clone()),
                "edges_per_s" => (
                    work / solve_s,
                    walls.iter().map(|w| work / w).collect(),
                    rep_variants.clone(),
                ),
                "cpu_s" => {
                    let s: Vec<f64> = reps.iter().map(|r| r.os.cpu_s()).collect();
                    (median(&s), s, rep_variants.clone())
                }
                "peak_rss_mb" => (peak_rss_mb, vec![peak_rss_mb], Vec::new()),
                // The ledger is a property of (graph, cluster seed): the mean
                // over the variants, each of which has run at least once.
                "rounds" => {
                    let s = per_variant(&|l| l.rounds);
                    (mean(&s), s, (0..variants).collect())
                }
                "total_bits" => {
                    let s = per_variant(&|l| l.total_bits);
                    (mean(&s), s, (0..variants).collect())
                }
                "failed_share" => {
                    let share = failed as f64 / attempted.max(1) as f64;
                    (share, vec![share], Vec::new())
                }
                // Centre: all timed batches pooled. Samples: each rep's own
                // quantile, so the spread is run-to-run, not batch-to-batch.
                "batch_ms_p50" => (
                    median(&batch_ms),
                    per_rep_batches(&reps, 0.5),
                    rep_variants.clone(),
                ),
                "batch_ms_p90" => (
                    quantile(&batch_ms, 0.9),
                    per_rep_batches(&reps, 0.9),
                    rep_variants.clone(),
                ),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            stat_json(&samples, &tags, center, m.unit)
        };
        e2e.set(m.name, value);
    }

    // ---- per-layer metrics (traced pass only).
    let mut layers = Json::obj();
    if let Some(traced) = &traced {
        os_layers(
            &reps,
            warm.as_ref().expect("checked above"),
            &mut layer_values,
        );
        layer_values.insert("trace.overhead_ratio", traced.wall_s / solve0_s);
        layer_values.insert("bench.verify_s", verify_s);
        // Run-to-run noise on one input. When no cluster ran twice (a
        // three-rep driver run) the warm-up stands in as cluster 0's second
        // sample.
        let tag = |r: &Rep| (r.variant, r.per_op_s());
        let tagged: Vec<(usize, f64)> = if reps.len() <= variants {
            warm.iter().chain(&reps).map(tag).collect()
        } else {
            reps.iter().map(tag).collect()
        };
        layer_values.insert("bench.rep_spread", same_input_spread(&tagged));
        layer_values.insert(
            "session.run_ms_p50",
            median(
                &reps
                    .iter()
                    .flat_map(|r| r.reports.iter().map(|x| x.wall.as_secs_f64() * 1e3))
                    .collect::<Vec<_>>(),
            ),
        );
        for m in &LAYERS {
            let value = match layer_values.get(m.name) {
                Some(v) if m.scope.covers(spec) => Json::Num(*v),
                None if !m.scope.covers(spec) => Json::Null,
                Some(_) => panic!("{}: {} is out of scope but has a value", spec.name, m.name),
                None => panic!("{}: layer metric {} was never measured", spec.name, m.name),
            };
            layers.set(
                m.name,
                Json::obj()
                    .with("value", value)
                    .with("unit", Json::Str(m.unit.to_string()))
                    .with("kind", Json::Str(m.kind.name().to_string())),
            );
        }
        let path = out_dir.join(format!("trace-{}.json", spec.name));
        if let Err(e) = std::fs::write(&path, spans.to_json(spec.name).to_pretty()) {
            eprintln!("kmm-bench: cannot write {}: {e}", path.display());
        }
    }

    Json::obj()
        .with(
            "params",
            Json::obj()
                .with("n", Json::Num(inputs.n as f64))
                .with("m", Json::Num(inputs.m() as f64))
                .with("k", Json::Num(spec.k as f64))
                .with("ops_per_rep", Json::Num(ops_per_rep as f64))
                .with("timed_reps", Json::Num(reps.len() as f64))
                .with("timed_batches", Json::Num(batch_ms.len() as f64))
                .with("why", Json::Str(spec.why.to_string())),
        )
        .with("attempted", Json::Num(attempted as f64))
        .with("failed", Json::Num(failed as f64))
        .with("end_to_end", e2e)
        .with("layers", layers)
}

fn fail_fast(workload: &str, why: &str) -> ! {
    eprintln!("kmm-bench: {workload}: {why}");
    std::process::exit(3)
}

// ---------------------------------------------------------------------
// Layer metrics derived from the reps themselves
// ---------------------------------------------------------------------

/// `os.*`: the timed reps' CPU split, faults and switches (means per rep),
/// and how much slower the process's first solve is than a warm one.
fn os_layers(reps: &[Rep], warm: &Rep, out: &mut BTreeMap<&'static str, f64>) {
    let n = reps.len() as f64;
    let user: f64 = reps.iter().map(|r| r.os.user_s).sum::<f64>() / n;
    let sys: f64 = reps.iter().map(|r| r.os.sys_s).sum::<f64>() / n;
    out.insert("os.cpu_user_s", user);
    out.insert("os.cpu_sys_s", sys);
    out.insert("os.sys_share", sys / (user + sys).max(1e-9));
    out.insert(
        "os.minor_faults",
        reps.iter().map(|r| r.os.minor_faults as f64).sum::<f64>() / n,
    );
    out.insert(
        "os.vol_ctx_switches",
        reps.iter()
            .map(|r| r.os.vol_ctx_switches as f64)
            .sum::<f64>()
            / n,
    );
    let warm_unit = median(&reps.iter().map(Rep::per_op_s).collect::<Vec<_>>());
    out.insert("os.cold_over_warm", warm.per_op_s() / warm_unit);
}

/// The aggregate `CommStats` of a rep's solves.
fn aggregate(k: usize, reports: &[RunReport]) -> CommStats {
    let mut agg = CommStats::new(k);
    for r in reports {
        agg.absorb(&r.stats);
    }
    agg
}

/// `engine.*`, `trace.*`, `fault.*` and the traced half of `transport.*`:
/// all read off the traced rep's reports and its event stream.
fn engine_layers(
    inputs: &Inputs,
    traced: &Rep,
    tracer: &Tracer,
    events: &[TraceRecord],
    solve_s: f64,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let k = inputs.spec.k;
    let stats = aggregate(k, &traced.reports);
    let rows = phase_breakdown(events);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let sum = |f: &dyn Fn(&kmachine::trace::PhaseSummary) -> u64| rows.iter().map(f).sum::<u64>();
    let builds = sum(&|r| r.sketch_builds) as f64;
    let hits = sum(&|r| r.sketch_cache_hits) as f64;
    out.insert(
        "engine.phases",
        traced.reports.iter().map(|r| f64::from(r.phases)).sum(),
    );
    out.insert("engine.supersteps", stats.supersteps as f64);
    out.insert("engine.messages", stats.messages as f64);
    out.insert(
        "engine.bits_per_message",
        ratio(stats.total_bits as f64, stats.messages as f64),
    );
    out.insert("engine.max_link_bits", stats.max_link_bits as f64);
    out.insert(
        "engine.link_imbalance",
        stats.link_imbalance((k * (k - 1)) as u64, 1),
    );
    out.insert(
        "engine.max_machine_recv_bits",
        stats.max_machine_recv_bits() as f64,
    );
    out.insert("engine.sketch_builds", builds);
    out.insert("engine.sketch_cache_hits", hits);
    out.insert("engine.sketch_cache_hit_ratio", ratio(hits, builds + hits));
    out.insert(
        "engine.setup_rounds",
        sum(&|r| if r.label == "setup" { r.rounds } else { 0 }) as f64,
    );
    out.insert(
        "engine.phase_rounds_max",
        rows.iter()
            .filter(|r| r.label.starts_with("phase "))
            .map(|r| r.rounds)
            .max()
            .unwrap_or(0) as f64,
    );
    out.insert(
        "engine.phase0_bits_share",
        ratio(
            sum(&|r| if r.label == "phase 0" { r.bits } else { 0 }) as f64,
            sum(&|r| r.bits) as f64,
        ),
    );
    out.insert(
        "engine.rollbacks",
        rows.iter().filter(|r| r.rolled_back).count() as f64,
    );
    out.insert(
        "engine.rounds_over_n_div_k2",
        stats.rounds as f64 / (inputs.n as f64 / (k * k) as f64),
    );
    out.insert(
        "engine.us_per_superstep",
        ratio(solve_s * 1e6, stats.supersteps as f64),
    );
    out.insert(
        "engine.ns_per_message",
        ratio(solve_s * 1e9, stats.messages as f64),
    );
    out.insert("trace.events", tracer.logical_len() as f64);
    out.insert("trace.bytes", to_jsonl(events).len() as f64);

    if metrics::Scope::Chaos.covers(inputs.spec) {
        out.insert("fault.faults_injected", stats.faults_injected as f64);
        out.insert("fault.retransmit_bits", stats.retransmit_bits as f64);
        out.insert("fault.recovery_rounds", stats.recovery_rounds as f64);
        out.insert("fault.machine_crashes", stats.machine_crashes as f64);
        out.insert(
            "fault.recovery_round_share",
            ratio(stats.recovery_rounds as f64, stats.rounds as f64),
        );
    }
    if metrics::Scope::Proc.covers(inputs.spec) {
        let (mut windows, mut frames, mut bytes, mut micros) = (0u64, 0u64, 0u64, 0u64);
        for rec in tracer.phys_events() {
            let PhysEvent::Window {
                windows: w,
                frames_sent,
                payload_bytes,
                micros: us,
                ..
            } = rec.event;
            windows += w;
            frames += frames_sent;
            bytes += payload_bytes;
            micros += us;
        }
        out.insert("transport.windows", windows as f64);
        out.insert("transport.frames_sent", frames as f64);
        out.insert("transport.wire_bytes", bytes as f64);
        out.insert("transport.window_wall_s", micros as f64 / 1e6);
        out.insert(
            "transport.window_share",
            micros as f64 / 1e6 / traced.wall_s,
        );
    }
}

/// `dyn.*`: per-batch timings over the timed reps, the exact refresh and
/// update counters of one rep, and the incremental path against a fresh
/// static re-ingest + re-solve of the final graph.
fn dyn_layers(
    ctx: &Ctx,
    reps: &[Rep],
    traced: &Rep,
    spans: &mut Spans,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let all = |f: &dyn Fn(&DynTimes) -> &Vec<f64>| -> Vec<f64> {
        reps.iter()
            .filter_map(|r| r.dynamic.as_ref())
            .flat_map(|d| f(d).iter().copied())
            .collect()
    };
    out.insert("dyn.apply_ms_p50", median(&all(&|d| &d.apply_ms)));
    out.insert("dyn.conn_refresh_ms_p50", median(&all(&|d| &d.conn_ms)));
    out.insert("dyn.mst_refresh_ms_p50", median(&all(&|d| &d.mst_ms)));
    let d = traced
        .dynamic
        .as_ref()
        .expect("dyn_churn reps carry timings");
    out.insert("dyn.refresh_cached", d.refreshes[0] as f64);
    out.insert("dyn.refresh_incremental", d.refreshes[1] as f64);
    out.insert("dyn.refresh_full", d.refreshes[2] as f64);
    out.insert("dyn.update_rounds", d.update_rounds as f64);
    out.insert("dyn.update_bits", d.update_bits as f64);
    out.insert("dyn.compactions", d.compactions as f64);
    out.insert("dyn.pending_half_ops_max", d.pending_half_ops_max as f64);

    // The static alternative to one batch: ingest the final graph afresh
    // and solve both problems from scratch.
    let inputs = ctx.inputs;
    let batches = d.batch_ms.len();
    let n = inputs.n;
    let mut edges: Vec<Edge> = inputs.stream().collect();
    for batch in &ctx.updates[traced.variant][..batches] {
        batch
            .apply_to_edge_list(n, &mut edges)
            .expect("generated batches are valid");
    }
    let (full_wall_s, full_bits) = spans.scope("probe.dyn", |_| {
        let t = Instant::now();
        let cluster = Cluster::builder(inputs.spec.k)
            .seed(inputs.cluster_seed(0))
            .ingest_stream(VecStream::new(n, std::mem::take(&mut edges)));
        let conn = cluster.run(Connectivity::with(conn_cfg(inputs, &Tracer::off())));
        let mst = cluster.run(Mst::with(mst_cfg(inputs, &Tracer::off())));
        (
            t.elapsed().as_secs_f64(),
            conn.report.stats.total_bits + mst.report.stats.total_bits,
        )
    });
    out.insert(
        "dyn.incremental_over_full_bits",
        traced.ledger.total_bits as f64 / batches as f64 / full_bits as f64,
    );
    out.insert(
        "dyn.incremental_over_full_wall",
        median(&all(&|d| &d.batch_ms)) / 1e3 / full_wall_s,
    );
}

/// `est.*`: the computed budget. Each share is a probe's unit cost times
/// an exact count of the traced run, over `solve_s`; the residual is what
/// the probes do not explain (engine / dynamic self time).
fn estimate_shares(
    inputs: &Inputs,
    solve_s: f64,
    events: &[TraceRecord],
    traced: &Rep,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let k = inputs.spec.k as f64;
    let n = inputs.n as f64;
    let get = |name: &str| out.get(name).copied().unwrap_or(0.0);
    let stats = aggregate(inputs.spec.k, &traced.reports);

    // ksketch: a phase that ships `shipped` part sketches over `parts`
    // distinct parts makes `shipped / parts` passes over them. The first
    // pass sketches every edge of a rebuilt part; each further pass is an
    // MST elimination round that keeps only the edges lighter than a
    // sampled one, about half of what the round before kept. A restricted
    // re-run covers only its active vertices (its phase-0 component count).
    // Plus one merge per shipped sketch and one query per component and
    // pass. All of it runs inside `par` scopes, so wall = work / workers.
    let workers = std::thread::available_parallelism()
        .map_or(1.0, |p| p.get() as f64)
        .min(k);
    let mut sketch_s = 0.0;
    let (mut components, mut active) = (0.0, n);
    for rec in events {
        match rec.event {
            TraceEvent::PhaseStart {
                phase,
                components: c,
                ..
            } => {
                components = c as f64;
                if phase == 0 {
                    active = components;
                }
            }
            TraceEvent::PhaseEnd {
                sketch_builds,
                sketch_cache_hits,
                ..
            } if sketch_builds > 0 => {
                let shipped = (sketch_builds + sketch_cache_hits) as f64;
                let parts = shipped.min(active).min(components * k).max(1.0);
                let passes = shipped / parts;
                let edge_passes = 2.0 * (1.0 - 0.5f64.powf(passes));
                sketch_s += (sketch_builds as f64 / shipped
                    * edge_passes
                    * (active / n)
                    * get("ksketch.vertex_sketch_s")
                    + shipped * get("ksketch.merge_ns") / 1e9
                    + passes * components * get("ksketch.query_ns") / 1e9)
                    / workers;
            }
            _ => {}
        }
    }

    // bsp: every superstep at the workload's mean batch, priced at the
    // probe's rate for that batch (varint or fault-masking path included
    // when the workload runs it).
    let msgs = stats.messages as f64;
    let mut bsp_s = msgs / get("bsp.msgs_per_s").max(1.0);
    if matches!(
        inputs.spec.op,
        Op::Mst {
            contract_varint: true,
            ..
        }
    ) {
        bsp_s += msgs * get("bsp.varint_pricing_ns_per_msg").max(0.0) / 1e9;
    }
    if inputs.fault_plan().is_some() {
        bsp_s = stats.supersteps as f64 * get("bsp.faulty_superstep_us") / 1e6;
    }

    // par: the engine opens about three thread scopes per two supersteps
    // (the main thread blocks 1.45–1.7 times per superstep on every
    // workload, see `os.vol_ctx_switches` over `engine.supersteps`).
    let par_s = 1.5 * stats.supersteps as f64 * get("par.for_each_noop_us") / 1e6;

    // codec + transport: only the proc workload touches either. The window
    // wall includes decoding, so that part moves to the codec share.
    let (mut codec_s, mut transport_s) = (0.0, 0.0);
    if metrics::Scope::Proc.covers(inputs.spec) {
        let mb = get("transport.wire_bytes") / 1e6;
        let decode_s = mb / get("codec.decode_mb_per_s").max(1e-9);
        codec_s = mb / get("codec.encode_mb_per_s").max(1e-9) + decode_s;
        transport_s = (get("transport.window_wall_s") - decode_s).max(0.0);
    }

    let shares = [
        ("est.ksketch_share", sketch_s / solve_s),
        ("est.bsp_share", bsp_s / solve_s),
        ("est.par_share", par_s / solve_s),
        ("est.codec_share", codec_s / solve_s),
        ("est.transport_share", transport_s / solve_s),
    ];
    let explained: f64 = shares.iter().map(|(_, s)| s).sum();
    for (name, share) in shares {
        out.insert(name, share);
    }
    out.insert("est.residual_share", 1.0 - explained);
}
