//! `kmm` — command-line front end for the k-machine algorithms.
//!
//! ```text
//! kmm conn    --input graph.txt --k 16 [--seed 42]
//! kmm conn    --gen gnm --n 100000 --m 400000 --k 32     # streamed, no file
//! kmm mst     --input graph.txt --k 16 [--both-endpoints]
//! kmm st      --input graph.txt --k 16
//! kmm mincut  --input graph.txt --k 16
//! kmm stcon   --input graph.txt --k 16 --s 0 --t 5
//! kmm bipart  --input graph.txt --k 16
//! kmm gen     --family gnm --n 1000 --m 4000 --out graph.txt
//! kmm repro   [--quick] [E1 E7 ...]                      # the pinned claims table
//! ```
//!
//! The algorithm subcommands (`conn`, `mst`, `st`, `mincut`) all flow
//! through one generic runner over the session API: the input — either
//! `--input FILE` (the `kgraph::io` edge-list format) or `--gen FAMILY` (a
//! synthetic workload streamed straight into per-machine shards) — is
//! ingested exactly once into a `Cluster`, the selected `Problem` runs on
//! it, and the common `RunReport` trailer (rounds, total bits, wall time)
//! is printed after the problem-specific lines. Either way no central
//! graph copy is ever handed to an algorithm.

use kmm::algo::session::{Cluster, Connectivity, MinCut, Mst, Problem, SpanningForest};
use kmm::algo::verify;
use kmm::graph::stream::{materialize, DynEdgeStream};
use kmm::machine::fault::FaultPlan;
use kmm::prelude::*;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

/// Stdout's state: `0` while writable, [`CLOSED`] once its reader has gone
/// (`kmm … | head`), [`FAILED`] after any other write error.
static STDOUT: AtomicU8 = AtomicU8::new(0);
const CLOSED: u8 = 1;
const FAILED: u8 = 2;

/// `println!` through [`write_out`].
macro_rules! outln {
    ($($arg:tt)*) => { write_out(format_args!("{}\n", format_args!($($arg)*))) };
}

/// The one writer of stdout: a closed pipe ends the output quietly, any
/// other write error is reported once and fails the run.
fn write_out(text: std::fmt::Arguments) {
    use std::io::Write;
    if STDOUT.load(Relaxed) != 0 {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(text) {
        let closed = e.kind() == std::io::ErrorKind::BrokenPipe;
        STDOUT.store(if closed { CLOSED } else { FAILED }, Relaxed);
        if !closed {
            eprintln!("error: writing stdout: {e}");
        }
    }
}

/// The algorithm/utility subcommands, in help order (kept next to `usage`
/// so unknown-subcommand errors can list exactly what exists).
const SUBCOMMANDS: &[&str] = &[
    "conn", "mst", "st", "mincut", "dyn", "stcon", "bipart", "gen", "check", "trace", "repro",
];

/// The input and run-configuration options every algorithm subcommand reads.
/// A name ending in `?` is a boolean flag; every other option takes a value.
const RUN_OPTIONS: &str =
    "input gen n m p extra max-weight k seed faults contract? encoding transport trace-out";

/// The options whose value is a number: one that does not parse is an
/// error naming the option.
const NUMERIC: &[&str] = &["n", "m", "p", "extra", "max-weight", "k", "seed", "s", "t"];

/// Each subcommand's options: whether it reads [`RUN_OPTIONS`], and the
/// options only it reads (flags marked with `?`). Anything else is
/// rejected, so a mistyped flag cannot silently run the default
/// configuration.
const OPTIONS: &[(&str, bool, &str)] = &[
    ("conn", true, "report"),
    ("mst", true, "report both-endpoints? print-edges?"),
    ("st", true, "report"),
    ("mincut", true, "report"),
    ("dyn", true, "report trace both-endpoints?"),
    ("stcon", true, "s t"),
    ("bipart", true, ""),
    ("gen", false, "family n m p extra max-weight seed out"),
    ("check", false, "root allow"),
];

/// The input options, and the ones each `--gen` family reads; `--input
/// FILE` reads none of the others. Any other one given is an error.
const INPUT_OPTIONS: &str = "input n m p extra max-weight";
const FAMILIES: &[(&str, &str)] = &[
    ("gnm", "n m max-weight"),
    ("gnp", "n p max-weight"),
    ("path", "n max-weight"),
    ("cycle", "n max-weight"),
    ("grid", "n max-weight"),
    ("star", "n max-weight"),
    ("tree", "n max-weight"),
    ("connected", "n extra max-weight"),
];

/// Minimal argument parser: `--key value` pairs plus boolean `--flag`s.
struct Args {
    cmd: String,
    kv: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the words after the subcommand against its [`OPTIONS`] row.
    /// An option off the row, a flag followed by a word, a value option
    /// without a value or given twice, and a numeric option that is not a
    /// number are errors that name the option.
    fn parse(&(cmd, run, own): &(&str, bool, &str), words: &[String]) -> Result<Args, String> {
        let valid: Vec<&str> = own
            .split_whitespace()
            .chain(RUN_OPTIONS.split_whitespace().filter(|_| run))
            .collect();
        let mut args = Args {
            cmd: cmd.to_string(),
            kv: Vec::new(),
            flags: Vec::new(),
        };
        let mut words = words.iter().peekable();
        while let Some(word) = words.next() {
            let Some(key) = word.strip_prefix("--") else {
                return Err(format!("unexpected argument `{word}`"));
            };
            let value = words.next_if(|v| !v.starts_with("--"));
            let flag = valid.contains(&format!("{key}?").as_str());
            if !flag && !valid.contains(&key) {
                let names: Vec<&str> = valid.iter().map(|o| o.trim_end_matches('?')).collect();
                return Err(format!(
                    "unknown option --{key} for {cmd} (valid options: --{})",
                    names.join(", --")
                ));
            }
            match value {
                None if flag => args.flags.push(key.to_string()),
                None => return Err(format!("--{key} needs a value")),
                Some(v) if flag => {
                    return Err(format!("--{key} is a flag and takes no value (got `{v}`)"))
                }
                Some(_) if args.get(key).is_some() => {
                    return Err(format!("--{key} is given twice"))
                }
                Some(v) if NUMERIC.contains(&key) && v.parse::<f64>().is_err() => {
                    return Err(format!("--{key} {v}: not a number"))
                }
                Some(v) => args.kv.push((key.to_string(), v.clone())),
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.kv
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A numeric option's value: `None` when absent, an error naming the
    /// option when it is not a number of the expected type.
    fn get_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| v.parse().map_err(|_| format!("--{key} {v}: not a number"));
        self.get(key).map(parse).transpose()
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Fails naming each of [`INPUT_OPTIONS`] given here that `input`,
    /// which reads the options `reads`, does not read.
    fn only_inputs(&self, input: &str, reads: &str) -> Result<(), String> {
        let reads: Vec<&str> = reads.split_whitespace().collect();
        let unread: Vec<&str> = INPUT_OPTIONS
            .split_whitespace()
            .filter(|o| self.get(o).is_some() && !reads.contains(o))
            .collect();
        match unread[..] {
            [] => Ok(()),
            _ => Err(format!("{input} does not read --{}", unread.join(", --"))),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: kmm <{}> [--input FILE | --gen FAMILY] [--k K] [--seed S] ...\n\
         \n\
         conn    connected components (O~(n/k^2), Theorem 1)\n\
         mst     minimum spanning tree (Theorem 2; --both-endpoints for criterion (b))\n\
         st      spanning forest (no weight-elimination overhead)\n\
         mincut  O(log n)-approximate min cut (Theorem 3)\n\
         dyn     replay an update trace on a live cluster (--trace FILE; `+ u v [w]`,\n\
                 `- u v`, `---` batch boundary) with a per-batch report trailer\n\
                 covering connectivity, the spanning forest and the maintained MST\n\
         stcon   s-t connectivity (--s S --t T; Theorem 4)\n\
         bipart  bipartiteness via the double cover (Theorem 4)\n\
         gen     generate a graph file (--family ... --n N [--m M] [--p P] [--out FILE])\n\
         check   run the kcheck invariant lints over the workspace sources\n\
                 (--root DIR, --allow FILE; exits nonzero on any violation)\n\
         trace   inspect a --trace-out stream: `trace summarize FILE` prints the\n\
                 per-phase table, `trace chrome IN [OUT]` exports a Chrome trace\n\
         repro   measure the paper's claims: `repro [--quick] [E1 E7 ...]` prints the\n\
                 claims table (DESIGN.md 4) and exits nonzero if an expectation fails\n\
         \n\
         input:  --input FILE            edge-list file (n m header, `u v [w]` lines)\n\
                 --gen FAMILY            streamed synthetic workload, no file; families:\n\
                                         gnm|gnp|path|cycle|grid|star|tree|connected\n\
                 --n N --m M --p P       family size parameters\n\
                 --extra E               extra non-tree edges for `connected`\n\
                 --max-weight W          random weights in [1, W]\n\
         faults: --faults SPEC           inject seeded faults and survive them; SPEC is\n\
                                         comma-separated drop=P,dup=P,reorder=P,delay=P,\n\
                                         crash=MACHINE@SUPERSTEP (repeatable), seed=S —\n\
                                         outputs stay bit-identical, recovery is costed\n\
         perf:   --contract              supergraph contraction between Boruvka phases\n\
                                         (DESIGN.md 3.11; identical outputs, fewer bits)\n\
                 --encoding naive|varint charge per-message widths (default) or the\n\
                                         delta-varint batch wire size (accounting only)\n\
                 --transport sim|proc    run windows in-process (default) or through one\n\
                                         OS worker per machine over Unix sockets; outputs\n\
                                         and logical stats are identical either way\n\
         output: --report json           machine-readable RunReport on stdout\n\
                 --trace-out FILE        write the run's logical trace as JSONL to FILE\n\
                                         (physical channel to FILE.phys; inspect with\n\
                                         `kmm trace summarize` / `kmm trace chrome`)",
        SUBCOMMANDS.join("|")
    );
    ExitCode::from(2)
}

/// The whole graph: the `--input` file, or the `--gen` stream materialized
/// as `kmm gen` writes it.
fn load_graph(args: &Args, seed: u64) -> Result<Graph, String> {
    if args.get("gen").is_some() {
        return stream_from_args(args, "gen", seed).map(materialize);
    }
    let path = args
        .get("input")
        .ok_or("missing --input (or --gen FAMILY for a streamed synthetic input)")?;
    args.only_inputs("--input FILE", "input")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    kmm::graph::io::from_edge_list(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// A lazy edge stream of the family the option `--{flag}` names (`gnm` if
/// absent): `--gen` on the algorithm subcommands, `--family` on `gen`.
/// Validates the family parameters up front: every bad value is a clean
/// error, never a panic.
fn stream_from_args(args: &Args, flag: &str, seed: u64) -> Result<DynEdgeStream, String> {
    let family = args.get(flag).unwrap_or("gnm");
    let Some((_, reads)) = FAMILIES.iter().find(|(name, _)| *name == family) else {
        return Err(format!("unknown --{flag} family {family}"));
    };
    args.only_inputs(&format!("--{flag} {family}"), reads)?;
    let n: usize = args
        .get_num("n")?
        .ok_or_else(|| format!("--{flag} {family} needs --n"))?;
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    let s = match family {
        "gnm" => {
            let m: usize = args.get_num("m")?.unwrap_or(4 * n);
            let max = n as u64 * (n as u64 - 1) / 2;
            if m as u64 > max {
                return Err(format!(
                    "--m {m} exceeds the {max} possible edges on {n} vertices"
                ));
            }
            generators::gnm_stream(n, m, seed)
        }
        "gnp" => {
            let p: f64 = args.get_num("p")?.unwrap_or(0.01);
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("--p {p} must lie in [0, 1]"));
            }
            generators::gnp_stream(n, p, seed)
        }
        "path" => generators::path_stream(n),
        "cycle" => generators::cycle_stream(n.max(3)),
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            generators::grid_stream(side, side)
        }
        "star" => generators::star_stream(n.max(2)),
        "tree" => generators::random_tree_stream(n, seed),
        "connected" => {
            generators::random_connected_stream(n, args.get_num("extra")?.unwrap_or(n), seed)
        }
        other => unreachable!("`{other}` has a row in FAMILIES but no generator"),
    };
    match args.get_num::<u64>("max-weight")? {
        Some(0) => Err("--max-weight must be at least 1".into()),
        Some(w) => Ok(generators::weighted_stream(s, w, seed ^ 1)),
        None => Ok(s),
    }
}

/// The ingested cluster every algorithm subcommand runs against: either a
/// parsed edge-list file or a `--gen` workload streamed directly into
/// per-machine shards — one ingestion either way. Streamed runs print the
/// *effective* graph size — families like `grid`, `cycle` and `star` round
/// `--n` up to the nearest shape that exists.
fn cluster_from_args(args: &Args, k: usize, seed: u64, verbose: bool) -> Result<Cluster, String> {
    let builder = Cluster::builder(k).seed(seed);
    if args.get("gen").is_none() {
        return Ok(builder.ingest_graph(&load_graph(args, seed)?));
    }
    let cluster = builder.ingest_stream(stream_from_args(args, "gen", seed)?);
    if verbose {
        outln!("streamed input: n={} m={} k={k}", cluster.n(), cluster.m());
    }
    Ok(cluster)
}

/// Whether `--report json` asked for machine-readable output. Any other
/// `--report` value is an error — silently falling back to the human
/// trailer would break whatever is parsing stdout.
fn json_mode(args: &Args) -> Result<bool, String> {
    match args.get("report") {
        None => Ok(false),
        Some("json") => Ok(true),
        Some(other) => Err(format!(
            "unknown --report format `{other}` (supported: json)"
        )),
    }
}

/// Serializes a [`RunReport`] (plus caller-provided leading fields, already
/// JSON-encoded) as one JSON object. The fault fields count the solve and
/// its update phase together. Hand-rolled — the build environment has no
/// serde.
fn report_json(report: &kmm::algo::session::RunReport, head: &[(&str, String)]) -> String {
    let mut fields: Vec<String> = head.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let (s, u) = (&report.stats, &report.update);
    for (k, v) in [
        ("rounds", s.rounds),
        ("supersteps", s.supersteps),
        ("messages", s.messages),
        ("total_bits", s.total_bits),
        ("max_link_bits", s.max_link_bits),
        ("max_machine_recv_bits", s.max_machine_recv_bits()),
        ("phases", report.phases as u64),
        ("sketch_builds", report.sketch_builds),
        ("update_rounds", u.rounds),
        ("update_bits", u.total_bits),
        ("faults_injected", s.faults_injected + u.faults_injected),
        ("retransmit_bits", s.retransmit_bits + u.retransmit_bits),
        ("recovery_rounds", s.recovery_rounds + u.recovery_rounds),
        ("machine_crashes", s.machine_crashes),
    ] {
        fields.push(format!("\"{k}\": {v}"));
    }
    fields.insert(0, format!("\"problem\": \"{}\"", report.problem));
    fields.push(format!(
        "\"wall_ms\": {:.3}",
        report.wall.as_secs_f64() * 1e3
    ));
    format!("{{{}}}", fields.join(", "))
}

/// The one generic algorithm runner behind `conn`/`mst`/`st`/`mincut`:
/// ingest into a cluster, run the problem, print its specific lines via
/// `print`, then the common report trailer — or, under `--report json`,
/// exactly one machine-readable object carrying both the answer summary
/// (`answer`'s key/value pairs, values already JSON-encoded) and the
/// `RunReport`.
fn run_problem<P: Problem>(
    args: &Args,
    k: usize,
    seed: u64,
    transport: TransportSel,
    problem: P,
    answer: impl FnOnce(&P::Output) -> Vec<(&'static str, String)>,
    print: impl FnOnce(&Args, &P::Output),
) -> Result<(), String> {
    let json = json_mode(args)?;
    let run = cluster_from_args(args, k, seed, !json)?.run(problem);
    if json {
        let mut head = vec![("transport", format!("\"{}\"", transport.name()))];
        head.extend(answer(&run.output));
        outln!("{}", report_json(&run.report, &head));
    } else {
        print(args, &run.output);
        outln!("rounds:     {}", run.report.stats.rounds);
        outln!("total bits: {}", run.report.stats.total_bits);
        if args.get("faults").is_some() {
            outln!(
                "faults:     {} injected, {} machine crashes",
                run.report.stats.faults_injected,
                run.report.stats.machine_crashes
            );
            outln!(
                "recovery:   {} rounds, {} retransmit bits",
                run.report.stats.recovery_rounds,
                run.report.stats.retransmit_bits
            );
        }
        outln!("wall:       {:.1?}", run.report.wall);
    }
    Ok(())
}

/// `kmm dyn`: ingest, wrap into a `DynamicCluster`, replay the `--trace`
/// batches, and print a per-batch trailer (components, forest size, the
/// maintained MST's weight/size/refresh path, solve and update-phase
/// costs) — JSON lines under `--report json`.
fn run_dyn(args: &Args, k: usize, seed: u64, cfg: &EngineConfig) -> Result<(), String> {
    let path = args
        .get("trace")
        .ok_or("dyn needs --trace FILE (`+ u v [w]` / `- u v` / `---` per line)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let batches = UpdateBatch::parse_trace(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let json = json_mode(args)?;
    let cluster = cluster_from_args(args, k, seed, !json)?;
    let mut dc = DynamicCluster::wrap(
        cluster,
        DynConfig {
            faults: cfg.faults.clone(),
            trace: cfg.trace.clone(),
        },
    );
    let emit = |batch: usize, up: Option<&UpdateReport>, dc: &mut DynamicCluster| {
        let conn = dc.connectivity(cfg);
        // Read the refresh kind now: the follow-up spanning-forest call is
        // served from the structure the connectivity solve just refreshed.
        let refresh = refresh_name(dc.last_refresh());
        let st = dc.spanning_forest(cfg);
        let mst = dc.mst(cfg);
        let mst_refresh = refresh_name(dc.last_refresh());
        if json {
            let mut head = vec![("batch", batch.to_string())];
            if let Some(u) = up {
                head.push(("ops", u.ops.to_string()));
                head.push(("inserts", u.inserts.to_string()));
                head.push(("deletes", u.deletes.to_string()));
            }
            head.push(("refresh", format!("\"{refresh}\"")));
            head.push(("components", conn.output.component_count().to_string()));
            head.push(("forest_edges", st.output.edges.len().to_string()));
            head.push(("mst_refresh", format!("\"{mst_refresh}\"")));
            head.push(("mst_edges", mst.output.edges.len().to_string()));
            head.push(("mst_weight", mst.output.total_weight.to_string()));
            outln!("{}", report_json(&conn.report, &head));
        } else {
            match up {
                None => outln!("base solve:"),
                Some(u) => outln!(
                    "batch {batch}: {} ops (+{}/-{}), update rounds {} bits {}{}",
                    u.ops,
                    u.inserts,
                    u.deletes,
                    conn.report.update.rounds,
                    conn.report.update.total_bits,
                    if u.compacted { ", compacted" } else { "" }
                ),
            }
            outln!("  refresh:      {refresh}");
            outln!("  components:   {}", conn.output.component_count());
            outln!("  forest edges: {}", st.output.edges.len());
            outln!(
                "  mst:          weight {} over {} edges ({mst_refresh})",
                mst.output.total_weight,
                mst.output.edges.len()
            );
            outln!("  rounds:       {}", conn.report.stats.rounds);
            outln!("  total bits:   {}", conn.report.stats.total_bits);
            outln!("  wall:         {:.1?}", conn.report.wall);
        }
    };
    emit(0, None, &mut dc);
    for (i, batch) in batches.iter().enumerate() {
        if STDOUT.load(Relaxed) != 0 {
            break;
        }
        let up = dc
            .apply(batch)
            .map_err(|e| format!("batch {}: {e}", i + 1))?;
        emit(i + 1, Some(&up), &mut dc);
    }
    if !json {
        let (ins, del) = dc.ops_applied();
        outln!(
            "replayed {} batches (+{ins}/-{del}), {} compactions, final n={} m={}",
            batches.len(),
            dc.compactions(),
            dc.n(),
            dc.m()
        );
    }
    Ok(())
}

/// The trailer's name for a refresh path.
fn refresh_name(kind: RefreshKind) -> String {
    match kind {
        RefreshKind::Cached => "cached".to_string(),
        RefreshKind::Incremental { active_vertices } => format!("incremental({active_vertices})"),
        RefreshKind::Full => "full".to_string(),
    }
}

/// `kmm __transport-worker DIR MACHINE K`: serve one machine's socket mesh
/// until the coordinator shuts the run down.
fn run_transport_worker(argv: &[String]) -> Result<(), String> {
    let (Some(dir), Some(machine), Some(k)) = (
        argv.first(),
        argv.get(1).and_then(|a| a.parse::<usize>().ok()),
        argv.get(2).and_then(|a| a.parse::<usize>().ok()),
    ) else {
        return Err("__transport-worker needs <dir> <machine> <k>".into());
    };
    kmm::machine::transport::worker_main(std::path::Path::new(dir), machine, k)
        .map_err(|e| format!("transport worker {machine}: {e}"))
}

/// Builds the tracer `--trace-out FILE` asks for: a JSONL file sink for
/// the logical stream plus `FILE.phys` for the physical channel. Without
/// the flag the run keeps the zero-cost off tracer.
fn tracer_from_args(args: &Args) -> Result<Tracer, String> {
    let Some(path) = args.get("trace-out") else {
        return Ok(Tracer::off());
    };
    let logical = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let phys_path = format!("{path}.phys");
    let phys = std::fs::File::create(&phys_path).map_err(|e| format!("create {phys_path}: {e}"))?;
    Ok(Tracer::to_sink(Box::new(JsonlSink::with_phys(
        std::io::BufWriter::new(logical),
        std::io::BufWriter::new(phys),
    ))))
}

/// `kmm trace summarize FILE` / `kmm trace chrome IN [OUT]`: the offline
/// inspectors over a `--trace-out` logical JSONL stream. Positional
/// operands, so this is dispatched before the `--key value` parser runs.
fn run_trace_tool(argv: &[String]) -> Result<(), String> {
    let read_records = |path: &str| -> Result<Vec<TraceRecord>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        kmm::machine::trace::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
    };
    let operands = (argv.first().map(String::as_str), argv.get(1), argv.get(2));
    match (operands, argv.len()) {
        ((Some("summarize"), Some(path), None), 2) => {
            let table = kmm::machine::trace::summarize(&read_records(path)?);
            write_out(format_args!("{table}"));
        }
        ((Some("chrome"), Some(path), out), 2 | 3) => {
            let json = kmm::machine::trace::chrome_trace(&read_records(path)?);
            match out {
                Some(dst) => {
                    std::fs::write(dst, json).map_err(|e| format!("write {dst}: {e}"))?;
                    outln!("wrote {dst}");
                }
                None => write_out(format_args!("{json}")),
            }
        }
        _ => return Err("usage: kmm trace <summarize FILE | chrome IN [OUT]>".into()),
    }
    Ok(())
}

/// `kmm repro [--quick] [ID ...]`: print the claims table of
/// `kmm::repro` (DESIGN.md §4) and fail if an expectation is violated.
fn run_repro(argv: &[String]) -> Result<(), String> {
    let (flags, ids): (Vec<String>, Vec<String>) =
        argv.iter().cloned().partition(|a| a.starts_with("--"));
    if let Some(bad) = flags.iter().find(|f| *f != "--quick") {
        return Err(format!(
            "repro: unknown option `{bad}` (supported: --quick)"
        ));
    }
    let (text, pass) =
        kmm::repro::run(&ids, !flags.is_empty()).map_err(|e| format!("repro: {e}"))?;
    write_out(format_args!("{text}"));
    match pass {
        true => Ok(()),
        false => Err("repro: an expectation is violated (see the FAIL lines above)".into()),
    }
}

/// `kmm check [--root DIR] [--allow FILE]` — the kcheck static pass
/// (DESIGN.md §3.13). Scans the workspace sources, applies the audited
/// exceptions in `kcheck.allow`, prints rustc-style diagnostics, and exits
/// nonzero if any violation (or stale allowlist entry or lint scope)
/// remains.
fn run_check(args: &Args) -> ExitCode {
    let root = std::path::PathBuf::from(args.get("root").unwrap_or("."));
    if !root.join("Cargo.toml").exists() {
        return fail(&format!(
            "{}: no Cargo.toml here; pass --root <workspace dir>",
            root.display()
        ));
    }
    let allow = match args.get("allow") {
        Some(p) => std::path::PathBuf::from(p),
        None => root.join("kcheck.allow"),
    };
    let cfg = kcheck::Config::workspace();
    let report = match kcheck::check_workspace(&root, &cfg, &allow) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    for d in &report.diags {
        eprintln!("{d}");
    }
    for e in &report.stale_allow {
        eprintln!(
            "error[allow]: kcheck.allow:{} suppresses nothing (stale entry): {} {} \"{}\"",
            e.line, e.code, e.file, e.needle
        );
    }
    for s in &report.stale_scopes {
        eprintln!("error[scope]: lint scope `{s}` matches no source file (stale entry)");
    }
    let stale = report.stale_allow.len() + report.stale_scopes.len();
    eprintln!(
        "kmm check: {} files, {} violation(s), {} suppressed by kcheck.allow, {} stale entr{}",
        report.files_scanned,
        report.diags.len(),
        report.suppressed,
        stale,
        if stale == 1 { "y" } else { "ies" },
    );
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // `kmm __transport-worker <dir> <machine> <k>` is the hidden re-exec
    // entry of `--transport proc`, one per machine (DESIGN.md §3.12). It,
    // `kmm trace` and `kmm repro` take positional operands: no parser.
    let raw: Vec<String> = std::env::args().collect();
    let ran = match raw.get(1).map(String::as_str) {
        Some("__transport-worker") => run_transport_worker(&raw[2..]).map(|()| ExitCode::SUCCESS),
        Some("trace") => run_trace_tool(&raw[2..]).map(|()| ExitCode::SUCCESS),
        Some("repro") => run_repro(&raw[2..]).map(|()| ExitCode::SUCCESS),
        None => return usage(),
        Some(cmd) => match OPTIONS.iter().find(|(name, ..)| name == &cmd) {
            Some(row) => Args::parse(row, &raw[2..]).and_then(|args| run(&args)),
            None => {
                let valid = SUBCOMMANDS.join(", ");
                eprintln!("error: unknown subcommand `{cmd}` (valid subcommands: {valid})");
                return usage();
            }
        },
    };
    match ran {
        Err(e) => fail(&e),
        Ok(_) if STDOUT.load(Relaxed) == FAILED => ExitCode::FAILURE,
        Ok(code) => code,
    }
}

/// Runs one parsed subcommand of the [`OPTIONS`] table.
fn run(args: &Args) -> Result<ExitCode, String> {
    let k: usize = args.get_num("k")?.unwrap_or(8);
    let seed: u64 = args.get_num("seed")?.unwrap_or(42);
    if args.cmd == "check" {
        return Ok(run_check(args));
    }
    if args.cmd != "gen" && k < 2 {
        return Err("the k-machine model requires --k >= 2".into());
    }
    let faults = args.get("faults").map(FaultPlan::parse).transpose();
    let faults = faults.map_err(|e| format!("--faults: {e}"))?;
    let encoding = match args.get("encoding") {
        None | Some("naive") => Encoding::Naive,
        Some("varint") => Encoding::Varint,
        Some(other) => return Err(format!("--encoding {other}: expected naive or varint")),
    };
    let transport = args.get("transport").map(TransportSel::parse).transpose();
    let transport = transport.map_err(|e| format!("--transport: {e}"))?;
    let transport = transport.unwrap_or(TransportSel::Sim);
    let trace = tracer_from_args(args)?;
    // The one run configuration every subcommand reads.
    let cfg = EngineConfig {
        faults,
        contract: args.flag("contract"),
        encoding,
        transport,
        trace,
        criterion: if args.flag("both-endpoints") {
            OutputCriterion::BothEndpoints
        } else {
            OutputCriterion::AnyMachine
        },
        ..EngineConfig::default()
    };
    let ran = match args.cmd.as_str() {
        "conn" => run_problem(
            args,
            k,
            seed,
            transport,
            Connectivity::with(cfg.clone()),
            |out| vec![("components", out.component_count().to_string())],
            |_, out| {
                outln!("components: {}", out.component_count());
                outln!("phases:     {}", out.phases);
            },
        ),
        "mst" => run_problem(
            args,
            k,
            seed,
            transport,
            Mst::with(cfg.clone()),
            |out| {
                vec![
                    ("forest_edges", out.edges.len().to_string()),
                    ("total_weight", out.total_weight.to_string()),
                ]
            },
            |args, out| {
                outln!("forest edges: {}", out.edges.len());
                outln!("total weight: {}", out.total_weight);
                if args.flag("print-edges") {
                    for e in &out.edges {
                        outln!("{} {} {}", e.u, e.v, e.w);
                    }
                }
            },
        ),
        "st" => run_problem(
            args,
            k,
            seed,
            transport,
            SpanningForest::with(cfg.clone()),
            |out| vec![("forest_edges", out.edges.len().to_string())],
            |_, out| {
                outln!("forest edges: {}", out.edges.len());
            },
        ),
        "mincut" => run_problem(
            args,
            k,
            seed,
            transport,
            MinCut::with(cfg.clone()),
            |out| {
                vec![
                    ("estimate", out.estimate.to_string()),
                    ("probes", out.probes.to_string()),
                ]
            },
            |_, out| {
                outln!("estimate: {}", out.estimate);
                outln!("probes:   {}", out.probes);
            },
        ),
        "dyn" => run_dyn(args, k, seed, &cfg),
        "stcon" => {
            let g = load_graph(args, seed)?;
            let (Some(s), Some(t)) = (args.get_num::<u32>("s")?, args.get_num::<u32>("t")?) else {
                return Err("stcon needs --s and --t".into());
            };
            if s as usize >= g.n() || t as usize >= g.n() {
                return Err("--s/--t out of range".into());
            }
            let v = verify::st_connectivity(&g, s, t, k, seed, &cfg);
            outln!("connected: {}", v.holds);
            print_verdict_costs(&v, &cfg);
            Ok(())
        }
        "bipart" => {
            let v = verify::bipartiteness(&load_graph(args, seed)?, k, seed, &cfg);
            outln!("bipartite: {}", v.holds);
            print_verdict_costs(&v, &cfg);
            Ok(())
        }
        "gen" => {
            let g = materialize(stream_from_args(args, "family", seed)?);
            let text = kmm::graph::io::to_edge_list(&g);
            match args.get("out") {
                Some(path) => {
                    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
                    outln!("wrote n={} m={} to {path}", g.n(), g.m());
                }
                None => write_out(format_args!("{text}")),
            }
            Ok(())
        }
        other => unreachable!("`{other}` has a row in OPTIONS but no runner"),
    };
    cfg.trace.flush();
    ran.map(|()| ExitCode::SUCCESS)
}

/// The cost trailer shared by `stcon` and `bipart`.
fn print_verdict_costs(v: &verify::Verdict, cfg: &EngineConfig) {
    outln!("rounds:    {}", v.stats.rounds);
    if cfg.faults.is_some() {
        outln!(
            "faults:    {} injected, recovery {} rounds",
            v.stats.faults_injected,
            v.stats.recovery_rounds
        );
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}
