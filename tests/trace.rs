//! Trace determinism and tiling (DESIGN.md §3.14).
//!
//! The logical trace stream is part of the deterministic surface: same
//! seed + config must yield a *byte-identical* logical JSONL whichever
//! transport carried the supersteps, and turning tracing on must never
//! perturb outputs or [`CommStats`] — the tracer only observes charges
//! the accounting layer already made. The per-phase breakdown is an exact
//! tiling: its rounds/bits/recovery columns sum to the run totals with no
//! slack, including runs that rolled phases back after crashes.

use std::path::PathBuf;
use std::sync::Once;

use kmm::machine::trace::{chrome_trace, parse_jsonl, phase_breakdown, to_jsonl};
use kmm::machine::transport::set_worker_exe;
use kmm::prelude::*;

/// Points the coordinator at the test build of the `kmm` binary (same
/// pattern as `tests/transport.rs`).
fn use_test_worker_exe() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| set_worker_exe(PathBuf::from(env!("CARGO_BIN_EXE_kmm"))));
}

/// Runs connectivity with a fresh recording tracer and returns the
/// logical stream as JSONL plus the output labels.
fn traced_conn_jsonl(
    g: &Graph,
    k: usize,
    seed: u64,
    mut cfg: ConnectivityConfig,
) -> (String, Vec<u64>) {
    let tracer = Tracer::recording();
    cfg.trace = tracer.clone();
    let run = Cluster::builder(k)
        .seed(seed)
        .ingest_graph(g)
        .run(Connectivity::with(cfg));
    (to_jsonl(&tracer.events()), run.output.labels)
}

#[test]
fn logical_stream_is_byte_identical_across_backends() {
    use_test_worker_exe();
    let g = generators::planted_components(150, 5, 3, 0x63);
    let sim = traced_conn_jsonl(&g, 3, 11, ConnectivityConfig::default());
    let phys = traced_conn_jsonl(
        &g,
        3,
        11,
        ConnectivityConfig {
            transport: TransportSel::Proc,
            ..ConnectivityConfig::default()
        },
    );
    assert!(!sim.0.is_empty(), "tracing on must record events");
    assert_eq!(sim.1, phys.1, "clean cell: labels");
    assert_eq!(sim.0, phys.0, "clean cell: logical JSONL bytes");
}

#[test]
fn chaos_cell_logical_stream_is_byte_identical_across_backends() {
    // The conformance chaos cell: drops, duplicates and reorders force
    // ack/retransmit waves, each of which re-crosses the real sockets on
    // the process backend — yet the *logical* event stream, sequence
    // numbers included, must not move by one byte.
    use_test_worker_exe();
    let g = generators::gnm(120, 260, 0x62);
    let plan = FaultPlan::new(42)
        .with_drop(0.25)
        .with_dup(0.1)
        .with_reorder(0.2);
    let cfg = ConnectivityConfig {
        faults: Some(plan),
        ..ConnectivityConfig::default()
    };
    let sim = traced_conn_jsonl(&g, 3, 7, cfg.clone());
    let phys = traced_conn_jsonl(
        &g,
        3,
        7,
        ConnectivityConfig {
            transport: TransportSel::Proc,
            ..cfg
        },
    );
    assert!(
        sim.0.contains("\"retransmit\"") && sim.0.contains("\"faults\""),
        "the plan must actually surface fault and retransmit events"
    );
    assert_eq!(sim.1, phys.1, "chaos cell: labels");
    assert_eq!(sim.0, phys.0, "chaos cell: logical JSONL bytes");
}

#[test]
fn tracing_is_invisible_to_outputs_and_stats() {
    // Bit-identity of the run itself, tracing on vs off: the tracer is an
    // observer of charges already made, never a participant.
    let g = generators::gnm(120, 260, 0x62);
    let plan = FaultPlan::new(42).with_drop(0.2).with_crash(1, 6);
    let base = MstConfig {
        faults: Some(plan),
        ..MstConfig::default()
    };
    let cluster = Cluster::builder(3).seed(9).ingest_graph(&g);
    let off = cluster.run(Mst::with(base.clone())).output;
    let tracer = Tracer::recording();
    let on = cluster
        .run(Mst::with(MstConfig {
            trace: tracer.clone(),
            ..base
        }))
        .output;
    assert!(!tracer.events().is_empty(), "tracer was live");
    assert_eq!(off.edges, on.edges, "MST edge set");
    assert_eq!(off.total_weight, on.total_weight, "MST weight");
    assert_eq!(
        format!("{:?}", off.stats),
        format!("{:?}", on.stats),
        "every CommStats field, superstep loads included"
    );
}

/// Pins the exact-tiling invariant: breakdown columns sum to the totals.
fn assert_breakdown_tiles(id: &str, rows: &[kmm::machine::trace::PhaseSummary], stats: &CommStats) {
    assert!(!rows.is_empty(), "{id}: breakdown present");
    let rounds: u64 = rows.iter().map(|r| r.rounds).sum();
    let bits: u64 = rows.iter().map(|r| r.bits).sum();
    let rec: u64 = rows.iter().map(|r| r.recovery_rounds).sum();
    let rtx: u64 = rows.iter().map(|r| r.retransmit_bits).sum();
    assert_eq!(rounds, stats.rounds, "{id}: rounds tile exactly");
    assert_eq!(bits, stats.total_bits, "{id}: bits tile exactly");
    assert_eq!(rec, stats.recovery_rounds, "{id}: recovery rounds tile");
    assert_eq!(rtx, stats.retransmit_bits, "{id}: retransmit bits tile");
}

#[test]
fn phase_breakdown_tiles_commstats_exactly() {
    let g = generators::planted_components(150, 5, 3, 0x63);
    let run = Cluster::builder(3)
        .seed(11)
        .ingest_graph(&g)
        .run(Connectivity::with(ConnectivityConfig {
            trace: Tracer::recording(),
            ..ConnectivityConfig::default()
        }));
    let rows = run.report.phase_breakdown.as_deref().expect("breakdown on");
    assert_breakdown_tiles("conn/planted", rows, &run.output.stats);
    assert!(
        rows.iter().any(|r| r.label == "setup") && rows.iter().any(|r| r.label == "output"),
        "setup and output segments are explicit rows"
    );
}

#[test]
fn faulted_mst_breakdown_tiles_with_rollback_rows() {
    // Crash at superstep 6 forces a phase rollback: the aborted attempt
    // becomes its own row, and the recovery columns still tile exactly.
    let g = generators::randomize_weights(&generators::gnm(120, 260, 0x62), 1000, 0x67);
    let plan = FaultPlan::new(9)
        .with_drop(0.2)
        .with_dup(0.1)
        .with_crash(1, 6);
    let run = Cluster::builder(3)
        .seed(9)
        .ingest_graph(&g)
        .run(Mst::with(MstConfig {
            faults: Some(plan),
            criterion: OutputCriterion::BothEndpoints,
            trace: Tracer::recording(),
            ..MstConfig::default()
        }));
    let rows = run.report.phase_breakdown.as_deref().expect("breakdown on");
    assert!(
        run.output.stats.machine_crashes > 0 && rows.iter().any(|r| r.rolled_back),
        "the crash must surface as a rolled-back row"
    );
    assert!(
        rows.iter().any(|r| r.label == "endpoint_routing"),
        "MST endpoint routing is its own segment row"
    );
    assert_breakdown_tiles("mst/faulted", rows, &run.output.stats);
}

#[test]
fn spanning_forest_breakdown_tiles() {
    let g = generators::barbell(24, 3, 5, 0x65);
    let run = Cluster::builder(3)
        .seed(3)
        .ingest_graph(&g)
        .run(SpanningForest::with(MstConfig {
            trace: Tracer::recording(),
            ..MstConfig::default()
        }));
    let rows = run.report.phase_breakdown.as_deref().expect("breakdown on");
    assert_breakdown_tiles("st/barbell", rows, &run.output.stats);
}

#[test]
fn rep_mst_breakdown_tiles_and_its_routing_reads_the_run_config() {
    // The REP→RVP routing step is a superstep of its own runner: it must
    // be in the traced stream, own a segment row, and be priced under the
    // run's encoding like every other superstep.
    let g = generators::randomize_weights(&generators::gnm(300, 1200, 0x68), 1000, 0x69);
    let cluster = Cluster::builder(4).seed(5).ingest_graph(&g);
    let run = |encoding| {
        cluster.run(RepMst::with(MstConfig {
            encoding,
            trace: Tracer::recording(),
            ..MstConfig::default()
        }))
    };
    let (naive, varint) = (run(Encoding::Naive), run(Encoding::Varint));
    assert_eq!(naive.output.mst.edges, varint.output.mst.edges);
    assert!(
        varint.output.routing.total_bits < naive.output.routing.total_bits,
        "the routing step must be priced under the run's encoding: {} vs {}",
        varint.output.routing.total_bits,
        naive.output.routing.total_bits
    );
    for (id, run) in [("rep-mst/naive", &naive), ("rep-mst/varint", &varint)] {
        let rows = run.report.phase_breakdown.as_deref().expect("breakdown on");
        let routing = rows.iter().find(|r| r.label == "rep_routing");
        let routing = routing.expect("REP routing is its own segment row");
        assert_eq!(routing.bits, run.output.routing.total_bits, "{id}");
        assert_breakdown_tiles(id, rows, &run.report.stats);
    }
}

#[test]
fn st_connectivity_breakdown_tiles_through_the_final_compare() {
    // CI's smoke cell: s and t live on different machines, so the verdict
    // pays the final `home(s) → home(t)` shipment on top of the run.
    let (k, seed, s, t) = (3, 9, 0, 399);
    let g = generators::gnm(400, 1200, 9);
    let part = Partition::random_vertex(&g, k, seed);
    assert_ne!(
        part.home(s),
        part.home(t),
        "pick s, t on different machines"
    );
    let knobs = ConnectivityConfig {
        encoding: Encoding::Varint,
        cost_model: CostModel::PerMachine,
        faults: Some(FaultPlan::new(3).with_drop(0.2).with_dup(0.1)),
        ..ConnectivityConfig::default()
    };
    for (id, cfg) in [
        ("stcon/default", ConnectivityConfig::default()),
        ("stcon/knobs", knobs),
    ] {
        let trace = Tracer::recording();
        let cfg = ConnectivityConfig { trace, ..cfg };
        let verdict = verify::st_connectivity(&g, s, t, k, seed, &cfg);
        let rows = phase_breakdown(&cfg.trace.events());
        assert!(rows.iter().any(|r| r.label == "final_compare"), "{id}");
        assert_breakdown_tiles(id, &rows, &verdict.stats);
    }
}

#[test]
fn breakdown_is_absent_when_tracing_is_off() {
    let g = generators::planted_components(60, 3, 2, 0x63);
    let run = Cluster::builder(2)
        .seed(1)
        .ingest_graph(&g)
        .run(Connectivity::default());
    assert!(run.report.phase_breakdown.is_none(), "off means None");
}

#[test]
fn jsonl_file_sink_matches_the_in_memory_stream() {
    // The file a `--trace-out` run writes is exactly `to_jsonl` of the
    // in-memory stream — the sink adds nothing, drops nothing.
    let path = std::env::temp_dir().join(format!("kmm-trace-{}.jsonl", std::process::id()));
    let file = std::fs::File::create(&path).expect("temp trace file");
    let tracer = Tracer::to_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(file))));
    let g = generators::planted_components(80, 4, 2, 0x63);
    let run = Cluster::builder(2)
        .seed(5)
        .ingest_graph(&g)
        .run(Connectivity::with(ConnectivityConfig {
            trace: tracer.clone(),
            ..ConnectivityConfig::default()
        }));
    tracer.flush();
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    let _ = std::fs::remove_file(&path);
    assert_eq!(text, to_jsonl(&tracer.events()), "file bytes == stream");

    // The stream round-trips through the parser, the offline breakdown
    // agrees with the session's, and the Chrome export is non-trivial.
    let parsed = parse_jsonl(&text).expect("every line parses");
    assert_eq!(parsed.len(), tracer.events().len());
    assert_eq!(to_jsonl(&parsed), text, "parse/serialize round-trip");
    assert_eq!(
        phase_breakdown(&parsed).len(),
        run.report.phase_breakdown.as_deref().map_or(0, <[_]>::len),
        "offline breakdown matches the session report"
    );
    let chrome = chrome_trace(&parsed);
    assert!(
        chrome.starts_with("{\"displayTimeUnit\"") && chrome.contains("\"traceEvents\""),
        "chrome trace-event JSON shape"
    );
}
