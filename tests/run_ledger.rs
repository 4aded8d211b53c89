//! The run ledger, pinned end to end.
//!
//! `crates/core/fixtures/payload_ledger.txt` pins what one *message* costs;
//! this file pins what whole *runs* cost: for a fixed set of small seeded
//! cells, one row of absolute `rounds`, `total_bits`, `supersteps`,
//! `messages`, recovery counters and phase count, a digest of the answer,
//! and a digest of the logical trace's accounting events in emission
//! order. A refactor that adds, drops, duplicates or reorders one message
//! or one superstep anywhere on these paths moves a row — the conformance
//! matrix compares runs with each other and with oracles, so it cannot see
//! a change that moves both sides.
//!
//! The digest covers event *fields* (not JSON text), so a trace schema
//! change alone does not invalidate the fixture.
//!
//! Same rule as the payload fixture: `tests/fixtures/run_ledger.txt` is
//! regenerated by hand, and only in a PR whose title says it moves the
//! ledger. A failing run leaves the rows it computed in
//! `$CARGO_TARGET_TMPDIR/run_ledger.actual.txt`.

use kmm::algo::baselines::edge_boruvka::CheckMode;
use kmm::algo::engine::MergeStrategy;
use kmm::prelude::*;
use std::collections::BTreeSet;
use std::fmt::Write as _;

const FIXTURE: &str = "tests/fixtures/run_ledger.txt";

/// 64-bit FNV-1a over a stream of integers and strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
    fn s(&mut self, s: &str) {
        self.u(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Digest of the accounting events of a logical stream, fields in order.
fn stream_digest(records: &[TraceRecord]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        match &r.event {
            TraceEvent::Superstep {
                index,
                rounds,
                bits,
                messages,
                max_link_bits,
                links,
                kinds,
            } => {
                for x in [1, *index, *rounds, *bits, *messages, *max_link_bits] {
                    h.u(x);
                }
                h.u(links.len() as u64);
                for &(s, d, b) in links {
                    for x in [u64::from(s), u64::from(d), b] {
                        h.u(x);
                    }
                }
                h.u(kinds.len() as u64);
                for (name, count) in kinds {
                    h.s(name);
                    h.u(*count);
                }
            }
            TraceEvent::Retransmit {
                superstep,
                attempt,
                messages,
                bits,
                rounds,
            } => {
                for x in [2, *superstep, *attempt, *messages, *bits, *rounds] {
                    h.u(x);
                }
            }
            TraceEvent::Rollback {
                phase,
                crashed,
                rounds,
                bits,
                recovery_rounds,
                retransmit_bits,
            } => {
                h.u(3);
                h.u(u64::from(*phase));
                h.u(crashed.len() as u64);
                for &m in crashed {
                    h.u(u64::from(m));
                }
                for x in [*rounds, *bits, *recovery_rounds, *retransmit_bits] {
                    h.u(x);
                }
            }
            // The recovery columns are a split of `rounds` / `bits` already
            // pinned by each row's own recovery counters.
            TraceEvent::Segment {
                name, rounds, bits, ..
            } => {
                h.u(4);
                h.s(name);
                h.u(*rounds);
                h.u(*bits);
            }
            TraceEvent::DynBatch {
                ops,
                inserts,
                deletes,
                rounds,
                bits,
                compacted,
            } => {
                let fields = [5, *ops, *inserts, *deletes, *rounds, *bits];
                for x in fields.into_iter().chain([u64::from(*compacted)]) {
                    h.u(x);
                }
            }
            TraceEvent::DynCertify {
                labels,
                rounds,
                bits,
                ok,
            } => {
                for x in [6, *labels, *rounds, *bits, u64::from(*ok)] {
                    h.u(x);
                }
            }
            TraceEvent::DynEscalate { span, rounds, bits } => {
                for x in [7, *span, *rounds, *bits] {
                    h.u(x);
                }
            }
            _ => {}
        }
    }
    h.0
}

fn digest_u64s(xs: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for x in xs {
        h.u(x);
    }
    h.0
}

fn digest_edges(edges: &[kmm::graph::graph::Edge]) -> u64 {
    digest_u64s(
        edges
            .iter()
            .flat_map(|e| [u64::from(e.u), u64::from(e.v), e.w]),
    )
}

/// The rows computed so far, plus the per-cell logical streams that later
/// assertions look into.
#[derive(Default)]
struct Ledger {
    text: String,
}

impl Ledger {
    fn push(&mut self, id: &str, stats: &CommStats, phases: u32, answer: u64, stream: u64) {
        writeln!(
            self.text,
            "{id} {} {} {} {} {} {} {phases} {answer:016x} {stream:016x}",
            stats.rounds,
            stats.total_bits,
            stats.supersteps,
            stats.messages,
            stats.recovery_rounds,
            stats.retransmit_bits,
        )
        .unwrap();
    }

    /// Runs one static cell under a fresh recording tracer and records its
    /// row; returns the logical stream.
    fn cell<P: Problem>(
        &mut self,
        id: &str,
        cluster: &Cluster,
        problem: impl FnOnce(Tracer) -> P,
        answer: impl FnOnce(&P::Output) -> u64,
    ) -> Vec<TraceRecord> {
        let tracer = Tracer::recording();
        let run = cluster.run(problem(tracer.clone()));
        let events = tracer.events();
        self.push(
            id,
            &run.report.stats,
            run.report.phases,
            answer(&run.output),
            stream_digest(&events),
        );
        events
    }
}

fn conn_answer(out: &ConnectivityOutput) -> u64 {
    digest_u64s(
        out.labels
            .iter()
            .copied()
            .chain([out.counted_components.unwrap_or(u64::MAX)]),
    )
}

/// The three engine modes of one cell, under `cfg` with the cell's tracer.
fn engine_cells(
    ledger: &mut Ledger,
    tag: &str,
    cluster: &Cluster,
    cfg: &EngineConfig,
) -> [Vec<TraceRecord>; 3] {
    let with = |trace: Tracer| EngineConfig {
        trace,
        ..cfg.clone()
    };
    [
        ledger.cell(
            &format!("conn/{tag}"),
            cluster,
            |t| Connectivity::with(with(t)),
            conn_answer,
        ),
        ledger.cell(
            &format!("mst/{tag}"),
            cluster,
            |t| Mst::with(with(t)),
            |o| digest_edges(&o.edges),
        ),
        ledger.cell(
            &format!("st/{tag}"),
            cluster,
            |t| SpanningForest::with(with(t)),
            |o| digest_edges(&o.edges),
        ),
    ]
}

fn static_cells(ledger: &mut Ledger) {
    let g = generators::randomize_weights(&generators::gnm(400, 1100, 0x51), 1000, 0x52);
    let cluster = Cluster::builder(8).seed(17).ingest_graph(&g);
    // Fault-free: {conn, mst, st} × {contract off, on} × {naive, varint}.
    for contract in [false, true] {
        for encoding in [Encoding::Naive, Encoding::Varint] {
            let cfg = EngineConfig {
                contract,
                encoding,
                ..EngineConfig::default()
            };
            let tag = format!(
                "{}/{}",
                if contract { "contract" } else { "plain" },
                if encoding == Encoding::Naive {
                    "naive"
                } else {
                    "varint"
                }
            );
            engine_cells(ledger, &tag, &cluster, &cfg);
        }
    }
    // Under message faults and two crashes, the first aimed at phase 1 —
    // the phase that runs `build_supergraph` when contraction is on.
    let plan = FaultPlan::new(0xFA17)
        .with_drop(0.05)
        .with_dup(0.1)
        .with_reorder(0.2)
        .with_crash(3, CRASH_IN_PHASE_1)
        .with_crash(5, CRASH_IN_PHASE_1 + 30);
    for contract in [false, true] {
        let cfg = EngineConfig {
            contract,
            faults: Some(plan.clone()),
            ..EngineConfig::default()
        };
        let tag = if contract {
            "contract/chaos"
        } else {
            "plain/chaos"
        };
        for events in engine_cells(ledger, tag, &cluster, &cfg) {
            let rolled_back: Vec<u32> = events
                .iter()
                .filter_map(|r| match r.event {
                    TraceEvent::Rollback { phase, .. } => Some(phase),
                    _ => None,
                })
                .collect();
            assert!(
                rolled_back.contains(&1),
                "{tag}: a crash must land in phase 1 (the build_supergraph \
                 phase); rolled back {rolled_back:?} — re-aim CRASH_IN_PHASE_1"
            );
        }
    }
    // The remaining knobs and problems, one cell each.
    let small = generators::randomize_weights(&generators::gnm(240, 700, 0x53), 500, 0x54);
    let c4 = Cluster::builder(4).seed(23).ingest_graph(&small);
    ledger.cell(
        "mst/both-endpoints",
        &c4,
        |trace| {
            Mst::with(EngineConfig {
                criterion: OutputCriterion::BothEndpoints,
                trace,
                ..EngineConfig::default()
            })
        },
        |o| digest_edges(&o.edges),
    );
    ledger.cell(
        "conn/coin-flip",
        &c4,
        |trace| {
            Connectivity::with(EngineConfig {
                merge: MergeStrategy::CoinFlip,
                trace,
                ..EngineConfig::default()
            })
        },
        conn_answer,
    );
    ledger.cell(
        "st/per-machine",
        &c4,
        |trace| {
            SpanningForest::with(EngineConfig {
                cost_model: CostModel::PerMachine,
                trace,
                ..EngineConfig::default()
            })
        },
        |o| digest_edges(&o.edges),
    );
    let barbell = generators::barbell(20, 3, 5, 0x55);
    let cb = Cluster::builder(4).seed(29).ingest_graph(&barbell);
    ledger.cell(
        "mincut/barbell",
        &cb,
        |trace| {
            MinCut::with(EngineConfig {
                trace,
                ..EngineConfig::default()
            })
        },
        |o| {
            digest_u64s([
                o.estimate,
                u64::from(o.disconnecting_probe),
                u64::from(o.probes),
            ])
        },
    );
    for (id, mode) in [
        ("edge-boruvka/batched-push", CheckMode::BatchedPush),
        ("edge-boruvka/per-edge-test", CheckMode::PerEdgeTest),
    ] {
        ledger.cell(
            id,
            &c4,
            |_| EdgeBoruvka {
                mode,
                ..EdgeBoruvka::default()
            },
            |o| digest_edges(&o.edges),
        );
    }
    ledger.cell(
        "flooding",
        &c4,
        |_| Flooding::default(),
        |o| digest_u64s(o.labels.iter().copied()),
    );
    ledger.cell(
        "referee",
        &c4,
        |_| Referee::default(),
        |o| digest_u64s(o.labels.iter().map(|&l| u64::from(l))),
    );
    ledger.cell(
        "rep-mst",
        &c4,
        |trace| {
            RepMst::with(EngineConfig {
                trace,
                ..EngineConfig::default()
            })
        },
        |o| digest_edges(&o.mst.edges),
    );
}

/// Superstep index of the first scheduled crash: inside phase 1 of every
/// engine mode on the static cells' cluster (phase 0 ends before it, and
/// under contraction phase 1 opens with `build_supergraph`). Phase 1 spans
/// supersteps 6–14 or 8–16 across the six fault-free traces.
const CRASH_IN_PHASE_1: u64 = 10;

/// How one batch's three solves ran: `last_refresh()` after each, plus the
/// incremental-MST tiers its trace segments and phase count show.
fn path_of(kinds: [RefreshKind; 3], mst_events: &[TraceRecord], mst_phases: u32) -> String {
    let letter = |k: RefreshKind| match k {
        RefreshKind::Cached => "cached",
        RefreshKind::Incremental { .. } => "inc",
        RefreshKind::Full => "full",
    };
    let mut path = format!(
        "{}.{}.{}",
        letter(kinds[0]),
        letter(kinds[1]),
        letter(kinds[2])
    );
    for r in mst_events {
        if let TraceEvent::Segment { name, .. } = &r.event {
            if name == "mst_cycle" || name == "mst_cut" {
                write!(path, "+{}", &name[4..]).unwrap();
            }
        }
    }
    if matches!(kinds[2], RefreshKind::Incremental { .. }) && mst_phases > 0 {
        path.push_str("+rerun");
    }
    path
}

/// One `DynamicCluster` script: warm solves, then batches that between them
/// take every refresh path. Tree edges to delete come from `mst_forest()`.
fn dynamic_cells(ledger: &mut Ledger) {
    let g = generators::randomize_weights(
        &generators::planted_components(180, 3, 40, 0x56),
        1000,
        0x57,
    );
    let n = g.n() as u32;
    let tracer = Tracer::recording();
    let mut dc = DynamicCluster::wrap(
        Cluster::builder(4).seed(31).ingest_graph(&g),
        DynConfig {
            trace: tracer.clone(),
            ..DynConfig::default()
        },
    );
    let cfg = EngineConfig {
        trace: tracer.clone(),
        ..EngineConfig::default()
    };
    let contracted = EngineConfig {
        contract: true,
        ..cfg.clone()
    };
    let mut edges = g.edges().to_vec();
    // Components of the base graph (the script restores them before it
    // ends): `absent` stays inside one, the bridge joins two.
    let comp = refalgo::connected_components(&g);
    let absent = |edges: &[kmm::graph::graph::Edge], from: u32| {
        for u in from..n {
            for v in (u + 1)..n {
                let same = comp[u as usize] == comp[v as usize];
                if same && !edges.iter().any(|e| (e.u, e.v) == (u, v)) {
                    return (u, v);
                }
            }
        }
        panic!("no absent intra-component edge from {from}");
    };
    let bridge = (1..n)
        .find(|&v| comp[v as usize] != comp[0])
        .expect("the base graph has several components");
    // The `i`-th maintained tree edge inside vertex 0's component.
    let tree_edge = |dc: &DynamicCluster, i: usize| {
        let forest = dc.mst_forest().expect("mst solved");
        *forest
            .iter()
            .filter(|e| comp[e.u as usize] == comp[0])
            .nth(i)
            .expect("vertex 0's component has that many tree edges")
    };
    let non_tree_edge = |dc: &DynamicCluster, edges: &[kmm::graph::graph::Edge]| {
        let forest = dc.mst_forest().expect("mst solved");
        *edges
            .iter()
            .find(|e| !forest.iter().any(|f| (f.u, f.v) == (e.u, e.v)))
            .expect("the graph has non-tree edges")
    };
    let mut seen = BTreeSet::new();
    for step in 0..=9usize {
        let mark = tracer.mark();
        let mut batch = UpdateBatch::new();
        let mut solve_cfg = &cfg;
        match step {
            // Warm solves: everything is a full refresh.
            0 => {}
            // Inserts only → cycle tier.
            1 => {
                let (u, v) = absent(&edges, 0);
                let (x, y) = absent(&edges, 70);
                batch = batch.insert(u, v, 1).insert(x, y, 2000);
            }
            // One tree deletion → cut tier (a replacement exists).
            2 => {
                let e = tree_edge(&dc, 5);
                batch = batch.delete(e.u, e.v);
            }
            // A non-tree deletion → the MST is untouched.
            3 => {
                let e = non_tree_edge(&dc, &edges);
                batch = batch.delete(e.u, e.v);
            }
            // Two tree deletions in one component → restricted re-run
            // (the insert lands wherever `absent` finds room).
            4 => {
                let (a, b) = (tree_edge(&dc, 11), tree_edge(&dc, 23));
                let (u, v) = absent(&edges, 130);
                batch = batch.delete(a.u, a.v).delete(b.u, b.v).insert(u, v, 7);
            }
            // Insert-then-delete nets out → cached MST.
            5 => {
                let (u, v) = absent(&edges, 20);
                batch = batch.insert(u, v, 3).delete(u, v);
            }
            // A bridge between two components (cycle tier, no cycle) …
            6 => batch = batch.insert(0, bridge, 9),
            // … and its deletion: a genuine split, certified by a zero sum.
            7 => batch = batch.delete(0, bridge),
            // A tree-edge reweight in one batch → restricted re-run.
            8 => {
                let e = tree_edge(&dc, 40);
                batch = batch.delete(e.u, e.v).insert(e.u, e.v, e.w + 900);
            }
            // Contraction forces the connectivity side to a full refresh.
            _ => {
                let (u, v) = absent(&edges, 100);
                batch = batch.insert(u, v, 11);
                solve_cfg = &contracted;
            }
        }
        let mut stats = CommStats::new(4);
        if !batch.is_empty() {
            batch
                .apply_to_edge_list(g.n(), &mut edges)
                .expect("the script's batches are valid");
            dc.apply(&batch).expect("the script's batches are valid");
        }
        let conn = dc.connectivity(solve_cfg);
        let k0 = dc.last_refresh();
        let st = dc.spanning_forest(solve_cfg);
        let k1 = dc.last_refresh();
        let mst_mark = tracer.mark();
        let mst = dc.mst(solve_cfg);
        let k2 = dc.last_refresh();
        let path = path_of(
            [k0, k1, k2],
            &tracer.events_since(mst_mark),
            mst.report.phases,
        );
        for r in [&conn.report, &st.report, &mst.report] {
            stats.absorb(&r.stats);
            stats.rounds += r.update.rounds;
            stats.total_bits += r.update.total_bits;
        }
        let answer = digest_u64s([
            digest_u64s(conn.output.labels.iter().copied()),
            digest_edges(&st.output.edges),
            digest_edges(&mst.output.edges),
        ]);
        assert_eq!(
            mst.output.total_weight,
            refalgo::forest_weight(&refalgo::kruskal(&Graph::from_dedup_edges(
                g.n(),
                edges.clone()
            ))),
            "dyn/{step}: the maintained MST must stay minimum"
        );
        ledger.push(
            &format!("dyn/{step}:{path}"),
            &stats,
            conn.report.phases + st.report.phases + mst.report.phases,
            answer,
            stream_digest(&tracer.events_since(mark)),
        );
        seen.extend(path.split(['.', '+']).map(str::to_string));
    }
    // The script must keep taking every path (it cannot rot into all-full).
    for want in ["cached", "inc", "full", "cycle", "cut", "rerun"] {
        assert!(
            seen.contains(want),
            "dynamic script never took `{want}`: {seen:?}"
        );
    }
}

#[test]
fn run_ledger_matches_the_golden_fixture() {
    let mut ledger = Ledger::default();
    ledger.text.push_str(
        "# id rounds total_bits supersteps messages recovery_rounds retransmit_bits \
         phases answer_digest stream_digest\n",
    );
    static_cells(&mut ledger);
    dynamic_cells(&mut ledger);
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(root.join(FIXTURE)).unwrap_or_default();
    if ledger.text == want {
        return;
    }
    let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("run_ledger.actual.txt");
    std::fs::write(&actual, &ledger.text).expect("write the computed rows");
    let want_rows: Vec<&str> = want.lines().collect();
    let mut diff = String::new();
    for (i, got) in ledger.text.lines().enumerate() {
        let was = want_rows.get(i).copied().unwrap_or("<no such row>");
        if got != was {
            writeln!(diff, "  row {i}\n    pinned: {was}\n    got:    {got}").unwrap();
        }
    }
    panic!(
        "the run ledger moved ({} pinned rows, {} computed):\n{diff}\n\
         The computed rows are in {}. Replace {FIXTURE} with them only in a \
         PR whose title says it moves the ledger.",
        want_rows.len(),
        ledger.text.lines().count(),
        actual.display()
    );
}
