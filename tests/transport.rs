//! Transport conformance matrix (DESIGN.md §3.12): the multi-process
//! backend — one OS worker process per machine, superstep windows crossing
//! Unix-domain sockets with the varint batch encoding as the actual wire
//! format — must be observationally identical to the in-process simulator,
//! which stays the accounting oracle.
//!
//! Every cell runs the same seeded problem twice, once per backend, and
//! pins
//!
//! * bit-identical outputs (component labels, MST edge sets and weights,
//!   spanning forests, min-cut estimates), and
//! * identical *logical* [`CommStats`] — rounds, `total_bits`,
//!   `naive_bits`, messages, per-machine send/receive loads — because the
//!   model's cost accounting is derived from the decoded envelopes, never
//!   from how many physical bytes the sockets happened to carry.
//!
//! The matrix covers fault-free runs, PR 5 fault plans (retransmission
//! waves re-cross the real sockets), and the PR 6 contraction + varint
//! knobs. Worker processes killed mid-run map onto the
//! [`CrashEvent`](kmm::machine::fault::CrashEvent) story: the coordinator
//! respawns the worker, replays the in-flight window, and folds the
//! restart into `CommStats::machine_crashes`.
//!
//! The quick cells below always run; the full sweep forks enough processes
//! that it is gated behind `--features proc-tests` (a dedicated CI job).

use std::path::PathBuf;
use std::sync::Once;

use kmm::machine::bsp::Bsp;
use kmm::machine::message::Envelope;
use kmm::machine::network::NetworkConfig;
use kmm::machine::transport::{set_worker_exe, ProcTransport};
use kmm::prelude::*;

/// Points the coordinator at the test build of the `kmm` binary (whose
/// hidden `__transport-worker` subcommand is the worker entry point).
/// Without this, `ProcTransport::processes` would try `current_exe()`,
/// which is the test harness itself.
fn use_test_worker_exe() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| set_worker_exe(PathBuf::from(env!("CARGO_BIN_EXE_kmm"))));
}

/// Pins every *logical* field of [`CommStats`] equal across backends.
/// Physical effects (socket retries, worker respawns) must never leak
/// into these; `machine_crashes` is compared separately because a cell
/// that deliberately kills a worker records the restart on the process
/// backend only.
fn assert_stats_identical(id: &str, sim: &CommStats, phys: &CommStats) {
    assert_eq!(sim.rounds, phys.rounds, "{id}: rounds");
    assert_eq!(sim.supersteps, phys.supersteps, "{id}: supersteps");
    assert_eq!(sim.messages, phys.messages, "{id}: messages");
    assert_eq!(sim.total_bits, phys.total_bits, "{id}: total_bits");
    assert_eq!(sim.naive_bits, phys.naive_bits, "{id}: naive_bits");
    assert_eq!(sim.max_link_bits, phys.max_link_bits, "{id}: max_link_bits");
    assert_eq!(sim.sent_bits, phys.sent_bits, "{id}: per-machine sent_bits");
    assert_eq!(sim.recv_bits, phys.recv_bits, "{id}: per-machine recv_bits");
    assert_eq!(sim.cut_bits, phys.cut_bits, "{id}: cut_bits");
    assert_eq!(
        sim.faults_injected, phys.faults_injected,
        "{id}: faults_injected"
    );
    assert_eq!(
        sim.retransmit_bits, phys.retransmit_bits,
        "{id}: retransmit_bits"
    );
    assert_eq!(
        sim.recovery_rounds, phys.recovery_rounds,
        "{id}: recovery_rounds"
    );
}

/// Runs connectivity on both backends and pins outputs + logical stats.
fn pin_connectivity(id: &str, g: &Graph, k: usize, seed: u64, cfg: ConnectivityConfig) {
    use_test_worker_exe();
    let mut sim_cfg = cfg.clone();
    sim_cfg.transport = TransportSel::Sim;
    let mut proc_cfg = cfg;
    proc_cfg.transport = TransportSel::Proc;
    let cluster = Cluster::builder(k).seed(seed).ingest_graph(g);
    let sim = cluster.run(Connectivity::with(sim_cfg)).output;
    let phys = cluster.run(Connectivity::with(proc_cfg)).output;
    assert_eq!(sim.labels, phys.labels, "{id}: component labels");
    assert_eq!(sim.phases, phys.phases, "{id}: phases");
    assert_eq!(
        sim.counted_components, phys.counted_components,
        "{id}: output-protocol count"
    );
    assert_stats_identical(id, &sim.stats, &phys.stats);
    assert_eq!(
        sim.stats.machine_crashes, phys.stats.machine_crashes,
        "{id}: machine_crashes"
    );
}

/// Runs MST on both backends and pins outputs + logical stats.
fn pin_mst(id: &str, g: &Graph, k: usize, seed: u64, cfg: MstConfig) {
    use_test_worker_exe();
    let mut sim_cfg = cfg.clone();
    sim_cfg.transport = TransportSel::Sim;
    let mut proc_cfg = cfg;
    proc_cfg.transport = TransportSel::Proc;
    let cluster = Cluster::builder(k).seed(seed).ingest_graph(g);
    let sim = cluster.run(Mst::with(sim_cfg)).output;
    let phys = cluster.run(Mst::with(proc_cfg)).output;
    assert_eq!(sim.edges, phys.edges, "{id}: MST edge set");
    assert_eq!(sim.total_weight, phys.total_weight, "{id}: MST weight");
    assert_eq!(sim.phases, phys.phases, "{id}: phases");
    assert_stats_identical(id, &sim.stats, &phys.stats);
    assert_eq!(
        sim.stats.machine_crashes, phys.stats.machine_crashes,
        "{id}: machine_crashes"
    );
}

// ---------------------------------------------------------------------
// Quick cells: always on. Each forks k real worker processes.
// ---------------------------------------------------------------------

#[test]
fn connectivity_is_bit_identical_across_backends() {
    let g = generators::planted_components(150, 5, 3, 0x63);
    pin_connectivity(
        "conn/planted-5/k3",
        &g,
        3,
        11,
        ConnectivityConfig::default(),
    );
}

#[test]
fn memo_built_part_sketches_are_bit_identical_across_backends() {
    // Parts here pass the edge cap, so mid-epoch phases build part
    // sketches from the previous phase's memoised ones (DESIGN.md §3.7);
    // the memo is machine-local state that no window ever carries.
    use kmm::algo::engine::{Engine, Mode};
    use_test_worker_exe();
    let g = generators::gnm(2000, 8000, 0x61);
    let cluster = Cluster::builder(4).seed(5).ingest_graph(&g);
    let run = |transport| {
        let cfg = ConnectivityConfig {
            transport,
            ..ConnectivityConfig::default()
        };
        Engine::new(cluster.sharded(), Mode::Connectivity, 5, cfg).run()
    };
    let (sim, phys) = (run(TransportSel::Sim), run(TransportSel::Proc));
    assert!(sim.memo_hits > 0, "no part was built from the memo");
    assert_eq!(sim.memo_hits, phys.memo_hits, "memo hits");
    assert_eq!(sim.sketch_builds, phys.sketch_builds, "sketch builds");
    assert_eq!(sim.labels, phys.labels, "component labels");
    assert_eq!(sim.phases, phys.phases, "phases");
    assert_stats_identical("conn/gnm-2000/memo/k4", &sim.stats, &phys.stats);
}

#[test]
fn mst_is_bit_identical_with_contraction_and_varint() {
    // The required contract + varint cell: the varint batch encoding is
    // simultaneously the logical charging model and the physical wire
    // format, and contraction changes the supergraph the windows carry.
    let g = generators::randomize_weights(&generators::gnm(120, 260, 0x62), 1000, 0x67);
    let cfg = MstConfig {
        contract: true,
        encoding: Encoding::Varint,
        ..MstConfig::default()
    };
    pin_mst("mst/weighted-gnm/contract+varint/k4", &g, 4, 3, cfg);
}

#[test]
fn fault_plan_runs_are_bit_identical_across_backends() {
    // The required fault-plan cell: drops, duplicates and reorders force
    // ack/retransmit waves, each of which re-crosses the physical mesh.
    let g = generators::gnm(120, 260, 0x62);
    let plan = FaultPlan::new(42)
        .with_drop(0.25)
        .with_dup(0.1)
        .with_reorder(0.2);
    let cfg = ConnectivityConfig {
        faults: Some(plan),
        ..ConnectivityConfig::default()
    };
    use_test_worker_exe();
    let mut sim_cfg = cfg.clone();
    sim_cfg.transport = TransportSel::Sim;
    let mut proc_cfg = cfg;
    proc_cfg.transport = TransportSel::Proc;
    let cluster = Cluster::builder(3).seed(7).ingest_graph(&g);
    let sim = cluster.run(Connectivity::with(sim_cfg)).output;
    let phys = cluster.run(Connectivity::with(proc_cfg)).output;
    assert!(
        sim.stats.faults_injected > 0,
        "the plan must actually inject faults"
    );
    assert_eq!(sim.labels, phys.labels, "faulted labels");
    assert_stats_identical("conn/gnm/faulted/k3", &sim.stats, &phys.stats);
}

#[test]
fn min_cut_and_spanning_forest_are_bit_identical() {
    use_test_worker_exe();
    let g = generators::barbell(24, 3, 5, 0x65);
    let cluster = Cluster::builder(3).seed(3).ingest_graph(&g);

    let sim_cut = cluster.run(MinCut::with(MinCutConfig::default())).output;
    let proc_cut = cluster
        .run(MinCut::with(MinCutConfig {
            transport: TransportSel::Proc,
            ..MinCutConfig::default()
        }))
        .output;
    assert_eq!(sim_cut.estimate, proc_cut.estimate, "min-cut estimate");
    assert_eq!(
        sim_cut.disconnecting_probe, proc_cut.disconnecting_probe,
        "disconnecting probe"
    );
    assert_eq!(sim_cut.probes, proc_cut.probes, "probe count");
    assert_stats_identical("mincut/barbell/k3", &sim_cut.stats, &proc_cut.stats);

    let sim_st = cluster
        .run(SpanningForest::with(MstConfig::default()))
        .output;
    let proc_st = cluster
        .run(SpanningForest::with(MstConfig {
            transport: TransportSel::Proc,
            ..MstConfig::default()
        }))
        .output;
    assert_eq!(sim_st.edges, proc_st.edges, "spanning forest edges");
    assert_stats_identical("st/barbell/k3", &sim_st.stats, &proc_st.stats);
}

/// Runs `P` on both backends under the default config, checks that the
/// process run's windows really crossed the worker sockets, and pins its
/// logical stats; returns both outputs for the caller to compare.
fn on_both_backends<P: Problem>(id: &str, cluster: &Cluster) -> (P::Output, P::Output) {
    use_test_worker_exe();
    let sim = cluster.run(P::with(EngineConfig::default()));
    let trace = Tracer::recording();
    let phys = cluster.run(P::with(EngineConfig {
        transport: TransportSel::Proc,
        trace: trace.clone(),
        ..EngineConfig::default()
    }));
    assert!(
        !trace.phys_events().is_empty(),
        "{id}: no window left the process"
    );
    assert_stats_identical(id, &sim.report.stats, &phys.report.stats);
    (sim.output, phys.output)
}

#[test]
fn baselines_are_bit_identical_across_backends() {
    // The baselines open their `Net` from the problem's config, so
    // `transport` reaches them like every other knob.
    let g = generators::randomize_weights(&generators::planted_components(120, 2, 4, 0x63), 50, 1);
    let cluster = Cluster::builder(4).seed(5).ingest_graph(&g);
    let (a, b) = on_both_backends::<Flooding>("flooding/planted-2/k4", &cluster);
    assert_eq!(a.labels, b.labels, "flooding labels");
    let (a, b) = on_both_backends::<Referee>("referee/planted-2/k4", &cluster);
    assert_eq!(a.labels, b.labels, "referee labels");
    let (a, b) = on_both_backends::<EdgeBoruvka>("edge-boruvka/planted-2/k4", &cluster);
    assert_eq!(a.edges, b.edges, "edge-boruvka forest");
    let (a, b) = on_both_backends::<RepMst>("rep-mst/planted-2/k4", &cluster);
    assert_eq!(a.mst.edges, b.mst.edges, "rep-mst forest");
    assert_stats_identical("rep-mst routing", &a.routing, &b.routing);
}

// ---------------------------------------------------------------------
// Worker crash: kill -9 mid-run maps onto CrashEvent recovery.
// ---------------------------------------------------------------------

/// Seeded superstep batch of `u64` payloads (mirrors the kmachine-side
/// thread-mode conformance cells).
fn batch(seed: u64, k: usize, step: u64, len: u64) -> Vec<Envelope<u64>> {
    let prf = krand::prf::Prf::new(seed);
    (0..len)
        .map(|i| {
            let src = prf.eval_mod(10, step * 1_000 + i, k as u64) as usize;
            let dst = prf.eval_mod(11, step * 1_000 + i, k as u64) as usize;
            Envelope::new(src, dst, prf.eval(12, step * 1_000 + i))
        })
        .collect()
}

#[test]
fn killed_worker_is_respawned_and_counted_as_a_machine_crash() {
    use_test_worker_exe();
    let k = 3;

    // Reference run: pure simulator, no transport, no crashes.
    let mut oracle: Bsp<u64> = Bsp::new(NetworkConfig::new(k, Bandwidth::Bits(32), 256));
    for step in 0..4u64 {
        oracle.superstep(batch(9, k, step, 20));
    }
    let oracle_inboxes: Vec<Vec<u64>> = (0..k)
        .map(|m| {
            oracle
                .take_inbox(m)
                .into_iter()
                .map(|e| e.payload)
                .collect()
        })
        .collect();
    let oracle_stats = oracle.into_stats();

    // Process run: SIGKILL one worker between supersteps. The coordinator
    // must detect the death, respawn the worker, replay the window, and
    // the run must finish with bit-identical inboxes and logical stats.
    let transport = ProcTransport::processes(k).expect("spawn worker processes");
    let victim = transport.worker_pids()[1];
    let mut bsp: Bsp<u64> = Bsp::new(NetworkConfig::new(k, Bandwidth::Bits(32), 256));
    bsp.set_transport(Box::new(transport));
    for step in 0..4u64 {
        if step == 2 {
            let killed = std::process::Command::new("kill")
                .args(["-9", &victim.to_string()])
                .status()
                .expect("run kill");
            assert!(killed.success(), "SIGKILL the victim worker");
            // Wait for the worker to actually die so superstep 2's window
            // deterministically hits the dead mesh.
            while std::path::Path::new(&format!("/proc/{victim}/status")).exists()
                && std::fs::read_to_string(format!("/proc/{victim}/stat"))
                    .is_ok_and(|s| !s.contains(") Z "))
            {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        bsp.superstep(batch(9, k, step, 20));
    }
    let inboxes: Vec<Vec<u64>> = (0..k)
        .map(|m| bsp.take_inbox(m).into_iter().map(|e| e.payload).collect())
        .collect();
    let stats = bsp.into_stats();

    assert_eq!(oracle_inboxes, inboxes, "inboxes survive the worker crash");
    assert_stats_identical("crash/k3", &oracle_stats, &stats);
    assert_eq!(oracle_stats.machine_crashes, 0);
    assert!(
        stats.machine_crashes >= 1,
        "the respawn must be folded into machine_crashes, got {}",
        stats.machine_crashes
    );
}

// ---------------------------------------------------------------------
// Satellite: teardown. A panicking test must leak no worker processes.
// ---------------------------------------------------------------------

#[test]
fn panicking_owner_leaves_no_worker_processes_behind() {
    use_test_worker_exe();
    let transport = ProcTransport::processes(4).expect("spawn worker processes");
    let pids = transport.worker_pids();
    assert_eq!(pids.len(), 4, "one worker per machine");
    for &pid in &pids {
        assert!(
            std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "worker {pid} must be alive while the transport is"
        );
    }
    // Panic while the transport is live: unwinding must run its Drop,
    // which reaps every child (no orphans, no zombies).
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let _held = transport;
        panic!("deliberate test panic");
    }));
    assert!(result.is_err(), "the closure must have panicked");
    // Reaped children disappear from /proc entirely (a zombie would still
    // have an entry). Allow a brief grace period for the kernel.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let leaked: Vec<u32> = pids
            .iter()
            .copied()
            .filter(|pid| std::path::Path::new(&format!("/proc/{pid}")).exists())
            .collect();
        if leaked.is_empty() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker pids leaked past the panic: {leaked:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------
// Full sweep: gated behind `--features proc-tests` (dedicated CI job).
// ---------------------------------------------------------------------

#[cfg(feature = "proc-tests")]
mod full_matrix {
    use super::*;

    fn families(seed: u64) -> Vec<(&'static str, Graph)> {
        vec![
            ("path", generators::path(64)),
            ("gnm", generators::gnm(120, 260, seed ^ 0x62)),
            (
                "planted-5",
                generators::planted_components(150, 5, 3, seed ^ 0x64),
            ),
            (
                "weighted-gnm",
                generators::randomize_weights(
                    &generators::gnm(100, 220, seed ^ 0x66),
                    1000,
                    seed ^ 0x67,
                ),
            ),
        ]
    }

    #[test]
    fn connectivity_full_matrix() {
        for (family, g) in families(3) {
            for k in [2usize, 5] {
                for encoding in [Encoding::Naive, Encoding::Varint] {
                    let cfg = ConnectivityConfig {
                        encoding,
                        ..ConnectivityConfig::default()
                    };
                    let id = format!("conn/{family}/k{k}/{encoding:?}");
                    pin_connectivity(&id, &g, k, 3, cfg);
                }
            }
        }
    }

    #[test]
    fn connectivity_contract_matrix() {
        for (family, g) in families(11) {
            for contract in [false, true] {
                let cfg = ConnectivityConfig {
                    contract,
                    encoding: Encoding::Varint,
                    ..ConnectivityConfig::default()
                };
                let id = format!("conn/{family}/k4/contract={contract}/varint");
                pin_connectivity(&id, &g, 4, 11, cfg);
            }
        }
    }

    #[test]
    fn mst_full_matrix() {
        for (family, g) in families(7) {
            for contract in [false, true] {
                for encoding in [Encoding::Naive, Encoding::Varint] {
                    let cfg = MstConfig {
                        contract,
                        encoding,
                        ..MstConfig::default()
                    };
                    let id = format!("mst/{family}/k3/contract={contract}/{encoding:?}");
                    pin_mst(&id, &g, 3, 7, cfg);
                }
            }
        }
    }

    #[test]
    fn faulted_matrix_with_both_encodings() {
        let g = generators::gnm(120, 260, 0x62);
        for encoding in [Encoding::Naive, Encoding::Varint] {
            for (label, plan) in [
                ("drop", FaultPlan::new(13).with_drop(0.4)),
                (
                    "mixed",
                    FaultPlan::new(29)
                        .with_drop(0.2)
                        .with_dup(0.15)
                        .with_reorder(0.25),
                ),
                (
                    "crashes",
                    FaultPlan::new(31).with_crash(1, 40).with_crash(2, 90),
                ),
            ] {
                let cfg = ConnectivityConfig {
                    faults: Some(plan),
                    encoding,
                    ..ConnectivityConfig::default()
                };
                let id = format!("conn/gnm/fault={label}/{encoding:?}");
                pin_connectivity(&id, &g, 4, 13, cfg);
            }
            let mst_cfg = MstConfig {
                faults: Some(FaultPlan::new(17).with_drop(0.3).with_dup(0.1)),
                encoding,
                ..MstConfig::default()
            };
            let g2 = generators::randomize_weights(&generators::gnm(100, 220, 0x66), 1000, 0x67);
            pin_mst(
                &format!("mst/weighted-gnm/faulted/{encoding:?}"),
                &g2,
                3,
                17,
                mst_cfg,
            );
        }
    }

    #[test]
    fn min_cut_full_matrix() {
        use_test_worker_exe();
        for (family, g) in [
            ("barbell", generators::barbell(24, 3, 5, 0x65)),
            ("cycle", generators::cycle(65)),
        ] {
            for k in [2usize, 4] {
                let cluster = Cluster::builder(k).seed(11).ingest_graph(&g);
                let sim = cluster.run(MinCut::with(MinCutConfig::default())).output;
                let phys = cluster
                    .run(MinCut::with(MinCutConfig {
                        transport: TransportSel::Proc,
                        ..MinCutConfig::default()
                    }))
                    .output;
                let id = format!("mincut/{family}/k{k}");
                assert_eq!(sim.estimate, phys.estimate, "{id}: estimate");
                assert_eq!(sim.probes, phys.probes, "{id}: probes");
                assert_stats_identical(&id, &sim.stats, &phys.stats);
            }
        }
    }
}
