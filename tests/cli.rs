//! Integration tests for the `kmm` command-line binary.

use std::process::Command;

fn kmm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kmm"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("kmm-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn gen_then_analyze_roundtrip() {
    let path = tmp("grid.txt");
    let out = kmm()
        .args([
            "gen",
            "--family",
            "grid",
            "--n",
            "64",
            "--max-weight",
            "20",
            "--seed",
            "3",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("run gen");
    assert!(out.status.success(), "{out:?}");

    let conn = kmm()
        .args(["conn", "--input", path.to_str().unwrap(), "--k", "4"])
        .output()
        .expect("run conn");
    assert!(conn.status.success());
    let text = String::from_utf8_lossy(&conn.stdout);
    assert!(text.contains("components: 1"), "{text}");
    assert!(text.contains("rounds:"), "{text}");

    let mst = kmm()
        .args(["mst", "--input", path.to_str().unwrap(), "--k", "4"])
        .output()
        .expect("run mst");
    assert!(mst.status.success());
    let text = String::from_utf8_lossy(&mst.stdout);
    assert!(text.contains("forest edges: 63"), "{text}");

    let bip = kmm()
        .args(["bipart", "--input", path.to_str().unwrap(), "--k", "4"])
        .output()
        .expect("run bipart");
    let text = String::from_utf8_lossy(&bip.stdout);
    assert!(
        text.contains("bipartite: true"),
        "grids are bipartite: {text}"
    );

    let _ = std::fs::remove_file(path);
}

#[test]
fn stcon_answers_and_validates_args() {
    let path = tmp("path.txt");
    let trace = tmp("stcon.jsonl");
    assert!(kmm()
        .args([
            "gen",
            "--family",
            "path",
            "--n",
            "30",
            "--out",
            path.to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());
    let ok = kmm()
        .args([
            "stcon",
            "--input",
            path.to_str().unwrap(),
            "--k",
            "4",
            "--s",
            "0",
            "--t",
            "29",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&ok.stdout).contains("connected: true"));
    // The verification subcommands share the one run configuration, so
    // `--trace-out` reaches them too: a non-empty, well-formed stream.
    let jsonl = std::fs::read_to_string(&trace).unwrap();
    let records = kmm::machine::trace::parse_jsonl(&jsonl).expect("clean logical stream");
    assert!(
        !records.is_empty(),
        "stcon --trace-out wrote an empty trace"
    );
    let bad = kmm()
        .args([
            "stcon",
            "--input",
            path.to_str().unwrap(),
            "--k",
            "4",
            "--s",
            "0",
            "--t",
            "99",
        ])
        .output()
        .unwrap();
    assert!(!bad.status.success(), "out-of-range endpoint must fail");
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(format!("{}.phys", trace.display()));
    let _ = std::fs::remove_file(trace);
}

#[test]
fn unknown_subcommand_prints_usage() {
    let out = kmm().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"));
    // The error names the offending word and lists every valid subcommand.
    assert!(err.contains("unknown subcommand `frobnicate`"), "{err}");
    for sub in [
        "conn", "mst", "st", "mincut", "stcon", "bipart", "gen", "repro",
    ] {
        assert!(
            err.contains(sub),
            "valid subcommand {sub} must be listed: {err}"
        );
    }
}

#[test]
fn repro_runs_one_row_and_rejects_an_unknown_id_cleanly() {
    // A cheap row: its section and the summary line, exit 0.
    let out = kmm().args(["repro", "--quick", "E13"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("## E13 — Theorem 5"), "{text}");
    assert!(text.ends_with("1 row(s), 0 failed\n"), "{text}");
    // An unknown id is a typed error listing the valid ones — exit 1, no panic.
    let out = kmm().args(["repro", "--quick", "E14"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment id `E14`"), "{err}");
    assert!(err.contains("E1, E2,") && err.contains("E23"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let out = kmm().args(["repro", "--slow"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn algorithm_commands_share_the_report_trailer() {
    // Every Problem subcommand flows through the same generic runner and
    // prints the common RunReport trailer after its specific lines.
    let path = tmp("trailer.txt");
    assert!(kmm()
        .args([
            "gen",
            "--family",
            "gnm",
            "--n",
            "60",
            "--m",
            "140",
            "--max-weight",
            "9",
            "--seed",
            "4",
            "--out",
            path.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    for cmd in ["conn", "mst", "st", "mincut"] {
        let out = kmm()
            .args([cmd, "--input", path.to_str().unwrap(), "--k", "4"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{cmd}: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        for needle in ["rounds:", "total bits:", "wall:"] {
            assert!(text.contains(needle), "{cmd}: want {needle:?} in: {text}");
        }
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn k_below_two_is_a_clean_error() {
    let path = tmp("k1.txt");
    assert!(kmm()
        .args([
            "gen",
            "--family",
            "path",
            "--n",
            "10",
            "--out",
            path.to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());
    let out = kmm()
        .args(["conn", "--input", path.to_str().unwrap(), "--k", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("k >= 2"), "want a clean message, got: {err}");
    assert!(
        !err.contains("panicked"),
        "must not surface a Rust panic: {err}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn unknown_options_are_rejected_with_the_valid_list() {
    // A mistyped flag must not silently run the default configuration.
    for (argv, bad) in [
        (
            &[
                "conn", "--gen", "gnm", "--n", "100", "--k", "2", "--bogus", "3",
            ][..],
            "bogus",
        ),
        (
            &["mst", "--gen", "gnm", "--n", "100", "--k", "2", "--contrat"][..],
            "contrat",
        ),
    ] {
        let out = kmm().args(argv).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{argv:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown option --{bad} for {}", argv[0])),
            "{err}"
        );
        assert!(err.contains("--contract") && err.contains("--gen"), "{err}");
        assert!(out.stdout.is_empty(), "nothing ran: {out:?}");
    }
}

#[test]
fn stcon_and_bipart_read_a_generated_input() {
    let out = kmm()
        .args([
            "stcon", "--gen", "path", "--n", "50", "--s", "0", "--t", "49", "--k", "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("connected: true"));
    let out = kmm()
        .args(["bipart", "--gen", "cycle", "--n", "9", "--k", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("bipartite: false"));
}

#[test]
fn missing_input_is_an_error() {
    let out = kmm().args(["conn", "--k", "4"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
}

#[test]
fn cli_mst_edges_match_kruskal_oracle() {
    // Differential smoke: a weighted graph generated by the CLI, solved by
    // the CLI, checked against the sequential oracle through the library.
    let path = tmp("weighted.txt");
    assert!(kmm()
        .args([
            "gen",
            "--family",
            "gnm",
            "--n",
            "80",
            "--m",
            "200",
            "--max-weight",
            "500",
            "--seed",
            "9",
            "--out",
            path.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    let g = kmm::graph::io::from_edge_list(&std::fs::read_to_string(&path).unwrap())
        .expect("parse generated file");
    let out = kmm()
        .args([
            "mst",
            "--input",
            path.to_str().unwrap(),
            "--k",
            "5",
            "--print-edges",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let edges: Vec<kmm::graph::graph::Edge> = text
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (u, v, w) = (it.next()?, it.next()?, it.next()?);
            Some(kmm::graph::graph::Edge::new(
                u.parse().ok()?,
                v.parse().ok()?,
                w.parse().ok()?,
            ))
        })
        .collect();
    assert!(
        kmm::graph::refalgo::is_spanning_forest(&g, &edges),
        "{text}"
    );
    assert_eq!(
        kmm::graph::refalgo::forest_weight(&edges),
        kmm::graph::refalgo::forest_weight(&kmm::graph::refalgo::kruskal(&g)),
        "CLI MST weight must equal Kruskal"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn parse_errors_report_line_numbers_without_panicking() {
    // Duplicate edge, malformed edge, out-of-range endpoint: each must be
    // a clean error naming the offending line, never a Rust panic.
    for (name, body, needle) in [
        ("dup", "3 2\n0 1\n1 0 9\n", "line 3"),
        ("badedge", "3 1\n0 zzz\n", "line 2"),
        ("range", "3 1\n0 7\n", "line 2"),
        ("selfloop", "3 1\n1 1\n", "line 2"),
        ("header", "not a header\n", "header"),
    ] {
        let path = tmp(&format!("bad-{name}.txt"));
        std::fs::write(&path, body).unwrap();
        let out = kmm()
            .args(["conn", "--input", path.to_str().unwrap(), "--k", "4"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{name}: must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{name}: want {needle:?} in: {err}");
        assert!(!err.contains("panicked"), "{name}: must not panic: {err}");
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn hostile_trace_files_fail_or_total_cleanly() {
    // 200 000 open brackets used to recurse the JSONL reader off the stack
    // (exit 134); now a line-numbered error and exit 1.
    let deep = tmp("deep.jsonl");
    std::fs::write(&deep, "[".repeat(200_000)).unwrap();
    let out = kmm()
        .args(["trace", "summarize", deep.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 1: nesting deeper than"), "{err}");
    let _ = std::fs::remove_file(deep);

    // Two records of u64::MAX rounds used to panic the debug build's total
    // (exit 101) and wrap the release build's; totals are u128 now.
    let big = tmp("big.jsonl");
    let line = |seq: u32| {
        format!(
            "{{\"seq\":{seq},\"type\":\"segment\",\"name\":\"s\",\"rounds\":{},\"bits\":1,\
             \"recovery_rounds\":0,\"retransmit_bits\":0}}\n",
            u64::MAX
        )
    };
    std::fs::write(&big, line(0) + &line(1)).unwrap();
    let run = |tool: &str| {
        let out = kmm()
            .args(["trace", tool, big.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{tool}: {out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let text = run("summarize");
    let total: Vec<&str> = text
        .lines()
        .find(|l| l.starts_with("total"))
        .expect("a total row")
        .split_whitespace()
        .collect();
    assert_eq!(total[1..3], ["36893488147419103230", "2"], "{text}");
    run("chrome");
    let _ = std::fs::remove_file(big);
}

#[test]
fn hostile_edge_count_header_fails_cleanly() {
    let path = tmp("hostile.txt");
    std::fs::write(&path, "4 123456789012345678\n0 1\n").unwrap();
    let out = kmm()
        .args(["conn", "--input", path.to_str().unwrap(), "--k", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("declared"),
        "want a count mismatch, got: {err}"
    );
    assert!(!err.contains("panicked"), "must not abort/panic: {err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn streamed_gen_input_runs_without_a_file() {
    // The streaming path: a synthetic workload sharded directly, no edge
    // list on disk or in memory.
    let conn = kmm()
        .args([
            "conn", "--gen", "gnm", "--n", "2000", "--m", "6000", "--k", "8", "--seed", "5",
        ])
        .output()
        .unwrap();
    assert!(conn.status.success(), "{conn:?}");
    let text = String::from_utf8_lossy(&conn.stdout);
    assert!(text.contains("components:"), "{text}");
    assert!(text.contains("rounds:"), "{text}");

    let mst = kmm()
        .args([
            "mst",
            "--gen",
            "connected",
            "--n",
            "500",
            "--extra",
            "400",
            "--max-weight",
            "100",
            "--k",
            "4",
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    assert!(mst.status.success(), "{mst:?}");
    let text = String::from_utf8_lossy(&mst.stdout);
    assert!(
        text.contains("forest edges: 499"),
        "a connected 500-vertex graph has a 499-edge MST: {text}"
    );

    let bad = kmm()
        .args(["conn", "--gen", "nosuch", "--n", "10", "--k", "4"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown --gen family"));
}

#[test]
fn no_flag_or_value_is_silently_dropped() {
    // Each of these once ran a configuration other than the one asked for,
    // with exit 0: a flag swallowed its next word, or a bad number fell
    // back to the default.
    for (argv, needle) in [
        (
            "conn --gen gnm --n 300 --contract 1",
            "--contract is a flag",
        ),
        (
            "mst --gen gnm --n 300 --print-edges yes",
            "--print-edges is a flag",
        ),
        ("conn --gen gnm --n 300 --k abc", "--k abc: not a number"),
        (
            "conn --gen gnm --n 300 --seed x3",
            "--seed x3: not a number",
        ),
        ("conn --gen gnm --n 300 --k", "--k needs a value"),
        ("conn --gen gnm --n 1e3", "--n 1e3: not a number"),
        ("conn --gen gnm --n 300 --k 4 --k 5", "--k is given twice"),
    ] {
        let out = kmm().args(argv.split(' ')).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{argv}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{argv}: want {needle:?} in {err}");
        assert!(out.stdout.is_empty(), "nothing ran: {out:?}");
    }
}

#[test]
fn options_the_input_does_not_read_are_rejected() {
    // Each of these once ran with exit 0, the option silently unread.
    let file = tmp("unread.txt");
    std::fs::write(&file, "3 2\n0 1\n1 2\n").unwrap();
    let file = file.to_str().unwrap();
    for (argv, named) in [
        (
            "conn --gen path --n 50 --m 7 --extra 9 --k 2",
            "--m, --extra",
        ),
        ("conn --input FILE --n 50 --k 2", "--n"),
        ("conn --input FILE --max-weight 9 --k 2", "--max-weight"),
        ("st --input FILE --gen path --n 5 --k 2", "--input"),
        ("gen --family grid --n 9 --p 0.3", "--p"),
    ] {
        let args: Vec<&str> = argv
            .split(' ')
            .map(|a| if a == "FILE" { file } else { a })
            .collect();
        let out = kmm().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{argv}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{argv}: want {named:?} in {err}");
        assert!(out.stdout.is_empty(), "nothing ran: {out:?}");
    }
    let _ = std::fs::remove_file(file);
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // `kmm mst … --print-edges | head -1`: the reader leaves after the
    // first line, and the edge lines meet a closed pipe.
    use std::io::BufRead;
    let mut child = kmm()
        .args([
            "mst",
            "--gen",
            "gnm",
            "--n",
            "3000",
            "--k",
            "4",
            "--print-edges",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn kmm");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    std::io::BufReader::new(stdout)
        .read_line(&mut first)
        .expect("read the first line");
    assert!(first.starts_with("streamed input:"), "{first}");
    let out = child.wait_with_output().expect("wait for kmm");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(
        out.status.success(),
        "a closed pipe is not an error: {out:?}"
    );
}

#[test]
fn gen_parameter_validation_never_panics() {
    // Out-of-range family parameters must be clean errors, same standard
    // as file-input parse failures — streamed into `conn` or written by
    // `gen`, which take their families from one table.
    for (name, extra_args, needle) in [
        (
            "too-many-edges",
            vec!["--gen", "gnm", "--n", "4"],
            "possible edges",
        ),
        (
            "p-out-of-range",
            vec!["--gen", "gnp", "--n", "50", "--p", "1.5"],
            "[0, 1]",
        ),
        ("zero-n", vec!["--gen", "path", "--n", "0"], "--n"),
        (
            "zero-weight",
            vec!["--gen", "path", "--n", "10", "--max-weight", "0"],
            "--max-weight",
        ),
    ] {
        let mut conn = vec!["conn", "--k", "4"];
        conn.extend(&extra_args);
        let gen = extra_args
            .iter()
            .map(|&a| if a == "--gen" { "--family" } else { a });
        let gen: Vec<&str> = std::iter::once("gen").chain(gen).collect();
        for args in [conn, gen] {
            let out = kmm().args(&args).output().unwrap();
            assert!(!out.status.success(), "{name} ({}): must fail", args[0]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(needle), "{name}: want {needle:?} in: {err}");
            assert!(!err.contains("panicked"), "{name}: must not panic: {err}");
        }
    }
}

#[test]
fn gen_reports_effective_graph_size() {
    // Families that round --n to the nearest valid shape must say so: the
    // streamed-input banner carries the effective n and m.
    let out = kmm()
        .args(["conn", "--gen", "grid", "--n", "1000", "--k", "4"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("streamed input: n=1024"),
        "grid rounds 1000 up to 32x32 = 1024 and must report it: {text}"
    );
}

#[test]
fn streamed_and_file_inputs_agree() {
    // The same seeded workload through both ingestion paths must give the
    // same component count (identical graphs, identical partition seed).
    let path = tmp("parity.txt");
    assert!(kmm()
        .args([
            "gen",
            "--family",
            "gnm",
            "--n",
            "600",
            "--m",
            "900",
            "--seed",
            "9",
            "--out",
            path.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    let from_file = kmm()
        .args([
            "conn",
            "--input",
            path.to_str().unwrap(),
            "--k",
            "4",
            "--seed",
            "9",
        ])
        .output()
        .unwrap();
    let from_stream = kmm()
        .args([
            "conn", "--gen", "gnm", "--n", "600", "--m", "900", "--k", "4", "--seed", "9",
        ])
        .output()
        .unwrap();
    assert!(from_file.status.success() && from_stream.status.success());
    let line = |out: &std::process::Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("components:"))
            .unwrap()
            .to_string()
    };
    assert_eq!(line(&from_file), line(&from_stream));
    let _ = std::fs::remove_file(path);
}

#[test]
fn gen_to_stdout_parses_back() {
    let out = kmm()
        .args(["gen", "--family", "cycle", "--n", "12"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let g = kmm::graph::io::from_edge_list(&text).expect("parse generated output");
    assert_eq!(g.n(), 12);
    assert_eq!(g.m(), 12);
}

// ---------------------------------------------------------------------
// The dynamic subcommand and the machine-readable report.
// ---------------------------------------------------------------------

#[test]
fn dyn_replays_a_trace_with_per_batch_trailers() {
    let trace = tmp("churn.trace");
    std::fs::write(
        &trace,
        "# close the ring, cut twice, resurrect\n+ 0 19 5\n---\n- 0 19\n- 3 4\n---\n+ 3 4 2\n",
    )
    .unwrap();
    let out = kmm()
        .args([
            "dyn",
            "--gen",
            "path",
            "--n",
            "20",
            "--k",
            "3",
            "--seed",
            "7",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("run dyn");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("base solve:"), "{text}");
    for b in 1..=3 {
        assert!(text.contains(&format!("batch {b}:")), "{text}");
    }
    // A path is one component; cutting (3,4) after deleting the inserted
    // bridge leaves two; re-inserting heals it.
    assert!(text.contains("components:   2"), "{text}");
    let healed = text
        .lines()
        .filter(|l| l.contains("components:   1"))
        .count();
    assert!(
        healed >= 2,
        "base and final solves see one component: {text}"
    );
    assert!(text.contains("replayed 3 batches"), "{text}");
    let _ = std::fs::remove_file(trace);
}

/// The value of `"key": value` in a one-line JSON object, unquoted.
fn json_field<'a>(obj: &'a str, key: &str) -> &'a str {
    let rest = obj
        .split(&format!("\"{key}\": "))
        .nth(1)
        .unwrap_or_else(|| panic!("missing {key} in {obj}"));
    rest.split([',', '}'])
        .next()
        .unwrap()
        .trim()
        .trim_matches('"')
}

#[test]
fn dyn_restricted_refreshes_keep_their_ledger() {
    // On a sparse gnm (724 components) each refresh re-solves only the
    // touched components, on the subgraph they induce: the ledger of every
    // batch is pinned (`dyn/restricted/*` rows of the pin fixture).
    let trace = tmp("restricted.trace");
    std::fs::write(
        &trace,
        "+ 0 2999 5\n- 0 2999\n+ 10 20 3\n---\n+ 7 1200 9\n+ 100 200 4\n---\n- 7 1200\n",
    )
    .unwrap();
    let out = kmm()
        .args([
            "dyn", "--gen", "gnm", "--n", "3000", "--m", "2500", "--k", "8",
        ])
        .args(["--seed", "7", "--report", "json", "--trace"])
        .arg(&trace)
        .output()
        .expect("run dyn");
    let _ = std::fs::remove_file(trace);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let got: Vec<String> = text
        .lines()
        .map(|row| {
            let fields = ["refresh", "rounds", "total_bits", "components"];
            fields.map(|key| json_field(row, key)).join(" ")
        })
        .collect();
    assert_eq!(got.len(), 4, "base solve + three batches: {text}");
    for (i, row) in got.iter().enumerate() {
        pinned(&format!("dyn/restricted/{i}"), row);
    }
}

#[test]
fn dyn_rejects_invalid_traces_cleanly() {
    let trace = tmp("bad.trace");
    // Line 2 is malformed.
    std::fs::write(&trace, "+ 1 2\n* what\n").unwrap();
    let out = kmm()
        .args([
            "dyn",
            "--gen",
            "path",
            "--n",
            "10",
            "--k",
            "2",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");

    // A well-formed trace whose op is semantically invalid fails with the
    // batch number and the validation error, not a panic.
    std::fs::write(&trace, "- 0 9\n").unwrap();
    let out = kmm()
        .args([
            "dyn",
            "--gen",
            "path",
            "--n",
            "10",
            "--k",
            "2",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("batch 1"), "{err}");
    assert!(err.contains("absent edge"), "{err}");

    let missing = kmm()
        .args(["dyn", "--gen", "path", "--n", "10", "--k", "2"])
        .output()
        .unwrap();
    assert!(!missing.status.success());
    assert!(
        String::from_utf8_lossy(&missing.stderr).contains("--trace"),
        "must ask for the trace file"
    );
    let _ = std::fs::remove_file(trace);
}

#[test]
fn report_json_is_machine_readable() {
    let out = kmm()
        .args([
            "conn", "--gen", "gnm", "--n", "200", "--m", "500", "--k", "4", "--report", "json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Exactly one line, a JSON object with the RunReport fields; the
    // human-readable lines are suppressed.
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        1,
        "json mode prints exactly one object: {text}"
    );
    let obj = lines[0];
    assert!(obj.starts_with('{') && obj.ends_with('}'), "{obj}");
    for field in [
        "\"problem\": \"conn\"",
        "\"components\": ", // the answer rides along, not just the costs
        "\"rounds\": ",
        "\"total_bits\": ",
        "\"sketch_builds\": ",
        "\"update_bits\": 0",
        "\"wall_ms\": ",
    ] {
        assert!(obj.contains(field), "missing {field} in {obj}");
    }

    // dyn emits one object per solve, each tagged with its batch index.
    let trace = tmp("json.trace");
    std::fs::write(&trace, "+ 0 5 2\n---\n- 0 5\n").unwrap();
    let out = kmm()
        .args([
            "dyn",
            "--gen",
            "cycle",
            "--n",
            "12",
            "--k",
            "2",
            "--trace",
            trace.to_str().unwrap(),
            "--report",
            "json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "base + two batches: {text}");
    for (i, line) in lines.iter().enumerate() {
        assert!(line.contains(&format!("\"batch\": {i}")), "{line}");
        assert!(line.contains("\"components\": "), "{line}");
        assert!(line.contains("\"forest_edges\": "), "{line}");
    }
    let _ = std::fs::remove_file(trace);
}

#[test]
fn unknown_report_format_is_a_clean_error() {
    let out = kmm()
        .args([
            "conn", "--gen", "path", "--n", "20", "--k", "2", "--report", "JSON",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "typo'd format must not fall back");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown --report format"), "{err}");
    assert!(
        err.contains("json"),
        "must name the supported format: {err}"
    );
}

#[test]
fn faults_flag_survives_and_reports_recovery() {
    // The same streamed workload with and without --faults: the answer
    // lines must match exactly; the faulted run additionally reports the
    // fault/recovery trailer (and nonzero counters under --report json).
    let base = [
        "conn", "--gen", "gnm", "--n", "3000", "--m", "9000", "--k", "8", "--seed", "5",
    ];
    let clean = kmm().args(base).output().expect("run conn");
    assert!(clean.status.success(), "{clean:?}");
    let clean_text = String::from_utf8_lossy(&clean.stdout).to_string();
    let faulted = kmm()
        .args(base)
        .args(["--faults", "drop=0.1,dup=0.05,crash=2@9,seed=3"])
        .output()
        .expect("run faulted conn");
    assert!(faulted.status.success(), "{faulted:?}");
    let text = String::from_utf8_lossy(&faulted.stdout).to_string();
    let line = |t: &str, key: &str| {
        t.lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_else(|| panic!("missing `{key}` in:\n{t}"))
            .to_string()
    };
    assert_eq!(
        line(&clean_text, "components:"),
        line(&text, "components:"),
        "faults must not change the answer"
    );
    assert_eq!(line(&clean_text, "phases:"), line(&text, "phases:"));
    assert!(text.contains("faults:"), "{text}");
    assert!(text.contains("recovery:"), "{text}");
    assert!(
        !clean_text.contains("faults:"),
        "no fault trailer without --faults:\n{clean_text}"
    );

    let json = kmm()
        .args(base)
        .args(["--faults", "drop=0.1,seed=3", "--report", "json"])
        .output()
        .expect("run json conn");
    assert!(json.status.success());
    let body = String::from_utf8_lossy(&json.stdout).to_string();
    for key in [
        "\"faults_injected\": ",
        "\"retransmit_bits\": ",
        "\"recovery_rounds\": ",
    ] {
        let v = body
            .split(key)
            .nth(1)
            .unwrap_or_else(|| panic!("missing {key} in {body}"))
            .split([',', '}'])
            .next()
            .unwrap()
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("non-numeric {key} in {body}"));
        assert!(v > 0, "{key} must be nonzero under a drop plan: {body}");
    }
}

#[test]
fn bad_faults_spec_is_a_clean_error() {
    for bad in ["drop=1.0", "drop=oops", "nonsense=3", "crash=2"] {
        let out = kmm()
            .args([
                "conn", "--gen", "path", "--n", "50", "--k", "2", "--faults", bad,
            ])
            .output()
            .expect("run");
        assert!(!out.status.success(), "`--faults {bad}` must fail cleanly");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--faults"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

// ---------------------------------------------------------------------
// Pinned cells through the real binary. Their figures are rows of one
// fixture, `tests/fixtures/cli_pins.txt`; a run with
// `KMM_UPDATE_CLI_PINS=1` rewrites the rows it computes, for review in
// the diff. The release-size cells are `#[ignore]`d (`cargo test --release
// --test cli -- --ignored`); each has a debug-size twin in the default
// suite.
// ---------------------------------------------------------------------

const PINS: &str = "tests/fixtures/cli_pins.txt";

/// Checks `got` against the fixture row `cell`, or rewrites that row under
/// `KMM_UPDATE_CLI_PINS=1`.
fn pinned(cell: &str, got: &str) {
    static FIXTURE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _held = FIXTURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(PINS);
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let row = |line: &str| line.split(' ').next() == Some(cell);
    let want = text.lines().find(|l| row(l)).map(|l| &l[cell.len() + 1..]);
    if std::env::var_os("KMM_UPDATE_CLI_PINS").is_none() {
        assert_eq!(
            want,
            Some(got),
            "{cell}: the pinned row moved; refresh it with \
             `KMM_UPDATE_CLI_PINS=1 cargo test --test cli` (add --release -- \
             --ignored for the release-size cells) only in a change that moves \
             the ledger"
        );
        return;
    }
    let line = format!("{cell} {got}");
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    match lines.iter().position(|l| row(l)) {
        Some(i) => lines[i] = line,
        None => lines.push(line),
    }
    std::fs::write(&path, lines.join("\n") + "\n").expect("rewrite the pin fixture");
}

/// Runs `kmm` on `args` and returns its stdout, which must be a success.
fn stdout_of(args: &[&str]) -> String {
    let out = kmm().args(args).output().expect("run kmm");
    assert!(out.status.success(), "kmm {}: {out:?}", args.join(" "));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A numeric field of a `--report json` object.
fn json_num(obj: &str, key: &str) -> u64 {
    let v = json_field(obj, key);
    v.parse()
        .unwrap_or_else(|_| panic!("non-numeric {key} = {v} in {obj}"))
}

/// The phases a `--trace-out` stream rolled back, in order.
fn rolled_back(trace: &std::path::Path) -> Vec<u32> {
    let text = std::fs::read_to_string(trace).expect("read the trace");
    let records = kmm::machine::trace::parse_jsonl(&text).expect("a clean logical stream");
    let phases = records.into_iter().filter_map(|r| match r.event {
        kmm::machine::trace::TraceEvent::Rollback { phase, .. } => Some(phase),
        _ => None,
    });
    phases.collect()
}

/// Contraction keeps the MST and moves only merging supernodes
/// (DESIGN.md §3.11): the weight is the plain run's, and supersteps and
/// messages are pinned. (Re-homing every supernode each phase took 281
/// supersteps / 422 888 messages on the release cell.)
fn contracted_mst_cell(cell: &str, size: [&str; 3]) {
    let [n, extra, k] = size;
    let run = |contract: &[&str]| {
        let mut args = vec!["mst", "--gen", "connected", "--n", n, "--extra", extra];
        args.extend(["--max-weight", "1000", "--k", k, "--seed", "7"]);
        args.extend(contract);
        args.extend(["--report", "json"]);
        stdout_of(&args)
    };
    let (plain, contracted) = (run(&[]), run(&["--contract", "--encoding", "varint"]));
    assert_eq!(
        json_field(&plain, "total_weight"),
        json_field(&contracted, "total_weight")
    );
    assert!(json_num(&plain, "sketch_builds") > 0, "{plain}");
    assert!(!plain.contains("sketch_cache_hits"), "{plain}");
    let pin = ["supersteps", "messages"].map(|key| json_field(&contracted, key));
    pinned(cell, &pin.join(" "));
}

#[test]
#[ignore = "release-size cell: cargo test --release --test cli -- --ignored"]
fn contracted_mst_smoke_release() {
    contracted_mst_cell("mst/contract/release", ["20000", "15000", "16"]);
}

#[test]
fn contracted_mst_smoke() {
    contracted_mst_cell("mst/contract/debug", ["2000", "1500", "8"]);
}

/// Parts ship edges or sketches (DESIGN.md §3.3): both rows fire, and
/// supersteps and messages are pinned.
fn conn_cell(cell: &str, size: [&str; 3]) {
    let [n, m, k] = size;
    let trace = tmp(&format!("{}.jsonl", cell.replace('/', "-")));
    let trace_arg = trace.to_str().unwrap();
    let report = stdout_of(&[
        "conn",
        "--gen",
        "gnm",
        "--n",
        n,
        "--m",
        m,
        "--k",
        k,
        "--seed",
        "5",
        "--report",
        "json",
        "--trace-out",
        trace_arg,
    ]);
    let summary = stdout_of(&["trace", "summarize", trace_arg]);
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(format!("{trace_arg}.phys"));
    for row in ["  part_edges: ", "  part_sketch: "] {
        assert!(summary.contains(row), "{cell}: no `{row}` row:\n{summary}");
    }
    assert!(json_num(&report, "sketch_builds") > 0, "{report}");
    assert!(!report.contains("sketch_cache_hits"), "{report}");
    let pin = ["supersteps", "messages"].map(|key| json_field(&report, key));
    pinned(cell, &pin.join(" "));
}

#[test]
#[ignore = "release-size cell: cargo test --release --test cli -- --ignored"]
fn conn_smoke_release() {
    conn_cell("conn/gnm/release", ["50000", "150000", "32"]);
}

#[test]
fn conn_smoke() {
    conn_cell("conn/gnm/debug", ["5000", "15000", "8"]);
}

/// The fault path end to end: a drop plan, and every fault kind plus one
/// crash aimed at phase 1 (before any part-sketch memo exists) or at
/// phase 3 (mid-epoch, where parts build from the memo the rollback drops;
/// DESIGN.md §3.7), leave the answer and phase count of the clean run, and
/// the runs with every fault kind keep the separability identities: their
/// rounds and bits minus the recovery share are the clean run's.
fn chaos_cell(cell: &str, size: [&str; 3], crash_in_phase_1: &str, crash_in_phase_3: &str) {
    let [n, m, k] = size;
    let base = [
        "conn", "--gen", "gnm", "--n", n, "--m", m, "--k", k, "--seed", "5", "--report", "json",
    ];
    let run = |faults: Option<&str>, trace: &std::path::Path| {
        let mut args = base.to_vec();
        if let Some(spec) = faults {
            args.extend(["--faults", spec]);
        }
        let out = stdout_of(&[&args[..], &["--trace-out", trace.to_str().unwrap()]].concat());
        let phases = rolled_back(trace);
        let _ = std::fs::remove_file(trace);
        let _ = std::fs::remove_file(format!("{}.phys", trace.display()));
        (out, phases)
    };
    let trace = tmp(&format!("{}.jsonl", cell.replace('/', "-")));
    let (clean, _) = run(None, &trace);
    assert_eq!(json_num(&clean, "faults_injected"), 0, "{clean}");
    assert_eq!(json_num(&clean, "recovery_rounds"), 0, "{clean}");
    let every = "drop=0.05,dup=0.05,reorder=0.05,delay=0.05";
    for (crash, phase) in [
        ("", None),
        (crash_in_phase_1, Some(1)),
        (crash_in_phase_3, Some(3)),
    ] {
        let spec = match phase {
            None => "drop=0.05,seed=7".to_string(),
            Some(_) => format!("{every},crash={crash},seed=7"),
        };
        let (chaos, phases) = run(Some(&spec), &trace);
        for key in ["components", "phases"] {
            assert_eq!(json_field(&chaos, key), json_field(&clean, key), "{spec}");
        }
        assert!(json_num(&chaos, "faults_injected") > 0, "{spec}: {chaos}");
        assert!(json_num(&chaos, "recovery_rounds") > 0, "{spec}: {chaos}");
        let Some(phase) = phase else { continue };
        assert_eq!(
            phases,
            [phase],
            "{cell}: crash={crash} must roll back phase {phase}; re-aim it"
        );
        assert_eq!(json_num(&chaos, "machine_crashes"), 1, "{spec}");
        for (total, share) in [
            ("rounds", "recovery_rounds"),
            ("total_bits", "retransmit_bits"),
        ] {
            assert_eq!(
                json_num(&chaos, total) - json_num(&chaos, share),
                json_num(&clean, total),
                "{spec}: {total} − {share}"
            );
        }
    }
}

#[test]
#[ignore = "release-size cell: cargo test --release --test cli -- --ignored"]
fn chaos_smoke_release() {
    chaos_cell("chaos/release", ["50000", "150000", "32"], "3@13", "5@35");
}

#[test]
fn chaos_smoke() {
    chaos_cell("chaos/debug", ["5000", "15000", "8"], "3@13", "5@35");
}

/// The fields of a one-line `--report json` object other than `skip`, in
/// order. No value of a report contains `, `.
fn json_fields_except<'a>(obj: &'a str, skip: &[&str]) -> Vec<&'a str> {
    let body = obj.trim().trim_start_matches('{').trim_end_matches('}');
    let fields = body.split(", ").filter(|field| {
        let key = field.split(": ").next().unwrap_or_default();
        !skip.iter().any(|s| key == format!("\"{s}\""))
    });
    fields.collect()
}

/// The process transport is a delivery backend, not a cost model
/// (DESIGN.md §3.12): `--transport proc` forks one worker per machine and
/// must print the simulator's report field for field, apart from the
/// transport's name and the wall-clock.
fn transport_cell(size: [&str; 4]) {
    let [n, m, k, seed] = size;
    let run = |transport: &str| {
        let args = [
            "mst", "--gen", "gnm", "--n", n, "--m", m, "--k", k, "--seed", seed,
        ];
        stdout_of(&[&args[..], &["--report", "json", "--transport", transport]].concat())
    };
    let (sim, proc) = (run("sim"), run("proc"));
    assert_eq!(json_field(&sim, "transport"), "sim", "{sim}");
    assert_eq!(json_field(&proc, "transport"), "proc", "{proc}");
    let skip = ["transport", "wall_ms"];
    let fields = json_fields_except(&sim, &skip);
    assert!(fields.contains(&"\"problem\": \"mst\""), "{sim}");
    assert_eq!(fields, json_fields_except(&proc, &skip));
}

#[test]
#[ignore = "release-size cell: cargo test --release --test cli -- --ignored"]
fn transport_smoke_release() {
    transport_cell(["2000", "8000", "4", "7"]);
}

#[test]
fn transport_smoke() {
    transport_cell(["500", "2000", "3", "7"]);
}

/// The trace tiles the report (DESIGN.md §3.14): on a faulted
/// process-transport MST run, `kmm trace summarize`'s total row carries
/// the report's rounds, bits, recovery rounds and retransmitted bits.
fn trace_total_cell(cell: &str, size: [&str; 3]) {
    let [n, m, k] = size;
    let trace = tmp(&format!("{}.jsonl", cell.replace('/', "-")));
    let trace_arg = trace.to_str().unwrap();
    let faults = "drop=0.2,dup=0.1,crash=1@6,seed=9";
    let report = stdout_of(&[
        "mst",
        "--gen",
        "gnm",
        "--n",
        n,
        "--m",
        m,
        "--k",
        k,
        "--seed",
        "9",
        "--faults",
        faults,
        "--transport",
        "proc",
        "--trace-out",
        trace_arg,
        "--report",
        "json",
    ]);
    let summary = stdout_of(&["trace", "summarize", trace_arg]);
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(format!("{trace_arg}.phys"));
    let total: Vec<&str> = summary
        .lines()
        .find(|l| l.starts_with("total"))
        .unwrap_or_else(|| panic!("{cell}: no total row:\n{summary}"))
        .split_whitespace()
        .collect();
    let keys = ["rounds", "total_bits", "recovery_rounds", "retransmit_bits"];
    let want = keys.map(|key| json_field(&report, key));
    assert_eq!(total[1..5], want, "{cell}: summarize total row vs {report}");
    assert!(json_num(&report, "recovery_rounds") > 0, "{cell}: {report}");
}

#[test]
#[ignore = "release-size cell: cargo test --release --test cli -- --ignored"]
fn trace_total_smoke_release() {
    trace_total_cell("trace/release", ["400", "1200", "3"]);
}

#[test]
fn trace_total_smoke() {
    trace_total_cell("trace/debug", ["200", "600", "3"]);
}
