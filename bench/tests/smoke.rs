//! Runs every workload at `--scale smoke` through the real binary and pins
//! the benchmark's contract: `BENCHMARK.json` and the program name the same
//! workloads and metrics, names and units stay inside the driver's limits,
//! every op is correct, out-of-scope metrics are `null` (never `0`), the
//! driver's result line has exactly the manifest's metrics, and no
//! transport worker outlives its workload.

use kmm_bench::json::Json;
use kmm_bench::metrics::{END_TO_END, LAYERS};
use kmm_bench::report;
use kmm_bench::spec::{self, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_kmm-bench");

/// The tests that spawn workloads take turns: the wall-clock budget and the
/// orphaned-worker scan both assume nothing else of ours is running.
static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn my_turn() -> std::sync::MutexGuard<'static, ()> {
    TURN.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("create the test's scratch directory");
    dir
}

/// Runs `kmm-bench run --scale smoke <args>` and returns its stdout.
fn run(args: &[&str]) -> String {
    let out = Command::new(EXE)
        .args(["run", "--scale", "smoke"])
        .args(args)
        .env("KMM_BENCH_OUT", scratch())
        .output()
        .expect("spawn kmm-bench");
    assert!(
        out.status.success(),
        "kmm-bench {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Worker processes of *this* binary still alive.
fn orphaned_workers() -> Vec<String> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        let pid = entry.file_name().to_string_lossy().to_string();
        if !pid.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let cmdline = std::fs::read(entry.path().join("cmdline")).unwrap_or_default();
        let cmdline = String::from_utf8_lossy(&cmdline).replace('\0', " ");
        if cmdline.starts_with(EXE) && cmdline.contains("__transport-worker") {
            found.push(format!("{pid}: {cmdline}"));
        }
    }
    found
}

#[test]
fn manifest_matches_the_catalogue_and_the_drivers_limits() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 << 10, "BENCHMARK.json is capped at 64 KiB");
    let committed = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        committed,
        report::manifest(),
        "BENCHMARK.json drifted from the catalogue: regenerate it with `bench/run.sh manifest`"
    );

    let keys: Vec<&str> = committed.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |key: &str| committed.get(key).expect("key present").items();
    assert!((2..=8).contains(&list("workloads").len()));
    assert!((1..=16).contains(&list("end_to_end").len()));
    assert!((1..=128).contains(&list("per_layer").len()));
    let seconds = committed.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names = Vec::new();
    for w in list("workloads") {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
        names.push(w.get("name").and_then(Json::as_str).unwrap());
    }
    for m in list("end_to_end").iter().chain(list("per_layer")) {
        names.push(m.get("name").and_then(Json::as_str).unwrap());
        assert!(
            unit_ok(m.get("unit").and_then(Json::as_str).unwrap()),
            "{m:?}"
        );
        let better = m.get("better").and_then(Json::as_str).unwrap();
        assert!(better == "lower" || better == "higher");
        if let Some(bound) = m.get("bound") {
            let b = bound.as_f64().unwrap();
            assert!(b > 0.0 && b <= 0.25, "bound {b} outside (0, 0.25]");
        }
    }
    for name in &names {
        assert!(name_ok(name), "name `{name}` breaks the driver's charset");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "every name is used once");
    let setup = list("end_to_end")
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is mandatory");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}

#[test]
fn every_workload_runs_checks_and_reports_every_metric() {
    let _turn = my_turn();
    let started = std::time::Instant::now();
    let report_path = scratch().join("smoke.json");
    let text = run(&["--seed", "11", "--json", report_path.to_str().unwrap()]);
    let elapsed = started.elapsed();
    let doc = Json::parse(&std::fs::read_to_string(&report_path).expect("report written"))
        .expect("report parses");
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_f64),
        Some(f64::from(report::SCHEMA_VERSION))
    );

    // Same workloads, in the same order, in program, report and manifest.
    let sections = doc.get("workloads").expect("workloads").fields();
    let reported: Vec<&str> = sections.iter().map(|(n, _)| n.as_str()).collect();
    let expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(reported, expected);

    for (name, section) in sections {
        let spec = spec::find(name).unwrap();
        assert_eq!(
            section.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{name}: failed ops"
        );
        assert!(section.get("attempted").and_then(Json::as_f64).unwrap() >= 2.0);

        // Every catalogue metric appears, and nothing else does.
        let e2e = section.get("end_to_end").unwrap().fields();
        let layers = section.get("layers").unwrap().fields();
        let got: Vec<&str> = e2e.iter().chain(layers).map(|(n, _)| n.as_str()).collect();
        let want: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(LAYERS.iter().map(|m| m.name))
            .collect();
        assert_eq!(got, want, "{name}: metric names");

        for m in &END_TO_END {
            let stat = section.get("end_to_end").unwrap().get(m.name).unwrap();
            assert!(text.contains(m.name) && unit_ok(m.unit));
            if m.scope.covers(spec) {
                let v = stat.get("median").and_then(Json::as_f64);
                let v = v.unwrap_or_else(|| panic!("{name}: {} has no median", m.name));
                assert_eq!(stat.get("unit").and_then(Json::as_str), Some(m.unit));
                assert!(v.is_finite() && v >= 0.0, "{name}: {} = {v}", m.name);
                // The driver rejects an end-to-end metric that reads 0.
                assert!(
                    m.manifest_bound.is_none() || v > 0.0,
                    "{name}: {} is 0",
                    m.name
                );
            } else {
                assert_eq!(*stat, Json::Null, "{name}: {} must be null", m.name);
            }
        }
        for m in &LAYERS {
            let entry = section.get("layers").unwrap().get(m.name).unwrap();
            assert!(text.contains(m.name) && name_ok(m.name) && unit_ok(m.unit));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                entry.get("kind").and_then(Json::as_str),
                Some(m.kind.name())
            );
            let value = entry.get("value").unwrap();
            if m.scope.covers(spec) {
                let v = value.as_f64();
                let v = v.unwrap_or_else(|| panic!("{name}: {} has no value", m.name));
                assert!(v.is_finite(), "{name}: {} = {v}", m.name);
            } else {
                assert_eq!(
                    *value,
                    Json::Null,
                    "{name}: {} must be null, never 0",
                    m.name
                );
            }
        }

        // The six shares tile the solve by construction.
        let share = |n: &str| {
            let layer = section.get("layers").unwrap().get(n).unwrap();
            layer.get("value").and_then(Json::as_f64).unwrap()
        };
        let total: f64 = ["ksketch", "bsp", "par", "codec", "transport", "residual"]
            .iter()
            .map(|l| share(&format!("est.{l}_share")))
            .sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{name}: est shares sum to {total}"
        );

        // The traced pass left its span list behind.
        let spans = std::fs::read_to_string(scratch().join(format!("trace-{name}.json")))
            .expect("span file written");
        let spans = Json::parse(&spans).expect("span file parses");
        let names: Vec<&str> = spans
            .items()
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        for needed in ["run", "rep", "verify", "probe.kgraph", "probe.bsp"] {
            assert!(names.contains(&needed), "{name}: span `{needed}` missing");
        }
    }

    assert_eq!(
        orphaned_workers(),
        Vec::<String>::new(),
        "orphaned transport workers"
    );
    assert!(
        elapsed.as_secs() < 30,
        "the smoke run took {elapsed:?}; it must stay under 30 s"
    );

    // A report compares clean against itself.
    let cmp = Command::new(EXE)
        .args([
            "compare",
            report_path.to_str().unwrap(),
            report_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn compare");
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(
        cmp.status.success(),
        "A/A compare flagged a regression:\n{table}"
    );
    // A noisy metric may honestly read `unresolved` even against itself.
    assert!(!table.contains("worse"), "{table}");
}

#[test]
fn driver_runs_print_exactly_the_manifests_metrics() {
    let _turn = my_turn();
    let manifest = report::manifest();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = run(&[
            "--workload",
            "chaos_conn",
            "--seed",
            "29",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        let line = out.lines().last().expect("a result line");
        let result = Json::parse(line).expect("the last line is one JSON object");
        let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        let got: Vec<&str> = result
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: Vec<&str> = manifest
            .get(key)
            .unwrap()
            .items()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(got, want, "--trace {trace}");
        for (name, metric) in result.get("metrics").unwrap().fields() {
            let v = metric.get("value").and_then(Json::as_f64);
            assert!(v.is_some_and(f64::is_finite), "{name} must be a number");
            assert!(metric
                .get("unit")
                .and_then(Json::as_str)
                .is_some_and(unit_ok));
        }
    }
}
