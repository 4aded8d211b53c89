//! The report: one stable JSON schema, a plain-text rendering that prints
//! every metric by name with its unit, the one-line result the benchmark
//! driver reads, and the `BENCHMARK.json` manifest generated from the same
//! catalogue.

use crate::json::Json;
use crate::metrics::{manifest_end_to_end, manifest_layers, END_TO_END, LAYERS};
use crate::spec::{Scale, WORKLOADS};

/// Version of the report schema (`baseline.json`, `--json FILE`).
pub const SCHEMA_VERSION: u32 = 1;

/// How long one driver run measures (`run_seconds` of `BENCHMARK.json`,
/// and the default `--seconds`).
pub const RUN_SECONDS: u32 = 8;

/// The timed window of the full report (`bench/run.sh` without `--trace`):
/// long enough for seven or more timed reps per workload — every cluster
/// variant at least twice, and the 100+ batch samples `batch_ms_p90` needs
/// on `dyn_churn` — while each workload's timed pass stays under 30 s.
pub const FULL_SECONDS: u32 = 26;

/// The report: the run's header plus the workload `sections`.
pub fn document(seed: u64, seconds: f64, scale: Scale, sections: Json) -> Json {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Json::obj()
        .with("schema_version", Json::Num(f64::from(SCHEMA_VERSION)))
        .with("git_rev", Json::Str(git_rev))
        .with(
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        )
        .with("seed", Json::Num(seed as f64))
        .with("seconds", Json::Num(seconds))
        .with("scale", Json::Str(scale.name().to_string()))
        .with("workloads", sections)
}

fn fmt_num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 9.0e15 {
        format!("{}", x as i64)
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.4}")
    }
}

/// Renders one workload section: every end-to-end metric with its spread,
/// then (after a traced pass) every per-layer metric.
pub fn render_workload(name: &str, section: &Json) -> String {
    let mut out = String::new();
    // `obj.key` as display text; missing or null reads `null`.
    let show = |obj: Option<&Json>, key: &str| {
        obj.and_then(|o| o.get(key))
            .and_then(Json::as_f64)
            .map_or("null".to_string(), fmt_num)
    };
    let params = section.get("params");
    out.push_str(&format!(
        "== {name}  n={} m={} k={}  timed_reps={}  attempted={} failed={}\n",
        show(params, "n"),
        show(params, "m"),
        show(params, "k"),
        show(params, "timed_reps"),
        show(Some(section), "attempted"),
        show(Some(section), "failed"),
    ));
    for m in &END_TO_END {
        let stat = section.get("end_to_end").and_then(|e| e.get(m.name));
        if stat.is_none_or(|s| *s == Json::Null) {
            out.push_str(&format!("  {:<34} {:>16} {}\n", m.name, "null", m.unit));
            continue;
        }
        out.push_str(&format!(
            "  {:<34} {:>16} {:<8} (min {} max {} n={})\n",
            m.name,
            show(stat, "median"),
            m.unit,
            show(stat, "min"),
            show(stat, "max"),
            show(stat, "n"),
        ));
    }
    let layers = section.get("layers").map_or(&[][..], Json::fields);
    for m in LAYERS.iter().filter(|_| !layers.is_empty()) {
        let layer = section.get("layers").and_then(|l| l.get(m.name));
        out.push_str(&format!(
            "  {:<34} {:>16} {:<8} [{}]\n",
            m.name,
            show(layer, "value"),
            m.unit,
            m.kind.name()
        ));
    }
    out
}

/// The result line the benchmark driver reads: the manifest's end-to-end
/// metrics after a timed run (`traced = false`), its per-layer metrics
/// after a traced one.
pub fn driver_line(section: &Json, traced: bool) -> Result<String, String> {
    let attempted = section
        .get("attempted")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let failed = section.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
    let mut metrics = Json::obj();
    let mut put = |name: &str, unit: &str, value: Option<f64>| -> Result<(), String> {
        let value = value.ok_or_else(|| format!("metric {name} has no value"))?;
        metrics.set(
            name,
            Json::obj()
                .with("value", Json::Num(value))
                .with("unit", Json::Str(unit.to_string())),
        );
        Ok(())
    };
    if traced {
        for m in manifest_layers() {
            let v = section.get("layers").and_then(|l| l.get(m.name));
            put(
                m.name,
                m.unit,
                v.and_then(|v| v.get("value")).and_then(Json::as_f64),
            )?;
        }
    } else {
        for (m, _) in manifest_end_to_end() {
            let v = section.get("end_to_end").and_then(|e| e.get(m.name));
            put(
                m.name,
                m.unit,
                v.and_then(|v| v.get("median")).and_then(Json::as_f64),
            )?;
        }
    }
    Ok(Json::obj()
        .with("correct", Json::Bool(failed == 0.0 && attempted >= 1.0))
        .with("attempted", Json::Num(attempted))
        .with("failed", Json::Num(failed))
        .with("metrics", metrics)
        .to_line())
}

/// `BENCHMARK.json`, generated from the catalogue so the two cannot drift
/// (the smoke test compares the committed file against this).
pub fn manifest() -> Json {
    let named = |name: &str, unit: &str, better: &str| {
        Json::obj()
            .with("name", Json::Str(name.to_string()))
            .with("unit", Json::Str(unit.to_string()))
            .with("better", Json::Str(better.to_string()))
    };
    Json::obj()
        .with(
            "command",
            Json::Arr(vec![
                Json::Str("bash".to_string()),
                Json::Str("bench/run.sh".to_string()),
            ]),
        )
        .with("paths", Json::Arr(vec![Json::Str("bench".to_string())]))
        .with("run_seconds", Json::Num(f64::from(RUN_SECONDS)))
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj()
                            .with("name", Json::Str(w.name.to_string()))
                            .with("why", Json::Str(w.why.to_string()))
                    })
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                manifest_end_to_end()
                    .map(|(m, bound)| {
                        named(m.name, m.unit, m.better.name()).with("bound", Json::Num(bound))
                    })
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(
                manifest_layers()
                    .map(|m| named(m.name, m.unit, m.better.name()))
                    .collect(),
            ),
        )
}
