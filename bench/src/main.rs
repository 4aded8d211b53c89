//! The `kmm-bench` command line. `bench/run.sh` is the supported way in.

use kmm_bench::harness::{self, Pass, RunOpts, WORKER_STATS_ENV};
use kmm_bench::json::Json;
use kmm_bench::spec::{self, Inputs, Scale, Spec, WORKLOADS};
use kmm_bench::{compare, osstat, report};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: kmm-bench run [--seed S] [--workload NAME] [--seconds T] [--scale full|smoke]
                     [--trace 0|1] [--json FILE]
       kmm-bench compare A.json B.json
       kmm-bench manifest

run       every workload (or one): set-up, warm-up, timed reps, oracle checks,
          traced rep and layer probes; prints every metric by name and unit.
          With --trace 0|1 (one workload) the last line is the driver's JSON
          result: end-to-end metrics for 0, per-layer metrics for 1.
compare   one row per workload x end-to-end metric: medians, ratio, bound, verdict.
manifest  prints BENCHMARK.json as generated from the metric catalogue.";

fn fail(msg: &str) -> ExitCode {
    eprintln!("kmm-bench: {msg}");
    ExitCode::from(2)
}

/// `--key value` pairs after the subcommand.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(argv: &[String], known: &[&str]) -> Result<Args, String> {
        let mut out = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .filter(|k| known.contains(k))
                .ok_or_else(|| format!("unknown argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            out.push((key.to_string(), value.clone()));
        }
        Ok(Args(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("`--{key} {v}` is not a valid number"))
        })
    }
}

/// Where traces and scratch files go: `bench/out/` of the checkout this
/// binary was built in.
fn out_dir() -> PathBuf {
    std::env::var_os("KMM_BENCH_OUT").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    )
}

/// `__transport-worker DIR MACHINE K`: this binary is its own proc-transport
/// worker. On a clean shutdown the worker leaves its peak RSS where the
/// workload process asked for it.
fn transport_worker(argv: &[String]) -> ExitCode {
    let (Some(dir), Some(machine), Some(k)) = (
        argv.first(),
        argv.get(1).and_then(|a| a.parse::<usize>().ok()),
        argv.get(2).and_then(|a| a.parse::<usize>().ok()),
    ) else {
        return fail("__transport-worker needs <dir> <machine> <k>");
    };
    let served = kmachine::transport::worker_main(Path::new(dir), machine, k);
    if let Some(stats) = std::env::var_os(WORKER_STATS_ENV) {
        let kb = osstat::status_field("/proc/self/status", "VmHWM");
        let _ = std::fs::write(
            Path::new(&stats).join(std::process::id().to_string()),
            kb.to_string(),
        );
    }
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&format!("transport worker {machine}: {e}")),
    }
}

/// `__workload …`: one workload in this (fresh) process; its report section
/// goes to stdout as one JSON line.
fn workload_child(argv: &[String]) -> ExitCode {
    let parsed =
        Args::parse(argv, &["workload", "seed", "seconds", "scale", "pass"]).and_then(|a| {
            let spec = a
                .get("workload")
                .and_then(spec::find)
                .ok_or("unknown or missing --workload")?;
            let opts = RunOpts {
                seed: a.num("seed", 11)?,
                seconds: a.num("seconds", f64::from(report::RUN_SECONDS))?,
                scale: Scale::parse(a.get("scale").unwrap_or("full"))?,
                pass: match a.get("pass") {
                    Some("timed") => Pass::Timed,
                    _ => Pass::Both,
                },
            };
            Ok((spec, opts))
        });
    let (spec, opts) = match parsed {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        return fail(&format!("cannot create {}: {e}", out.display()));
    }
    // Keep the proc transport's socket directory inside the checkout when
    // the path fits a Unix socket address (108 bytes, minus the
    // `kmm-transport-<pid>-<n>/ctrl.sock` the transport appends).
    let tmp = out.join("tmp");
    if tmp.as_os_str().len() <= 60 && std::fs::create_dir_all(&tmp).is_ok() {
        std::env::set_var("TMPDIR", &tmp);
    }
    let inputs = Inputs::new(spec, opts.scale, opts.seed);
    let section = harness::run_workload(&inputs, &opts, &out);
    println!("{}", section.to_line());
    ExitCode::SUCCESS
}

/// Runs one workload in a child process and returns its report section.
/// A child that dies counts as one failed op.
fn run_in_child(spec: &Spec, opts: &RunOpts) -> Json {
    let failed = |why: String| {
        eprintln!("kmm-bench: {}: {why}", spec.name);
        Json::obj()
            .with("attempted", Json::Num(1.0))
            .with("failed", Json::Num(1.0))
            .with("error", Json::Str(why))
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed(format!("cannot locate own executable: {e}")),
    };
    let output = Command::new(exe)
        .arg("__workload")
        .args(["--workload", spec.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--scale", opts.scale.name()])
        .args([
            "--pass",
            if opts.pass == Pass::Timed {
                "timed"
            } else {
                "both"
            },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    match output {
        Err(e) => failed(format!("cannot spawn workload process: {e}")),
        Ok(o) if !o.status.success() => {
            failed(format!("workload process exited with {}", o.status))
        }
        Ok(o) => String::from_utf8_lossy(&o.stdout)
            .lines()
            .last()
            .ok_or_else(|| "workload process printed nothing".to_string())
            .and_then(Json::parse)
            .unwrap_or_else(failed),
    }
}

fn run(argv: &[String]) -> ExitCode {
    let args = match Args::parse(
        argv,
        &["seed", "workload", "seconds", "scale", "trace", "json"],
    ) {
        Ok(a) => a,
        Err(e) => return fail(&format!("{e}\n{USAGE}")),
    };
    let parsed = (|| -> Result<_, String> {
        let trace = match args.get("trace") {
            None => None,
            Some("0") => Some(false),
            Some("1") => Some(true),
            Some(other) => return Err(format!("`--trace {other}`: expected 0 or 1")),
        };
        // A driver run measures for `run_seconds`; the full report takes
        // the longer window that yields the protocol's five timed reps.
        let default_seconds = if trace.is_some() {
            report::RUN_SECONDS
        } else {
            report::FULL_SECONDS
        };
        let opts = RunOpts {
            seed: args.num("seed", 11)?,
            seconds: args.num("seconds", f64::from(default_seconds))?,
            scale: Scale::parse(args.get("scale").unwrap_or("full"))?,
            pass: if trace == Some(false) {
                Pass::Timed
            } else {
                Pass::Both
            },
        };
        let selected: Vec<&Spec> = match args.get("workload") {
            None => WORKLOADS.iter().collect(),
            Some(name) => vec![spec::find(name).ok_or_else(|| {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                format!(
                    "unknown workload `{name}` (expected one of {})",
                    names.join(", ")
                )
            })?],
        };
        if trace.is_some() && selected.len() != 1 {
            return Err("--trace 0|1 reports one workload: add --workload NAME".to_string());
        }
        Ok((trace, opts, selected))
    })();
    let (trace, opts, selected) = match parsed {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };

    let mut sections = Json::obj();
    let mut any_failed = false;
    for spec in &selected {
        let section = run_in_child(spec, &opts);
        any_failed |= section.get("failed").and_then(Json::as_f64) != Some(0.0);
        print!("{}", report::render_workload(spec.name, &section));
        sections.set(spec.name, section);
    }
    let doc = report::document(opts.seed, opts.seconds, opts.scale, sections);
    if let Some(path) = args.get("json") {
        if let Err(e) = std::fs::write(path, doc.to_pretty()) {
            return fail(&format!("cannot write {path}: {e}"));
        }
    }
    if let Some(traced) = trace {
        let section = doc.get("workloads").and_then(|w| w.get(selected[0].name));
        match section.map(|s| report::driver_line(s, traced)) {
            Some(Ok(line)) => println!("{line}"),
            Some(Err(e)) => return fail(&e),
            None => return fail("no result"),
        }
    }
    if any_failed {
        eprintln!("kmm-bench: FAILED ops — see `failed` above");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or(&[]);
    match argv.first().map(String::as_str) {
        Some("run") => run(rest),
        Some("compare") => {
            let [a, b] = rest else {
                return fail(USAGE);
            };
            let load = |p: &String| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("cannot read {p}: {e}"))
                    .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
            };
            match load(a)
                .and_then(|a| Ok((a, load(b)?)))
                .and_then(|(a, b)| compare::compare(&a, &b))
            {
                Ok((table, bad)) => {
                    print!("{table}");
                    ExitCode::from(u8::from(bad))
                }
                Err(e) => fail(&e),
            }
        }
        Some("manifest") => {
            print!("{}", report::manifest().to_pretty());
            ExitCode::SUCCESS
        }
        Some("__workload") => workload_child(rest),
        Some("__transport-worker") => transport_worker(rest),
        _ => fail(USAGE),
    }
}
