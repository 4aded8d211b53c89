//! Public-API surface snapshot: a dependency-free pin of every `pub` item
//! across the workspace crates, so PRs that change the API surface show the
//! diff explicitly (in `tests/api_surface.txt`) instead of slipping it past
//! review inside an implementation change.
//!
//! The extraction is deliberately simple text scanning — one line per
//! `pub` item, first signature line only, file-prefixed and sorted. It is
//! deterministic, which is all a snapshot needs. Scanning a file stops at
//! its `#[cfg(test)]` module (by convention the last item in this
//! workspace), so test helpers never leak into the surface.
//!
//! To accept an intentional API change, rerun with
//! `KMM_UPDATE_API_SURFACE=1 cargo test --test api_surface` and commit the
//! rewritten snapshot.
//!
//! The same walk keeps a second pin, `tests/code_size.txt`: ROADMAP's size
//! rule ("every PR leaves the non-test line count no larger than it found
//! it") made mechanical. It records the non-test source size per crate and
//! in total — lines of `crates/*/src`, `src` and `vendor/*/src` up to each
//! file's first column-0 `#[cfg(test)]`, physical and non-blank non-`//` —
//! and fails when a total *grows* past the pin. The same
//! `KMM_UPDATE_API_SURFACE=1` run refreshes it, so a PR that must grow
//! says so in a reviewed diff.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// The source roots that make up the public workspace surface.
const ROOTS: &[&str] = &["src", "crates"];

const SNAPSHOT: &str = "tests/api_surface.txt";

const SIZE_PIN: &str = "tests/code_size.txt";

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Crate sources only: skip build output, vendored deps, and
            // per-crate test/bench trees (they are not API surface).
            if ["target", "vendor", "tests", "benches", "examples"].contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Extracts the `pub` item heads of one file (first signature line each),
/// stopping at the conventional trailing `#[cfg(test)]` module.
fn extract_items(rel: &str, text: &str, items: &mut Vec<String>) {
    for line in text.lines() {
        // Column 0, like `non_test_size`: a `#[cfg(test)]` method inside a
        // trait or a macro is not the trailing test module.
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        let t = line.trim();
        let is_item = [
            "pub fn ",
            "pub struct ",
            "pub enum ",
            "pub trait ",
            "pub type ",
            "pub const ",
            "pub mod ",
            "pub use ",
            "pub static ",
        ]
        .iter()
        .any(|p| t.starts_with(p));
        if !is_item {
            continue;
        }
        // Normalize: drop an opening-brace/where tail so formatting churn
        // does not count as an API change.
        let head = t
            .split(" where ")
            .next()
            .unwrap()
            .trim_end_matches('{')
            .trim_end();
        items.push(format!("{rel}: {head}"));
    }
}

fn current_surface() -> String {
    let root = repo_root();
    let mut files = Vec::new();
    for r in ROOTS {
        collect_rs_files(&root.join(r), &mut files);
    }
    let mut items = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(f).unwrap_or_default();
        extract_items(&rel, &text, &mut items);
    }
    items.sort();
    items.dedup();
    let mut out = String::new();
    for i in &items {
        writeln!(out, "{i}").unwrap();
    }
    out
}

/// `(physical, non-blank non-`//`)` line counts of one file's non-test part.
fn non_test_size(text: &str) -> (usize, usize) {
    text.lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .fold((0, 0), |(physical, code), l| {
            let t = l.trim_start();
            let is_code = !t.is_empty() && !t.starts_with("//");
            (physical + 1, code + usize::from(is_code))
        })
}

/// One `group physical code` row per crate (`crates/x`, `vendor/x`, `src`)
/// and a `total` row.
fn current_sizes() -> String {
    let root = repo_root();
    let mut files = Vec::new();
    for r in ROOTS {
        collect_rs_files(&root.join(r), &mut files);
    }
    for vendored in fs::read_dir(root.join("vendor"))
        .into_iter()
        .flatten()
        .flatten()
    {
        collect_rs_files(&vendored.path().join("src"), &mut files);
    }
    let mut groups = std::collections::BTreeMap::<String, (usize, usize)>::new();
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap().to_string_lossy();
        let parts: Vec<&str> = rel.split(['/', '\\']).collect();
        let group = match parts[0] {
            "src" => "src".to_string(),
            top => format!("{top}/{}", parts[1]),
        };
        if parts[0] != "src" && parts[2] != "src" {
            continue; // a crate's build script or fixtures, not its source
        }
        let (physical, code) = non_test_size(&fs::read_to_string(f).unwrap_or_default());
        let sum = groups.entry(group).or_default();
        *sum = (sum.0 + physical, sum.1 + code);
    }
    let mut out = String::from("# non-test lines: group physical non-blank-non-comment\n");
    let mut total = (0, 0);
    for (group, (physical, code)) in &groups {
        writeln!(out, "{group} {physical} {code}").unwrap();
        total = (total.0 + physical, total.1 + code);
    }
    writeln!(out, "total {} {}", total.0, total.1).unwrap();
    out
}

/// Rewrites the pin at `path` in one step: the new text goes to a sibling
/// temporary file that is then renamed over the pin, so a test reading the
/// pin on another thread sees the old file or the new one, never a
/// truncated one.
fn rewrite_pin(path: &Path, text: &str) {
    let tmp = path.with_extension("txt.tmp");
    fs::write(&tmp, text).expect("write pin");
    fs::rename(&tmp, path).expect("move pin into place");
}

fn pinned_totals(sizes: &str) -> (usize, usize) {
    let row = sizes.lines().find_map(|l| l.strip_prefix("total "));
    let mut fields = row.expect("a `total` row").split(' ');
    let mut next = || fields.next().unwrap().parse::<usize>().unwrap();
    (next(), next())
}

#[test]
fn non_test_code_size_does_not_grow_past_the_pin() {
    let got = current_sizes();
    let pin_path = repo_root().join(SIZE_PIN);
    if std::env::var("KMM_UPDATE_API_SURFACE").is_ok() {
        rewrite_pin(&pin_path, &got);
        return;
    }
    let want = fs::read_to_string(&pin_path).expect("size pin committed");
    let (physical, code) = pinned_totals(&got);
    let (max_physical, max_code) = pinned_totals(&want);
    assert!(
        physical <= max_physical && code <= max_code,
        "non-test source grew past the pin: {physical} lines ({code} code) vs \
         {max_physical} ({max_code}) in {SIZE_PIN}.\n\npinned:\n{want}\nnow:\n{got}\n\
         Delete as much elsewhere, or — if the PR must grow — refresh the pin so the \
         growth shows in the diff:\n  KMM_UPDATE_API_SURFACE=1 cargo test --test api_surface\n"
    );
}

#[test]
fn public_api_surface_matches_snapshot() {
    let got = current_surface();
    let snap_path = repo_root().join(SNAPSHOT);
    if std::env::var("KMM_UPDATE_API_SURFACE").is_ok() {
        rewrite_pin(&snap_path, &got);
        return;
    }
    let want = fs::read_to_string(&snap_path).unwrap_or_default();
    if got == want {
        return;
    }
    let got_set: std::collections::BTreeSet<&str> = got.lines().collect();
    let want_set: std::collections::BTreeSet<&str> = want.lines().collect();
    let added: Vec<&&str> = got_set.difference(&want_set).collect();
    let removed: Vec<&&str> = want_set.difference(&got_set).collect();
    panic!(
        "public API surface changed.\n\n  added ({}):\n{}\n\n  removed ({}):\n{}\n\n\
         If intentional, refresh the pin:\n  KMM_UPDATE_API_SURFACE=1 cargo test --test api_surface\n",
        added.len(),
        added
            .iter()
            .map(|l| format!("    + {l}"))
            .collect::<Vec<_>>()
            .join("\n"),
        removed.len(),
        removed
            .iter()
            .map(|l| format!("    - {l}"))
            .collect::<Vec<_>>()
            .join("\n"),
    );
}

/// The snapshot itself must be present, non-trivial, and contain the
/// session-layer anchors this PR introduced (guards against an empty or
/// truncated pin silently passing).
#[test]
fn snapshot_pin_is_present_and_covers_the_session_layer() {
    let want = fs::read_to_string(repo_root().join(SNAPSHOT)).expect("snapshot committed");
    assert!(
        want.lines().count() > 100,
        "the workspace exposes far more than 100 public items"
    );
    for anchor in [
        "pub struct Cluster",
        "pub struct ClusterBuilder",
        "pub trait Problem",
        "pub struct RunReport",
        "pub fn adopt",
        "pub fn ingest_count",
    ] {
        assert!(
            want.contains(anchor),
            "snapshot must pin the session layer: missing {anchor:?}"
        );
    }
}
