//! Checks on `.github/workflows/ci.yml` that need no YAML parser: a plain
//! `name:` value must not contain `: ` (that makes the whole file invalid
//! YAML, so no job runs), and every test a `cargo test -p PKG … -- FILTER`
//! command names must still exist in that package (a filter naming a
//! deleted test matches nothing and passes silently).

use std::path::{Path, PathBuf};

const WORKFLOW: &str = ".github/workflows/ci.yml";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Each `name:` line whose plain (unquoted) value contains `: `.
fn unquoted_colon_names(yaml: &str) -> Vec<String> {
    yaml.lines()
        .enumerate()
        .filter_map(|(i, line)| {
            let key = line.trim_start().trim_start_matches("- ");
            let value = key.strip_prefix("name:")?.trim();
            let value = value.split(" #").next().unwrap_or(value);
            let plain = !value.starts_with('"') && !value.starts_with('\'');
            (plain && value.contains(": ")).then(|| format!("line {}: {}", i + 1, line.trim()))
        })
        .collect()
}

/// Every shell command of the workflow's `run:` keys, one string each: a
/// folded (`>`) block is joined into one line, a literal (`|`) block gives
/// one command per line after joining `\` continuations.
fn run_commands(yaml: &str) -> Vec<String> {
    let lines: Vec<&str> = yaml.lines().collect();
    let indent = |l: &str| l.len() - l.trim_start().len();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        i += 1;
        let Some(value) = line.trim_start().strip_prefix("run:").map(str::trim) else {
            continue;
        };
        if !(value.starts_with('>') || value.starts_with('|')) {
            out.push(value.to_string());
            continue;
        }
        let mut block = Vec::new();
        while i < lines.len() && (lines[i].trim().is_empty() || indent(lines[i]) > indent(line)) {
            block.push(lines[i].trim());
            i += 1;
        }
        if value.starts_with('>') {
            out.push(block.join(" "));
        } else {
            out.extend(
                block
                    .join("\n")
                    .replace("\\\n", " ")
                    .lines()
                    .map(String::from),
            );
        }
    }
    out
}

/// The `name = "…"` of each workspace crate, with its source directory.
fn crate_sources(root: &Path) -> Vec<(String, PathBuf)> {
    let dirs = std::fs::read_dir(root.join("crates")).expect("read crates/");
    dirs.filter_map(|d| {
        let dir = d.ok()?.path();
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).ok()?;
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = "))?
            .trim_matches('"')
            .to_string();
        Some((name, dir.join("src")))
    })
    .collect()
}

fn rust_sources(dir: &Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).expect("read source dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&std::fs::read_to_string(&path).expect("read source"));
        }
    }
}

/// `PKG: filter` for each `module::…::fn_name` filter of a
/// `cargo … test … -p PKG … -- FILTERS` command that names no `fn fn_name(`
/// in the package's sources, plus the number of filters checked.
fn stale_test_filters(commands: &[String], root: &Path) -> (Vec<String>, usize) {
    let crates = crate_sources(root);
    let (mut stale, mut checked) = (Vec::new(), 0);
    for cmd in commands {
        let words: Vec<&str> = cmd.split_whitespace().collect();
        let Some(sep) = words.iter().position(|w| *w == "--") else {
            continue;
        };
        if !(words.contains(&"cargo") && words[..sep].contains(&"test")) {
            continue;
        }
        let packages: Vec<&str> = words[..sep]
            .windows(2)
            .filter(|w| w[0] == "-p")
            .map(|w| w[1])
            .collect();
        if packages.is_empty() {
            continue;
        }
        let mut src = String::new();
        for pkg in &packages {
            let (_, dir) = crates
                .iter()
                .find(|(name, _)| name == pkg)
                .unwrap_or_else(|| panic!("`-p {pkg}` names no workspace crate"));
            rust_sources(dir, &mut src);
        }
        for filter in &words[sep + 1..] {
            let Some((_, name)) = filter.rsplit_once("::") else {
                continue;
            };
            if name.is_empty() {
                continue; // a module prefix, not a test
            }
            checked += 1;
            if !src.contains(&format!("fn {name}(")) {
                stale.push(format!("{}: {filter}", packages.join("+")));
            }
        }
    }
    (stale, checked)
}

#[test]
fn workflow_names_are_valid_plain_scalars() {
    let yaml = std::fs::read_to_string(root().join(WORKFLOW)).expect("read the workflow");
    let bad = unquoted_colon_names(&yaml);
    assert!(bad.is_empty(), "quote these `name:` values: {bad:#?}");
}

#[test]
fn every_test_filter_in_the_workflow_names_an_existing_test() {
    let yaml = std::fs::read_to_string(root().join(WORKFLOW)).expect("read the workflow");
    let (stale, checked) = stale_test_filters(&run_commands(&yaml), &root());
    assert!(
        checked >= 4,
        "only {checked} test filters found: parser drifted?"
    );
    assert!(stale.is_empty(), "filters naming no test: {stale:#?}");
}

#[test]
fn the_checks_flag_both_known_defects() {
    let yaml = "jobs:\n  a:\n    steps:\n      - name: Test (release: checks off)\n      \
                - name: \"Quoted: fine\"\n        run: >\n          cargo test -p kmachine --lib --\n          \
                par::\n          transport::tests::frame_encoding_round_trips\n          \
                transport::tests::no_such_test\n";
    assert_eq!(unquoted_colon_names(yaml).len(), 1);
    let (stale, checked) = stale_test_filters(&run_commands(yaml), &root());
    assert_eq!(checked, 2);
    assert_eq!(stale, ["kmachine: transport::tests::no_such_test"]);
}
