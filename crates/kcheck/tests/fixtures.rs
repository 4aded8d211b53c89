//! Fixture-corpus tests: every known-bad snippet under `tests/fixtures/`
//! is flagged with the expected lint code, and every known-good twin comes
//! back clean. A final test pins the *live* workspace to zero violations —
//! the same gate `kmm check` enforces in CI.

use std::path::{Path, PathBuf};

use kcheck::{check_files, check_workspace, collect_files, Allowlist, Config, Lint};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The fixture corpus gets its own scope map: directory names under
/// `tests/fixtures/` stand in for the workspace paths the live config uses.
fn fixture_config() -> Config {
    let owned = |v: &[&str]| {
        v.iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<String>>()
    };
    Config {
        det_scope: owned(&["det"]),
        det_exempt: vec![],
        unwrap_scope: owned(&["transport"]),
        index_scope: owned(&["transport"]),
        print_scope: owned(&["print"]),
    }
}

fn codes_for<'r>(report: &'r kcheck::Report, file: &str) -> Vec<&'r str> {
    report
        .diags
        .iter()
        .filter(|d| d.file == file)
        .map(|d| d.lint.code())
        .collect()
}

#[test]
fn bad_fixtures_are_flagged_and_good_twins_pass() {
    let files = collect_files(&fixtures_root()).expect("fixture corpus readable");
    assert!(files.len() >= 8, "fixture corpus went missing");
    let report = check_files(&files, &fixture_config(), &Allowlist::default());

    // Known-bad: each seeded violation is caught with its code.
    let kc01 = codes_for(&report, "det/bad_iter.rs");
    assert!(
        kc01.len() >= 5 && kc01.iter().all(|&c| c == "KC01"),
        "det/bad_iter.rs: want >= 5 KC01 (iter, set-collect, bare for, \
         multi-line chain, type alias), got {kc01:?}"
    );
    let kc02 = codes_for(&report, "det/bad_clock.rs");
    assert!(
        kc02.len() >= 3 && kc02.iter().all(|&c| c == "KC02"),
        "det/bad_clock.rs: want >= 3 KC02 (Instant, SystemTime, thread_rng), got {kc02:?}"
    );
    let kc05 = codes_for(&report, "transport/bad_panic.rs");
    assert!(
        kc05.len() >= 4 && kc05.iter().all(|&c| c == "KC05"),
        "transport/bad_panic.rs: want >= 4 KC05 (two indexings, unwrap, \
         expect), got {kc05:?}"
    );
    let kc06 = codes_for(&report, "print/bad_print.rs");
    assert!(
        kc06.len() >= 5 && kc06.iter().all(|&c| c == "KC06"),
        "print/bad_print.rs: want >= 5 KC06 (println, eprintln, print, \
         eprint, dbg), got {kc06:?}"
    );

    // Known-good twins: not a single diagnostic.
    for good in [
        "det/good_iter.rs",
        "det/good_clock.rs",
        "transport/good_panic.rs",
        "print/good_print.rs",
    ] {
        let got = codes_for(&report, good);
        assert!(got.is_empty(), "{good}: good twin flagged: {got:?}");
    }
}

#[test]
fn diagnostics_carry_file_line_and_snippet() {
    let files = collect_files(&fixtures_root()).expect("fixture corpus readable");
    let report = check_files(&files, &fixture_config(), &Allowlist::default());
    let d = report
        .diags
        .iter()
        .find(|d| d.file == "print/bad_print.rs")
        .expect("KC06 diagnostic present");
    assert_eq!(d.lint, Lint::AdHocPrint);
    assert_eq!(d.line, 4);
    assert!(d.snippet.contains("println!("), "snippet: {}", d.snippet);
    let rendered = d.to_string();
    assert!(
        rendered.contains("error[KC06]") && rendered.contains("print/bad_print.rs:4"),
        "rustc-style rendering: {rendered}"
    );
}

#[test]
fn allowlist_suppresses_matches_and_reports_stale_entries() {
    let files = collect_files(&fixtures_root()).expect("fixture corpus readable");
    let cfg = fixture_config();
    let baseline = check_files(&files, &cfg, &Allowlist::default()).diags.len();

    let allow = Allowlist::parse(concat!(
        "# fixture allowlist\n",
        "KC06 print/bad_print.rs \"dbg!(\" -- fixture: audited debug print\n",
        "KC01 det/bad_iter.rs \"no.such.needle()\" -- fixture: matches nothing\n",
    ))
    .expect("well-formed allowlist parses");
    let report = check_files(&files, &cfg, &allow);

    assert_eq!(report.suppressed, 1, "exactly the KC06 entry fires");
    assert_eq!(report.diags.len(), baseline - 1);
    assert_eq!(codes_for(&report, "print/bad_print.rs").len(), 4);
    assert_eq!(report.stale_allow.len(), 1, "the dead needle is stale");
    assert_eq!(report.stale_allow[0].file, "det/bad_iter.rs");
    assert!(!report.clean(), "stale entries keep the run red");
}

#[test]
fn scope_naming_a_missing_file_is_stale() {
    let files = collect_files(&fixtures_root()).expect("fixture corpus readable");
    let clean = check_files(&files, &fixture_config(), &Allowlist::default());
    assert!(clean.stale_scopes.is_empty(), "{:?}", clean.stale_scopes);

    let mut cfg = fixture_config();
    cfg.unwrap_scope.push("transport/deleted_link.rs".into());
    cfg.det_exempt.push("det/gone.rs".into());
    let report = check_files(&files, &cfg, &Allowlist::default());
    assert_eq!(
        report.stale_scopes,
        ["det/gone.rs", "transport/deleted_link.rs"]
    );
    assert!(!report.clean(), "stale scopes keep the run red");
}

#[test]
fn walker_never_lints_fixture_or_test_trees() {
    // Rooted at the crate, the walker must skip `tests/` (and thus the
    // deliberately-bad corpus): a live `kmm check` run can never trip on it.
    let files = collect_files(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("crate readable");
    assert!(
        files
            .iter()
            .all(|f| !f.rel.contains("fixtures/") && !f.rel.starts_with("tests/")),
        "fixture corpus leaked into a live scan"
    );
    assert!(
        files.iter().any(|f| f.rel == "src/lints.rs"),
        "crate sources are scanned"
    );
}

#[test]
fn live_workspace_is_clean_under_its_own_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf();
    assert!(root.join("Cargo.toml").exists(), "workspace root located");
    let report = check_workspace(&root, &Config::workspace(), &root.join("kcheck.allow"))
        .expect("workspace scan succeeds");
    let rendered: Vec<String> = report
        .diags
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    assert!(
        report.clean(),
        "live workspace must check clean (stale allow entries: {}, stale scopes: {:?}):\n{}",
        report.stale_allow.len(),
        report.stale_scopes,
        rendered.join("\n")
    );
    assert!(
        report.files_scanned > 40,
        "the scan saw the whole workspace"
    );
}
