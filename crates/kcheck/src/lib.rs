#![warn(missing_docs)]
//! `kcheck` — the workspace invariant linter behind `kmm check`.
//!
//! Runtime conformance tests prove the invariants this reproduction rests
//! on *for the seeds they run*; `kcheck` proves the source-level half at
//! the diff, before any seed-dependent cell runs. Four lints (DESIGN.md
//! §3.13 is the catalogue; KC03 and KC04 are retired, their invariants now
//! hold by construction):
//!
//! * **KC01 deterministic-iteration** — no unordered iteration over
//!   `HashMap`/`HashSet`/`FxHashMap`/`FxHashSet` in message-producing or
//!   accounting paths; the sanctioned route is `kmachine::det`.
//! * **KC02 wall-clock-and-rng** — no `Instant`/`SystemTime`/ambient RNG
//!   in those paths outside audited report/deadline fields.
//! * **KC05 panic-hygiene** — no `unwrap`/`expect`/slice-indexing in the
//!   transport worker and window-protocol paths.
//!
//! Audited exceptions live in `kcheck.allow` ([`allow`]); stale entries
//! are errors. The pass is dependency-free: it lexes by *blanking*
//! comments and literals ([`scan`]) rather than parsing a full AST, which
//! is exactly strong enough for these lints and builds offline.

pub mod allow;
pub mod config;
pub mod diag;
pub mod lints;
pub mod scan;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use allow::{AllowEntry, Allowlist};
pub use config::Config;
pub use diag::{Diagnostic, Lint};

/// One loaded source file, pre-blanked for the lints.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Original text (diagnostics quote this).
    pub text: String,
    /// Blanked text (lints scan this — see [`scan::blank`]).
    pub blanked: String,
    /// Byte spans of `#[cfg(test)]` items in `blanked`.
    pub test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Blank and index `text` under the relative path `rel`.
    pub fn new(rel: String, text: String) -> SourceFile {
        let blanked = scan::blank(&text);
        let test_spans = scan::test_spans(&blanked);
        SourceFile {
            rel,
            text,
            blanked,
            test_spans,
        }
    }
}

/// Directory names the walker never descends into: build outputs, the
/// vendored shims (external API surface, not ours to lint), and test /
/// fixture trees (tests may unwrap and iterate freely; fixtures are
/// deliberately bad).
const SKIP_DIRS: [&str; 7] = [
    "target", "vendor", ".git", "tests", "benches", "examples", "fixtures",
];

/// Recursively collect `.rs` files under `root`, sorted by relative path
/// so output order is itself deterministic.
pub fn collect_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    walk(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = fs::read_to_string(&p)?;
        files.push(SourceFile::new(rel, text));
    }
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The outcome of a check run.
pub struct Report {
    /// Violations that survived the allowlist, sorted by file/line.
    pub diags: Vec<Diagnostic>,
    /// Allowlist entries that matched nothing — stale, and an error.
    pub stale_allow: Vec<AllowEntry>,
    /// [`Config`] scope entries that match no scanned file — a scope
    /// naming a deleted file rots exactly like a stale allow entry, and is
    /// an error for the same reason.
    pub stale_scopes: Vec<String>,
    /// How many diagnostics the allowlist suppressed.
    pub suppressed: usize,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Clean means zero live diagnostics *and* zero stale allow entries
    /// or scopes.
    pub fn clean(&self) -> bool {
        self.diags.is_empty() && self.stale_allow.is_empty() && self.stale_scopes.is_empty()
    }
}

/// Run every lint over pre-loaded `files`, filtering through `allow`.
pub fn check_files(files: &[SourceFile], cfg: &Config, allow: &Allowlist) -> Report {
    let raw = lints::run_all(files, cfg);
    let mut used = vec![false; allow.entries.len()];
    let mut diags = Vec::new();
    let mut suppressed = 0usize;
    for d in raw {
        let mut hit = false;
        for (i, e) in allow.entries.iter().enumerate() {
            if e.matches(&d) {
                used[i] = true;
                hit = true;
            }
        }
        if hit {
            suppressed += 1;
        } else {
            diags.push(d);
        }
    }
    let stale_allow = allow
        .entries
        .iter()
        .zip(&used)
        .filter(|&(_, &u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    let stale_scopes = [
        &cfg.det_scope,
        &cfg.det_exempt,
        &cfg.unwrap_scope,
        &cfg.index_scope,
        &cfg.print_scope,
    ]
    .into_iter()
    .flatten()
    .filter(|&scope| {
        !files
            .iter()
            .any(|f| Config::in_scope(std::slice::from_ref(scope), &f.rel))
    })
    .cloned()
    .collect();
    Report {
        diags,
        stale_allow,
        stale_scopes,
        suppressed,
        files_scanned: files.len(),
    }
}

/// Load `root`'s sources and allowlist (at `allow_path`, which may not
/// exist — that is an empty allowlist) and run the full check.
pub fn check_workspace(root: &Path, cfg: &Config, allow_path: &Path) -> Result<Report, String> {
    let allow = match fs::read_to_string(allow_path) {
        Ok(text) => Allowlist::parse(&text)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Allowlist::default(),
        Err(e) => return Err(format!("{}: {e}", allow_path.display())),
    };
    let files = collect_files(root).map_err(|e| format!("{}: {e}", root.display()))?;
    Ok(check_files(&files, cfg, &allow))
}
