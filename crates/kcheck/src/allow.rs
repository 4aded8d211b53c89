//! The `kcheck.allow` file: audited exceptions.
//!
//! One entry per line:
//!
//! ```text
//! KC02 crates/kmachine/src/transport.rs "Instant::now() + HELLO_TIMEOUT" -- physical deadline, not algorithm state
//! ```
//!
//! i.e. `<CODE> <path> "<needle>" -- <justification>`. An entry suppresses a
//! diagnostic when the code and file match exactly and the *original* source
//! line contains the quoted needle — content-anchored so entries survive
//! line-number churn. Blank lines and `#` comments are ignored. Every entry
//! must suppress at least one diagnostic; stale entries are themselves
//! reported as errors so the allowlist can only shrink honestly.

use crate::diag::Diagnostic;

/// One parsed allowlist entry.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Lint code, e.g. `KC02`.
    pub code: String,
    /// Workspace-relative path the exception applies to.
    pub file: String,
    /// Substring the offending source line must contain.
    pub needle: String,
    /// One-line human justification (required).
    pub reason: String,
    /// Line in `kcheck.allow`, for stale-entry reporting.
    pub line: usize,
}

impl AllowEntry {
    /// Does this entry suppress `d` (whose quoted snippet is the original
    /// source line)?
    pub fn matches(&self, d: &Diagnostic) -> bool {
        self.code == d.lint.code() && self.file == d.file && d.snippet.contains(&self.needle)
    }
}

/// The parsed allowlist.
#[derive(Default, Debug)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse the allowlist text; malformed lines are hard errors (an
    /// allowlist that silently drops entries would un-audit exceptions).
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("kcheck.allow:{}: {what}: {raw}", idx + 1);
            let (code, rest) = line.split_once(' ').ok_or_else(|| err("missing path"))?;
            if !matches!(code, "KC01" | "KC02" | "KC05" | "KC06") {
                return Err(err("unknown lint code"));
            }
            let rest = rest.trim_start();
            let (file, rest) = rest
                .split_once(" \"")
                .ok_or_else(|| err("missing quoted needle"))?;
            let (needle, rest) = rest
                .split_once('"')
                .ok_or_else(|| err("unterminated needle"))?;
            let reason = rest
                .trim_start()
                .strip_prefix("--")
                .map(str::trim)
                .ok_or_else(|| err("missing `-- justification`"))?;
            if needle.is_empty() || reason.is_empty() {
                return Err(err("empty needle or justification"));
            }
            entries.push(AllowEntry {
                code: code.to_string(),
                file: file.trim().to_string(),
                needle: needle.to_string(),
                reason: reason.to_string(),
                line: idx + 1,
            });
        }
        Ok(Allowlist { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Diagnostic, Lint};

    fn diag(file: &str, snippet: &str) -> Diagnostic {
        Diagnostic {
            lint: Lint::WallClock,
            file: file.into(),
            line: 7,
            message: "m".into(),
            snippet: snippet.into(),
        }
    }

    #[test]
    fn parses_and_matches() {
        let a =
            Allowlist::parse("# comment\n\nKC02 src/a.rs \"Instant::now\" -- physical deadline\n")
                .unwrap();
        assert_eq!(a.entries.len(), 1);
        assert!(a.entries[0].matches(&diag("src/a.rs", "let t = Instant::now();")));
        assert!(!a.entries[0].matches(&diag("src/b.rs", "let t = Instant::now();")));
        assert!(!a.entries[0].matches(&diag("src/a.rs", "let t = later;")));
    }

    #[test]
    fn malformed_lines_are_errors() {
        for bad in [
            "KC09 src/a.rs \"x\" -- y",
            "KC02 src/a.rs x -- y",
            "KC02 src/a.rs \"x\"",
            "KC02 src/a.rs \"\" -- y",
        ] {
            assert!(Allowlist::parse(bad).is_err(), "{bad}");
        }
    }
}
