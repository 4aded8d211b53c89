//! Diagnostic records and rustc-style rendering.

use std::fmt;

/// The four invariant lints (DESIGN.md §3.13).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lint {
    /// KC01 — unordered iteration over a hash container in a
    /// message-producing or accounting path.
    MapIter,
    /// KC02 — wall-clock / ambient-RNG use in deterministic paths.
    WallClock,
    /// KC05 — `unwrap`/`expect`/slice-indexing in transport worker and
    /// window-protocol paths.
    PanicHygiene,
    /// KC06 — ad-hoc `println!`/`eprintln!`/`dbg!` in library crates;
    /// diagnostics route through `kmachine::trace` instead.
    AdHocPrint,
}

impl Lint {
    /// Stable short code, used in output and in `kcheck.allow`.
    pub fn code(self) -> &'static str {
        match self {
            Lint::MapIter => "KC01",
            Lint::WallClock => "KC02",
            Lint::PanicHygiene => "KC05",
            Lint::AdHocPrint => "KC06",
        }
    }

    /// Human name for the summary table.
    pub fn name(self) -> &'static str {
        match self {
            Lint::MapIter => "deterministic-iteration",
            Lint::WallClock => "wall-clock-and-rng",
            Lint::PanicHygiene => "panic-hygiene",
            Lint::AdHocPrint => "ad-hoc-print",
        }
    }
}

/// One finding: lint, location, message, and the offending source line.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what the sanctioned route is.
    pub message: String,
    /// The original (un-blanked) source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.lint.code(), self.message)?;
        writeln!(f, "  --> {}:{}", self.file, self.line)?;
        writeln!(f, "   |")?;
        writeln!(f, "   | {}", self.snippet)
    }
}
