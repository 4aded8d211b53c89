//! The four invariant lints.
//!
//! All of them work on blanked text (see [`crate::scan`]): substring hits
//! cannot come from comments or string literals, and brace matching is
//! sound. Hits inside `#[cfg(test)]` items are skipped everywhere — tests
//! may unwrap and may iterate however they like.

use std::collections::BTreeSet;

use crate::config::Config;
use crate::diag::{Diagnostic, Lint};
use crate::scan::{self, find_word, is_ident_byte};
use crate::SourceFile;

/// Hash-container type names whose iteration order is non-canonical.
const HASH_TYPES: [&str; 4] = ["FxHashMap", "FxHashSet", "HashMap", "HashSet"];

/// Methods that observe a hash container in its internal order.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Wall-clock / ambient-RNG needles (KC02).
const CLOCK_NEEDLES: [&str; 5] = [
    "Instant::now(",
    "SystemTime",
    "thread_rng(",
    "from_entropy(",
    "rand::random",
];

/// Panicking-call needles (KC05).
const PANIC_NEEDLES: [&str; 4] = [
    ".unwrap()",
    ".expect(",
    ".unwrap_err()",
    ".unwrap_unchecked(",
];

/// Ad-hoc print-macro needles (KC06).
const PRINT_NEEDLES: [&str; 5] = ["println!", "eprintln!", "print!", "eprint!", "dbg!"];

fn push(out: &mut Vec<Diagnostic>, f: &SourceFile, lint: Lint, offset: usize, message: String) {
    let line = scan::line_of(&f.blanked, offset);
    out.push(Diagnostic {
        lint,
        file: f.rel.clone(),
        line,
        message,
        snippet: scan::line_text(&f.text, line).trim().to_string(),
    });
}

/// Run every lint over every file.
pub fn run_all(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        if Config::in_scope(&cfg.det_scope, &f.rel) {
            if !Config::in_scope(&cfg.det_exempt, &f.rel) {
                map_iter(f, &mut out);
            }
            wall_clock(f, &mut out);
        }
        if Config::in_scope(&cfg.unwrap_scope, &f.rel) {
            panic_calls(f, &mut out);
        }
        if Config::in_scope(&cfg.index_scope, &f.rel) {
            slice_indexing(f, &mut out);
        }
        if Config::in_scope(&cfg.print_scope, &f.rel) {
            print_macros(f, &mut out);
        }
    }
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint.code()).cmp(&(b.file.as_str(), b.line, b.lint.code()))
    });
    out
}

// ---------------------------------------------------------------- KC01 --

/// Names in this file declared (or annotated) with a hash-container type:
/// `let`/field/param annotations `name: [&[mut]] T<...>`, initializations
/// `name = T::default()` / `T::new()`, and local `type` aliases whose
/// right-hand side is a hash container.
fn hash_typed_names(blanked: &str) -> BTreeSet<String> {
    let mut tokens: Vec<String> = HASH_TYPES
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    // Local aliases: `type LinkBuckets<M> = FxHashMap<...>;`
    let mut at = 0;
    while let Some(pos) = find_word(blanked, "type", at) {
        at = pos + 4;
        let rest = &blanked[pos..];
        let Some(semi) = rest.find(';') else { continue };
        let decl = &rest[..semi];
        let Some(eq) = decl.find('=') else { continue };
        if HASH_TYPES
            .iter()
            .any(|t| find_word(&decl[eq..], t, 0).is_some())
        {
            // Alias name: first ident after `type`.
            let after = decl[4..eq].trim_start();
            let name: String = after
                .chars()
                .take_while(|c| is_ident_byte(*c as u8))
                .collect();
            if !name.is_empty() {
                tokens.push(name);
            }
        }
    }
    let mut names = BTreeSet::new();
    for tok in &tokens {
        let mut at = 0;
        while let Some(pos) = find_word(blanked, tok, at) {
            at = pos + tok.len();
            if let Some(name) = decl_name(blanked, pos) {
                names.insert(name);
            }
        }
    }
    names
}

/// Walk backwards from a type-token occurrence at `pos` to the identifier
/// it declares, if this occurrence is a declaration site. Handles
/// `name: &'a mut Path::To<T>` and `name = T::default()`.
fn decl_name(blanked: &str, pos: usize) -> Option<String> {
    let b = blanked.as_bytes();
    let mut i = pos;
    loop {
        while i > 0 && (b[i - 1] as char).is_whitespace() {
            i -= 1;
        }
        if i == 0 {
            return None;
        }
        // Path separator: skip `::` and then its leading segment.
        if i >= 2 && b[i - 1] == b':' && b[i - 2] == b':' {
            i -= 2;
            while i > 0 && is_ident_byte(b[i - 1]) {
                i -= 1;
            }
            continue;
        }
        if b[i - 1] == b':' {
            i -= 1;
            return ident_back(b, i);
        }
        if b[i - 1] == b'=' {
            // Reject compound operators (`==`, `>=`, `+=`, ...).
            if i >= 2
                && matches!(
                    b[i - 2],
                    b'=' | b'!'
                        | b'<'
                        | b'>'
                        | b'+'
                        | b'-'
                        | b'*'
                        | b'/'
                        | b'%'
                        | b'&'
                        | b'|'
                        | b'^'
                )
            {
                return None;
            }
            i -= 1;
            return ident_back(b, i);
        }
        match b[i - 1] {
            b'&' | b'\'' => {
                i -= 1;
            }
            c if is_ident_byte(c) => {
                let start = ident_start(b, i);
                let word = &blanked[start..i];
                if word == "mut" || word == "dyn" {
                    i = start;
                } else if start > 0 && b[start - 1] == b'\'' {
                    // Lifetime name; keep walking.
                    i = start;
                } else {
                    return None;
                }
            }
            _ => return None,
        }
    }
}

fn ident_start(b: &[u8], end: usize) -> usize {
    let mut s = end;
    while s > 0 && is_ident_byte(b[s - 1]) {
        s -= 1;
    }
    s
}

fn ident_back(b: &[u8], mut end: usize) -> Option<String> {
    while end > 0 && (b[end - 1] as char).is_whitespace() {
        end -= 1;
    }
    let start = ident_start(b, end);
    if start == end {
        return None;
    }
    let name = std::str::from_utf8(&b[start..end]).ok()?.to_string();
    if name == "self" || name.as_bytes()[0].is_ascii_digit() {
        return None;
    }
    Some(name)
}

fn map_iter(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let names = hash_typed_names(&f.blanked);
    for name in &names {
        let mut at = 0;
        while let Some(pos) = find_word(&f.blanked, name, at) {
            at = pos + name.len();
            if scan::in_spans(&f.test_spans, pos) {
                continue;
            }
            // `name.iter()`-style observation in internal order (leading
            // whitespace tolerated so multi-line method chains don't hide).
            let rest = f.blanked[pos + name.len()..].trim_start();
            if let Some(m) = rest.strip_prefix('.') {
                let method: String = m.chars().take_while(|c| is_ident_byte(*c as u8)).collect();
                if m[method.len()..].starts_with('(') && ITER_METHODS.contains(&method.as_str()) {
                    push(
                        out,
                        f,
                        Lint::MapIter,
                        pos,
                        format!(
                            "unordered `.{method}()` over hash container `{name}` in a \
                             deterministic path; route through `kmachine::det` \
                             (sorted_entries / into_sorted_entries / sorted_members / max_value)"
                        ),
                    );
                }
            }
            // `for x in [&[mut ]]name {` — IntoIterator in internal order.
            if is_for_in_target(&f.blanked, pos, name.len()) {
                push(
                    out,
                    f,
                    Lint::MapIter,
                    pos,
                    format!(
                        "`for .. in` over hash container `{name}` iterates in internal \
                         hash order; route through `kmachine::det`"
                    ),
                );
            }
        }
    }
}

/// Is the occurrence of a name at `pos` the target of a `for .. in` header
/// whose loop body starts right after it?
fn is_for_in_target(blanked: &str, pos: usize, name_len: usize) -> bool {
    let line_start = blanked[..pos].rfind('\n').map_or(0, |p| p + 1);
    let before = &blanked[line_start..pos];
    let Some(fp) = find_word(before, "for", 0) else {
        return false;
    };
    let Some(ip) = before[fp..].rfind(" in ") else {
        return false;
    };
    // Between ` in ` and the name: only borrow sigils / `mut` / spaces.
    let between = before[fp + ip + 4..].trim();
    let between = between
        .trim_start_matches('&')
        .trim_start_matches("mut")
        .trim();
    if !between.is_empty() {
        return false;
    }
    // After the name: the loop body brace (method calls are handled by the
    // `.iter()` check above).
    blanked[pos + name_len..].trim_start().starts_with('{')
}

// ---------------------------------------------------------------- KC02 --

fn wall_clock(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for needle in CLOCK_NEEDLES {
        let mut at = 0;
        while let Some(rel) = f.blanked[at..].find(needle) {
            let pos = at + rel;
            at = pos + needle.len();
            let b = f.blanked.as_bytes();
            if pos > 0 && is_ident_byte(b[pos - 1]) {
                continue;
            }
            if scan::in_spans(&f.test_spans, pos) {
                continue;
            }
            push(
                out,
                f,
                Lint::WallClock,
                pos,
                format!(
                    "`{}` in a deterministic path: wall-clock and ambient RNG are \
                     only allowed in report fields / physical deadlines (allowlist \
                     with a justification if this is one)",
                    needle.trim_end_matches('(')
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- KC05 --

fn panic_calls(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for needle in PANIC_NEEDLES {
        let mut at = 0;
        while let Some(rel) = f.blanked[at..].find(needle) {
            let pos = at + rel;
            at = pos + needle.len();
            if scan::in_spans(&f.test_spans, pos) {
                continue;
            }
            push(
                out,
                f,
                Lint::PanicHygiene,
                pos,
                format!(
                    "`{needle}..` on a transport/window-protocol path: a panic here \
                     becomes a worker respawn+replay billed to `machine_crashes`; \
                     handle the None/Err case explicitly",
                ),
            );
        }
    }
}

fn slice_indexing(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let b = f.blanked.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'[' || i == 0 {
            continue;
        }
        let prev = b[i - 1];
        // Indexing expressions: `expr[` where expr ends in an identifier or
        // a closing `)` / `]`. Everything else (`&[`, `#[`, `vec![`, array
        // types/literals after `:=(,<`) is not an index.
        let is_index = if is_ident_byte(prev) {
            // Exclude lifetimes: `&'a [T]` written without a space.
            let start = ident_start(b, i);
            !(start > 0 && b[start - 1] == b'\'')
        } else {
            prev == b')' || prev == b']'
        };
        if !is_index || scan::in_spans(&f.test_spans, i) {
            continue;
        }
        push(
            out,
            f,
            Lint::PanicHygiene,
            i,
            "slice/array indexing on a frame-handling path can panic on malformed \
             input; use `get`/`split_first`/pattern matching (allowlist with a \
             justification if the bound is structural)"
                .to_string(),
        );
    }
}

// ---------------------------------------------------------------- KC06 --

fn print_macros(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for needle in PRINT_NEEDLES {
        let mut at = 0;
        while let Some(rel) = f.blanked[at..].find(needle) {
            let pos = at + rel;
            at = pos + needle.len();
            let b = f.blanked.as_bytes();
            // `eprintln!` contains `println!` and `print!`; only the match
            // starting at the macro name itself counts.
            if pos > 0 && is_ident_byte(b[pos - 1]) {
                continue;
            }
            if scan::in_spans(&f.test_spans, pos) {
                continue;
            }
            push(
                out,
                f,
                Lint::AdHocPrint,
                pos,
                format!(
                    "`{needle}` in a library crate: diagnostics route through the \
                     structured `kmachine::trace` event stream (DESIGN.md §3.14); \
                     CLI front ends and sinks are allowlisted with a justification"
                ),
            );
        }
    }
}
