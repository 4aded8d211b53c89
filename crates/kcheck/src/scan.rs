//! Lexical groundwork: source *blanking* and span utilities.
//!
//! The pass is dependency-free (no `syn` in an offline workspace), so every
//! lint works on a *blanked* copy of the source: comments (line, nested
//! block, doc), string literals (plain, raw, byte), and char literals are
//! replaced character-for-character with spaces, newlines preserved. On the
//! blanked text, naive substring and brace matching become sound: a `{` is
//! a real brace, `.unwrap()` inside a doc-comment example no longer exists,
//! and `"HashMap"` in a log message cannot trip the determinism lint.
//! Diagnostics still quote the *original* line, so what the user sees (and
//! what `kcheck.allow` needles match against) is real code.

/// Blank comments and literal contents from `src`.
///
/// The output has exactly the same length and line structure as the input;
/// every character belonging to a comment, or to the interior of a string /
/// char literal, becomes a space (newlines are kept so line numbers agree).
/// The delimiting quotes of string/char literals are kept, which keeps
/// patterns like `.expect(` recognizable as `.expect("` in the original.
pub fn blank(src: &str) -> String {
    let b = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        // Line comment (covers `//`, `///`, `//!`).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                out.push(b' ');
                i += 1;
            }
            continue;
        }
        // Block comment, nested.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1usize;
            out.push(b' ');
            out.push(b' ');
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else {
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            continue;
        }
        // Raw string: r"..." / r#"..."# / br#"..."# (any hash count).
        if c == b'r' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'r') {
            let start = if c == b'b' { i + 1 } else { i };
            let mut j = start + 1;
            let mut hashes = 0usize;
            while j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            let is_raw = j < b.len() && b[j] == b'"' && !prev_is_ident(b, i);
            if is_raw {
                // Emit the prefix (`r`, optional `b`, hashes, opening quote).
                out.extend(std::iter::repeat_n(b'"', j + 1 - i));
                i = j + 1;
                // Blank until closing quote followed by `hashes` hashes.
                loop {
                    if i >= b.len() {
                        break;
                    }
                    if b[i] == b'"' {
                        let mut h = 0usize;
                        while i + 1 + h < b.len() && b[i + 1 + h] == b'#' && h < hashes {
                            h += 1;
                        }
                        if h == hashes {
                            out.extend(std::iter::repeat_n(b'"', hashes + 1));
                            i += 1 + hashes;
                            break;
                        }
                    }
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
                continue;
            }
        }
        // Plain / byte string.
        if c == b'"' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'"' && !prev_is_ident(b, i)) {
            if c == b'b' {
                out.push(b'"');
                i += 1;
            }
            out.push(b'"');
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    out.push(b' ');
                    out.push(if b[i + 1] == b'\n' { b'\n' } else { b' ' });
                    i += 2;
                    continue;
                }
                if b[i] == b'"' {
                    out.push(b'"');
                    i += 1;
                    break;
                }
                out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime. A literal is `'` followed by an escape,
        // or by one char and a closing `'` (`b'x'` handled via the plain
        // path since `b` is pushed through as an ident char otherwise).
        if c == b'\'' {
            let is_char_lit = i + 1 < b.len()
                && (b[i + 1] == b'\\'
                    || (i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\''));
            if is_char_lit {
                out.push(b'\'');
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                        continue;
                    }
                    if b[i] == b'\'' {
                        out.push(b'\'');
                        i += 1;
                        break;
                    }
                    out.push(b' ');
                    i += 1;
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    // Blanking only ever substitutes ASCII for ASCII, so the output is as
    // valid UTF-8 as the input was.
    String::from_utf8(out).unwrap_or_default()
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && is_ident_byte(b[i - 1])
}

/// Is `c` a character that can appear in a Rust identifier?
pub fn is_ident_byte(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Byte offset → 1-based line number.
pub fn line_of(src: &str, offset: usize) -> usize {
    src.as_bytes()[..offset.min(src.len())]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

/// The full original text of the 1-based line `line`.
pub fn line_text(src: &str, line: usize) -> &str {
    src.lines().nth(line.saturating_sub(1)).unwrap_or("")
}

/// Find `needle` in `hay[from..]` at an identifier boundary on both sides
/// (the char before and after the match, if any, is not an ident char).
pub fn find_word(hay: &str, needle: &str, from: usize) -> Option<usize> {
    let hb = hay.as_bytes();
    let mut at = from;
    while let Some(rel) = hay.get(at..)?.find(needle) {
        let pos = at + rel;
        let ok_before = pos == 0 || !is_ident_byte(hb[pos - 1]);
        let end = pos + needle.len();
        let ok_after = end >= hb.len() || !is_ident_byte(hb[end]);
        if ok_before && ok_after {
            return Some(pos);
        }
        at = pos + 1;
    }
    None
}

/// Given the offset of a `{` in blanked text, the offset one past its
/// matching `}` (or `len` if unbalanced).
pub fn match_brace(blanked: &str, open: usize) -> usize {
    let b = blanked.as_bytes();
    debug_assert_eq!(b.get(open), Some(&b'{'));
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// Byte spans of test-gated items (their `#[cfg(..)]` attribute through
/// the closing brace of the following braced item). Lints skip hits
/// inside. Matches any cfg attribute whose predicate names `test` as a
/// word — `#[cfg(test)]`, but also composites like
/// `#[cfg(all(test, not(miri)))]`. String contents are already blanked,
/// so a feature name containing "test" cannot match.
pub fn test_spans(blanked: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut at = 0;
    while let Some(pos) = next_test_cfg(blanked, at) {
        let after = blanked[pos..]
            .find(']')
            .map_or(blanked.len(), |r| pos + r + 1);
        match blanked[after..].find('{') {
            Some(brel) => {
                let open = after + brel;
                let end = match_brace(blanked, open);
                spans.push((pos, end));
                at = end;
            }
            None => {
                spans.push((pos, blanked.len()));
                break;
            }
        }
    }
    spans
}

/// Offset of the next `#[cfg(...)]` at or after `at` whose predicate
/// (the text up to the attribute's closing `]`) contains `test` as a
/// word, or `None`.
fn next_test_cfg(blanked: &str, mut at: usize) -> Option<usize> {
    while let Some(rel) = blanked.get(at..)?.find("#[cfg(") {
        let pos = at + rel;
        let pred_start = pos + "#[cfg(".len();
        let pred_end = blanked[pred_start..]
            .find(']')
            .map_or(blanked.len(), |r| pred_start + r);
        let pred = &blanked[pred_start..pred_end];
        let mut from = 0;
        while let Some(w) = find_word(pred, "test", from) {
            // A negated atom (`not(test)`) gates *live* code — skip it.
            if !pred[..w].trim_end().ends_with("not(") {
                return Some(pos);
            }
            from = w + 1;
        }
        at = pred_end.max(pos + 1);
    }
    None
}

/// Is `offset` inside any of `spans`?
pub fn in_spans(spans: &[(usize, usize)], offset: usize) -> bool {
    spans.iter().any(|&(s, e)| offset >= s && offset < e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanking_preserves_length_and_lines() {
        let src = "let s = \"Hash//Map {\"; // trailing { comment\nlet c = '{';\n/* multi\nline */ let x = 1;\n";
        let out = blank(src);
        assert_eq!(out.len(), src.len());
        assert_eq!(out.matches('\n').count(), src.matches('\n').count());
        assert!(!out.contains("HashMap"));
        assert!(!out.contains("comment"));
        // The only remaining brace-ish chars are real code (none here).
        assert!(!out.contains('{'));
    }

    #[test]
    fn raw_strings_and_lifetimes_survive() {
        let src = "fn f<'a>(x: &'a str) -> usize { r#\"un } wrap\"#.len() }";
        let out = blank(src);
        assert!(out.contains("fn f<'a>(x: &'a str)"));
        assert!(!out.contains("wrap"));
        let open = out.find('{').unwrap();
        assert_eq!(match_brace(&out, open), out.len());
    }

    #[test]
    fn doc_comment_code_is_invisible() {
        let src = "/// `map.iter()` then `.unwrap()`\nfn g() {}\n";
        let out = blank(src);
        assert!(!out.contains("unwrap"));
        assert!(out.contains("fn g()"));
    }

    #[test]
    fn test_spans_cover_test_mods() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        let out = blank(src);
        let spans = test_spans(&out);
        assert_eq!(spans.len(), 1);
        let live = out.find("x.unwrap").unwrap();
        let test = out.find("y.unwrap").unwrap();
        assert!(!in_spans(&spans, live));
        assert!(in_spans(&spans, test));
    }

    #[test]
    fn test_spans_cover_composite_cfgs_but_not_negations() {
        let src = "#[cfg(all(test, not(miri)))]\nmod conf { fn t() { a.unwrap(); } }\n\
                   #[cfg(not(test))]\nmod live { fn l() { b.unwrap(); } }\n\
                   #[cfg(feature = \"proc-tests\")]\nmod feat { fn f() { c.unwrap(); } }\n";
        let out = blank(src);
        let spans = test_spans(&out);
        assert_eq!(spans.len(), 1, "only the all(test, ..) item is a test span");
        assert!(in_spans(&spans, out.find("a.unwrap").unwrap()));
        assert!(!in_spans(&spans, out.find("b.unwrap").unwrap()));
        assert!(!in_spans(&spans, out.find("c.unwrap").unwrap()));
    }

    #[test]
    fn find_word_respects_boundaries() {
        let hay = "FloodLabels Flag Flagged";
        assert_eq!(find_word(hay, "Flag", 0), Some(12));
        assert_eq!(find_word(hay, "Flagged", 0), Some(17));
        assert_eq!(find_word(hay, "Flo", 0), None);
    }
}
