//! Lint scopes: which files each invariant governs.
//!
//! Scopes are workspace-relative, `/`-separated path *prefixes* (a full
//! file path is also a valid prefix); an entry that matches no scanned
//! file is reported as stale. The walker already excludes
//! `target/`, `vendor/`, `.git/` and any `tests/`, `benches/`, `examples/`
//! or `fixtures/` directory, so scopes here only carve up live library and
//! binary code.

/// Full lint configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// KC01/KC02 scope: message-producing and accounting paths.
    pub det_scope: Vec<String>,
    /// Files exempt from KC01 (the sanctioned sorted-iteration helpers —
    /// they necessarily iterate the containers they canonicalize).
    pub det_exempt: Vec<String>,
    /// KC05 unwrap/expect scope: transport worker + window-protocol paths.
    pub unwrap_scope: Vec<String>,
    /// KC05 slice-indexing scope (tighter: the frame/wire handling file).
    pub index_scope: Vec<String>,
    /// KC06 scope: library code, where ad-hoc `println!`-family macros are
    /// banned in favour of `kmachine::trace` (the CLI binary is outside it).
    pub print_scope: Vec<String>,
}

fn owned(v: &[&str]) -> Vec<String> {
    v.iter().map(std::string::ToString::to_string).collect()
}

impl Config {
    /// The live workspace configuration (see DESIGN.md §3.13 for the
    /// rationale behind each scope line).
    pub fn workspace() -> Config {
        Config {
            det_scope: owned(&[
                "crates/core/src",
                "crates/kmachine/src",
                "crates/kgraph/src",
                "crates/ksketch/src",
                "crates/krand/src",
                "src/repro.rs",
            ]),
            det_exempt: owned(&["crates/kmachine/src/det.rs"]),
            unwrap_scope: owned(&[
                "crates/kmachine/src/transport.rs",
                "crates/kmachine/src/bsp.rs",
                "crates/kmachine/src/par.rs",
            ]),
            index_scope: owned(&["crates/kmachine/src/transport.rs"]),
            print_scope: owned(&[
                "crates/core/src",
                "crates/kmachine/src",
                "crates/kgraph/src",
                "crates/ksketch/src",
                "crates/krand/src",
                "crates/kcheck/src",
                "src/repro.rs",
            ]),
        }
    }

    /// Does `path` fall under any prefix in `scope`?
    pub fn in_scope(scope: &[String], path: &str) -> bool {
        scope.iter().any(|p| {
            path == p
                || (path.starts_with(p.as_str()) && path.as_bytes().get(p.len()) == Some(&b'/'))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matching_is_component_wise() {
        let scope = vec!["crates/core/src".to_string()];
        assert!(Config::in_scope(&scope, "crates/core/src/engine.rs"));
        assert!(Config::in_scope(&scope, "crates/core/src"));
        assert!(!Config::in_scope(&scope, "crates/core/srcish/x.rs"));
        assert!(!Config::in_scope(&scope, "crates/kcheck/src/lib.rs"));
        // A full file path is a scope too: the claims table is linted, the
        // CLI that prints it is not.
        let ws = Config::workspace();
        for scope in [&ws.det_scope, &ws.print_scope] {
            assert!(Config::in_scope(scope, "src/repro.rs"));
            assert!(!Config::in_scope(scope, "src/bin/kmm.rs"));
        }
    }
}
