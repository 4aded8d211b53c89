//! The claims table (`kmm::repro`, DESIGN.md §4) is pinned three ways:
//! its `--quick` output byte for byte against a committed fixture, its id
//! list against the experiment numbering and DESIGN.md's knob table, and
//! its expectation evaluator against synthetic cells it must reject.
//!
//! Regenerate the fixture with
//! `cargo run --release --bin kmm -- repro --quick > tests/fixtures/repro_quick.txt`.

use kmm::repro::{self, Cell, Expect, Row};

const FIXTURE: &str = include_str!("fixtures/repro_quick.txt");

#[test]
fn quick_table_matches_the_fixture_byte_for_byte() {
    let (text, pass) = repro::run(&[], true).expect("no id named, none unknown");
    assert!(pass, "an expectation is violated:\n{text}");
    if text != FIXTURE {
        let at = text.lines().zip(FIXTURE.lines()).position(|(a, b)| a != b);
        let line = at.unwrap_or_else(|| text.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "`kmm repro --quick` no longer prints tests/fixtures/repro_quick.txt; first \
             difference at line {}:\n  now:     {:?}\n  fixture: {:?}\nIf the move is intended, \
             regenerate the fixture (see this file's header) and review its diff.",
            line + 1,
            text.lines().nth(line),
            FIXTURE.lines().nth(line),
        );
    }
}

#[test]
fn ids_are_the_experiment_numbering_and_cover_the_knob_table() {
    let ids = repro::ids();
    let numbering: Vec<String> = (1..=23)
        .filter(|&i| i != 14)
        .map(|i| format!("E{i}"))
        .collect();
    assert_eq!(ids, numbering, "E1–E13 and E15–E23, in order");
    let shared: Vec<&str> = FIXTURE
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|l| l.split(" — ").next())
        .filter(|id| id.contains('/'))
        .collect();
    assert_eq!(shared, ["E5/E6"], "only E5 and E6 share a row");
    // Every experiment DESIGN.md §3.15 cites as a knob's exerciser exists.
    let design = include_str!("../DESIGN.md");
    let start = design.find("### §3.15").expect("DESIGN.md has §3.15");
    let section = &design[start..start + design[start..].find("\n## §4").expect("§4 follows")];
    let cited: Vec<&str> = section
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| w.len() > 1 && w.starts_with('E') && w[1..].bytes().all(|b| b.is_ascii_digit()))
        .collect();
    assert!(cited.len() >= 7, "§3.15 cites experiment ids: {cited:?}");
    for id in cited {
        assert!(
            ids.contains(&id),
            "DESIGN.md §3.15 cites {id}, which `kmm repro` does not run"
        );
    }
}

/// A row over fixed cells: `y` falls as `x^-0.9`, and one flag is false.
fn synthetic(expect: &'static [Expect]) -> Row {
    fn cells(_quick: bool) -> (String, Vec<Cell>) {
        let cell = |x: u64, flag| {
            let y = (1e6 * (x as f64).powf(-0.9)) as u64;
            Cell::new(format!("x={x}"))
                .int("x", x)
                .int("y", y)
                .flag("fine", flag)
        };
        (
            "synthetic".into(),
            vec![cell(4, true), cell(8, false), cell(16, true)],
        )
    }
    Row {
        ids: &["T1"],
        claim: "a synthetic row",
        measure: cells,
        expect,
    }
}

#[test]
fn the_evaluator_rejects_what_it_must_and_names_row_cell_and_column() {
    use Expect::{All, Bound, Cmp, Decreasing, Full, On, Quick, Slope, Steepens};
    let fails = |expect: &'static [Expect], needles: &[&str]| {
        let (text, pass) = synthetic(expect).report(true);
        assert!(!pass, "{expect:?} must fail:\n{text}");
        for needle in needles {
            assert!(
                text.contains(needle),
                "failure must mention {needle:?}:\n{text}"
            );
        }
    };
    // A slope of −0.9 is not ≤ −1.1; a `false` fails `all`.
    fails(
        &[Slope("y", "x", "≤", -1.1)],
        &["- FAIL", "T1 / x=4 .. x=16 / y", "-0.90"],
    );
    fails(&[All("fine")], &["T1 / x=8 / fine: false"]);
    fails(&[Bound("y", "<", 100.0)], &["T1 / x=4 / y"]);
    fails(&[Cmp("y", "<", "x")], &["T1 / x=4 / y"]);
    fails(&[Decreasing("x")], &["T1 / x=8 / x"]);
    // Nothing passes vacuously: no matching cell, too few points for a
    // slope, a single series, a column that does not exist.
    fails(&[On("x=32", &All("fine"))], &["no cell to check"]);
    fails(
        &[On("x=4", &Slope("y", "x", "≤", 0.0))],
        &["needs three cells"],
    );
    fails(&[Steepens("y", "x")], &["two series"]);
    fails(&[All("missing")], &["T1 / x=4 / missing: no such column"]);
    let (text, pass) = Row {
        measure: |_| ("none".into(), Vec::new()),
        ..synthetic(&[])
    }
    .report(true);
    assert!(!pass && text.contains("measured no cells"), "{text}");
    // What holds, passes — and a scoped expectation applies at its scale only.
    let holds: &[Expect] = &[
        Slope("y", "x", "≤", -0.85),
        Slope("y", "x", "≥", -0.95),
        Decreasing("y"),
        On("x=4", &All("fine")),
        Full(&All("fine")),
        Quick(&Cmp("x", "<", "y")),
    ];
    let (text, pass) = synthetic(holds).report(true);
    assert!(
        pass && text.contains("- ok   slope(y ~ x) ≤ -0.85: -0.90"),
        "{text}"
    );
    assert!(
        !synthetic(holds).report(false).1,
        "the full-only expectation fails at full scale"
    );
}
