//! `kmm repro`: the paper's claims as one pinned table (DESIGN.md §4).
//!
//! Every row of the `ROWS` table is a claim of the paper (or of this
//! reproduction's own subsystems): an id, the claim in one sentence, a
//! function from scale (`quick` or full) to measured [`Cell`]s, and the
//! declared [`Expect`]ations the cells must meet. A cell is a label plus
//! one ordered list of named columns, and [`Row::report`] generates the
//! markdown table, the fitted log-log slopes and the pass / fail verdict
//! from that one list. `rounds` and `total_bits` are deterministic in the
//! seed and nothing here reads a clock, so the `--quick` output is
//! byte-stable: `tests/fixtures/repro_quick.txt` is that output, compared
//! byte for byte by `tests/repro.rs`, and regenerated with
//! `kmm repro --quick > tests/fixtures/repro_quick.txt`.
//!
//! Expectations are written from what this tree measures, not from the
//! asymptote: where a row's honest bound is weaker than the paper's
//! sentence, its claim says so. Wall-clock lives in `bench/`.

use kconn::baselines::edge_boruvka::CheckMode;
use kconn::dynamic::{DynConfig, DynamicCluster, RefreshKind, UpdateBatch, UpdateOp};
use kconn::engine::MergeStrategy;
use kconn::lowerbound::{simulate_scs_two_party, DisjointnessInstance};
use kconn::session::{
    Cluster, Connectivity, EdgeBoruvka, Flooding, MinCut, Mst, Problem, Referee, RepMst, Run,
    RunReport, SpanningForest,
};
use kconn::{verify, ConnectivityConfig, ConnectivityOutput, MstConfig, OutputCriterion};
use kgraph::{generators, mincut, refalgo, Graph};
use kmachine::fault::FaultPlan;
use kmachine::message::Encoding;
use kmachine::trace::{TraceEvent, Tracer};
use kmachine::{CommStats, CostModel};
use krand::prf::Prf;
use rustc_hash::FxHashSet;
use std::sync::OnceLock;

// ---------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------

/// One measured configuration of a row: a label plus its named columns in
/// print order. A column keeps its printed text — integers exact, ratios
/// to two decimals, flags as `true` / `false` — beside the number the
/// expectations compare.
#[derive(Clone, Debug, Default)]
pub struct Cell {
    /// The sweep the cell belongs to (slopes are fitted per series); empty
    /// when the row is one sweep.
    pub series: String,
    /// The cell's name in tables and failure messages.
    pub label: String,
    /// `(name, printed text, numeric value)` per column.
    pub cols: Vec<(&'static str, String, f64)>,
}

impl Cell {
    /// A cell with no columns yet, in the unnamed series.
    pub fn new(label: impl Into<String>) -> Cell {
        let label = label.into();
        Cell {
            label,
            ..Cell::default()
        }
    }

    /// Appends an exact model quantity: rounds, bits, a count, a parameter.
    pub fn int<T: TryInto<u64>>(mut self, name: &'static str, v: T) -> Cell {
        let v = v.try_into().ok().expect("column value fits u64");
        self.cols.push((name, v.to_string(), v as f64));
        self
    }

    /// Appends a quotient of two such quantities.
    pub fn ratio(mut self, name: &'static str, v: f64) -> Cell {
        self.cols.push((name, format!("{v:.2}"), v));
        self
    }

    /// Appends a yes / no fact about the run (answers identical, weight
    /// optimal); it compares as 1 / 0.
    pub fn flag(mut self, name: &'static str, v: bool) -> Cell {
        self.cols
            .push((name, v.to_string(), f64::from(u8::from(v))));
        self
    }

    fn get(&self, row: &str, col: &str) -> Result<f64, String> {
        let found = self.cols.iter().find(|(name, ..)| *name == col);
        let missing = || format!("{row} / {} / {col}: no such column", self.label);
        found.map(|(.., v)| *v).ok_or_else(missing)
    }
}

// ---------------------------------------------------------------------
// Expectations
// ---------------------------------------------------------------------

/// One declared expectation of a [`Row`]. Comparisons carry their operator
/// as text (`<`, `≤`, `=`, `≥`, `>`). An expectation left with no cell to
/// check fails: none can pass vacuously.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// `Slope(y, x, op, s)`: the least-squares slope of `ln y` against
    /// `ln x`, fitted per series over at least three cells, is `op s`.
    Slope(&'static str, &'static str, &'static str, f64),
    /// `Steepens(y, x)`: that slope strictly decreases series to series.
    Steepens(&'static str, &'static str),
    /// The column strictly decreases from cell to cell within a series.
    Decreasing(&'static str),
    /// `Cmp(a, op, b)`: column `a op` column `b` in every cell.
    Cmp(&'static str, &'static str, &'static str),
    /// `Bound(col, op, value)` in every cell.
    Bound(&'static str, &'static str, f64),
    /// The flag column holds in every cell.
    All(&'static str),
    /// The inner expectation over the cells whose label contains the text.
    On(&'static str, &'static Expect),
    /// The inner expectation, in `--quick` runs only.
    Quick(&'static Expect),
    /// The inner expectation, in full runs only.
    Full(&'static Expect),
}
use Expect::{All, Bound, Cmp, Decreasing, Full, On, Quick, Slope, Steepens};

fn holds(op: &str, a: f64, b: f64) -> bool {
    match op {
        "<" => a < b,
        "≤" => a <= b,
        "=" => a == b,
        "≥" => a >= b,
        ">" => a > b,
        _ => panic!("unknown comparison operator `{op}`"),
    }
}

impl Expect {
    /// `None` when the expectation does not apply at this scale. Otherwise
    /// `Ok` carries what to print after a pass (the fitted slopes) and
    /// `Err` names row, cell and column of the first violation.
    fn eval(&self, row: &str, quick: bool, cells: &[&Cell]) -> Option<Result<String, String>> {
        match *self {
            Quick(e) if quick => e.eval(row, quick, cells),
            Full(e) if !quick => e.eval(row, quick, cells),
            Quick(_) | Full(_) => None,
            On(text, e) => {
                let matching = cells.iter().filter(|c| c.label.contains(text));
                e.eval(row, quick, &matching.copied().collect::<Vec<_>>())
            }
            _ => Some(self.check(row, cells)),
        }
    }

    fn check(&self, row: &str, cells: &[&Cell]) -> Result<String, String> {
        if cells.is_empty() {
            return Err(format!("{row}: no cell to check"));
        }
        let fail =
            |cell: String, col: &str, why: String| Err(format!("{row} / {cell} / {col}: {why}"));
        // Maximal runs of consecutive cells sharing a series, and how a
        // failure names such a run: first and last label.
        let series: Vec<&[&Cell]> = cells.chunk_by(|a, b| a.series == b.series).collect();
        let span = |s: &[&Cell]| format!("{} .. {}", s[0].label, s[s.len() - 1].label);
        let slopes = |y, x| -> Result<Vec<f64>, String> {
            series
                .iter()
                .map(|s| slope(row, &span(s), s, y, x))
                .collect()
        };
        let shown = |fits: &[f64]| {
            let named = fits.iter().zip(&series).map(|(fit, s)| {
                let sep = if s[0].series.is_empty() { "" } else { " " };
                format!("{}{sep}{fit:.2}", s[0].series)
            });
            format!(": {}", named.collect::<Vec<_>>().join(", "))
        };
        match *self {
            Slope(y, x, op, want) => {
                let fits = slopes(y, x)?;
                for (fit, s) in fits.iter().zip(&series) {
                    if !holds(op, *fit, want) {
                        return fail(
                            span(s),
                            y,
                            format!("slope({y} ~ {x}) = {fit:.2}, not {op} {want:.2}"),
                        );
                    }
                }
                Ok(shown(&fits))
            }
            Steepens(y, x) => {
                let fits = slopes(y, x)?;
                if fits.len() < 2 {
                    return Err(format!("{row}: {self} needs at least two series"));
                }
                for (w, s) in fits.windows(2).zip(&series[1..]) {
                    if w[1] >= w[0] {
                        let why =
                            format!("slope({y} ~ {x}) = {:.2} is not below {:.2}", w[1], w[0]);
                        return fail(span(s), y, why);
                    }
                }
                Ok(shown(&fits))
            }
            Decreasing(col) => {
                for s in &series {
                    if s.len() < 2 {
                        return fail(span(s), col, "needs two cells".into());
                    }
                    for w in s.windows(2) {
                        let (a, b) = (w[0].get(row, col)?, w[1].get(row, col)?);
                        if b >= a {
                            return fail(w[1].label.clone(), col, format!("{b} is not below {a}"));
                        }
                    }
                }
                Ok(String::new())
            }
            Cmp(a, op, b) => {
                for c in cells {
                    let (va, vb) = (c.get(row, a)?, c.get(row, b)?);
                    if !holds(op, va, vb) {
                        return fail(c.label.clone(), a, format!("{va} is not {op} {b} = {vb}"));
                    }
                }
                Ok(String::new())
            }
            Bound(col, op, value) => {
                for c in cells {
                    let v = c.get(row, col)?;
                    if !holds(op, v, value) {
                        return fail(c.label.clone(), col, format!("{v:.2} is not {op} {value}"));
                    }
                }
                Ok(String::new())
            }
            All(col) => {
                for c in cells {
                    if c.get(row, col)? != 1.0 {
                        return fail(c.label.clone(), col, "false".into());
                    }
                }
                Ok(String::new())
            }
            On(..) | Quick(_) | Full(_) => unreachable!("eval unwraps the scoped forms"),
        }
    }
}

impl std::fmt::Display for Expect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Slope(y, x, op, want) => write!(f, "slope({y} ~ {x}) {op} {want:.2}"),
            Steepens(y, x) => write!(f, "slope({y} ~ {x}) steepens from series to series"),
            Decreasing(col) => write!(f, "{col} strictly decreasing"),
            Cmp(a, op, b) => write!(f, "{a} {op} {b}"),
            Bound(col, op, value) => write!(f, "{col} {op} {value}"),
            All(col) => write!(f, "all({col})"),
            On(text, e) => write!(f, "{e} on `{text}`"),
            Quick(e) | Full(e) => write!(f, "{e}"),
        }
    }
}

/// Least-squares slope of `ln y` against `ln x` over one series. Fewer
/// than three points is an error (two fit any exponent exactly), and so
/// is a non-positive value.
fn slope(row: &str, span: &str, cells: &[&Cell], y: &str, x: &str) -> Result<f64, String> {
    if cells.len() < 3 {
        let got = cells.len();
        return Err(format!(
            "{row} / {span} / {y}: a slope needs three cells, got {got}"
        ));
    }
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for c in cells {
        let (vx, vy) = (c.get(row, x)?, c.get(row, y)?);
        if vx <= 0.0 || vy <= 0.0 {
            return Err(format!(
                "{row} / {} / {y}: a log-log fit needs positive values",
                c.label
            ));
        }
        let (lx, ly) = (vx.ln(), vy.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    let n = cells.len() as f64;
    Ok((n * sxy - sx * sy) / (n * sxx - sx * sx))
}

// ---------------------------------------------------------------------
// Rows and the renderer
// ---------------------------------------------------------------------

/// One row of the claims table.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// The experiment ids the row answers to (`E5` and `E6` share one).
    pub ids: &'static [&'static str],
    /// The claim in one sentence.
    pub claim: &'static str,
    /// Runs the row at `quick` or full scale: the workload (generator,
    /// sizes, seeds) for the header, and the measured cells.
    pub measure: fn(quick: bool) -> (String, Vec<Cell>),
    /// What the cells must satisfy.
    pub expect: &'static [Expect],
}

impl Row {
    /// Measures the row and renders its section — header, table, one line
    /// per expectation, verdict. The flag is `true` iff every expectation
    /// that applies at this scale holds.
    pub fn report(&self, quick: bool) -> (String, bool) {
        let id = self.ids.join("/");
        let (workload, cells) = (self.measure)(quick);
        let mut out = format!("## {id} — {}\n\nworkload: {workload}\n\n", self.claim);
        out.push_str(&table(&cells));
        out.push('\n');
        let cells: Vec<&Cell> = cells.iter().collect();
        let mut pass = !cells.is_empty();
        if cells.is_empty() {
            out.push_str("- FAIL the row measured no cells\n");
        }
        for e in self.expect {
            match e.eval(&id, quick, &cells) {
                None => {}
                Some(Ok(detail)) => out.push_str(&format!("- ok   {e}{detail}\n")),
                Some(Err(why)) => {
                    pass = false;
                    out.push_str(&format!("- FAIL {e}: {why}\n"));
                }
            }
        }
        out.push_str(if pass {
            "\nverdict: pass\n\n"
        } else {
            "\nverdict: FAIL\n\n"
        });
        (out, pass)
    }
}

/// Right-aligned markdown table: one line per cell, one column per name in
/// the first cell's order (a later cell's missing column prints empty).
fn table(cells: &[Cell]) -> String {
    let Some(first) = cells.first() else {
        return String::new();
    };
    let mut lines = vec![vec!["cell".to_string()]];
    lines[0].extend(first.cols.iter().map(|(name, ..)| (*name).to_string()));
    for c in cells {
        let mut line = vec![c.label.clone()];
        for (name, ..) in &first.cols {
            let found = c.cols.iter().find(|(n, ..)| n == name);
            line.push(found.map(|(_, text, _)| text.clone()).unwrap_or_default());
        }
        lines.push(line);
    }
    let width = |i: usize| {
        lines
            .iter()
            .map(|l| l[i].chars().count())
            .max()
            .unwrap_or(0)
    };
    let widths: Vec<usize> = (0..lines[0].len()).map(width).collect();
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        out.push('|');
        for (cell, w) in line.iter().zip(&widths) {
            out.push_str(&format!(" {cell:>w$} |"));
        }
        out.push('\n');
        if i == 0 {
            let rule = widths.iter().map(|w| format!("{}|", "-".repeat(w + 2)));
            out.push_str(&format!("|{}\n", rule.collect::<String>()));
        }
    }
    out
}

/// Every id [`run`] accepts, in table order.
pub fn ids() -> Vec<&'static str> {
    ROWS.iter().flat_map(|r| r.ids.iter().copied()).collect()
}

/// Runs the rows named by `ids` (the whole table when empty) at `quick`
/// or full scale, in table order: the rendered report, and whether every
/// expectation held. An unknown id is an error listing the valid ones.
pub fn run(ids: &[String], quick: bool) -> Result<(String, bool), String> {
    let valid = self::ids();
    if let Some(bad) = ids.iter().find(|id| !valid.contains(&id.as_str())) {
        let valid = valid.join(", ");
        return Err(format!(
            "unknown experiment id `{bad}` (valid ids: {valid})"
        ));
    }
    let wanted = |r: &&Row| ids.is_empty() || r.ids.iter().any(|id| ids.iter().any(|w| w == id));
    let rows: Vec<&Row> = ROWS.iter().filter(wanted).collect();
    // Rows are independent, so they are measured on as many threads as the
    // host has; the sections are joined in table order.
    let sections = kmachine::par::par_map_machines(rows.len(), |i| rows[i].report(quick));
    let scale = if quick { "quick" } else { "full" };
    let mut text = format!("# kmm repro — the paper's claims, measured ({scale} scale)\n\n");
    for (section, _) in &sections {
        text.push_str(section);
    }
    let failed = sections.iter().filter(|(_, pass)| !pass).count();
    text.push_str(&format!("{} row(s), {failed} failed\n", rows.len()));
    Ok((text, failed == 0))
}

// ---------------------------------------------------------------------
// Workloads: the three generators that are more than a `kgraph` call
// ---------------------------------------------------------------------

/// The adversarial fault plans of the chaos matrix (E22, `tests/chaos.rs`,
/// `tests/contraction.rs`), parameterized by the machine count so crash
/// events always name real machines.
pub fn chaos_plans(k: usize, seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let mut crash = FaultPlan::new(seed ^ 0xC4A5).with_drop(0.02);
    // Six crashes 20 supersteps apart, each on the next machine. They are
    // keyed by superstep index, not by phase, and a crash replays its
    // phase, so they spread over the run without one landing per phase:
    // E22's connectivity and spanning-forest runs roll back phases
    // 0, 2, 3, 4, 5, 7 at n = 1 200 and 0, 1, 3, 3, 4, 6 at n = 6 000.
    for j in 0..6u64 {
        crash = crash.with_crash((j as usize + 1) % k, 3 + 20 * j);
    }
    let drop_heavy = FaultPlan::new(seed ^ 0xD209).with_drop(0.25);
    let dup_reorder = FaultPlan::new(seed ^ 0xD0B0).with_dup(0.25);
    let dup_reorder = dup_reorder.with_reorder(0.5).with_delay(0.05);
    vec![
        ("drop-heavy", drop_heavy),
        ("dup-reorder", dup_reorder),
        ("one-crash-per-phase", crash),
    ]
}

/// One rung of the streamed ladder (E20, E23): a connected graph of
/// `n − 1 + extra` edges on `k` machines that only ever exists as a lazy
/// edge stream feeding per-machine shards.
#[derive(Clone, Copy, Debug)]
struct Rung {
    n: usize,
    extra: usize,
    k: usize,
    seed: u64,
}

impl Rung {
    fn m(&self) -> usize {
        self.n - 1 + self.extra
    }

    fn cluster(&self) -> Cluster {
        let stream = generators::random_connected_stream(self.n, self.extra, self.seed ^ 0x5CA1E);
        let builder = Cluster::builder(self.k).seed(self.seed);
        builder.ingest_stream(stream)
    }

    fn label(&self) -> String {
        let Rung { n, k, seed, .. } = self;
        format!("stream/n{n}/m{}/k{k}/seed{seed}", self.m())
    }
}

/// The streamed ladder. `quick` is the 50 k-vertex rung alone; the full
/// ladder climbs to 10⁶ vertices on 64 machines and ends on the 10⁶-edge
/// rung (half a million vertices, 64 shards).
fn ladder(quick: bool) -> Vec<Rung> {
    let rung = |n, extra, k, seed| Rung { n, extra, k, seed };
    let full = [
        rung(50_000, 75_000, 16, 3),
        rung(200_000, 300_000, 32, 5),
        rung(1_000_000, 1_000_000, 64, 7),
        rung(500_000, 500_001, 64, 11),
    ];
    full[..if quick { 1 } else { 4 }].to_vec()
}

/// One dynamic scenario (E21): a planted eight-component base graph (so
/// touched regions are genuinely smaller than the graph) plus a
/// deterministic update stream of `batches` × `batch_ops` ops.
#[derive(Clone, Debug)]
struct DynScenario {
    /// `profile/n…/k…/seed…`.
    id: String,
    n: usize,
    k: usize,
    seed: u64,
    /// The update mix: insertions out of 8 ops, in expectation. `None` is
    /// the reweight profile — every op deletes a live edge and re-inserts
    /// it at a fresh weight inside the same batch, so connectivity is
    /// untouched and only the MST churns.
    inserts_of_8: Option<u64>,
    batches: usize,
    batch_ops: usize,
}

/// One scenario per update profile — insert-heavy (components coalesce),
/// delete-heavy (they fragment), churn (the even mix) and reweight;
/// `quick` keeps the sizes inside the debug-build test budget.
fn dyn_family(quick: bool) -> Vec<DynScenario> {
    let (n, k, batches, batch_ops) = match quick {
        true => (1200, 8, 3, 12),
        false => (6000, 16, 4, 25),
    };
    let profiles = [
        ("insert-heavy", Some(7), 3),
        ("delete-heavy", Some(1), 5),
        ("churn", Some(4), 7),
        ("reweight", None, 9),
    ];
    let scenario = |(name, inserts_of_8, seed)| DynScenario {
        id: format!("{name}/n{n}/k{k}/seed{seed}"),
        n,
        k,
        seed,
        inserts_of_8,
        batches,
        batch_ops,
    };
    profiles.into_iter().map(scenario).collect()
}

impl DynScenario {
    /// The base graph (before any update).
    fn base(&self) -> Graph {
        generators::planted_components(self.n, 8, 3, self.seed ^ 0xD15C)
    }

    /// The deterministic update stream: every batch is valid when applied
    /// in sequence (the generator mirrors the evolving edge set), and ops
    /// are *localized* — each batch focuses on one component (with a dash
    /// of cross-component edges), the realistic churn shape that lets the
    /// incremental path re-solve a small region instead of the graph.
    fn trace(&self) -> Vec<UpdateBatch> {
        let prf = Prf::new(self.seed ^ 0x0DDBA11);
        let n = self.n as u64;
        let mut alive: Vec<(u32, u32)> = self.base().edges().iter().map(|e| (e.u, e.v)).collect();
        alive.sort_unstable();
        let mut present: FxHashSet<(u32, u32)> = alive.iter().copied().collect();
        let mut ctr = 0u64;
        let mut step = |m: u64| {
            ctr += 1;
            prf.eval_mod(0, ctr, m)
        };
        let mut out = Vec::with_capacity(self.batches);
        for _ in 0..self.batches {
            // Label the evolving graph and pick this batch's focus
            // component (prefer one with enough room to churn in).
            let cur = Graph::unweighted(self.n, alive.iter().copied());
            let comps = refalgo::connected_components(&cur);
            let mut focus = comps[step(n) as usize];
            for _ in 0..8 {
                if comps.iter().filter(|&&c| c == focus).count() >= 8 {
                    break;
                }
                focus = comps[step(n) as usize];
            }
            let in_focus = |v: u32| comps[v as usize] == focus;
            let members: Vec<u32> = (0..self.n as u32).filter(|&v| in_focus(v)).collect();
            // A live edge's index, inside the focus component if it has one.
            let pick_alive = |alive: &[(u32, u32)], step: &mut dyn FnMut(u64) -> u64| {
                let local: Vec<usize> =
                    (0..alive.len()).filter(|&i| in_focus(alive[i].0)).collect();
                if local.is_empty() {
                    step(alive.len() as u64) as usize
                } else {
                    local[step(local.len() as u64) as usize]
                }
            };
            let mut batch = UpdateBatch::new();
            for _ in 0..self.batch_ops {
                let Some(inserts_of_8) = self.inserts_of_8 else {
                    if !alive.is_empty() {
                        let (u, v) = alive[pick_alive(&alive, &mut step)];
                        batch.push(UpdateOp::Delete { u, v });
                        let w = 1 + step(1000);
                        batch.push(UpdateOp::Insert { u, v, w });
                    }
                    continue;
                };
                if step(8) < inserts_of_8 || alive.is_empty() {
                    // 3/4 of insertions stay inside the focus component;
                    // the rest bridge arbitrary pairs. Rejection-sample a
                    // non-edge with bounded tries (failure at these
                    // densities needs a near-clique focus).
                    let intra = step(4) < 3 && members.len() >= 2;
                    for _ in 0..64 {
                        let mut draw = || match intra {
                            true => members[step(members.len() as u64) as usize],
                            false => step(n) as u32,
                        };
                        let (a, b) = (draw(), draw());
                        let (u, v) = (a.min(b), a.max(b));
                        if u != v && present.insert((u, v)) {
                            alive.push((u, v));
                            let w = 1 + step(1000);
                            batch.push(UpdateOp::Insert { u, v, w });
                            break;
                        }
                    }
                } else {
                    let (u, v) = alive.swap_remove(pick_alive(&alive, &mut step));
                    present.remove(&(u, v));
                    batch.push(UpdateOp::Delete { u, v });
                }
            }
            out.push(batch);
        }
        out
    }
}

// ---------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------

/// The claims table, in report order. E14 was folded into E13's sweep and
/// E24 / E25 retired into `bench/`; the gaps are kept so ids stay stable.
const ROWS: &[Row] = &[
    Row {
        ids: &["E1"],
        claim: "Theorem 1: connectivity takes Õ(n/k²) rounds, so they tend to slope −2 in k. \
                With no part message dearer than one sketch, what k cannot shrink is the \
                additive polylog term — one round per superstep, plus ⌈S/B⌉ when a late giant \
                component's k−1 sketches converge on one proxy: raw rounds fall strictly (slope \
                ≤ −0.9 at quick scale; −0.78 with two flag-only supersteps per vote), per-link \
                traffic at slope −1.75 or below, and rounds net of the per-superstep floor \
                superlinearly, steepening with n.",
        measure: e1,
        expect: &[
            All("correct"),
            Decreasing("rounds"),
            Quick(&Slope("rounds", "k", "≤", -0.9)),
            Slope("mean_link_bits", "k", "≤", -1.75),
            Quick(&Slope("rounds−supersteps", "k", "≤", -1.0)),
            Full(&Slope("rounds−supersteps", "k", "≤", -0.85)),
            Full(&Steepens("rounds−supersteps", "k")),
        ],
    },
    Row {
        ids: &["E2"],
        claim: "Flooding costs Θ(n/k + D) rounds against the sketches' Õ(n/k²) plus their \
                additive polylog term (one round per superstep, ⌈S/B⌉ more when sketches \
                converge on one proxy): it wins on low-diameter inputs only — the planted \
                blocks — and loses once D grows: the grid (D ≈ 64 at quick scale, 180 in full), \
                the path and the cycle. (While every convergence vote ran two flag-only \
                supersteps of its own, flooding also won the quick grid.)",
        measure: e2,
        expect: &[
            Cmp("components", "=", "truth"),
            On("planted", &Cmp("flooding_rounds", "<", "sketch_rounds")),
            On("grid", &Cmp("sketch_rounds", "<", "flooding_rounds")),
            On("path", &Cmp("sketch_rounds", "<", "flooding_rounds")),
            Full(&On("cycle", &Cmp("sketch_rounds", "<", "flooding_rounds"))),
        ],
    },
    Row {
        ids: &["E3"],
        claim: "Collecting the graph at a referee costs Ω(m/k) rounds — linear in m. The \
                sketch algorithm's grow sub-linearly (pinned: slope at most 0.5): a part ships \
                more edges on a denser graph, but never more than one sketch, on top of the \
                additive polylog term of one round per superstep.",
        measure: e3,
        expect: &[
            Slope("referee_rounds", "m", "≥", 0.9),
            Slope("referee_rounds", "m", "≤", 1.1),
            Slope("sketch_rounds", "m", "≤", 0.5),
        ],
    },
    Row {
        ids: &["E4"],
        claim: "Lemma 1: random proxies spread a heavy superstep over all k(k−1) links to \
                within a polylog factor of the mean (pinned: max / mean below 4).",
        measure: e4,
        expect: &[
            Bound("heavy_imbalance", ">", 0.0),
            Bound("heavy_imbalance", "<", 4.0),
        ],
    },
    Row {
        ids: &["E5", "E6"],
        claim: "Lemma 6: DRR trees have depth O(log n) (pinned: at most 6 log₂ n). Lemma 7: \
                at most 12 log n phases (pinned at the 2.5 log₂ n this tree measures), and \
                the component count never grows from phase to phase.",
        measure: e5_e6,
        expect: &[
            Bound("depth/log₂n", "≤", 6.0),
            Bound("phases/log₂n", "≤", 2.5),
            All("components_monotone"),
        ],
    },
    Row {
        ids: &["E7"],
        claim: "Theorem 2(a): the MST takes Õ(n/k²) rounds and equals Kruskal's. Its \
                elimination loop's supersteps do not shrink with k, and the additive polylog \
                term — one round per superstep, plus ⌈S/B⌉ when sketches converge on one \
                proxy — is most of its rounds at these n: raw rounds fall strictly, and net \
                of the per-superstep floor about linearly (pinned: slope −0.85 or below).",
        measure: e7,
        expect: &[
            All("exact"),
            Decreasing("rounds"),
            Slope("rounds−supersteps", "k", "≤", -0.85),
        ],
    },
    Row {
        ids: &["E8"],
        claim: "Theorem 2(b): when both endpoints must learn each MST edge, a star's hub \
                machine receives Θ(n) bits — over k/4 times the mean — and a path stays level.",
        measure: e8,
        expect: &[
            On("star", &Bound("concentration", ">", 4.0)),
            On("path", &Bound("concentration", "<", 2.0)),
        ],
    },
    Row {
        ids: &["E9"],
        claim: "Per-edge checking (classical GHS) moves Θ(m) bits per phase; the sketch \
                algorithm's parts ship their edges, never more than one sketch, so its \
                traffic grows more slowly with density. Its rounds are mostly the additive \
                polylog term — one round per superstep of Θ(log n) elimination iterations — \
                so at laptop n both edge-checking variants still win on rounds.",
        measure: e9,
        expect: &[
            All("exact"),
            Slope("per_edge_bits", "m/n", "≥", 0.5),
            Quick(&Slope("sketch_bits", "m/n", "≤", 0.45)),
            Full(&Slope("sketch_bits", "m/n", "≤", 0.75)),
        ],
    },
    Row {
        ids: &["E10"],
        claim: "Theorem 3: a handful of connectivity probes approximate the min cut within \
                O(log n) (pinned: within log₂ n on barbells).",
        measure: e10,
        expect: &[Cmp("ratio", "≤", "log₂n"), Bound("probes", "≤", 8.0)],
    },
    Row {
        ids: &["E11"],
        claim: "Theorem 4: each of the eight verification problems costs one or two \
                connectivity runs (bipartiteness runs on the 2n-vertex double cover).",
        measure: e11,
        expect: &[Cmp("holds", "=", "truth"), Bound("rounds/conn", "≤", 3.0)],
    },
    Row {
        ids: &["E12"],
        claim: "§1.3: in the REP model the MST is the RVP algorithm after a Θ̃(n/k) routing \
                stage: the same tree, routing·k about level while the core shrinks faster, \
                and REP never mysteriously cheap (pinned: over a quarter of RVP's rounds).",
        measure: e12,
        expect: &[All("same_weight"), Bound("rep/rvp", ">", 0.25)],
    },
    Row {
        ids: &["E13"],
        claim: "Theorem 5 / Figure 1: on the set-disjointness gadget the traffic across the \
                Alice–Bob cut grows with b (Lemma 8 forces Ω(b); pinned: slope at least 0.75) \
                and stays inside the T·k²·W simulation budget.",
        measure: e13,
        expect: &[
            All("verdict_ok"),
            Cmp("cut_bits", "≤", "budget"),
            Slope("cut_bits", "b", "≥", 0.75),
        ],
    },
    Row {
        ids: &["E15"],
        claim: "§2.2: distributing the shared randomness is charged — visible in rounds, a \
                bounded overhead (pinned: at most 15 %) on rounds that are now mostly the \
                additive polylog term of one round per superstep — and switching the charge \
                off changes no label.",
        measure: e15,
        expect: &[
            All("same_labels"),
            Cmp("rounds_free", "<", "rounds_charged"),
            Bound("charged/free", "≤", 1.15),
        ],
    },
    Row {
        ids: &["E16"],
        claim: "§2.6: the output protocol counts the components exactly, for a few rounds \
                on top of the run.",
        measure: e16,
        expect: &[
            Cmp("counted", "=", "truth"),
            Bound("extra_rounds", "≥", 1.0),
            Bound("extra_rounds", "≤", 8.0),
        ],
    },
    Row {
        ids: &["E17"],
        claim: "Footnote 9: coin-flip merging gives depth-1 merge trees and the same Õ(n/k²) \
                bound as DRR, paid in extra phases (pinned: within 4× of DRR's rounds).",
        measure: e17,
        expect: &[
            All("correct"),
            Bound("coin_depth", "=", 1.0),
            Cmp("drr_phases", "<", "coin_phases"),
            Bound("coin/drr", "≤", 4.0),
        ],
    },
    Row {
        ids: &["E18"],
        claim: "§3.1: a spanning forest skips the MWOE elimination loop; weight-optimality \
                costs the Θ(log n) factor on top (pinned: at least 3× the rounds).",
        measure: e18,
        expect: &[All("st_spans"), All("mst_exact"), Bound("mst/st", "≥", 3.0)],
    },
    Row {
        ids: &["E19"],
        claim: "§1.1: charging per machine instead of per link is an equivalent view of the \
                model — a factor k−1 apart in theory, under 2 with proxy-randomized traffic.",
        measure: e19,
        expect: &[
            Bound("link/machine", "≥", 1.0),
            Bound("link/machine", "≤", 2.0),
        ],
    },
    Row {
        ids: &["E20"],
        claim: "§1.1: edges stream from lazy generators into per-machine shards — no central \
                edge list exists. Every half-edge lands exactly once, no shard exceeds \
                3·2m/k + 2Δ, and the algorithms run unchanged on the shards.",
        measure: e20,
        expect: &[
            Cmp("half_edges", "=", "2m"),
            Cmp("max_shard", "≤", "3·2m/k+2Δ"),
            Bound("components", "=", 1.0),
            Bound("rounds", ">", 0.0),
            On("sketch", &Bound("sketch_builds", ">", 0.0)),
            Full(&On("seed11", &Bound("2m", "≥", 2e6))),
        ],
    },
    Row {
        ids: &["E21"],
        claim: "§3.9: after a small batch, incremental maintenance — update routing, \
                restricted re-solve, certification — moves fewer bits than re-ingesting and \
                re-solving, for connectivity and for the MST, and never falls back to a \
                full refresh.",
        measure: e21,
        expect: &[
            All("incremental"),
            Cmp("incr_bits", "<", "full_bits"),
            Cmp("mst_incr_bits", "<", "mst_full_bits"),
        ],
    },
    Row {
        ids: &["E22"],
        claim: "§3.10: under seeded drops, duplicates, reorders, delays and crashes the \
                answers are bit-identical to the fault-free run; recovery costs at most 75 % \
                more bits. Each retransmit wave pays the additive polylog term's floor of one \
                round per superstep, so recovery rounds stay within 4× the fault-free ones \
                (5.25× on the 6 000-vertex cells; 3.25× and 4.5× with two flag-only supersteps \
                per vote, which need fewer waves than a data superstep).",
        measure: e22,
        expect: &[
            All("identical"),
            Bound("faults_injected", ">", 0.0),
            Bound("recovery_rounds", ">", 0.0),
            On("one-crash-per-phase", &Bound("crashes", ">", 0.0)),
            Bound("retransmit/base_bits", "≤", 0.75),
            Quick(&Bound("recovery/base_rounds", "≤", 4.0)),
            Full(&Bound("recovery/base_rounds", "≤", 5.25)),
        ],
    },
    Row {
        ids: &["E23"],
        claim: "§3.11: contraction and the varint encoding are observationally pure — same \
                answers, and a varint cell carries its naive twin's charge as oracle. Both save \
                bits on this sparse rung. A contracted component keeps its label, so a \
                contracted phase takes an exact MWOE and moves only the supernodes that merge: \
                contraction costs under 0.65× the default's bits in fewer phases, and under \
                0.5× with varint. (While contraction renumbered every component each phase it \
                cost 1.35× here.)",
        measure: e23,
        expect: &[
            All("identical"),
            Cmp("naive_bits", "=", "naive_twin_bits"),
            On("varint", &Bound("bits/baseline", "<", 1.0)),
            On("contract", &Bound("bits/baseline", "<", 0.65)),
            On("contract+varint", &Bound("bits/baseline", "<", 0.5)),
        ],
    },
];

fn cluster(g: &Graph, k: usize, seed: u64) -> Cluster {
    Cluster::builder(k).seed(seed).ingest_graph(g)
}

/// The default configuration with one knob changed.
fn cfg(set: impl FnOnce(&mut ConnectivityConfig)) -> ConnectivityConfig {
    let mut cfg = ConnectivityConfig::default();
    set(&mut cfg);
    cfg
}

fn conn(c: &Cluster, cfg: ConnectivityConfig) -> ConnectivityOutput {
    c.run(Connectivity::with(cfg)).output
}

fn rounds<P: Problem>(c: &Cluster, problem: P) -> u64 {
    c.run(problem).report.stats.rounds
}

/// Labels and §2.6 count agree: the two runs gave the same answer.
fn same_answer(a: &ConnectivityOutput, b: &ConnectivityOutput) -> bool {
    a.labels == b.labels && a.counted_components == b.counted_components
}

/// Rounds net of the additive floor of one round per superstep.
fn net_of_floor(stats: &kmachine::metrics::CommStats) -> u64 {
    stats.rounds.saturating_sub(stats.supersteps)
}

fn max_depth(out: &ConnectivityOutput) -> u32 {
    out.drr_depths.iter().copied().max().unwrap_or(0)
}

/// `gnm` with weights ≤ 10⁶ (weight seed = `seed` + 1), and Kruskal's weight.
fn weighted_gnm(n: usize, m: usize, seed: u64) -> (Graph, u128) {
    let g = generators::randomize_weights(&generators::gnm(n, m, seed), 1_000_000, seed + 1);
    let optimum = refalgo::forest_weight(&refalgo::kruskal(&g));
    (g, optimum)
}

fn e1(quick: bool) -> (String, Vec<Cell>) {
    let (ns, ks): (&[usize], &[usize]) = match quick {
        true => (&[4096], &[4, 8, 16]),
        false => (&[4096, 16384, 32768], &[4, 8, 16, 32]),
    };
    let mut cells = Vec::new();
    for &n in ns {
        let g = generators::gnm(n, 4 * n, 161);
        let truth = refalgo::component_count(&g);
        for &k in ks {
            let out = conn(&cluster(&g, k, 11), ConnectivityConfig::default());
            let links = (k * (k - 1)) as u64;
            let cell = Cell::new(format!("n={n} k={k}"))
                .int("k", k)
                .int("rounds", out.stats.rounds)
                .int("rounds−supersteps", net_of_floor(&out.stats))
                .int("mean_link_bits", out.stats.total_bits / links)
                .int("total_bits", out.stats.total_bits)
                .int("max_link_bits", out.stats.max_link_bits)
                .int("phases", out.phases)
                .flag("correct", out.component_count() == truth);
            let series = format!("n={n}");
            cells.push(Cell { series, ..cell });
        }
    }
    ("gnm(n, m = 4n, seed 161), cluster seed 11".into(), cells)
}

fn e2(quick: bool) -> (String, Vec<Cell>) {
    let (n, k) = (if quick { 1024 } else { 8192 }, 16);
    let side = (n as f64).sqrt() as usize;
    let planted = generators::planted_components(n, 8, 200, 21);
    let cases = [
        ("planted (D≈3)", planted, 8),
        ("path (D=n−1)", generators::path(n), 1),
        ("cycle (D=n/2)", generators::cycle(n), 1),
        ("grid (D≈2√n)", generators::grid(side, side), 1),
    ];
    let cells = cases.into_iter().map(|(name, g, truth)| {
        let c = cluster(&g, k, 22);
        let ours = c.run(Connectivity::default()).output;
        Cell::new(name)
            .int("components", ours.component_count())
            .int("truth", truth)
            .int("sketch_rounds", ours.stats.rounds)
            .int("flooding_rounds", rounds(&c, Flooding::default()))
    });
    let workload = format!("four diameters at n = {n}, k = {k}, cluster seed 22");
    (workload, cells.collect())
}

fn e3(quick: bool) -> (String, Vec<Cell>) {
    let (n, k) = (if quick { 4096 } else { 16384 }, 16);
    let cells = [2usize, 4, 8, 16].into_iter().map(|mult| {
        let c = cluster(&generators::gnm(n, mult * n, 31), k, 32);
        Cell::new(format!("m={mult}n"))
            .int("m", mult * n)
            .int("referee_rounds", rounds(&c, Referee::default()))
            .int("sketch_rounds", rounds(&c, Connectivity::default()))
    });
    let workload = format!("gnm(n = {n}, m, seed 31), k = {k}, cluster seed 32");
    (workload, cells.collect())
}

fn e4(quick: bool) -> (String, Vec<Cell>) {
    let (n, k) = (if quick { 4096 } else { 16384 }, 16);
    let g = generators::planted_components(n, 4, 8, 41);
    let trace = Tracer::recording();
    cluster(&g, k, 42).run(Connectivity::with(cfg(|c| c.trace = trace.clone())));
    let events = trace.events();
    let links = (k * (k - 1)) as u64;
    // The mean max-link over mean-link ratio of the supersteps that moved
    // at least `min_bits`, read from the trace's per-superstep loads.
    let imbalance = |min_bits: u64| {
        let mut heavy = CommStats::default();
        for r in &events {
            if let TraceEvent::Superstep {
                rounds,
                bits,
                messages,
                max_link_bits,
                ..
            } = r.event
            {
                if bits >= min_bits {
                    heavy.record_superstep(rounds, bits, messages, max_link_bits);
                }
            }
        }
        heavy.link_imbalance(links, 1)
    };
    // Heavy supersteps (≥ 200 kbit) are the sketch aggregation — Lemma 1's
    // regime; the all-supersteps figure includes the near-empty ones.
    let cell = Cell::new("max-link over mean-link")
        .ratio("heavy_imbalance", imbalance(200_000))
        .ratio("all_imbalance", imbalance(1_000));
    let workload = format!("planted_components(n = {n}, 4, 8, seed 41), k = {k}, cluster seed 42");
    (workload, vec![cell])
}

fn e5_e6(quick: bool) -> (String, Vec<Cell>) {
    let cells = (0..if quick { 3 } else { 4 }).map(|i| {
        let log2n = 10 + 2 * i;
        let n = 1usize << log2n;
        // A path is the adversarial workload for chain formation.
        let out = conn(
            &cluster(&generators::path(n), 8, 51),
            ConnectivityConfig::default(),
        );
        let monotone = out.phase_components.windows(2).all(|w| w[1] <= w[0]);
        Cell::new(format!("n={n}"))
            .int("max_drr_depth", max_depth(&out))
            .ratio("depth/log₂n", f64::from(max_depth(&out)) / f64::from(log2n))
            .int("phases", out.phases)
            .ratio("phases/log₂n", f64::from(out.phases) / f64::from(log2n))
            .flag("components_monotone", monotone)
    });
    ("path(n), k = 8, cluster seed 51".into(), cells.collect())
}

fn e7(quick: bool) -> (String, Vec<Cell>) {
    let n = if quick { 2048 } else { 8192 };
    let ks: &[usize] = if quick { &[4, 8, 16] } else { &[4, 8, 16, 32] };
    let (g, optimum) = weighted_gnm(n, 4 * n, 71);
    let cells = ks.iter().map(|&k| {
        let out = cluster(&g, k, 73).run(Mst::default()).output;
        Cell::new(format!("k={k}"))
            .int("k", k)
            .int("rounds", out.stats.rounds)
            .int("rounds−supersteps", net_of_floor(&out.stats))
            .flag("exact", out.total_weight == optimum)
            .int("phases", out.phases)
    });
    let workload = format!("gnm(n = {n}, m = 4n, seed 71), weights ≤ 10⁶, cluster seed 73");
    (workload, cells.collect())
}

fn e8(quick: bool) -> (String, Vec<Cell>) {
    let (n, k) = (if quick { 2048 } else { 8192 }, 16);
    let cases = [("star", generators::star(n)), ("path", generators::path(n))];
    let cells = cases.into_iter().map(|(name, g)| {
        let c = cluster(&generators::randomize_weights(&g, 1000, 81), k, 82);
        let both_endpoints = cfg(|c| c.criterion = OutputCriterion::BothEndpoints);
        let routing = c.run(Mst::with(both_endpoints)).output.endpoint_routing;
        let routing = routing.expect("criterion (b) reports its routing");
        let max = routing.max_machine_recv_bits();
        let sum: u64 = routing.recv_bits.iter().sum();
        Cell::new(name)
            .int("max_recv_bits", max)
            .int("mean_recv_bits", (sum + k as u64 / 2) / k as u64)
            .ratio("concentration", (max * k as u64) as f64 / sum as f64)
    });
    let workload = format!("n = {n}, weights ≤ 1000 (seed 81), k = {k}, cluster seed 82");
    (workload, cells.collect())
}

fn e9(quick: bool) -> (String, Vec<Cell>) {
    let (n, k) = (if quick { 1024 } else { 2048 }, 16);
    let mults: &[usize] = if quick {
        &[4, 8, 16]
    } else {
        &[4, 16, 64, 256]
    };
    let cells = mults.iter().map(|&mult| {
        let (g, optimum) = weighted_gnm(n, mult * n, 91);
        let c = cluster(&g, k, 93);
        let ours = c.run(Mst::default()).output;
        let mode = CheckMode::PerEdgeTest;
        let per_edge = c
            .run(EdgeBoruvka {
                mode,
                ..Default::default()
            })
            .output;
        let batched = c.run(EdgeBoruvka::default()).output;
        let weights = [
            ours.total_weight,
            per_edge.total_weight,
            batched.total_weight,
        ];
        Cell::new(format!("m={mult}n"))
            .int("m/n", mult)
            .int("sketch_rounds", ours.stats.rounds)
            .int("sketch_bits", ours.stats.total_bits)
            .int("per_edge_rounds", per_edge.stats.rounds)
            .int("per_edge_bits", per_edge.stats.total_bits)
            .int("batched_rounds", batched.stats.rounds)
            .flag("exact", weights == [optimum; 3])
    });
    let workload = format!("gnm(n = {n}, m, seed 91), weights ≤ 10⁶, k = {k}, cluster seed 93");
    (workload, cells.collect())
}

fn e10(quick: bool) -> (String, Vec<Cell>) {
    let (block, k) = (if quick { 32 } else { 64 }, 8);
    let cases = [
        (1usize, 1u64, 101u64),
        (2, 4, 102),
        (8, 2, 103),
        (16, 1, 104),
    ];
    let cells = cases.into_iter().map(|(bridges, w, seed)| {
        let g = generators::barbell(block, bridges, w, seed);
        let exact = mincut::stoer_wagner(&g).expect("a barbell is connected");
        let out = cluster(&g, k, seed + 10).run(MinCut::default()).output;
        let (hi, lo) = (out.estimate.max(exact), out.estimate.min(exact).max(1));
        Cell::new(format!("{bridges} bridges × {w}"))
            .int("λ", exact)
            .int("estimate", out.estimate)
            .ratio("ratio", hi as f64 / lo as f64)
            .int("log₂n", (2 * block).ilog2())
            .int("probes", out.probes)
            .int("rounds", out.stats.rounds)
    });
    let workload = format!("barbell(block = {block}, bridges, weight, seeds 101–104), k = {k}");
    (workload, cells.collect())
}

fn e11(quick: bool) -> (String, Vec<Cell>) {
    let (n, k) = (if quick { 512 } else { 2048 }, 8);
    let cfg = &ConnectivityConfig::default();
    let g = &generators::random_connected(n, n / 2, 111);
    let plain = rounds(&cluster(g, k, 112), Connectivity::default());
    let all: &FxHashSet<(u32, u32)> = &g.edges().iter().map(|e| (e.u, e.v)).collect();
    let e = g.edges().first().map(|e| (e.u, e.v)).expect("nonempty");
    let cut: &FxHashSet<(u32, u32)> = &[e].into_iter().collect();
    let t = (n - 1) as u32;
    // The input is connected with n/2 non-tree edges and its first edge
    // lies on a cycle, which fixes every verdict.
    let problems = [
        ("spanning connected subgraph", true),
        ("cycle containment", true),
        ("e-cycle containment", true),
        ("s-t connectivity", true),
        ("cut", false),
        ("edge on all paths", false),
        ("s-t cut", false),
        ("bipartiteness", false),
    ];
    let verdicts = [
        verify::spanning_connected_subgraph(g, all, k, 113, cfg),
        verify::cycle_containment(g, all, k, 114, cfg),
        verify::e_cycle_containment(g, all, e, k, 115, cfg),
        verify::st_connectivity(g, 0, t, k, 116, cfg),
        verify::cut_verification(g, cut, k, 117, cfg),
        verify::edge_on_all_paths(g, e, e.0, e.1, k, 118, cfg),
        verify::st_cut_verification(g, cut, 0, t, k, 119, cfg),
        verify::bipartiteness(g, k, 120, cfg),
    ];
    let cells = problems
        .into_iter()
        .zip(verdicts)
        .map(|((name, truth), v)| {
            Cell::new(name)
                .flag("holds", v.holds)
                .flag("truth", truth)
                .int("rounds", v.stats.rounds)
                .ratio("rounds/conn", v.stats.rounds as f64 / plain as f64)
        });
    let workload = format!(
        "random_connected(n = {n}, n/2 extra, seed 111), k = {k}; connectivity: {plain} rounds"
    );
    (workload, cells.collect())
}

fn e12(quick: bool) -> (String, Vec<Cell>) {
    let n = if quick { 512 } else { 4096 };
    let ks: &[u64] = if quick { &[8, 16] } else { &[8, 16, 32] };
    // Dense enough that every machine's local edge share exceeds n − 1, so
    // the cycle-property filter caps each machine at Θ(n) surviving edges
    // and the REP→RVP routing stage carries Θ(n) edges per machine over k
    // links — the Θ̃(n/k) regime of footnote 5.
    let (g, _) = weighted_gnm(n, 48 * n, 121);
    let cells = ks.iter().map(|&k| {
        let c = cluster(&g, k as usize, 123);
        let rvp = c.run(Mst::default()).output;
        let rep = c.run(RepMst::default()).output;
        let (total, routing) = (rep.mst.stats.rounds, rep.routing.rounds);
        Cell::new(format!("k={k}"))
            .int("rvp_rounds", rvp.stats.rounds)
            .int("rep_rounds", total)
            .int("rep_routing", routing)
            .int("rep_core", total - routing)
            .int("routing·k", routing * k)
            .int("core·k²/1000", (total - routing) * k * k / 1000)
            .ratio("rep/rvp", total as f64 / rvp.stats.rounds as f64)
            .flag("same_weight", rep.mst.total_weight == rvp.total_weight)
    });
    let workload = format!("gnm(n = {n}, m = 48n, seed 121), weights ≤ 10⁶, cluster seed 123");
    (workload, cells.collect())
}

fn e13(quick: bool) -> (String, Vec<Cell>) {
    let k = 8;
    let bs: &[usize] = match quick {
        true => &[128, 256, 512],
        false => &[256, 512, 1024, 2048, 4096],
    };
    let cells = bs.iter().map(|&b| {
        let inst = DisjointnessInstance::random(b, 300, b as u64, Some(true));
        let r = simulate_scs_two_party(&inst, k, 131, &ConnectivityConfig::default());
        Cell::new(format!("b={b}"))
            .int("b", b)
            .int("n", 2 * b + 2)
            .int("cut_bits", r.cut_bits)
            .int("rounds", r.rounds)
            .int("budget", r.simulation_budget(k))
            .flag("verdict_ok", r.verdict == r.disjoint)
    });
    let workload = format!("disjoint instances, density 0.3, Figure-1 gadget; k = {k}, seed 131");
    (workload, cells.collect())
}

fn e15(quick: bool) -> (String, Vec<Cell>) {
    let n = if quick { 4096 } else { 16384 };
    let g = generators::gnm(n, 4 * n, 151);
    let cells = [8usize, 32].into_iter().map(|k| {
        let c = cluster(&g, k, 152);
        let run = |charge| conn(&c, cfg(|c| c.charge_shared_randomness = charge));
        let (with, without) = (run(true), run(false));
        let overhead = with.stats.rounds as f64 / without.stats.rounds as f64;
        Cell::new(format!("k={k}"))
            .int("rounds_charged", with.stats.rounds)
            .int("rounds_free", without.stats.rounds)
            .ratio("charged/free", overhead)
            .flag("same_labels", with.labels == without.labels)
    });
    let workload = format!("gnm(n = {n}, m = 4n, seed 151), cluster seed 152");
    (workload, cells.collect())
}

fn e16(quick: bool) -> (String, Vec<Cell>) {
    let (n, k) = (if quick { 4096 } else { 16384 }, 16);
    let g = generators::planted_components(n, 12, 6, 161);
    let c = cluster(&g, k, 162);
    let run = |count| conn(&c, cfg(|c| c.run_output_protocol = count));
    let (with, without) = (run(true), run(false));
    let cell = Cell::new("counting")
        .int("counted", with.counted_components.unwrap_or(0))
        .int("truth", refalgo::component_count(&g))
        .int("extra_rounds", with.stats.rounds - without.stats.rounds)
        .int("total_rounds", with.stats.rounds);
    let workload =
        format!("planted_components(n = {n}, 12, 6, seed 161), k = {k}, cluster seed 162");
    (workload, vec![cell])
}

fn e17(quick: bool) -> (String, Vec<Cell>) {
    let (n, k) = (if quick { 4096 } else { 16384 }, 16);
    let gnm = generators::gnm(n, 4 * n, 171);
    let cells = [("gnm m=4n", gnm), ("path", generators::path(n))]
        .into_iter()
        .map(|(name, g)| {
            let c = cluster(&g, k, 172);
            let run = |merge| conn(&c, cfg(|c| c.merge = merge));
            let (drr, coin) = (run(MergeStrategy::Drr), run(MergeStrategy::CoinFlip));
            let truth = refalgo::component_count(&g);
            let correct = drr.component_count() == truth && coin.component_count() == truth;
            Cell::new(name)
                .int("drr_rounds", drr.stats.rounds)
                .int("drr_phases", drr.phases)
                .int("drr_depth", max_depth(&drr))
                .int("coin_rounds", coin.stats.rounds)
                .int("coin_phases", coin.phases)
                .int("coin_depth", max_depth(&coin))
                .ratio(
                    "coin/drr",
                    coin.stats.rounds as f64 / drr.stats.rounds as f64,
                )
                .flag("correct", correct)
        });
    let workload = format!("n = {n} (gnm seed 171), k = {k}, cluster seed 172");
    (workload, cells.collect())
}

fn e18(quick: bool) -> (String, Vec<Cell>) {
    let (n, k) = (if quick { 2048 } else { 8192 }, 16);
    let (g, optimum) = weighted_gnm(n, 4 * n, 181);
    let c = cluster(&g, k, 183);
    let st = c.run(SpanningForest::default()).output;
    let mst = c.run(Mst::default()).output;
    let cell = Cell::new("st vs mst")
        .int("st_rounds", st.stats.rounds)
        .int("st_phases", st.phases)
        .flag("st_spans", refalgo::is_spanning_forest(&g, &st.edges))
        .flag("st_optimal", refalgo::forest_weight(&st.edges) == optimum)
        .int("mst_rounds", mst.stats.rounds)
        .int("mst_phases", mst.phases)
        .flag("mst_exact", mst.total_weight == optimum)
        .ratio("mst/st", mst.stats.rounds as f64 / st.stats.rounds as f64);
    let workload = format!("gnm(n = {n}, m = 4n, seed 181), weights ≤ 10⁶, k = {k}, seed 183");
    (workload, vec![cell])
}

fn e19(quick: bool) -> (String, Vec<Cell>) {
    let n = if quick { 4096 } else { 16384 };
    let g = generators::gnm(n, 4 * n, 191);
    let cells = [8usize, 16, 32].into_iter().map(|k| {
        let c = cluster(&g, k, 192);
        let run = |model| conn(&c, cfg(|c| c.cost_model = model)).stats.rounds;
        let (link, machine) = (run(CostModel::PerLink), run(CostModel::PerMachine));
        Cell::new(format!("k={k}"))
            .int("per_link_rounds", link)
            .int("per_machine_rounds", machine)
            .ratio("link/machine", link as f64 / machine as f64)
    });
    let workload = format!("gnm(n = {n}, m = 4n, seed 191), cluster seed 192");
    (workload, cells.collect())
}

/// The ladder's first rung and its default connectivity run — E20's first
/// cell and E23's baseline — measured once per process: it is the single
/// most expensive run of the quick table.
fn first_rung() -> &'static (Cluster, Run<ConnectivityOutput>) {
    static MEMO: OnceLock<(Cluster, Run<ConnectivityOutput>)> = OnceLock::new();
    MEMO.get_or_init(|| {
        let c = ladder(true)[0].cluster();
        let run = c.run(Connectivity::default());
        (c, run)
    })
}

fn e20(quick: bool) -> (String, Vec<Cell>) {
    let cell = |s: &Rung, c: &Cluster, algo: &str, report: &RunReport, components: usize| {
        let (sg, fair) = (c.sharded(), 2 * s.m() / s.k);
        Cell::new(format!("{} {algo}", s.label()))
            .int("half_edges", sg.total_half_edges())
            .int("2m", 2 * s.m())
            .int("max_shard", sg.shard_loads().into_iter().max().unwrap_or(0))
            .int("2m/k", fair)
            .int("3·2m/k+2Δ", 3 * fair + 2 * sg.max_degree())
            .int("rounds", report.stats.rounds)
            .int("components", components)
            .int("sketch_builds", report.sketch_builds)
    };
    let cells = ladder(quick).into_iter().enumerate().map(|(i, s)| {
        let s = &s;
        // The sketch headliner where it is cheap enough; the top rungs
        // answer through flooding — exact, and cheap at that scale.
        if i == 0 {
            let (c, run) = first_rung();
            cell(s, c, "sketch", &run.report, run.output.component_count())
        } else if s.n <= 200_000 {
            let c = s.cluster();
            let run = c.run(Connectivity::default());
            cell(s, &c, "sketch", &run.report, run.output.component_count())
        } else {
            let c = s.cluster();
            let run = c.run(Flooding::default());
            cell(s, &c, "flooding", &run.report, run.output.component_count())
        }
    });
    let workload = "random_connected_stream(n, extra) ingested straight into k shards";
    (workload.into(), cells.collect())
}

fn e21(quick: bool) -> (String, Vec<Cell>) {
    // Both sides are charged the same workload: the baseline solve skips
    // the §2.6 output protocol exactly like the incremental path does.
    let conn_cfg = cfg(|c| c.run_output_protocol = false);
    let mst_cfg = MstConfig::default();
    // One batch's cost both ways on the same mutated shards: update
    // routing + the incremental solve, against re-shipping every edge
    // (`full_reingest_stats`) + a fresh static solve. `None`: the solve
    // fell back to a full refresh.
    let costs = |report: &RunReport, dc: &DynamicCluster, fresh: &RunReport| {
        let active = match dc.last_refresh() {
            RefreshKind::Cached => Some(0),
            RefreshKind::Incremental { active_vertices } => Some(active_vertices),
            RefreshKind::Full => None,
        };
        let incr = report.update.total_bits + report.stats.total_bits;
        let full = dc.full_reingest_stats().total_bits + fresh.stats.total_bits;
        (active, incr, full)
    };
    let mut cells = Vec::new();
    for s in dyn_family(quick) {
        // Connectivity and the MST replay the trace on clusters of their
        // own, so update-routing bits are attributed once each; both
        // start from a warm base solve.
        let live = || DynamicCluster::wrap(cluster(&s.base(), s.k, s.seed), DynConfig::default());
        let (mut dc, mut dm) = (live(), live());
        dc.connectivity(&conn_cfg);
        dm.mst(&mst_cfg);
        for (i, batch) in s.trace().iter().enumerate() {
            dc.apply(batch).expect("generated batches are valid");
            dm.apply(batch).expect("generated batches are valid");
            let conn = dc.connectivity(&conn_cfg);
            let fresh = dc.cluster().run(Connectivity::with(conn_cfg.clone()));
            let (active, incr, full) = costs(&conn.report, &dc, &fresh.report);
            let mst = dm.mst(&mst_cfg);
            let fresh = dm.cluster().run(Mst::with(mst_cfg.clone()));
            let (mst_active, mst_incr, mst_full) = costs(&mst.report, &dm, &fresh.report);
            let cell = Cell::new(format!("{}/batch{}", s.id, i + 1))
                .int("active", active.unwrap_or(s.n))
                .int("incr_bits", incr)
                .int("full_bits", full)
                .ratio("full/incr", full as f64 / incr as f64)
                .int("mst_active", mst_active.unwrap_or(s.n))
                .int("mst_incr_bits", mst_incr)
                .int("mst_full_bits", mst_full)
                .ratio("mst_full/incr", mst_full as f64 / mst_incr as f64)
                .int("components", conn.output.component_count())
                .flag("incremental", active.is_some() && mst_active.is_some());
            cells.push(cell);
        }
    }
    let workload = "planted_components(n, 8, 3) + the four update profiles, batch by batch";
    (workload.into(), cells)
}

fn e22(quick: bool) -> (String, Vec<Cell>) {
    let cell = |label: String, identical: bool, clean: &RunReport, faulted: &RunReport| {
        let recovery = faulted.stats.recovery_rounds as f64 / clean.stats.rounds as f64;
        let retransmit = faulted.stats.retransmit_bits as f64 / clean.stats.total_bits as f64;
        Cell::new(label)
            .flag("identical", identical)
            .int("base_rounds", clean.stats.rounds)
            .int("faulted_rounds", faulted.stats.rounds)
            .int("recovery_rounds", faulted.stats.recovery_rounds)
            .ratio("recovery/base_rounds", recovery)
            .int("retransmit_bits", faulted.stats.retransmit_bits)
            .ratio("retransmit/base_bits", retransmit)
            .int("faults_injected", faulted.stats.faults_injected)
            .int("crashes", faulted.stats.machine_crashes)
    };
    let mut cells = Vec::new();
    let shapes = [(1200usize, 8usize), (6000, 16)];
    for &(n, k) in &shapes[..if quick { 1 } else { 2 }] {
        let seed = 7 + n as u64;
        // Multi-component, so both merge-heavy and settled phases occur
        // and are replayed under rollback.
        let g = generators::planted_components(n, 4, 3, seed ^ 0xCAB0);
        let c = cluster(&g, k, seed);
        let conn = c.run(Connectivity::default());
        let st = c.run(SpanningForest::default());
        for (plan_name, plan) in chaos_plans(k, seed) {
            let faulty = cfg(|c| c.faults = Some(plan));
            let id = format!("{plan_name}/n{n}/k{k}");
            let f = c.run(Connectivity::with(faulty.clone()));
            let same = same_answer(&f.output, &conn.output);
            cells.push(cell(format!("{id} conn"), same, &conn.report, &f.report));
            let f = c.run(SpanningForest::with(faulty));
            let same = f.output.edges == st.output.edges;
            cells.push(cell(format!("{id} st"), same, &st.report, &f.report));
        }
    }
    let workload = "planted_components(n, 4, 3) under the three chaos plans, against the \
                    fault-free run on the same cluster";
    (workload.into(), cells)
}

fn e23(_quick: bool) -> (String, Vec<Cell>) {
    let (c, baseline) = first_rung();
    let run = |contract, encoding| {
        let cfg = cfg(|c| c.contract = contract);
        c.run(Connectivity::with(ConnectivityConfig { encoding, ..cfg }))
    };
    let contracted = run(true, Encoding::Naive);
    let varint = run(false, Encoding::Varint);
    let both = run(true, Encoding::Varint);
    // Each run beside the same trajectory under the naive encoding.
    let grid = [
        ("baseline", baseline, baseline),
        ("contract", &contracted, &contracted),
        ("varint", &varint, baseline),
        ("contract+varint", &both, &contracted),
    ];
    let base_bits = baseline.report.stats.total_bits;
    let cells = grid.into_iter().map(|(name, run, naive_twin)| {
        let stats = &run.report.stats;
        Cell::new(name)
            .flag("identical", same_answer(&run.output, &baseline.output))
            .int("rounds", stats.rounds)
            .int("total_bits", stats.total_bits)
            .int("naive_bits", stats.naive_bits)
            .int("naive_twin_bits", naive_twin.report.stats.total_bits)
            .ratio("bits/baseline", stats.total_bits as f64 / base_bits as f64)
            .int("max_link_bits", stats.max_link_bits)
            .int("phases", run.output.phases)
    });
    let rung = ladder(true)[0].label();
    (
        format!("{rung}: contract × encoding on one ingested cluster"),
        cells.collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_traces_are_deterministic_profiled_and_apply_cleanly() {
        for s in dyn_family(true) {
            let (a, b) = (s.trace(), s.trace());
            assert_eq!(a.len(), s.batches);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.ops(), y.ops(), "{}: trace must be deterministic", s.id);
            }
            let g = s.base();
            let mut edges = g.edges().to_vec();
            for batch in &a {
                let applied = batch.apply_to_edge_list(g.n(), &mut edges);
                applied.unwrap_or_else(|e| panic!("{}: {e}", s.id));
            }
        }
        let trace = dyn_family(true)[0].trace();
        let ops: Vec<&UpdateOp> = trace.iter().flat_map(UpdateBatch::ops).collect();
        let inserts = ops
            .iter()
            .filter(|op| matches!(op, UpdateOp::Insert { .. }));
        let (inserts, total) = (inserts.count(), ops.len());
        assert!(
            inserts * 8 >= total * 5,
            "insert-heavy must be mostly insertions ({inserts}/{total})"
        );
    }

    #[test]
    fn ladder_rungs_stream_their_declared_size() {
        let full = ladder(false);
        assert!(full.iter().any(|s| s.n >= 1_000_000 && s.k >= 64));
        assert!(full.iter().any(|s| s.m() >= 1_000_000 && s.n < 1_000_000));
        assert_eq!(ladder(true).len(), 1);
        let s = ladder(true)[0];
        let cluster = s.cluster();
        let sg = cluster.sharded();
        assert_eq!((sg.n(), sg.m(), sg.k()), (s.n, s.m(), s.k));
        assert_eq!(sg.total_half_edges(), 2 * s.m());
    }
}
