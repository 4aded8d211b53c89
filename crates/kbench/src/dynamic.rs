//! The dynamic-update scenario family (DESIGN.md §4, E21): insert-heavy,
//! delete-heavy, churn and reweight update streams replayed on a live
//! [`DynamicCluster`], with every batch measured twice — the incremental
//! path (update routing + restricted re-solve + certification) against the
//! static baseline (full re-ingestion + full re-solve of the mutated edge
//! set) — for both connectivity ([`measure`]) and MST maintenance
//! ([`measure_mst`]). The `tables` binary renders E21 from these
//! measurements and `tests/dynamic_family.rs` pins the headline claim
//! (incremental ≪ full).

use kconn::dynamic::{DynConfig, DynamicCluster, RefreshKind, UpdateBatch, UpdateOp};
use kconn::session::{Cluster, Connectivity, Mst, Problem};
use kconn::{ConnectivityConfig, MstConfig};
use kgraph::{generators, Graph};
use krand::prf::Prf;
use rustc_hash::FxHashSet;

/// The update mix of a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// ~7/8 insertions: components coalesce.
    InsertHeavy,
    /// ~7/8 deletions: components fragment.
    DeleteHeavy,
    /// Even mix.
    Churn,
    /// Every op deletes a live edge and re-inserts it at a fresh weight
    /// inside the same batch: connectivity is untouched, MST churns.
    Reweight,
}

impl Profile {
    /// Short name for ids and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Profile::InsertHeavy => "insert-heavy",
            Profile::DeleteHeavy => "delete-heavy",
            Profile::Churn => "churn",
            Profile::Reweight => "reweight",
        }
    }

    /// Insertions out of 8 ops, in expectation.
    fn insert_octile(&self) -> u64 {
        match self {
            Profile::InsertHeavy => 7,
            Profile::DeleteHeavy => 1,
            Profile::Churn => 4,
            Profile::Reweight => 0, // unused: reweight ops are paired directly
        }
    }
}

/// One dynamic scenario: a planted multi-component base graph (so touched
/// regions are genuinely smaller than the graph) plus a deterministic
/// update stream.
#[derive(Clone, Debug)]
pub struct DynScenario {
    /// Human-readable id.
    pub id: String,
    /// Vertex count.
    pub n: usize,
    /// Planted components in the base graph.
    pub parts: usize,
    /// Machine count.
    pub k: usize,
    /// Master seed.
    pub seed: u64,
    /// The update mix.
    pub profile: Profile,
    /// Batches in the stream.
    pub batches: usize,
    /// Ops per batch.
    pub batch_ops: usize,
}

impl DynScenario {
    fn new(profile: Profile, n: usize, k: usize, seed: u64, batches: usize, ops: usize) -> Self {
        DynScenario {
            id: format!("dyn/{}/n{n}/k{k}/seed{seed}", profile.name()),
            n,
            parts: 8,
            k,
            seed,
            profile,
            batches,
            batch_ops: ops,
        }
    }

    /// The base graph (before any update).
    pub fn base(&self) -> Graph {
        generators::planted_components(self.n, self.parts, 3, self.seed ^ 0xD15C)
    }

    /// The base graph wrapped into a live cluster.
    pub fn dynamic(&self) -> DynamicCluster {
        let cluster = Cluster::builder(self.k)
            .seed(self.seed)
            .ingest_graph(&self.base());
        DynamicCluster::wrap(cluster, DynConfig::default())
    }

    /// The deterministic update stream: every batch is valid when applied
    /// in sequence (the generator mirrors the evolving edge set), and ops
    /// are *localized* — each batch focuses on one component (with a dash
    /// of cross-component edges), the realistic churn shape that lets the
    /// incremental path re-solve a small region instead of the graph.
    pub fn trace(&self) -> Vec<UpdateBatch> {
        use kgraph::refalgo;
        let prf = Prf::new(self.seed ^ 0x0DDBA11);
        let g = self.base();
        let n = self.n as u64;
        let mut present: FxHashSet<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        let mut alive: Vec<(u32, u32)> = present.iter().copied().collect();
        alive.sort_unstable();
        let mut ctr = 0u64;
        let mut step = |m: u64| {
            ctr += 1;
            prf.eval_mod(0, ctr, m)
        };
        let mut out = Vec::with_capacity(self.batches);
        for _ in 0..self.batches {
            // Label the evolving graph and pick this batch's focus
            // component (prefer one with enough room to churn in).
            let cur = kgraph::Graph::unweighted(self.n, alive.iter().copied());
            let comps = refalgo::connected_components(&cur);
            let mut focus = comps[step(n) as usize];
            for _ in 0..8 {
                if comps.iter().filter(|&&c| c == focus).count() >= 8 {
                    break;
                }
                focus = comps[step(n) as usize];
            }
            let members: Vec<u32> = (0..self.n as u32)
                .filter(|&v| comps[v as usize] == focus)
                .collect();
            let mut batch = UpdateBatch::new();
            for _ in 0..self.batch_ops {
                if self.profile == Profile::Reweight {
                    // Delete + re-insert a live edge (focus-preferred) at a
                    // fresh weight, inside the same batch.
                    if alive.is_empty() {
                        continue;
                    }
                    let in_focus: Vec<usize> = alive
                        .iter()
                        .enumerate()
                        .filter(|(_, &(u, _))| comps[u as usize] == focus)
                        .map(|(i, _)| i)
                        .collect();
                    let i = if in_focus.is_empty() {
                        step(alive.len() as u64) as usize
                    } else {
                        in_focus[step(in_focus.len() as u64) as usize]
                    };
                    let key = alive[i];
                    batch.push(UpdateOp::Delete { u: key.0, v: key.1 });
                    batch.push(UpdateOp::Insert {
                        u: key.0,
                        v: key.1,
                        w: 1 + step(1000),
                    });
                    continue;
                }
                let want_insert = step(8) < self.profile.insert_octile() || alive.is_empty();
                if want_insert {
                    // 3/4 of insertions stay inside the focus component;
                    // the rest bridge arbitrary pairs. Rejection-sample a
                    // non-edge with bounded tries (failure at these
                    // densities needs a near-clique focus).
                    let intra = step(4) < 3 && members.len() >= 2;
                    for _ in 0..64 {
                        let (u, v) = if intra {
                            (
                                members[step(members.len() as u64) as usize],
                                members[step(members.len() as u64) as usize],
                            )
                        } else {
                            (step(n) as u32, step(n) as u32)
                        };
                        if u == v {
                            continue;
                        }
                        let key = (u.min(v), u.max(v));
                        if present.insert(key) {
                            alive.push(key);
                            batch.push(UpdateOp::Insert {
                                u: key.0,
                                v: key.1,
                                w: 1 + step(1000),
                            });
                            break;
                        }
                    }
                } else {
                    // Prefer deleting inside the focus component.
                    let in_focus: Vec<usize> = alive
                        .iter()
                        .enumerate()
                        .filter(|(_, &(u, _))| comps[u as usize] == focus)
                        .map(|(i, _)| i)
                        .collect();
                    let i = if in_focus.is_empty() {
                        step(alive.len() as u64) as usize
                    } else {
                        in_focus[step(in_focus.len() as u64) as usize]
                    };
                    let key = alive.swap_remove(i);
                    present.remove(&key);
                    batch.push(UpdateOp::Delete { u: key.0, v: key.1 });
                }
            }
            out.push(batch);
        }
        out
    }
}

/// The scenario family: one scenario per profile. `quick` keeps the sizes
/// inside the debug-build test budget; the full family is what the
/// `tables` binary measures for E21.
pub fn family(quick: bool) -> Vec<DynScenario> {
    let (n, k, batches, ops) = if quick {
        (1200, 8, 3, 12)
    } else {
        (6000, 16, 4, 25)
    };
    vec![
        DynScenario::new(Profile::InsertHeavy, n, k, 3, batches, ops),
        DynScenario::new(Profile::DeleteHeavy, n, k, 5, batches, ops),
        DynScenario::new(Profile::Churn, n, k, 7, batches, ops),
        DynScenario::new(Profile::Reweight, n, k, 9, batches, ops),
    ]
}

/// One batch's cost comparison: the incremental path versus the full
/// re-ingest + re-solve baseline, on identical mutated edge sets.
#[derive(Clone, Debug)]
pub struct DynMeasurement {
    /// 1-based batch index.
    pub batch: usize,
    /// Ops the batch carried.
    pub ops: usize,
    /// Which path the incremental solve took.
    pub refresh: RefreshKind,
    /// Total bits of the incremental path: update routing + restricted
    /// re-solve + certification.
    pub incremental_bits: u64,
    /// Rounds of the incremental path.
    pub incremental_rounds: u64,
    /// Total bits of the baseline: re-shipping every edge to its homes
    /// plus a full static re-solve.
    pub full_bits: u64,
    /// Rounds of the baseline.
    pub full_rounds: u64,
    /// Post-batch component count (sanity anchor).
    pub components: usize,
}

impl DynMeasurement {
    /// The headline claim of the dynamic subsystem: the incremental path
    /// strictly undercuts full re-ingest + re-solve on communicated bits.
    pub fn undercuts_full(&self) -> bool {
        self.incremental_bits < self.full_bits
    }

    /// Full-over-incremental bit ratio (> 1 means the incremental path
    /// wins).
    pub fn ratio(&self) -> f64 {
        self.full_bits as f64 / self.incremental_bits.max(1) as f64
    }

    /// Short refresh-path name for tables.
    pub fn refresh_name(&self) -> String {
        match self.refresh {
            RefreshKind::Cached => "cached".into(),
            RefreshKind::Incremental { active_vertices } => format!("incr({active_vertices})"),
            RefreshKind::Full => "full".into(),
        }
    }

    /// The machine-readable record of this batch for the E21 report.
    pub fn record(&self, experiment: &str, s: &DynScenario) -> crate::ExperimentRecord {
        let to_map = |kv: &[(&str, f64)]| {
            kv.iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect::<std::collections::BTreeMap<_, _>>()
        };
        crate::ExperimentRecord {
            experiment: experiment.into(),
            label: format!("{}/batch{}", s.id, self.batch),
            params: to_map(&[
                ("n", s.n as f64),
                ("k", s.k as f64),
                ("batch_ops", self.ops as f64),
            ]),
            metrics: to_map(&[
                ("incremental_bits", self.incremental_bits as f64),
                ("incremental_rounds", self.incremental_rounds as f64),
                ("full_bits", self.full_bits as f64),
                ("full_rounds", self.full_rounds as f64),
                ("ratio", self.ratio()),
                ("components", self.components as f64),
            ]),
        }
    }
}

/// Replays a scenario and measures every batch both ways. The incremental
/// and the baseline answers are bit-identical by the dynamic layer's
/// contract (pinned in `tests/dynamic.rs`); here only costs differ. Both
/// sides are charged the same workload: the baseline solve skips the §2.6
/// output protocol exactly like the incremental path does (which derives
/// the count from its maintained labels).
pub fn measure(s: &DynScenario) -> Vec<DynMeasurement> {
    let cfg = ConnectivityConfig {
        run_output_protocol: false,
        ..ConnectivityConfig::default()
    };
    let mut dc = s.dynamic();
    dc.connectivity(&cfg); // base solve: both paths start warm
    let mut out = Vec::new();
    for (i, batch) in s.trace().iter().enumerate() {
        let ops = batch.len();
        dc.apply(batch).expect("generated batches are valid");
        let run = dc.connectivity(&cfg);
        let refresh = dc.last_refresh();
        // Baseline on the *same* mutated shards: re-ingestion routing plus
        // a fresh static solve (bit-identical to ingesting the mutated
        // edge list into a new cluster, so the costs are comparable).
        let reingest = dc.full_reingest_stats();
        let fresh = dc.cluster().run(Connectivity::with(cfg.clone()));
        out.push(DynMeasurement {
            batch: i + 1,
            ops,
            refresh,
            incremental_bits: run.report.update_bits + run.report.stats.total_bits,
            incremental_rounds: run.report.update_rounds + run.report.stats.rounds,
            full_bits: reingest.total_bits + fresh.report.stats.total_bits,
            full_rounds: reingest.rounds + fresh.report.stats.rounds,
            components: run.output.component_count(),
        });
    }
    out
}

/// The MST column of E21: replays the same trace on its own cluster (so
/// update-routing bits are attributed once, not split with the
/// connectivity column) and costs every batch's incremental MST
/// maintenance (cycle replacement / sketch replacement-search / restricted
/// re-run + certification) against re-ingesting and solving MST fresh.
pub fn measure_mst(s: &DynScenario) -> Vec<DynMeasurement> {
    let cfg = MstConfig::default();
    let mut dc = s.dynamic();
    dc.mst(&cfg); // base solve: both paths start warm
    let mut out = Vec::new();
    for (i, batch) in s.trace().iter().enumerate() {
        let ops = batch.len();
        dc.apply(batch).expect("generated batches are valid");
        let run = dc.mst(&cfg);
        let refresh = dc.last_refresh();
        let reingest = dc.full_reingest_stats();
        let fresh = dc.cluster().run(Mst::with(cfg.clone()));
        debug_assert_eq!(run.output.edges, fresh.output.edges);
        out.push(DynMeasurement {
            batch: i + 1,
            ops,
            refresh,
            incremental_bits: run.report.update_bits + run.report.stats.total_bits,
            incremental_rounds: run.report.update_rounds + run.report.stats.rounds,
            full_bits: reingest.total_bits + fresh.report.stats.total_bits,
            full_rounds: reingest.rounds + fresh.report.stats.rounds,
            // A forest with |E| edges on n vertices spans n − |E| components.
            components: s.n - run.output.edges.len(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_profiled() {
        let s = &family(true)[0];
        let a = s.trace();
        let b = s.trace();
        assert_eq!(a.len(), s.batches);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ops(), y.ops(), "trace must be deterministic");
        }
        let inserts: usize = a
            .iter()
            .flat_map(kconn::UpdateBatch::ops)
            .filter(|op| matches!(op, UpdateOp::Insert { .. }))
            .count();
        let total: usize = a.iter().map(kconn::UpdateBatch::len).sum();
        assert!(
            inserts * 8 >= total * 5,
            "insert-heavy profile must be mostly insertions ({inserts}/{total})"
        );
    }

    #[test]
    fn generated_batches_apply_cleanly() {
        for s in family(true) {
            let g = s.base();
            let mut edges = g.edges().to_vec();
            for batch in s.trace() {
                batch
                    .apply_to_edge_list(g.n(), &mut edges)
                    .unwrap_or_else(|e| panic!("{}: {e}", s.id));
            }
        }
    }
}
