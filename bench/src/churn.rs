//! The `dyn_churn` update stream (shape after Gilbert–Li, *How fast can
//! you update your MST?*): batches rotate insert-heavy → delete-heavy →
//! churn → reweight, each localized to one component of the evolving
//! graph, and each bringing up one cross-component bridge that the next
//! batch retires (a link that comes up and fails again) — the realistic
//! shape that lets an incremental engine re-solve a region instead of the
//! graph, and that exercises both the merge and the split path. Exactly
//! one bridge per batch, not a random number: a bridge doubles the region
//! a batch re-solves, so a random count would make two seeds' streams
//! cost very different amounts.
//!
//! The generator mirrors the evolving edge set, so every batch is valid
//! when applied in sequence, and is a pure function of its seed.

use kconn::dynamic::{UpdateBatch, UpdateOp};
use kgraph::graph::Edge;
use kgraph::{refalgo, Graph};
use krand::prf::Prf;
use std::collections::BTreeSet;

/// The update mix of one batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Profile {
    InsertHeavy,
    DeleteHeavy,
    Churn,
    Reweight,
}

impl Profile {
    fn of_batch(i: usize) -> Profile {
        [
            Profile::InsertHeavy,
            Profile::DeleteHeavy,
            Profile::Churn,
            Profile::Reweight,
        ][i % 4]
    }

    /// Insertions out of 8 ops, in expectation.
    fn insert_octile(self) -> u64 {
        match self {
            Profile::InsertHeavy => 7,
            Profile::DeleteHeavy => 1,
            Profile::Churn | Profile::Reweight => 4,
        }
    }
}

/// Generates `batches` update batches of `batch_ops` nominal ops against
/// the graph `(n, base)`. A reweight op is a delete + re-insert pair at a
/// fresh weight, so reweight batches carry `2 · batch_ops` raw ops.
pub fn trace(
    n: usize,
    base: &[Edge],
    batches: usize,
    batch_ops: usize,
    max_weight: u64,
    seed: u64,
) -> Vec<UpdateBatch> {
    let prf = Prf::new(seed);
    let mut ctr = 0u64;
    let mut draw = |m: u64| {
        ctr += 1;
        prf.eval(0, ctr) % m.max(1)
    };
    // Ordered containers only: the trace must be identical on every run.
    let mut present: BTreeSet<(u32, u32)> = base.iter().map(|e| (e.u, e.v)).collect();
    let mut alive: Vec<(u32, u32)> = present.iter().copied().collect();
    let mut out = Vec::with_capacity(batches);
    // Cross-component edges the previous batch inserted.
    let mut bridges: Vec<(u32, u32)> = Vec::new();
    for b in 0..batches {
        let profile = Profile::of_batch(b);
        let mut batch = UpdateBatch::new();
        for (u, v) in std::mem::take(&mut bridges) {
            if present.remove(&(u, v)) {
                alive.retain(|&e| e != (u, v));
                batch.push(UpdateOp::Delete { u, v });
            }
        }
        let comps = refalgo::connected_components(&Graph::unweighted(n, alive.iter().copied()));
        // This batch's focus component: prefer one with room to churn in.
        let mut focus = comps[draw(n as u64) as usize];
        for _ in 0..8 {
            if comps.iter().filter(|&&c| c == focus).count() >= 8 {
                break;
            }
            focus = comps[draw(n as u64) as usize];
        }
        let members: Vec<u32> = (0..n as u32)
            .filter(|&v| comps[v as usize] == focus)
            .collect();
        // This batch's bridge: focus component → any other component.
        let outside: Vec<u32> = (0..n as u32)
            .filter(|&v| comps[v as usize] != focus)
            .collect();
        if !outside.is_empty() {
            let u = members[draw(members.len() as u64) as usize];
            let v = outside[draw(outside.len() as u64) as usize];
            let key = (u.min(v), u.max(v));
            present.insert(key);
            alive.push(key);
            bridges.push(key);
            batch.push(UpdateOp::Insert {
                u: key.0,
                v: key.1,
                w: 1 + draw(max_weight),
            });
        }
        // A live edge, inside the focus component when it has one.
        let pick_alive = |alive: &[(u32, u32)], draw: &mut dyn FnMut(u64) -> u64| {
            let in_focus: Vec<usize> = (0..alive.len())
                .filter(|&i| comps[alive[i].0 as usize] == focus)
                .collect();
            if in_focus.is_empty() {
                draw(alive.len() as u64) as usize
            } else {
                in_focus[draw(in_focus.len() as u64) as usize]
            }
        };
        for _ in 0..batch_ops {
            if profile == Profile::Reweight {
                if alive.is_empty() {
                    continue;
                }
                let (u, v) = alive[pick_alive(&alive, &mut draw)];
                batch.push(UpdateOp::Delete { u, v });
                batch.push(UpdateOp::Insert {
                    u,
                    v,
                    w: 1 + draw(max_weight),
                });
                continue;
            }
            if draw(8) < profile.insert_octile() || alive.is_empty() {
                // Insertions stay inside the focus component.
                // Rejection-sample a non-edge with bounded tries.
                for _ in 0..64 {
                    let u = members[draw(members.len() as u64) as usize];
                    let v = members[draw(members.len() as u64) as usize];
                    if u == v {
                        continue;
                    }
                    let key = (u.min(v), u.max(v));
                    if present.insert(key) {
                        alive.push(key);
                        batch.push(UpdateOp::Insert {
                            u: key.0,
                            v: key.1,
                            w: 1 + draw(max_weight),
                        });
                        break;
                    }
                }
            } else {
                let (u, v) = alive.swap_remove(pick_alive(&alive, &mut draw));
                present.remove(&(u, v));
                batch.push(UpdateOp::Delete { u, v });
            }
        }
        out.push(batch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::generators;

    #[test]
    fn traces_are_deterministic_valid_and_mixed() {
        let g = generators::planted_components(300, 4, 3, 7);
        let a = trace(g.n(), g.edges(), 8, 16, 1000, 5);
        let b = trace(g.n(), g.edges(), 8, 16, 1000, 5);
        let mut edges = g.edges().to_vec();
        let (mut inserts, mut deletes) = (0, 0);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ops(), y.ops(), "same seed, same trace");
            x.apply_to_edge_list(g.n(), &mut edges)
                .expect("generated batches apply in sequence");
            for op in x.ops() {
                match op {
                    UpdateOp::Insert { .. } => inserts += 1,
                    UpdateOp::Delete { .. } => deletes += 1,
                }
            }
        }
        assert!(
            inserts > 20 && deletes > 20,
            "{inserts} inserts, {deletes} deletes"
        );
        assert_ne!(
            a[0].ops(),
            trace(g.n(), g.edges(), 8, 16, 1000, 6)[0].ops(),
            "another seed, another trace"
        );
    }
}
