//! Graph verification problems (paper §3.3, Theorem 4).
//!
//! All eight problems reduce to (one or two runs of) the `O~(n/k²)`
//! connectivity algorithm, exactly as in the paper's proof of Theorem 4:
//!
//! * **cut** — remove the cut edges and test connectivity;
//! * **s-t connectivity** — compare the two endpoint labels;
//! * **edge on all paths** — s-t connectivity in `G − e`;
//! * **s-t cut** — s-t connectivity after removing the subgraph;
//! * **bipartiteness** — the AGM reduction: `G` is bipartite iff its
//!   bipartite double cover has exactly `2·cc(G)` components;
//! * **spanning connected subgraph / cycle containment / e-cycle
//!   containment** — the reductions of \[11\] via component counting.
//!
//! Every function returns the verdict plus the combined communication
//! statistics, so the E11 experiments can report rounds per problem.

use crate::connectivity::{connected_components_sharded, ConnectivityConfig};
use crate::messages::Payload;
use crate::net::Net;
use kgraph::{Graph, Partition, ShardedGraph};
use kmachine::metrics::CommStats;
use rustc_hash::FxHashSet;

/// A verification verdict plus its communication cost.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The answer to the verification question.
    pub holds: bool,
    /// Combined communication statistics of all runs involved.
    pub stats: CommStats,
}

fn run_conn(
    g: &Graph,
    part: &Partition,
    seed: u64,
    cfg: &ConnectivityConfig,
) -> (Vec<u64>, usize, CommStats) {
    let out = connected_components_sharded(&ShardedGraph::from_graph(g, part), seed, cfg);
    let count = out.component_count();
    (out.labels, count, out.stats)
}

/// Spanning connected subgraph (SCS): does the subgraph `h_edges ⊆ E(G)`
/// span `G` and form a connected graph? (The Figure-1 / Theorem-5 problem.)
pub fn spanning_connected_subgraph(
    g: &Graph,
    h_edges: &FxHashSet<(u32, u32)>,
    k: usize,
    seed: u64,
    cfg: &ConnectivityConfig,
) -> Verdict {
    let h = g.edge_subgraph(h_edges);
    let part = Partition::random_vertex(g, k, seed);
    let (_, count, stats) = run_conn(&h, &part, seed, cfg);
    Verdict {
        holds: count == 1,
        stats,
    }
}

/// Cycle containment: does the subgraph `h_edges` contain a cycle?
/// A subgraph with `c` components and `m` edges on `n` vertices is a forest
/// iff `m = n − c`. After the connectivity run, every machine reports the
/// edges of H it owns to M0, which sums them (one charged superstep).
pub fn cycle_containment(
    g: &Graph,
    h_edges: &FxHashSet<(u32, u32)>,
    k: usize,
    seed: u64,
    cfg: &ConnectivityConfig,
) -> Verdict {
    let h = ShardedGraph::from_graph(
        &g.edge_subgraph(h_edges),
        &Partition::random_vertex(g, k, seed),
    );
    let out = connected_components_sharded(&h, seed, cfg);
    let (components, mut stats) = (out.component_count(), out.stats);
    let mut net = Net::new(cfg, k, h.n());
    for i in 0..k {
        let count = h.view(i).local_edges().count() as u64;
        net.send(i, 0, Payload::CountReport { count });
    }
    let m: u64 = net.exchange()[0]
        .iter()
        .map(|env| match env.payload {
            Payload::CountReport { count } => count,
            _ => 0,
        })
        .sum();
    stats.absorb(&net.finish(Some("edge_count")));
    Verdict {
        holds: m > (h.n() - components) as u64,
        stats,
    }
}

/// e-cycle containment: does edge `e = (a, b) ∈ H` lie on a cycle of the
/// subgraph? True iff `a` and `b` stay connected in `H − e`.
pub fn e_cycle_containment(
    g: &Graph,
    h_edges: &FxHashSet<(u32, u32)>,
    e: (u32, u32),
    k: usize,
    seed: u64,
    cfg: &ConnectivityConfig,
) -> Verdict {
    let canon = (e.0.min(e.1), e.0.max(e.1));
    let mut kept = h_edges.clone();
    kept.remove(&canon);
    let h_minus = g.edge_subgraph(&kept);
    let part = Partition::random_vertex(g, k, seed);
    let (labels, _, stats) = run_conn(&h_minus, &part, seed, cfg);
    Verdict {
        holds: labels[canon.0 as usize] == labels[canon.1 as usize],
        stats,
    }
}

/// s-t connectivity: are `s` and `t` in the same component of `G`?
pub fn st_connectivity(
    g: &Graph,
    s: u32,
    t: u32,
    k: usize,
    seed: u64,
    cfg: &ConnectivityConfig,
) -> Verdict {
    same_component(g, s, t, k, seed, cfg)
}

/// Whether `s` and `t` share a component of `h`. After the run, `home(s)`
/// ships `label(s)` to `home(t)` for the final comparison (one extra
/// O(log n)-bit message, counted).
fn same_component(
    h: &Graph,
    s: u32,
    t: u32,
    k: usize,
    seed: u64,
    cfg: &ConnectivityConfig,
) -> Verdict {
    let part = Partition::random_vertex(h, k, seed);
    let (labels, _, mut stats) = run_conn(h, &part, seed, cfg);
    let mut net = Net::new(cfg, k, h.n());
    let (hs, ht) = (part.home(s), part.home(t));
    if hs != ht {
        net.send(hs, ht, Payload::StDone { same: true });
        net.exchange();
    }
    stats.absorb(&net.finish(Some("final_compare")));
    let holds = labels[s as usize] == labels[t as usize];
    Verdict { holds, stats }
}

/// Cut verification: is the edge set `cut_edges` a cut of `G` (i.e. does
/// removing it disconnect the graph)? Two connectivity runs, on `G` and on
/// `G` minus the edges; both are counted.
pub fn cut_verification(
    g: &Graph,
    cut_edges: &FxHashSet<(u32, u32)>,
    k: usize,
    seed: u64,
    cfg: &ConnectivityConfig,
) -> Verdict {
    let part = Partition::random_vertex(g, k, seed);
    let (_, before, mut stats) = run_conn(g, &part, seed, cfg);
    let (_, after, cut_stats) = run_conn(&g.without_edges(cut_edges), &part, seed, cfg);
    stats.absorb(&cut_stats);
    Verdict {
        holds: after > before,
        stats,
    }
}

/// Edge on all paths: does every `u`–`v` path use edge `e`? True iff `u`
/// and `v` are disconnected in `G − e`.
pub fn edge_on_all_paths(
    g: &Graph,
    e: (u32, u32),
    u: u32,
    v: u32,
    k: usize,
    seed: u64,
    cfg: &ConnectivityConfig,
) -> Verdict {
    let canon = (e.0.min(e.1), e.0.max(e.1));
    let mut rm = FxHashSet::default();
    rm.insert(canon);
    let connected = same_component(&g.without_edges(&rm), u, v, k, seed, cfg);
    Verdict {
        holds: !connected.holds,
        ..connected
    }
}

/// s-t cut verification: does removing `edges` disconnect `s` from `t`?
pub fn st_cut_verification(
    g: &Graph,
    edges: &FxHashSet<(u32, u32)>,
    s: u32,
    t: u32,
    k: usize,
    seed: u64,
    cfg: &ConnectivityConfig,
) -> Verdict {
    let connected = same_component(&g.without_edges(edges), s, t, k, seed, cfg);
    Verdict {
        holds: !connected.holds,
        ..connected
    }
}

/// Bipartiteness (AGM reduction, §3.3 of \[2\]): `G` is bipartite iff its
/// bipartite double cover `D(G)` has exactly `2·cc(G)` components. The
/// cover is built locally (vertex `v` lifts to `v` and `v + n` on the same
/// home machine — no communication); both connectivity runs are counted.
pub fn bipartiteness(g: &Graph, k: usize, seed: u64, cfg: &ConnectivityConfig) -> Verdict {
    let part = Partition::random_vertex(g, k, seed);
    let (_, cc_g, mut stats) = run_conn(g, &part, seed, cfg);
    let cover = g.bipartite_double_cover();
    // The cover partition keeps v and v+n on v's home machine.
    let cover_part = part.lifted_double_cover();
    let (_, cc_d, stats2) = run_conn(&cover, &cover_part, seed ^ 0xB1, cfg);
    stats.absorb(&stats2);
    Verdict {
        holds: cc_d == 2 * cc_g,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::generators;

    fn cfg() -> ConnectivityConfig {
        ConnectivityConfig::default()
    }

    fn edge_set(edges: &[(u32, u32)]) -> FxHashSet<(u32, u32)> {
        edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect()
    }

    #[test]
    fn scs_accepts_spanning_tree_rejects_disconnected() {
        let g = generators::random_connected(60, 40, 1);
        // All edges: connected, spanning.
        let all: FxHashSet<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        assert!(spanning_connected_subgraph(&g, &all, 4, 2, &cfg()).holds);
        // Empty subgraph: disconnected.
        let none = FxHashSet::default();
        assert!(!spanning_connected_subgraph(&g, &none, 4, 3, &cfg()).holds);
    }

    #[test]
    fn cycle_containment_tells_forests_from_cyclic() {
        let g = generators::cycle(30);
        let all: FxHashSet<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        assert!(cycle_containment(&g, &all, 4, 4, &cfg()).holds);
        // Drop one edge: a path, no cycle.
        let mut forest = all.clone();
        let first = *forest.iter().next().unwrap();
        forest.remove(&first);
        assert!(!cycle_containment(&g, &forest, 4, 5, &cfg()).holds);
    }

    #[test]
    fn e_cycle_detects_whether_edge_lies_on_cycle() {
        // Triangle + pendant edge.
        let g = Graph::unweighted(5, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let h: FxHashSet<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        assert!(e_cycle_containment(&g, &h, (0, 1), 2, 6, &cfg()).holds);
        assert!(!e_cycle_containment(&g, &h, (2, 3), 2, 7, &cfg()).holds);
    }

    #[test]
    fn st_connectivity_answers_both_ways() {
        let g = generators::planted_components(80, 2, 3, 8);
        let labels = kgraph::refalgo::connected_components(&g);
        let s = 0u32;
        let same = (1..80u32)
            .find(|&v| labels[v as usize] == labels[0])
            .unwrap();
        let diff = (1..80u32)
            .find(|&v| labels[v as usize] != labels[0])
            .unwrap();
        assert!(st_connectivity(&g, s, same, 4, 9, &cfg()).holds);
        assert!(!st_connectivity(&g, s, diff, 4, 10, &cfg()).holds);
    }

    #[test]
    fn cut_verification_accepts_real_cuts() {
        // A path: any single edge is a cut.
        let g = generators::path(40);
        assert!(cut_verification(&g, &edge_set(&[(10, 11)]), 4, 11, &cfg()).holds);
        // A cycle: one edge is not a cut, two adjacent ones are.
        let c = generators::cycle(40);
        assert!(!cut_verification(&c, &edge_set(&[(10, 11)]), 4, 12, &cfg()).holds);
        assert!(cut_verification(&c, &edge_set(&[(10, 11), (20, 21)]), 4, 13, &cfg()).holds);
    }

    #[test]
    fn edge_on_all_paths_detects_bridges() {
        // Two triangles joined by a bridge (4,5)... build explicitly:
        let g = Graph::unweighted(
            8,
            [
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3), // bridge
                (3, 4),
                (4, 5),
                (3, 5),
            ],
        );
        assert!(edge_on_all_paths(&g, (2, 3), 0, 4, 2, 14, &cfg()).holds);
        assert!(!edge_on_all_paths(&g, (0, 1), 0, 2, 2, 15, &cfg()).holds);
    }

    #[test]
    fn st_cut_verification_works() {
        let g = generators::path(30);
        assert!(st_cut_verification(&g, &edge_set(&[(14, 15)]), 0, 29, 4, 16, &cfg()).holds);
        assert!(!st_cut_verification(&g, &edge_set(&[(14, 15)]), 0, 10, 4, 17, &cfg()).holds);
    }

    #[test]
    fn bipartiteness_even_vs_odd_cycles() {
        assert!(bipartiteness(&generators::cycle(32), 4, 18, &cfg()).holds);
        assert!(!bipartiteness(&generators::cycle(33), 4, 19, &cfg()).holds);
    }

    #[test]
    fn bipartiteness_on_disconnected_mixed_graph() {
        // One even cycle + one odd cycle, disjoint: not bipartite.
        let mut edges: Vec<(u32, u32)> = (0..16u32).map(|i| (i, (i + 1) % 16)).collect();
        edges.extend((0..9u32).map(|i| (16 + i, 16 + (i + 1) % 9)));
        let g = Graph::unweighted(25, edges);
        assert!(!bipartiteness(&g, 4, 20, &cfg()).holds);
        // Two even cycles: bipartite.
        let mut edges: Vec<(u32, u32)> = (0..16u32).map(|i| (i, (i + 1) % 16)).collect();
        edges.extend((0..10u32).map(|i| (16 + i, 16 + (i + 1) % 10)));
        let g = Graph::unweighted(26, edges);
        assert!(bipartiteness(&g, 4, 21, &cfg()).holds);
    }

    #[test]
    fn verification_costs_are_reported() {
        let g = generators::random_connected(60, 30, 22);
        let v = st_connectivity(&g, 0, 30, 4, 23, &cfg());
        assert!(v.stats.rounds > 0);
        assert!(v.stats.total_bits > 0);
    }
}
