//! Sharded graph storage: the per-machine input layout of the model.
//!
//! The k-machine model (paper §1.1) gives each machine only its `~n/k` home
//! vertices and their incident edges — never a copy of the whole graph.
//! [`ShardedGraph`] realizes exactly that: `k` [`Shard`]s, each a local CSR
//! over that machine's vertices, built by consuming an
//! [`EdgeStream`] one edge at a time. No central
//! `Vec<Edge>` or global adjacency is ever materialized; the per-shard
//! storage is `O(m/k + Δ)` half-edges w.h.p. (each edge is stored at both
//! endpoint homes, as the RVP model prescribes).
//!
//! Algorithms access a machine's slice through [`ShardView`], which exposes
//! only what that machine legitimately knows: its own vertices, their
//! adjacency, and — because home hashing is public — the home machine of
//! any vertex id.
//!
//! **Mutation path.** Shards are live: edge insertions and deletions are
//! *staged* into per-shard delta logs ([`ShardedGraph::stage_insert`],
//! [`ShardedGraph::stage_delete`] — `O(1)` per endpoint home) and folded
//! into the CSRs by [`ShardedGraph::compact`], which reproduces the layout
//! fresh ingestion of the mutated edge sequence would build, bit for bit.
//! Storage stays `O(m/k + Δ + pending)` per machine, with `pending`
//! bounded by the caller's compaction threshold (`core::dynamic`).

use crate::graph::{Edge, Graph, VertexId, Weight};
use crate::partition::Partition;
use crate::stream::{EdgeStream, GraphStream};
use std::cell::Cell;

thread_local! {
    /// Per-thread count of shard builds (see [`ingest_count`]).
    static INGESTS: Cell<u64> = const { Cell::new(0) };
    /// Per-thread count of crash-recovery shard rebuilds
    /// (see [`rebuild_count`]).
    static REBUILDS: Cell<u64> = const { Cell::new(0) };
}

/// How many times this thread has ingested an edge set into per-machine
/// shards (every [`ShardedGraph::from_stream_with_partition`] call, which
/// all other constructors funnel through). A diagnostics hook for the
/// session layer: a reusable cluster must ingest exactly once however many
/// algorithms run on it, and `tests/session.rs` pins that with this
/// counter. Thread-local so concurrently running tests cannot interfere.
pub fn ingest_count() -> u64 {
    INGESTS.with(std::cell::Cell::get)
}

/// How many times this thread has re-read a shard from durable storage
/// after a machine crash ([`ShardedGraph::rebuild_shard`]). The chaos
/// conformance suite pins that crash recovery actually exercises the
/// restore path. Thread-local for the same reason as [`ingest_count`].
pub fn rebuild_count() -> u64 {
    REBUILDS.with(std::cell::Cell::get)
}

/// One staged mutation, in half-edge form: `owner`'s adjacency gains or
/// loses the neighbor `nb`. Every logical edge update produces two of
/// these, one in each endpoint's home shard — the same double-entry layout
/// ingestion uses.
#[derive(Clone, Copy, Debug)]
struct DeltaOp {
    owner: VertexId,
    nb: VertexId,
    w: Weight,
    insert: bool,
}

/// One machine's slice of the input: its home vertices and their full
/// adjacency, in CSR form, plus the shard's *delta log* of staged
/// mutations awaiting compaction (the dynamic-update write path).
#[derive(Clone, Debug)]
pub struct Shard {
    /// Sorted local vertex ids.
    verts: Vec<VertexId>,
    /// CSR offsets parallel to `verts` (`len == verts.len() + 1`).
    adj_off: Vec<u32>,
    /// Concatenated `(neighbor, weight)` lists.
    adj: Vec<(VertexId, Weight)>,
    /// Staged half-edge mutations, in arrival order. Readers of the CSR do
    /// not see these until [`ShardedGraph::compact`] folds them in.
    log: Vec<DeltaOp>,
}

impl Shard {
    /// Index of `v` in `verts`, if local.
    #[inline]
    fn index_of(&self, v: VertexId) -> Option<usize> {
        self.verts.binary_search(&v).ok()
    }

    /// The `(neighbor, weight)` adjacency of the vertex at `verts[vi]`.
    #[inline]
    fn adj(&self, vi: usize) -> &[(VertexId, Weight)] {
        &self.adj[self.adj_off[vi] as usize..self.adj_off[vi + 1] as usize]
    }

    /// Folds the delta log into the CSR, preserving fresh-ingest adjacency
    /// order: surviving base entries keep their positions, inserts append
    /// in log order — exactly the layout ingesting the mutated edge
    /// sequence from scratch would produce.
    fn compact(&mut self) {
        if self.log.is_empty() {
            return;
        }
        // Group ops by owner, preserving per-owner arrival order.
        let mut by_owner: rustc_hash::FxHashMap<VertexId, Vec<usize>> =
            rustc_hash::FxHashMap::default();
        for (i, op) in self.log.iter().enumerate() {
            by_owner.entry(op.owner).or_default().push(i);
        }
        let mut adj = Vec::with_capacity(self.adj.len());
        let mut adj_off = Vec::with_capacity(self.verts.len() + 1);
        adj_off.push(0u32);
        for (vi, &v) in self.verts.iter().enumerate() {
            match by_owner.get(&v) {
                None => adj.extend_from_slice(self.adj(vi)),
                Some(ops) => {
                    // Sequential replay over the alive-entry list.
                    let mut entries: Vec<(VertexId, Weight, bool)> =
                        self.adj(vi).iter().map(|&(nb, w)| (nb, w, true)).collect();
                    for &i in ops {
                        let op = self.log[i];
                        if op.insert {
                            entries.push((op.nb, op.w, true));
                        } else if let Some(e) = entries
                            .iter_mut()
                            .find(|(nb, _, alive)| *alive && *nb == op.nb)
                        {
                            e.2 = false;
                        }
                        // A delete with no alive entry is a no-op at the
                        // storage layer; `core::dynamic` validates batches
                        // before staging, so it never reaches this point.
                    }
                    adj.extend(
                        entries
                            .into_iter()
                            .filter(|&(_, _, alive)| alive)
                            .map(|(nb, w, _)| (nb, w)),
                    );
                }
            }
            adj_off.push(adj.len() as u32);
        }
        self.adj = adj;
        self.adj_off = adj_off;
        self.log.clear();
    }
}

/// The input graph, stored only as per-machine shards plus the public
/// vertex partition.
#[derive(Clone, Debug)]
pub struct ShardedGraph {
    n: usize,
    m: usize,
    part: Partition,
    shards: Vec<Shard>,
}

impl ShardedGraph {
    /// Ingests an edge stream under a fresh hash-based random vertex
    /// partition over `k` machines. Each edge is routed to its two endpoint
    /// home shards as it is produced; nothing global is kept.
    pub fn from_stream(stream: impl EdgeStream, k: usize, seed: u64) -> Self {
        let part = Partition::random_vertex_n(stream.n(), k, seed);
        Self::from_stream_with_partition(stream, part)
    }

    /// Ingests an edge stream under an explicit partition (the harness
    /// paths — double-cover lifts, the §4 cut simulation — carry their own).
    pub fn from_stream_with_partition(mut stream: impl EdgeStream, part: Partition) -> Self {
        INGESTS.with(|c| c.set(c.get() + 1));
        let n = stream.n();
        let k = part.k();
        // Route half-edges to their owner's shard as they arrive.
        let mut half: Vec<Vec<(VertexId, VertexId, Weight)>> = vec![Vec::new(); k];
        let mut m = 0usize;
        for e in stream.by_ref() {
            assert!(
                (e.u as usize) < n && (e.v as usize) < n,
                "streamed endpoint out of range"
            );
            m += 1;
            half[part.home(e.u)].push((e.u, e.v, e.w));
            half[part.home(e.v)].push((e.v, e.u, e.w));
        }
        // Local vertex lists (one O(n) pass; includes isolated vertices).
        let mut verts: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        for v in 0..n as u32 {
            verts[part.home(v)].push(v);
        }
        // Per-shard CSR. The sort is stable on the owner only, so each
        // vertex's neighbors keep stream order — identical to the adjacency
        // order `Graph::from_dedup_edges` produces for the same edges.
        let shards = verts
            .into_iter()
            .zip(half)
            .map(|(verts, mut half)| {
                half.sort_by_key(|&(owner, _, _)| owner);
                let mut adj_off = Vec::with_capacity(verts.len() + 1);
                let mut adj = Vec::with_capacity(half.len());
                let mut pos = 0usize;
                adj_off.push(0);
                for &v in &verts {
                    while pos < half.len() && half[pos].0 == v {
                        adj.push((half[pos].1, half[pos].2));
                        pos += 1;
                    }
                    adj_off.push(adj.len() as u32);
                }
                debug_assert_eq!(pos, half.len(), "every half-edge has a local owner");
                Shard {
                    verts,
                    adj_off,
                    adj,
                    log: Vec::new(),
                }
            })
            .collect();
        ShardedGraph { n, m, part, shards }
    }

    /// Shards an already-materialized graph — the path session clusters
    /// take when handed a `&Graph` (and the oracle-driven test harness).
    pub fn from_graph(g: &Graph, part: &Partition) -> Self {
        Self::from_stream_with_partition(GraphStream::new(g), part.clone())
    }

    /// Stages an edge insertion: a half-edge delta is appended to each
    /// endpoint's home-shard log, `O(1)` per shard — the CSR is untouched
    /// until [`ShardedGraph::compact`]. Callers (the `core::dynamic` update
    /// layer) are responsible for validating that `{u, v}` is not already
    /// present; the storage layer only checks the model invariants.
    pub fn stage_insert(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.stage(u, v, w, true);
    }

    /// Stages an edge deletion (the half-edge deltas tombstone the entry at
    /// both endpoint homes on the next compaction). Deleting an absent edge
    /// is a storage-layer no-op; callers validate first.
    pub fn stage_delete(&mut self, u: VertexId, v: VertexId) {
        self.stage(u, v, 0, false);
    }

    fn stage(&mut self, u: VertexId, v: VertexId, w: Weight, insert: bool) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "staged endpoint out of range"
        );
        assert_ne!(u, v, "self-loops are not part of the model");
        self.shards[self.part.home(u)].log.push(DeltaOp {
            owner: u,
            nb: v,
            w,
            insert,
        });
        self.shards[self.part.home(v)].log.push(DeltaOp {
            owner: v,
            nb: u,
            w,
            insert,
        });
    }

    /// Staged half-edge deltas not yet folded into the CSRs, summed over
    /// shards (each logical edge update contributes two).
    pub fn pending_half_ops(&self) -> usize {
        self.shards.iter().map(|s| s.log.len()).sum()
    }

    /// The largest per-shard delta log — the quantity compaction policies
    /// threshold on, since it bounds each machine's extra storage beyond
    /// the `O(m/k + Δ)` CSR.
    pub fn max_pending_per_shard(&self) -> usize {
        self.shards.iter().map(|s| s.log.len()).max().unwrap_or(0)
    }

    /// The weight of edge `{u, v}` as of the *staged* state: the base CSR
    /// overlaid with `u`'s home-shard log replayed in order. This is what
    /// update validation reads — it sees mutations that compaction has not
    /// materialized yet.
    pub fn staged_edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let shard = &self.shards[self.part.home(u)];
        let mut w = shard.index_of(u).and_then(|vi| {
            let mut nbrs = shard.adj(vi).iter();
            nbrs.find(|&&(nb, _)| nb == v).map(|&(_, w)| w)
        });
        for op in &shard.log {
            if op.owner == u && op.nb == v {
                w = op.insert.then_some(op.w);
            }
        }
        w
    }

    /// Folds every shard's delta log into its CSR and recounts `m`.
    /// Per-machine local work, no communication; the resulting shards are
    /// **bit-identical** to ingesting the mutated edge sequence from
    /// scratch (surviving edges keep their stream positions, insertions
    /// append in staging order) — property-tested in `tests/dynamic.rs`.
    /// Returns the number of half-edge deltas applied.
    pub fn compact(&mut self) -> usize {
        let applied = self.pending_half_ops();
        if applied == 0 {
            return 0;
        }
        for shard in &mut self.shards {
            shard.compact();
        }
        self.m = self.count_edges();
        applied
    }

    /// Counts `m` from the CSRs: each edge once, at its smaller endpoint's
    /// home ([`ShardView::local_edges`]).
    fn count_edges(&self) -> usize {
        (0..self.k())
            .map(|i| self.view(i).local_edges().count())
            .sum()
    }

    /// Number of vertices `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges `m` (each undirected edge counted once; staged,
    /// uncompacted deltas are not reflected until [`ShardedGraph::compact`]).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of machines `k`.
    pub fn k(&self) -> usize {
        self.part.k()
    }

    /// The public vertex partition (home hashing).
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// Machine `i`'s view of its shard. Views read the compacted CSR only:
    /// algorithms must not observe staged, un-compacted deltas (the dynamic
    /// layer compacts before every solve).
    pub fn view(&self, i: usize) -> ShardView<'_> {
        ShardView {
            shard: &self.shards[i],
        }
    }

    /// A new sharded graph keeping only edges accepted by `keep` (called
    /// with the canonical `(u, v, w)`; deterministic predicates — e.g.
    /// shared-randomness sampling — make both endpoint shards agree with
    /// zero communication, which is how the §3.2 min-cut probes subsample).
    pub fn filter_edges(&self, keep: impl Fn(VertexId, VertexId, Weight) -> bool) -> ShardedGraph {
        self.filter(
            |_| true,
            |v, nb, w| {
                if v < nb {
                    keep(v, nb, w)
                } else {
                    keep(nb, v, w)
                }
            },
        )
    }

    /// The subgraph induced by the vertices with `keep[v]`: every machine
    /// keeps only those of its home vertices, with their adjacency. Ids,
    /// `n` and the partition are unchanged, so a run on it is a run on the
    /// same shards that never sees the dropped vertices.
    ///
    /// `keep` must be closed under adjacency (no edge joins a kept and a
    /// dropped vertex); a debug build checks it.
    pub fn induced(&self, keep: &[bool]) -> ShardedGraph {
        assert_eq!(keep.len(), self.n, "the mask must cover all vertices");
        self.filter(
            |v| keep[v as usize],
            |v, nb, _| {
                debug_assert!(
                    keep[nb as usize],
                    "induced: kept vertex {v} has an edge to dropped {nb} — \
                     the mask must be closed under adjacency"
                );
                true
            },
        )
    }

    /// The shards restricted to the vertices `keep_vertex` accepts and, of
    /// their half-edges `(v, nb, w)`, those `keep_edge` accepts (both
    /// endpoint shards must agree on an edge); `m` is recounted.
    fn filter(
        &self,
        keep_vertex: impl Fn(VertexId) -> bool,
        keep_edge: impl Fn(VertexId, VertexId, Weight) -> bool,
    ) -> ShardedGraph {
        debug_assert_eq!(
            self.pending_half_ops(),
            0,
            "filters read the compacted CSR; compact() staged deltas first"
        );
        let shards = self
            .shards
            .iter()
            .map(|s| {
                let (mut verts, mut adj_off, mut adj) = (Vec::new(), vec![0], Vec::new());
                for (vi, &v) in s.verts.iter().enumerate() {
                    if keep_vertex(v) {
                        verts.push(v);
                        adj.extend(s.adj(vi).iter().filter(|&&(nb, w)| keep_edge(v, nb, w)));
                        adj_off.push(adj.len() as u32);
                    }
                }
                Shard {
                    verts,
                    adj_off,
                    adj,
                    log: Vec::new(),
                }
            })
            .collect();
        let mut g = ShardedGraph {
            n: self.n,
            m: 0,
            part: self.part.clone(),
            shards,
        };
        g.m = g.count_edges();
        g
    }

    /// The crash-recovery restore path: re-reads machine `i`'s shard from
    /// durable storage — the base CSR plus its delta log, exactly the
    /// state a fresh replay of ingestion + staged updates would rebuild —
    /// and verifies its structural invariants. In the simulator the shard
    /// *is* the durable copy, so the rebuild is a checked identity; what
    /// matters is the contract it pins: a machine that lost its volatile
    /// memory recovers its graph slice from storage alone, never from
    /// another machine. Bumps [`rebuild_count`] and returns the number of
    /// half-edge records restored (CSR entries + pending log entries).
    pub fn rebuild_shard(&self, i: usize) -> usize {
        let shard = &self.shards[i];
        assert_eq!(
            shard.adj_off.len(),
            shard.verts.len() + 1,
            "shard {i}: CSR offsets must bracket every local vertex"
        );
        assert!(
            shard.adj_off.windows(2).all(|w| w[0] <= w[1]),
            "shard {i}: CSR offsets must be monotone"
        );
        assert_eq!(
            *shard.adj_off.last().expect("offsets are never empty") as usize,
            shard.adj.len(),
            "shard {i}: CSR offsets must cover the adjacency"
        );
        for op in &shard.log {
            assert_eq!(
                self.part.home(op.owner),
                i,
                "shard {i}: delta log entry owned by a foreign vertex"
            );
        }
        REBUILDS.with(|c| c.set(c.get() + 1));
        shard.adj.len() + shard.log.len()
    }

    /// Total half-edges stored across all shards (diagnostics; `= 2m`).
    pub fn total_half_edges(&self) -> usize {
        self.shards.iter().map(|s| s.adj.len()).sum()
    }

    /// Per-shard half-edge loads (balance diagnostics; `O(m/k + Δ)` w.h.p.).
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.adj.len()).collect()
    }

    /// Maximum degree over all vertices (diagnostics).
    pub fn max_degree(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.adj_off.windows(2).map(|w| (w[1] - w[0]) as usize))
            .max()
            .unwrap_or(0)
    }
}

/// What one machine can see of a [`ShardedGraph`]: its own vertices and
/// their adjacency. All accessors panic (in debug) or return nothing for
/// vertices homed elsewhere — algorithm code that compiles against this
/// view provably never peeks at remote state.
#[derive(Clone, Copy, Debug)]
pub struct ShardView<'g> {
    shard: &'g Shard,
}

impl<'g> ShardView<'g> {
    /// The vertices homed at this machine, ascending.
    pub fn verts(&self) -> &'g [VertexId] {
        &self.shard.verts
    }

    /// The `(neighbor, weight)` adjacency of local vertex `v`.
    ///
    /// Panics if `v` is not homed here — remote adjacency is exactly what
    /// the model says a machine does not have.
    pub fn neighbors(&self, v: VertexId) -> &'g [(VertexId, Weight)] {
        let vi = self
            .shard
            .index_of(v)
            .expect("neighbors() queried for a vertex homed on another machine");
        self.shard.adj(vi)
    }

    /// Every local vertex with its `(neighbor, weight)` adjacency, in
    /// [`ShardView::verts`] order — the walk over a whole shard, by
    /// position rather than by id.
    pub fn adjacency(&self) -> impl Iterator<Item = (VertexId, &'g [(VertexId, Weight)])> + 'g {
        let shard = self.shard;
        (shard.verts.iter().enumerate()).map(move |(vi, &v)| (v, shard.adj(vi)))
    }

    /// The weight of edge `(a, b)` where `a` is local, if the edge exists.
    pub fn edge_weight(&self, a: VertexId, b: VertexId) -> Option<Weight> {
        self.neighbors(a)
            .iter()
            .find(|&&(nb, _)| nb == b)
            .map(|&(_, w)| w)
    }

    /// The canonical edges *owned* by this shard: those whose smaller
    /// endpoint is homed here. Across all shards every edge appears exactly
    /// once (how the referee baseline ships its slice, and how orchestrator
    /// code reassembles a graph without double counting).
    pub fn local_edges(&self) -> impl Iterator<Item = Edge> + 'g {
        self.adjacency().flat_map(|(v, nbrs)| {
            nbrs.iter()
                .filter(move |&&(nb, _)| v < nb)
                .map(move |&(nb, w)| Edge::new(v, nb, w))
        })
    }

    /// Half-edges stored in this shard (`Σ_local deg`).
    pub fn half_edges(&self) -> usize {
        self.shard.adj.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn shard_of(g: &Graph, k: usize, seed: u64) -> ShardedGraph {
        let part = Partition::random_vertex(g, k, seed);
        ShardedGraph::from_graph(g, &part)
    }

    #[test]
    fn shards_cover_every_vertex_once() {
        let g = generators::gnm(300, 800, 3);
        let sg = shard_of(&g, 5, 7);
        let mut seen = vec![false; 300];
        for i in 0..5 {
            for &v in sg.view(i).verts() {
                assert!(!seen[v as usize], "vertex {v} in two shards");
                seen[v as usize] = true;
                assert_eq!(sg.partition().home(v), i);
            }
        }
        assert!(seen.iter().all(|&s| s), "every vertex must be homed");
    }

    #[test]
    fn adjacency_matches_central_graph() {
        let g = generators::randomize_weights(&generators::gnm(150, 400, 5), 99, 6);
        let part = Partition::random_vertex(&g, 4, 11);
        let sg = ShardedGraph::from_graph(&g, &part);
        for v in 0..g.n() as u32 {
            let view = sg.view(part.home(v));
            assert_eq!(view.neighbors(v), g.neighbors(v), "vertex {v}");
        }
        assert_eq!(sg.n(), g.n());
        assert_eq!(sg.m(), g.m());
        assert_eq!(sg.total_half_edges(), 2 * g.m());
    }

    #[test]
    fn local_edges_partition_the_edge_set() {
        let g = generators::gnm(120, 500, 9);
        let sg = shard_of(&g, 6, 13);
        let mut collected: Vec<Edge> = (0..6).flat_map(|i| sg.view(i).local_edges()).collect();
        collected.sort_unstable_by_key(|e| (e.u, e.v));
        let mut want: Vec<Edge> = g.edges().to_vec();
        want.sort_unstable_by_key(|e| (e.u, e.v));
        assert_eq!(collected, want);
    }

    #[test]
    fn stream_and_graph_ingestion_agree() {
        let part = Partition::random_vertex_n(200, 4, 21);
        let a = ShardedGraph::from_stream_with_partition(
            generators::gnm_stream(200, 600, 17),
            part.clone(),
        );
        let g = generators::gnm(200, 600, 17);
        let b = ShardedGraph::from_graph(&g, &part);
        for i in 0..4 {
            assert_eq!(a.view(i).verts(), b.view(i).verts(), "shard {i} verts");
            for &v in a.view(i).verts() {
                assert_eq!(
                    a.view(i).neighbors(v),
                    b.view(i).neighbors(v),
                    "adjacency of {v}"
                );
            }
        }
        assert_eq!(a.m(), b.m());
    }

    #[test]
    fn filter_edges_is_consistent_across_shards() {
        let g = generators::randomize_weights(&generators::gnm(100, 300, 23), 50, 24);
        let sg = shard_of(&g, 4, 25);
        let filtered = sg.filter_edges(|u, v, _| (u + v) % 3 == 0);
        let want = g.edges().iter().filter(|e| (e.u + e.v) % 3 == 0).count();
        assert_eq!(filtered.m(), want);
        assert_eq!(filtered.total_half_edges(), 2 * want);
        // Both endpoint shards agree on every surviving edge.
        for e in g.edges().iter().filter(|e| (e.u + e.v) % 3 == 0) {
            let hu = filtered.partition().home(e.u);
            assert_eq!(filtered.view(hu).edge_weight(e.u, e.v), Some(e.w));
        }
    }

    #[test]
    #[should_panic(expected = "another machine")]
    fn remote_adjacency_is_inaccessible() {
        let g = generators::path(50);
        let part = Partition::random_vertex(&g, 4, 3);
        let sg = ShardedGraph::from_graph(&g, &part);
        let v = 7u32;
        let wrong = (part.home(v) + 1) % 4;
        let _ = sg.view(wrong).neighbors(v);
    }

    #[test]
    #[should_panic(expected = "another machine")]
    fn remote_edge_weight_is_inaccessible() {
        let g = generators::grid(6, 6);
        let part = Partition::random_vertex(&g, 4, 9);
        let sg = ShardedGraph::from_graph(&g, &part);
        let e = g.edges()[0];
        let wrong = (part.home(e.u) + 1) % 4;
        let _ = sg.view(wrong).edge_weight(e.u, e.v);
    }

    #[test]
    fn filter_edges_with_shared_randomness_is_deterministic_across_shardings() {
        // The min-cut probes rely on this: a predicate derived from shared
        // randomness must select the *same* edge subsample on every machine
        // and under every partition — same seed ⇒ identical surviving edge
        // set, different seed ⇒ (almost surely) a different one.
        use krand::prf::Prf;
        let g = generators::randomize_weights(&generators::gnm(140, 420, 31), 100, 32);
        let survivors = |k: usize, part_seed: u64, prf_seed: u64| {
            let part = Partition::random_vertex(&g, k, part_seed);
            let sg = ShardedGraph::from_graph(&g, &part);
            let prf = Prf::new(prf_seed);
            let sub = sg.filter_edges(|u, v, _| {
                prf.eval_mod(u as u64, v as u64, 2) == 0 // keep ~half
            });
            let mut edges: Vec<Edge> = (0..k).flat_map(|i| sub.view(i).local_edges()).collect();
            edges.sort_unstable_by_key(|e| (e.u, e.v));
            edges
        };
        let a = survivors(4, 7, 99);
        let b = survivors(6, 21, 99); // different sharding, same shared seed
        assert_eq!(a, b, "same seed must subsample identically across shards");
        assert!(
            !a.is_empty() && a.len() < g.m(),
            "predicate must be nontrivial"
        );
        let c = survivors(4, 7, 100);
        assert_ne!(a, c, "a fresh seed must (a.s.) pick a different subsample");
    }

    #[test]
    fn staged_deltas_compact_to_fresh_ingestion() {
        // Maintained shards after stage+compact must be bit-identical to
        // ingesting the mutated edge sequence from scratch: surviving edges
        // keep stream order, inserts append in staging order.
        let g = generators::randomize_weights(&generators::gnm(80, 200, 41), 50, 42);
        let part = Partition::random_vertex(&g, 4, 43);
        let mut sg = ShardedGraph::from_graph(&g, &part);
        let mut edges: Vec<Edge> = g.edges().to_vec();
        // Delete every 5th edge, insert a batch of fresh ones.
        let dels: Vec<Edge> = edges.iter().copied().step_by(5).collect();
        for e in &dels {
            sg.stage_delete(e.u, e.v);
            edges.retain(|x| (x.u, x.v) != (e.u, e.v));
        }
        let mut fresh = Vec::new();
        for i in 0..30u32 {
            let (u, v) = (i % 79, 79 - (i % 40));
            if u != v
                && sg.staged_edge_weight(u, v).is_none()
                && !fresh.contains(&(u.min(v), u.max(v)))
            {
                sg.stage_insert(u, v, 7 + i as u64);
                fresh.push((u.min(v), u.max(v)));
                edges.push(Edge::new(u, v, 7 + i as u64));
            }
        }
        assert!(sg.pending_half_ops() > 0);
        let applied = sg.compact();
        assert_eq!(applied, 2 * (dels.len() + fresh.len()));
        assert_eq!(sg.pending_half_ops(), 0);
        let want = ShardedGraph::from_stream_with_partition(
            crate::stream::VecStream::new(80, edges.clone()),
            part.clone(),
        );
        assert_eq!(sg.m(), want.m());
        for i in 0..4 {
            assert_eq!(sg.view(i).verts(), want.view(i).verts(), "shard {i}");
            for &v in sg.view(i).verts() {
                assert_eq!(
                    sg.view(i).neighbors(v),
                    want.view(i).neighbors(v),
                    "adjacency of {v} after compaction"
                );
            }
        }
    }

    #[test]
    fn staged_edge_weight_sees_uncompacted_deltas() {
        let g = generators::path(20);
        let part = Partition::random_vertex(&g, 3, 17);
        let mut sg = ShardedGraph::from_graph(&g, &part);
        assert_eq!(sg.staged_edge_weight(3, 4), Some(1));
        sg.stage_delete(3, 4);
        assert_eq!(
            sg.staged_edge_weight(3, 4),
            None,
            "delete visible pre-compaction"
        );
        sg.stage_insert(3, 4, 9);
        assert_eq!(sg.staged_edge_weight(3, 4), Some(9), "re-insert visible");
        sg.stage_delete(3, 4);
        sg.stage_insert(0, 5, 2);
        assert_eq!(sg.staged_edge_weight(3, 4), None);
        assert_eq!(sg.staged_edge_weight(0, 5), Some(2));
        assert_eq!(sg.staged_edge_weight(5, 0), Some(2), "symmetric view");
        sg.compact();
        assert_eq!(sg.staged_edge_weight(3, 4), None);
        assert_eq!(sg.staged_edge_weight(0, 5), Some(2));
        assert_eq!(sg.m(), 19 - 1 + 1);
    }

    #[test]
    fn compaction_preserves_the_storage_bound() {
        // After heavy churn + compaction the per-shard loads must still sit
        // within the O(m/k + Δ) envelope the ingest path guarantees.
        let g = generators::gnm(400, 1600, 51);
        let part = Partition::random_vertex(&g, 8, 52);
        let mut sg = ShardedGraph::from_graph(&g, &part);
        for e in g.edges().iter().step_by(2) {
            sg.stage_delete(e.u, e.v);
        }
        sg.compact();
        let fair = 2 * sg.m() / sg.k();
        let delta = sg.max_degree();
        for (i, load) in sg.shard_loads().into_iter().enumerate() {
            assert!(
                load <= 3 * fair + 2 * delta,
                "shard {i}: {load} half-edges vs fair {fair} (Δ = {delta})"
            );
        }
        assert_eq!(sg.total_half_edges(), 2 * sg.m());
    }

    #[test]
    fn rebuild_shard_counts_and_verifies_durable_state() {
        let g = generators::gnm(120, 360, 61);
        let mut sg = shard_of(&g, 4, 62);
        sg.stage_insert(0, 119, 9);
        let before = rebuild_count();
        let mut restored = 0;
        for i in 0..4 {
            restored += sg.rebuild_shard(i);
        }
        assert_eq!(rebuild_count(), before + 4);
        // CSR half-edges plus the two staged half-edge deltas.
        assert_eq!(restored, sg.total_half_edges() + 2);
    }

    #[test]
    fn isolated_vertices_are_present_with_empty_adjacency() {
        let g = Graph::unweighted(20, [(0, 1)]);
        let sg = shard_of(&g, 3, 31);
        let part = sg.partition();
        for v in 2..20u32 {
            assert!(sg.view(part.home(v)).neighbors(v).is_empty());
        }
    }

    /// Every shard's `adjacency()` is its `verts()` zipped with `neighbors()`.
    fn assert_adjacency_walks_the_shards(sg: &ShardedGraph) {
        for i in 0..sg.k() {
            let view = sg.view(i);
            let by_id: Vec<_> = view
                .verts()
                .iter()
                .map(|&v| (v, view.neighbors(v)))
                .collect();
            assert_eq!(view.adjacency().collect::<Vec<_>>(), by_id, "shard {i}");
        }
    }

    #[test]
    fn adjacency_walks_each_shard_in_vertex_order() {
        let g = generators::randomize_weights(&generators::gnm(150, 500, 71), 40, 72);
        let mut sg = shard_of(&g, 4, 73);
        assert_adjacency_walks_the_shards(&sg);
        for e in g.edges().iter().step_by(3) {
            sg.stage_delete(e.u, e.v);
        }
        sg.stage_insert(0, 149, 5);
        sg.compact();
        assert_adjacency_walks_the_shards(&sg);
    }

    /// `g`'s components with an even smallest vertex: a mask closed under
    /// adjacency.
    fn even_components(g: &Graph) -> Vec<bool> {
        let comp = crate::refalgo::connected_components(g);
        comp.iter().map(|&c| c % 2 == 0).collect()
    }

    #[test]
    fn induced_shards_are_the_ingested_induced_edge_list() {
        let g = generators::randomize_weights(&generators::gnm(300, 260, 81), 90, 82);
        let keep = even_components(&g);
        assert!(keep.iter().any(|&k| k) && !keep.iter().all(|&k| k));
        let part = Partition::random_vertex(&g, 5, 83);
        let induced = ShardedGraph::from_graph(&g, &part).induced(&keep);
        let kept = g.edges().iter().filter(|e| keep[e.u as usize]).copied();
        let stream = crate::stream::VecStream::new(g.n(), kept.collect());
        let want = ShardedGraph::from_stream_with_partition(stream, part);
        assert_eq!((induced.n(), induced.m()), (want.n(), want.m()));
        for i in 0..5 {
            let want = want.view(i);
            let want = want.adjacency().filter(|&(v, _)| keep[v as usize]);
            let got: Vec<_> = induced.view(i).adjacency().collect();
            assert_eq!(got, want.collect::<Vec<_>>(), "shard {i}");
        }
        assert_adjacency_walks_the_shards(&induced);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "closed under adjacency")]
    fn an_induced_mask_must_be_closed_under_adjacency() {
        let g = generators::path(30);
        let keep: Vec<bool> = (0..30).map(|v| v < 10).collect();
        let _ = shard_of(&g, 3, 91).induced(&keep);
    }
}
