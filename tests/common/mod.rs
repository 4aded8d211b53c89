//! Shared test support: the seeded scenario matrix every conformance test
//! drives the distributed algorithms through (DESIGN.md §5).
//!
//! A [`Scenario`] is one cell of the cross product
//!
//! ```text
//! graph family × machine count k × per-link bandwidth × master seed
//! ```
//!
//! plus the partition model an algorithm runs under (RVP by default; REP
//! for the §1.3 baseline). Everything is deterministic in the scenario
//! seed, so a failing cell reproduces exactly from its printed id.
//!
//! Each integration-test binary that declares `mod common;` compiles its
//! own copy of this module and typically uses a subset of it.
#![allow(dead_code)]

use kmm::machine::metrics::CommStats;
use kmm::prelude::*;

/// One cell of the conformance matrix.
pub struct Scenario {
    /// Human-readable cell id, printed by every assertion.
    pub id: String,
    /// Graph family name.
    pub family: &'static str,
    /// The input graph.
    pub g: Graph,
    /// Machine count `k ≥ 2`.
    pub k: usize,
    /// Per-link bandwidth policy.
    pub bandwidth: Bandwidth,
    /// Master seed (drives partition hashing and algorithm randomness).
    pub seed: u64,
}

impl Scenario {
    /// A session [`Cluster`] for this cell: the scenario graph ingested
    /// once under the cell's `(k, seed)`. Conformance tests dispatch every
    /// algorithm through it and may reuse one cluster across several
    /// algorithms.
    pub fn cluster(&self) -> Cluster {
        Cluster::builder(self.k)
            .seed(self.seed)
            .ingest_graph(&self.g)
    }

    /// The run configuration every problem of this cell takes: the
    /// defaults at the scenario's bandwidth, under a fresh recording
    /// tracer whose events feed [`assert_stats_sane`].
    pub fn cfg(&self) -> EngineConfig {
        EngineConfig {
            bandwidth: self.bandwidth,
            trace: Tracer::recording(),
            ..EngineConfig::default()
        }
    }
}

/// The machine counts of the matrix (the model needs `k ≥ 2`).
pub const KS: [usize; 4] = [2, 3, 5, 8];

/// The master seeds of the matrix. Pinned: conformance runs are exactly
/// reproducible, and a cell that passes once passes forever.
pub const SEEDS: [u64; 2] = [3, 11];

/// The per-link bandwidth policies of the matrix: a tight fixed budget
/// (stress-tests multi-round message slicing) and the standard
/// `c·log²n`-bits polylog budget of the paper.
pub fn bandwidths() -> [Bandwidth; 2] {
    [Bandwidth::Bits(48), Bandwidth::PolylogSquared { c: 8 }]
}

/// The graph menagerie: structured topologies, random families, planted
/// multi-component inputs, a weighted family, and adversarial shapes
/// (star = the Theorem 2(b) bottleneck; barbell = known min cut).
pub fn graph_families(seed: u64) -> Vec<(&'static str, Graph)> {
    vec![
        ("path", generators::path(64)),
        ("cycle", generators::cycle(65)),
        ("grid", generators::grid(8, 9)),
        ("star", generators::star(64)),
        ("tree", generators::random_tree(110, seed ^ 0x7EE)),
        ("gnp-sparse", generators::gnp(150, 0.015, seed ^ 0x61)),
        ("gnm", generators::gnm(120, 260, seed ^ 0x62)),
        (
            "planted-2",
            generators::planted_components(120, 2, 4, seed ^ 0x63),
        ),
        (
            "planted-5",
            generators::planted_components(150, 5, 3, seed ^ 0x64),
        ),
        ("barbell", generators::barbell(24, 3, 5, seed ^ 0x65)),
        (
            "weighted-gnm",
            generators::randomize_weights(
                &generators::gnm(100, 220, seed ^ 0x66),
                1000,
                seed ^ 0x67,
            ),
        ),
        ("odd-cycle", generators::parity_cycle(33, true)),
        (
            "isolated-pairs",
            Graph::unweighted(40, [(0, 1), (2, 3), (4, 5)]),
        ),
    ]
}

/// The full conformance matrix: every family × every `k` × every bandwidth
/// × every seed. ~200 cells of small graphs — cheap enough that the
/// headline connectivity algorithm runs on all of them.
pub fn matrix() -> Vec<Scenario> {
    let mut out = Vec::new();
    for &seed in &SEEDS {
        for (family, g) in graph_families(seed) {
            for &k in &KS {
                for &bandwidth in &bandwidths() {
                    out.push(Scenario {
                        id: format!("{family}/k{k}/{bandwidth:?}/seed{seed}"),
                        family,
                        g: g.clone(),
                        k,
                        bandwidth,
                        seed,
                    });
                }
            }
        }
    }
    out
}

/// Every `stride`-th cell of [`matrix`], offset by `phase` — a deterministic
/// subsample for the more expensive algorithms. Cells are first scrambled
/// by a hash of their id, so a stride can never alias with an axis period
/// (striding the natural order by the k×bandwidth period would silently
/// drop whole axis values); every family, `k`, bandwidth and seed keeps
/// appearing in every subsample.
pub fn sub_matrix(stride: usize, phase: usize) -> Vec<Scenario> {
    let mut cells = matrix();
    cells.sort_by_key(|s| fnv1a(&s.id));
    cells
        .into_iter()
        .skip(phase)
        .step_by(stride.max(1))
        .collect()
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs `f` and returns its result with the logical events `trace`
/// recorded meanwhile: one run's events for [`assert_stats_sane`] when
/// several runs share a tracer.
pub fn traced<T>(trace: &Tracer, f: impl FnOnce() -> T) -> (T, Vec<TraceRecord>) {
    let mark = trace.mark();
    let out = f();
    (out, trace.events_since(mark))
}

/// Model-accounting invariants every run must satisfy, whatever the
/// algorithm (DESIGN.md §3.1): bit conservation, per-link maxima bounded
/// by totals, and round/superstep consistency. The per-superstep checks
/// read `events`, the run's logical trace: its `Superstep` events are the
/// only per-superstep record (DESIGN.md §3.14).
///
/// Two accounting paths are deliberately looser: `charge_modeled_rounds`
/// (the §2.2 shared-randomness charge) adds send bits and rounds without a
/// superstep or receive bits, and `charge_barrier` adds a bare round — so
/// the per-superstep sums bound the totals from *below*.
pub fn assert_stats_sane(id: &str, stats: &CommStats, k: usize, events: &[TraceRecord]) {
    assert_eq!(stats.sent_bits.len(), k, "{id}: sent_bits arity");
    assert_eq!(stats.recv_bits.len(), k, "{id}: recv_bits arity");
    let sent: u64 = stats.sent_bits.iter().sum();
    let recv: u64 = stats.recv_bits.iter().sum();
    assert_eq!(sent, stats.total_bits, "{id}: sent bits must sum to total");
    assert!(
        recv <= stats.total_bits,
        "{id}: received bits ({recv}) cannot exceed total sent ({})",
        stats.total_bits
    );
    assert!(
        stats.max_link_bits <= stats.total_bits,
        "{id}: a single link cannot exceed the total ({} > {})",
        stats.max_link_bits,
        stats.total_bits
    );
    if stats.total_bits > 0 {
        assert!(stats.rounds > 0, "{id}: communication must cost rounds");
    }
    let (mut count, mut rounds, mut bits, mut msgs, mut max_link) = (0, 0, 0, 0, 0);
    for r in events {
        if let TraceEvent::Superstep {
            index,
            rounds: r_rounds,
            bits: r_bits,
            messages,
            max_link_bits,
            ..
        } = r.event
        {
            assert!(
                max_link_bits <= r_bits,
                "{id}: superstep {index} link max exceeds its total"
            );
            assert!(
                r_bits == 0 || r_rounds >= 1,
                "{id}: superstep {index} moved bits for free"
            );
            count += 1;
            rounds += r_rounds;
            bits += r_bits;
            msgs += messages;
            max_link = max_link.max(max_link_bits);
        }
    }
    assert_eq!(
        count, stats.supersteps,
        "{id}: one Superstep event per superstep"
    );
    assert!(
        rounds <= stats.rounds,
        "{id}: superstep rounds ({rounds}) exceed the charged total ({})",
        stats.rounds
    );
    assert!(
        bits <= stats.total_bits,
        "{id}: superstep bits ({bits}) exceed the total ({})",
        stats.total_bits
    );
    assert_eq!(
        msgs, stats.messages,
        "{id}: per-superstep messages must sum"
    );
    assert_eq!(
        max_link, stats.max_link_bits,
        "{id}: max_link_bits is the heaviest single superstep's link"
    );
}

/// The DESIGN.md §3.1 reference for `Bsp::superstep`'s round charge: a
/// round-by-round store-and-forward drain of one batch `(src, dst, bits)`
/// over per-directed-link FIFO queues. Every round each link transmits up
/// to `w` bits from the head of its queue; a message that does not fit in
/// what is left of the round's budget is sent partially and carries over.
/// Returns `(rounds until every queue is empty, total bits)`. It steps
/// rounds on purpose — computing `⌈bits/W⌉` here would re-derive the
/// formula under test instead of checking it.
pub fn fifo_drain(k: usize, w: u64, msgs: &[(usize, usize, u64)]) -> (u64, u64) {
    let mut links = vec![std::collections::VecDeque::new(); k * k];
    for &(src, dst, bits) in msgs {
        links[src * k + dst].push_back(bits);
    }
    let mut rounds = 0;
    while links.iter().any(|q| !q.is_empty()) {
        rounds += 1;
        for q in &mut links {
            let mut budget = w;
            while let Some(head) = q.front_mut() {
                if *head > budget {
                    *head -= budget;
                    break;
                }
                budget -= *head;
                q.pop_front();
            }
        }
    }
    (rounds, msgs.iter().map(|m| m.2).sum())
}

/// Whether two labelings induce the same partition of `0..n` (labels may
/// differ; the blocks may not). Returns the offending vertex pair on
/// mismatch so assertions print actionable ids. Generic: distributed
/// outputs label with `u64`, the union-find oracle with `u32`.
pub fn same_partition<A, B>(a: &[A], b: &[B]) -> Result<(), (usize, usize)>
where
    A: Copy + Eq + std::hash::Hash,
    B: Copy + Eq + std::hash::Hash,
{
    assert_eq!(
        a.len(),
        b.len(),
        "label vectors must cover the same vertices"
    );
    use std::collections::HashMap;
    let mut fwd: HashMap<A, (B, usize)> = HashMap::new();
    let mut bwd: HashMap<B, (A, usize)> = HashMap::new();
    for v in 0..a.len() {
        let (la, lb) = (a[v], b[v]);
        match fwd.get(&la) {
            None => {
                fwd.insert(la, (lb, v));
            }
            Some(&(mapped, first)) => {
                if mapped != lb {
                    return Err((first, v));
                }
            }
        }
        match bwd.get(&lb) {
            None => {
                bwd.insert(lb, (la, v));
            }
            Some(&(mapped, first)) => {
                if mapped != la {
                    return Err((first, v));
                }
            }
        }
    }
    Ok(())
}

/// Asserts component labels are *sound and complete* against the
/// union-find reference: identical partitions of the vertex set.
pub fn assert_labels_match_reference<T>(id: &str, got: &[T], g: &Graph)
where
    T: Copy + Eq + std::hash::Hash + std::fmt::Debug,
{
    let reference = refalgo::connected_components(g);
    if let Err((u, v)) = same_partition(got, &reference) {
        panic!(
            "{id}: labels disagree with union-find at vertices {u} and {v}: \
             got ({:?}, {:?}), reference ({}, {})",
            got[u], got[v], reference[u], reference[v]
        );
    }
}
