//! The linear ℓ₀-sketch: geometric levels × repetitions of 1-sparse cells.

use crate::incidence::{decode_edge, domain, encode_edge};
use crate::onesparse::Cell;
use kmachine::bandwidth::ceil_log2;
use krand::m61::M61;
use krand::poly::{PolyBatch, PolyHash};
use krand::shared::{SharedRandomness, Use};

/// Shape parameters of a sketch. All sketches that are merged together must
/// share the same parameters *and* the same [`SketchFns`] (same phase).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SketchParams {
    /// Number of vertices of the underlying graph (fixes the index domain).
    pub n: usize,
    /// Geometric levels; level `ℓ` keeps an index with probability `2^-ℓ`.
    pub levels: u32,
    /// Independent repetitions (drives the failure probability down
    /// exponentially).
    pub reps: u32,
    /// Independence parameter `d` of the level hash (Θ(log n)-wise,
    /// Cormode–Firmani).
    pub independence: usize,
}

impl SketchParams {
    /// Standard parameters for an `n`-vertex graph: enough levels to span
    /// the `n²` index domain plus slack, `Θ(log n)`-wise independent level
    /// hashing.
    pub fn for_graph(n: usize, reps: u32) -> Self {
        let log = ceil_log2(n.max(2));
        SketchParams {
            n,
            levels: (2 * log + 2).min(61),
            reps: reps.max(1),
            independence: (log as usize).max(8),
        }
    }

    /// Total number of cells.
    pub fn cells(&self) -> usize {
        self.levels as usize * self.reps as usize
    }

    /// Wire size of one sketch in bits.
    ///
    /// Each cell costs `64 + 64 + 61` bits: the value sum and index sum are
    /// transmitted mod `2^64` (wrapping addition is linear, and when the
    /// true cell content is 1-sparse the true values are small enough that
    /// the wrapped representatives are exact — a non-1-sparse cell is
    /// rejected by the fingerprint regardless of wrapping), and the
    /// fingerprint is one `F_{2^61−1}` element. This is `O(log² n)` bits per
    /// sketch, matching the paper's `polylog(n)` budget.
    pub fn wire_bits(&self) -> u64 {
        self.cells() as u64 * (64 + 64 + 61) + 32
    }
}

/// The shared hash functions of one phase: all machines derive identical
/// [`SketchFns`] from [`SharedRandomness`], so sketches built on different
/// machines are summable.
/// Laid out for [`L0Sketch::add_incident_edge`]: what one edge needs from all
/// repetitions sits together (DESIGN.md §3.3).
#[derive(Clone, Debug)]
pub struct SketchFns {
    params: SketchParams,
    /// The d-wise independent level hash of every repetition.
    level_hash: PolyBatch,
    /// `lo[v · reps + rep] = z_rep^v` for `v < n`; with [`Self::hi`] this
    /// turns the exponentiation `z^(u·n+v)` into one field multiplication.
    lo: Vec<M61>,
    /// `hi[u · reps + rep] = z_rep^(u·n)` for `u < n`.
    hi: Vec<M61>,
}

/// The fingerprint key `z` of repetition `rep` (shared across its levels:
/// soundness is per-cell polynomial identity testing).
fn fingerprint_key(shared: &SharedRandomness, phase: u32, rep: u32) -> M61 {
    let level = 0;
    let raw = shared
        .prf(Use::SketchFingerprint { phase, rep, level })
        .eval(0, 0);
    // Avoid the degenerate keys 0 and 1.
    M61::new(raw % (krand::m61::P - 2) + 2)
}

/// `table[i · step.len() + rep] = step[rep]^i` for `i < n`.
fn power_table(step: &[M61], n: usize) -> Vec<M61> {
    let mut table = Vec::with_capacity(n * step.len());
    let mut acc = vec![M61::ONE; step.len()];
    for _ in 0..n {
        table.extend_from_slice(&acc);
        for (a, &s) in acc.iter_mut().zip(step) {
            *a = a.mul(s);
        }
    }
    table
}

impl SketchFns {
    /// Derives the phase-`phase` sketch functions.
    pub fn new(shared: &SharedRandomness, phase: u32, params: SketchParams) -> Self {
        let polys: Vec<PolyHash> = (0..params.reps)
            .map(|rep| shared.poly(Use::SketchLevel { phase, rep }, params.independence))
            .collect();
        let z: Vec<M61> = (0..params.reps)
            .map(|rep| fingerprint_key(shared, phase, rep))
            .collect();
        let zn: Vec<M61> = z.iter().map(|zr| zr.pow(params.n as u64)).collect();
        SketchFns {
            params,
            level_hash: PolyBatch::new(&polys),
            lo: power_table(&z, params.n),
            hi: power_table(&zn, params.n),
        }
    }

    /// The sketch shape these functions serve.
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// True random bits these functions consume (§2.2 cost model): per
    /// repetition, the hash coefficients and the fingerprint key.
    pub fn random_bits(&self) -> u64 {
        u64::from(self.params.reps) * (self.params.independence as u64 + 1) * 61
    }
}

/// A linear sketch of a ±1 incidence vector (or of any signed sum of such
/// vectors — in particular of a component part or a whole component).
///
/// ```
/// use ksketch::{L0Sketch, SketchFns, SketchParams};
/// use krand::shared::SharedRandomness;
///
/// let params = SketchParams::for_graph(64, 5);
/// let fns = SketchFns::new(&SharedRandomness::new(1), 0, params);
/// // Sketch vertex 3 with neighbors {7, 9}, and vertex 7 with neighbor {3}.
/// let mut s3 = L0Sketch::new(params);
/// s3.add_incident_edge(&fns, 3, 7);
/// s3.add_incident_edge(&fns, 3, 9);
/// let mut s7 = L0Sketch::new(params);
/// s7.add_incident_edge(&fns, 7, 3);
/// // Merging cancels the shared edge (3,7): only (3,9) can be sampled.
/// s3.merge(&s7);
/// assert_eq!(s3.query(&fns), Some((3, 9)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct L0Sketch {
    params: SketchParams,
    cells: Vec<Cell>,
}

impl L0Sketch {
    /// The all-zero sketch.
    pub fn new(params: SketchParams) -> Self {
        L0Sketch {
            params,
            cells: vec![Cell::default(); params.cells()],
        }
    }

    /// The shape of this sketch.
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// The raw 1-sparse cells, row-major `rep × level` — what a byte
    /// transport serializes.
    pub fn cell_slice(&self) -> &[Cell] {
        &self.cells
    }

    /// Reassembles a sketch from decoded cells — the inverse of shipping
    /// [`L0Sketch::cell_slice`] over a byte transport. Panics if the cell
    /// count does not match the shape's `params.cells()`.
    pub fn from_cells(params: SketchParams, cells: Vec<Cell>) -> Self {
        assert_eq!(
            cells.len(),
            params.cells(),
            "decoded cell count must match the sketch shape"
        );
        L0Sketch { params, cells }
    }

    /// Adds the incidence-vector entry of the edge `{vertex, neighbor}` as
    /// seen from `vertex` (`+1` if `vertex` is the smaller endpoint, `−1`
    /// otherwise). Building `s_u` means calling this for every neighbor.
    pub fn add_incident_edge(&mut self, fns: &SketchFns, vertex: u32, neighbor: u32) {
        debug_assert_eq!(fns.params, self.params);
        let (a, b, sign) = if vertex < neighbor {
            (vertex, neighbor, 1i8)
        } else {
            (neighbor, vertex, -1i8)
        };
        let e = encode_edge(a, b, self.params.n);
        let (levels, reps) = (self.params.levels as usize, self.params.reps as usize);
        let hi = &fns.hi[a as usize * reps..][..reps];
        let lo = &fns.lo[b as usize * reps..][..reps];
        fns.level_hash.eval_each(e, |rep, h| {
            // z^(a·n+b) = hi[a] · lo[b]: one multiplication per (edge, rep).
            let mut entry = Cell::default();
            entry.add(e, sign, hi[rep].mul(lo[rep]));
            // Geometric depth: `P(depth ≥ ℓ) ≈ 2^−ℓ` via trailing zeros.
            let depth = (h.trailing_zeros() as usize).min(levels - 1);
            for cell in &mut self.cells[rep * levels..=rep * levels + depth] {
                cell.merge(&entry);
            }
        });
    }

    /// Removes the incidence-vector entry of the edge `{vertex, neighbor}`
    /// as seen from `vertex` — the group inverse of
    /// [`L0Sketch::add_incident_edge`]. Because the sketch is a linear
    /// projection, deleting an edge is just adding its contribution with
    /// the opposite sign: a sketch maintained through any interleaving of
    /// adds and removes equals the sketch built fresh from the surviving
    /// edge set. This is what makes the sketches *dynamic* — the property
    /// the incremental update layer (`core::dynamic`) builds on.
    pub fn remove_incident_edge(&mut self, fns: &SketchFns, vertex: u32, neighbor: u32) {
        // The negated contribution is exactly the edge as seen from the
        // *other* endpoint (same cells and fingerprint power, opposite
        // orientation sign), so removal is one add with swapped roles.
        self.add_incident_edge(fns, neighbor, vertex);
    }

    /// Merges another sketch (vector addition). Panics on shape mismatch —
    /// sketches from different phases must never be mixed.
    pub fn merge(&mut self, other: &L0Sketch) {
        assert_eq!(
            self.params, other.params,
            "cannot merge sketches of different shapes/phases"
        );
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            a.merge(b);
        }
    }

    /// Whether every cell is identically zero (empty support, w.h.p.).
    pub fn is_zero(&self) -> bool {
        self.cells.iter().all(Cell::is_zero)
    }

    /// Samples one edge from the support: scans each repetition from the
    /// sparsest level down and returns the first recoverable entry, decoded
    /// into a vertex pair. `None` when no cell is 1-sparse (either the
    /// support is empty or this phase's hashing was unlucky — the
    /// Monte-Carlo contract of the paper).
    pub fn query(&self, fns: &SketchFns) -> Option<(u32, u32)> {
        debug_assert_eq!(fns.params, self.params);
        let n = self.params.n;
        let dom = domain(n);
        let (levels, reps) = (self.params.levels as usize, self.params.reps as usize);
        (0..reps).find_map(|rep| {
            // `idx < n²` when asked, so both table rows exist.
            let z_pow = |idx: u64| {
                let (u, v) = ((idx / n as u64) as usize, (idx % n as u64) as usize);
                fns.hi[u * reps + rep].mul(fns.lo[v * reps + rep])
            };
            let row = &self.cells[rep * levels..][..levels];
            row.iter().rev().find_map(|cell| {
                let (e, _sign) = cell.recover(dom, z_pow)?;
                decode_edge(e, n)
            })
        })
    }

    /// Wire size in bits (see [`SketchParams::wire_bits`]).
    pub fn wire_bits(&self) -> u64 {
        self.params.wire_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> SharedRandomness {
        SharedRandomness::new(0xDECAF)
    }

    fn params(n: usize) -> SketchParams {
        SketchParams::for_graph(n, 6)
    }

    /// Builds the sketch of a single vertex from its neighbor list.
    fn vertex_sketch(fns: &SketchFns, v: u32, neighbors: &[u32]) -> L0Sketch {
        let mut s = L0Sketch::new(fns.params());
        for &nb in neighbors {
            s.add_incident_edge(fns, v, nb);
        }
        s
    }

    #[test]
    fn empty_sketch_queries_none() {
        let p = params(64);
        let fns = SketchFns::new(&shared(), 0, p);
        let s = L0Sketch::new(p);
        assert!(s.is_zero());
        assert_eq!(s.query(&fns), None);
    }

    #[test]
    fn single_edge_is_recovered_exactly() {
        let p = params(64);
        let fns = SketchFns::new(&shared(), 1, p);
        let s = vertex_sketch(&fns, 5, &[9]);
        assert_eq!(s.query(&fns), Some((5, 9)));
        // And from the other endpoint's perspective (negative sign).
        let s2 = vertex_sketch(&fns, 9, &[5]);
        assert_eq!(s2.query(&fns), Some((5, 9)));
    }

    #[test]
    fn query_returns_a_real_incident_edge() {
        let p = params(128);
        let fns = SketchFns::new(&shared(), 2, p);
        let neighbors: Vec<u32> = vec![3, 17, 42, 99, 100, 101, 120];
        let s = vertex_sketch(&fns, 64, &neighbors);
        let (u, v) = s.query(&fns).expect("nonempty support must sample");
        assert!(u == 64 || v == 64);
        let other = if u == 64 { v } else { u };
        assert!(neighbors.contains(&other));
    }

    #[test]
    fn linearity_cancels_the_shared_edge() {
        // Vertices 10 and 20 joined by an edge, each with one extra edge.
        // s_10 + s_20 must never sample (10,20); it must sample a cut edge.
        let p = params(64);
        let fns = SketchFns::new(&shared(), 3, p);
        let mut s = vertex_sketch(&fns, 10, &[20, 30]);
        let s20 = vertex_sketch(&fns, 20, &[10, 40]);
        s.merge(&s20);
        for _ in 0..3 {
            let (u, v) = s.query(&fns).expect("two cut edges remain");
            assert_ne!((u, v), (10, 20), "intra-component edge must cancel");
            assert!((u, v) == (10, 30) || (u, v) == (20, 40));
        }
    }

    #[test]
    fn full_component_cancellation_leaves_zero() {
        // A triangle is a whole component: summing all three vertex sketches
        // cancels every edge.
        let p = params(64);
        let fns = SketchFns::new(&shared(), 4, p);
        let mut s = vertex_sketch(&fns, 0, &[1, 2]);
        s.merge(&vertex_sketch(&fns, 1, &[0, 2]));
        s.merge(&vertex_sketch(&fns, 2, &[0, 1]));
        assert!(s.is_zero());
        assert_eq!(s.query(&fns), None);
    }

    #[test]
    fn component_with_one_outgoing_edge_samples_it() {
        // Component {0,1,2} (triangle) plus outgoing edge (2,50).
        let p = params(64);
        let fns = SketchFns::new(&shared(), 5, p);
        let mut s = vertex_sketch(&fns, 0, &[1, 2]);
        s.merge(&vertex_sketch(&fns, 1, &[0, 2]));
        s.merge(&vertex_sketch(&fns, 2, &[0, 1, 50]));
        assert_eq!(s.query(&fns), Some((2, 50)));
    }

    #[test]
    fn merge_order_does_not_matter() {
        let p = params(256);
        let fns = SketchFns::new(&shared(), 6, p);
        let parts: Vec<L0Sketch> = (0..8u32)
            .map(|v| vertex_sketch(&fns, v, &[v + 100, v + 101]))
            .collect();
        let mut fwd = L0Sketch::new(p);
        for s in &parts {
            fwd.merge(s);
        }
        let mut rev = L0Sketch::new(p);
        for s in parts.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd.cells, rev.cells);
    }

    #[test]
    fn samples_cover_the_support_across_phases() {
        // Rebuilding with fresh phase randomness must eventually sample
        // every outgoing edge (near-uniformity smoke test).
        let n = 128;
        let p = params(n);
        let outgoing: Vec<u32> = vec![40, 41, 42, 43];
        let mut seen = std::collections::HashSet::new();
        for phase in 0..40u32 {
            let fns = SketchFns::new(&shared(), phase, p);
            let s = vertex_sketch(&fns, 7, &outgoing);
            if let Some((u, v)) = s.query(&fns) {
                let other = if u == 7 { v } else { u };
                seen.insert(other);
            }
        }
        assert_eq!(seen.len(), outgoing.len(), "all edges should be sampled");
    }

    #[test]
    fn query_failure_rate_is_low() {
        // Across many (phase, support) combinations the sampler should
        // almost always succeed with 6 repetitions.
        let n = 256;
        let p = params(n);
        let mut fail = 0;
        let mut total = 0;
        for phase in 0..60u32 {
            let fns = SketchFns::new(&shared(), phase, p);
            let deg = 1 + (phase as usize * 7) % 40;
            let neighbors: Vec<u32> = (0..deg as u32).map(|i| 100 + i).collect();
            let s = vertex_sketch(&fns, 3, &neighbors);
            total += 1;
            if s.query(&fns).is_none() {
                fail += 1;
            }
        }
        assert!(fail * 20 < total, "failure rate {fail}/{total} too high");
    }

    #[test]
    fn remove_is_the_inverse_of_add() {
        let p = params(64);
        let fns = SketchFns::new(&shared(), 7, p);
        let mut s = vertex_sketch(&fns, 5, &[9, 11, 13]);
        s.remove_incident_edge(&fns, 5, 11);
        s.remove_incident_edge(&fns, 5, 9);
        s.remove_incident_edge(&fns, 5, 13);
        assert!(
            s.is_zero(),
            "removing every added edge must zero the sketch"
        );
        // And maintained-vs-fresh: interleaved adds/removes equal a fresh
        // build of the surviving edge set.
        let mut maintained = vertex_sketch(&fns, 5, &[9, 11]);
        maintained.remove_incident_edge(&fns, 5, 9);
        maintained.add_incident_edge(&fns, 5, 13);
        let fresh = vertex_sketch(&fns, 5, &[11, 13]);
        assert_eq!(maintained.cells, fresh.cells);
    }

    #[test]
    fn remove_respects_orientation_signs() {
        // Removing from the larger endpoint's perspective cancels the entry
        // added from the smaller endpoint's perspective only pairwise: the
        // ±1 orientation must be preserved through removal.
        let p = params(64);
        let fns = SketchFns::new(&shared(), 8, p);
        let mut s = L0Sketch::new(p);
        s.add_incident_edge(&fns, 3, 9); // +1 (3 < 9)
        s.add_incident_edge(&fns, 9, 3); // −1
        assert!(s.is_zero());
        s.add_incident_edge(&fns, 3, 9);
        s.remove_incident_edge(&fns, 3, 9);
        assert!(s.is_zero());
        s.add_incident_edge(&fns, 3, 9);
        s.remove_incident_edge(&fns, 9, 3);
        assert!(
            !s.is_zero(),
            "opposite-perspective removal must not cancel the +1 entry"
        );
    }

    /// Order-sensitive fold of every cell's three counters.
    fn cell_digest(s: &L0Sketch) -> u64 {
        s.cells.iter().fold(0, |acc, c| {
            [c.count as u64, c.index_sum, c.fingerprint.value()]
                .into_iter()
                .fold(acc, |acc, x| krand::split_mix64(acc ^ x))
        })
    }

    #[test]
    fn seeded_sketch_cells_match_the_committed_digest() {
        // One seeded sketch, pinned: a rewrite of the kernel (hash layout,
        // field reduction, power tables, cell width) that changes any cell
        // fails here rather than in a ledger pin three crates downstream.
        // The value was taken from the per-repetition `PolyHash::eval` +
        // `i128` index-sum implementation this kernel replaced.
        let p = SketchParams::for_graph(1000, 7);
        let fns = SketchFns::new(&shared(), 12, p);
        assert_eq!(fns.random_bits(), 4697, "§2.2 charge: 7 · (10 + 1) · 61");
        let edge = |i: u32| {
            let u = i * 37 % 1000;
            (u, (u + 1 + i * 91 % 999) % 1000)
        };
        let mut s = L0Sketch::new(p);
        for (u, v) in (0..400).map(edge) {
            s.add_incident_edge(&fns, u, v);
        }
        for (u, v) in (0..50).map(edge) {
            s.remove_incident_edge(&fns, u, v);
        }
        assert_eq!(cell_digest(&s), 0x3304_646C_C437_CCC7);
    }

    #[test]
    fn index_sums_wrapped_past_two_to_the_64_still_cancel_and_recover() {
        // A cell is exactly its charged 64 + 64 + 61 bits: the index sum
        // lives mod 2^64. Bias every cell to the top of the range so each
        // add overflows, then check linearity survives the wrap — what
        // `core::dynamic`'s zero-sketch certification relies on.
        let p = params(64);
        let fns = SketchFns::new(&shared(), 9, p);
        let biased = |index_sum: u64| {
            let cell = Cell {
                index_sum,
                ..Cell::default()
            };
            L0Sketch::from_cells(p, vec![cell; p.cells()])
        };
        let mut s = biased(u64::MAX - 2);
        s.merge(&vertex_sketch(&fns, 5, &[9, 11, 13]));
        assert!(s.cells[0].index_sum < 64 * 64, "level 0 must have wrapped");
        s.remove_incident_edge(&fns, 5, 9);
        s.remove_incident_edge(&fns, 5, 13);
        s.merge(&biased(3)); // −(2^64 − 3)
        assert_eq!(s.cells, vertex_sketch(&fns, 5, &[11]).cells);
        assert_eq!(s.query(&fns), Some((5, 11)));
        s.add_incident_edge(&fns, 11, 5);
        assert!(s.is_zero());
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn merging_mismatched_shapes_panics() {
        let a = L0Sketch::new(SketchParams::for_graph(64, 3));
        let mut b = L0Sketch::new(SketchParams::for_graph(128, 3));
        b.merge(&a);
    }

    #[test]
    fn wire_bits_are_polylog() {
        let p = SketchParams::for_graph(1 << 20, 4);
        // 42 levels * 4 reps * 189 bits + header: well under 2^16 bits.
        assert!(p.wire_bits() < 1 << 16);
        assert_eq!(L0Sketch::new(p).wire_bits(), p.wire_bits());
    }

    #[test]
    fn sketch_shape_log_agrees_with_the_bandwidth_layer() {
        // The sketch shape and the bandwidth accounting identities must be
        // driven by the *same* `⌈log₂ n⌉`: this crate used to carry a
        // private duplicate of `ceil_log2` that could silently drift from
        // `kmachine::bandwidth::ceil_log2`. Pin the agreement across the
        // whole small range plus the power-of-two boundaries.
        for n in 1usize..4096 {
            let log = kmachine::bandwidth::ceil_log2(n.max(2));
            let p = SketchParams::for_graph(n, 3);
            assert_eq!(p.levels, (2 * log + 2).min(61), "n = {n}");
            assert_eq!(p.independence, (log as usize).max(8), "n = {n}");
        }
        for shift in 10..40u32 {
            let n = 1usize << shift;
            assert_eq!(
                SketchParams::for_graph(n, 3).levels,
                (2 * kmachine::bandwidth::ceil_log2(n) + 2).min(61)
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn params() -> SketchParams {
        SketchParams::for_graph(256, 4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Merging is commutative and associative (sketches form a group
        /// under cell-wise addition — the heart of §2.3's linearity).
        #[test]
        fn merge_is_commutative_and_associative(
            edges_a in prop::collection::vec((0u32..255, 0u32..255), 0..20),
            edges_b in prop::collection::vec((0u32..255, 0u32..255), 0..20),
            edges_c in prop::collection::vec((0u32..255, 0u32..255), 0..20),
            phase in 0u32..50,
        ) {
            let p = params();
            let fns = SketchFns::new(&SharedRandomness::new(9), phase, p);
            let build = |list: &[(u32, u32)]| {
                let mut s = L0Sketch::new(p);
                for &(a, b) in list {
                    if a != b {
                        s.add_incident_edge(&fns, a, b);
                    }
                }
                s
            };
            let (a, b, c) = (build(&edges_a), build(&edges_b), build(&edges_c));
            // a + b == b + a
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab.cells, &ba.cells);
            // (a + b) + c == a + (b + c)
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(&ab_c.cells, &a_bc.cells);
        }

        /// The interleaved kernel equals the scalar definition cell for
        /// cell: per repetition, depth from `PolyHash::eval` and the
        /// fingerprint power from `z.pow(e)`. `reps` crosses the batch's
        /// lane width, and `levels` runs from shapes where every depth is
        /// clamped up to the 61-level maximum.
        #[test]
        fn batched_kernel_equals_scalar_reference(
            n in 2usize..300,
            reps in 1u32..=17,
            independence in 8usize..=24,
            levels_pick in 0usize..5,
            raw_edges in prop::collection::vec((0u32..300, 0u32..300), 1..40),
            phase in 0u32..1000,
            seed in 0u64..1000,
        ) {
            let levels = [1, 2, 5, SketchParams::for_graph(n, reps).levels, 61][levels_pick];
            let p = SketchParams { n, levels, reps, independence };
            let shared = SharedRandomness::new(seed);
            let fns = SketchFns::new(&shared, phase, p);
            let edges: Vec<(u32, u32)> = raw_edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .filter(|(u, v)| u != v)
                .collect();
            let mut fast = L0Sketch::new(p);
            for &(u, v) in &edges {
                fast.add_incident_edge(&fns, u, v);
            }
            let mut want = vec![Cell::default(); p.cells()];
            for rep in 0..reps {
                let h = shared.poly(Use::SketchLevel { phase, rep }, independence);
                let z = fingerprint_key(&shared, phase, rep);
                for &(u, v) in &edges {
                    let sign = if u < v { 1 } else { -1 };
                    let e = encode_edge(u.min(v), u.max(v), n);
                    let depth = h.eval(e).trailing_zeros().min(levels - 1);
                    let first = (rep * levels) as usize;
                    for cell in &mut want[first..=first + depth as usize] {
                        cell.add(e, sign, z.pow(e));
                    }
                }
            }
            prop_assert_eq!(&fast.cells, &want);
        }

        /// A vertex's sketch plus the same edges from the other endpoints'
        /// perspective cancels to zero (pairwise +1/−1 cancellation).
        #[test]
        fn opposite_perspectives_cancel(
            nbrs in prop::collection::hash_set(0u32..255, 1..20),
            phase in 0u32..50,
        ) {
            let p = params();
            let fns = SketchFns::new(&SharedRandomness::new(11), phase, p);
            let v = 255u32; // distinct from all neighbors by range
            let mut s = L0Sketch::new(p);
            for &nb in &nbrs {
                s.add_incident_edge(&fns, v, nb);
            }
            for &nb in &nbrs {
                s.add_incident_edge(&fns, nb, v);
            }
            prop_assert!(s.is_zero());
            prop_assert_eq!(s.query(&fns), None);
        }

        /// Whatever query returns is always an edge that was inserted (and
        /// not cancelled) — never a fabricated pair.
        #[test]
        fn query_never_fabricates_edges(
            nbrs in prop::collection::hash_set(0u32..254, 1..30),
            phase in 0u32..50,
        ) {
            let p = params();
            let fns = SketchFns::new(&SharedRandomness::new(13), phase, p);
            let v = 255u32;
            let mut s = L0Sketch::new(p);
            for &nb in &nbrs {
                s.add_incident_edge(&fns, v, nb);
            }
            if let Some((a, b)) = s.query(&fns) {
                prop_assert_eq!(b, v, "canonical order: v is the larger id");
                prop_assert!(nbrs.contains(&a), "({a},{b}) was never inserted");
            }
        }
    }
}
