//! `O(log n)`-approximate minimum cut (paper §3.2, Theorem 3).
//!
//! Karger random-sampling probes \[18\], as proposed for the CONGEST model in
//! Ghaffari–Kuhn \[15\], with our fast connectivity algorithm as the
//! connectivity tester: sample every edge independently with geometrically
//! decreasing probabilities `p_i = 2^{-i}`; the first probe whose sampled
//! subgraph disconnects localizes the min cut weight λ within an `O(log n)`
//! factor (a cut of weight λ survives sampling w.h.p. while `p·λ ≳ log n`).
//!
//! Sampling uses shared randomness keyed by the canonical edge, so both
//! endpoint home machines make identical decisions with zero communication
//! — each probe's subsampled graph is materialized *per shard*
//! ([`kgraph::ShardedGraph::filter_edges`]), never centrally. Integer
//! weights are treated as edge multiplicities: an edge of weight `w`
//! survives with probability `1 − (1−p)^w`.
//!
//! ```
//! use kconn::session::{Cluster, MinCut, Problem};
//! use kconn::MinCutConfig;
//! use kgraph::generators;
//!
//! // Two dense blocks joined by 2 unit bridges: lambda = 2.
//! let g = generators::barbell(16, 2, 1, 5);
//! let cluster = Cluster::builder(4).seed(5).ingest_graph(&g);
//! let out = cluster.run(MinCut::with(MinCutConfig::default())).output;
//! // The estimate is within the Theorem-3 O(log n) factor of 2.
//! let ratio = (out.estimate.max(1) as f64 / 2.0).max(2.0 / out.estimate.max(1) as f64);
//! assert!(ratio <= 4.0 * (g.n() as f64).log2());
//! ```

use crate::connectivity::connected_components_sharded;
use crate::engine::EngineConfig;
use crate::session::{Cluster, MinCut, Problem};
use kgraph::ShardedGraph;
use kmachine::metrics::CommStats;
use krand::shared::{SharedRandomness, Use};

/// Configuration for the min-cut approximation: the engine's knobs, handed
/// to every inner connectivity probe (which always runs the §2.6 output
/// protocol, whatever `run_output_protocol` says).
pub type MinCutConfig = EngineConfig;

/// The result of a min-cut approximation run.
#[derive(Clone, Debug)]
pub struct MinCutOutput {
    /// The estimate `λ̂` (an `O(log n)`-approximation of λ w.h.p.).
    pub estimate: u64,
    /// The probe index at which the sampled graph first disconnected.
    pub disconnecting_probe: u32,
    /// Total probes run.
    pub probes: u32,
    /// Combined communication accounting over all probes.
    pub stats: CommStats,
    /// Part sketches hashed from edges, summed over all probes.
    pub sketch_builds: u64,
}

impl Problem for MinCut {
    type Output = MinCutOutput;
    const NAME: &'static str = "mincut";

    fn with(cfg: EngineConfig) -> Self {
        MinCut { cfg }
    }

    fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Approximates the min cut of a *connected* input; returns
    /// `estimate = 0` immediately (after one probe) if it is already
    /// disconnected.
    fn solve(&self, cluster: &Cluster) -> MinCutOutput {
        let (sg, seed, cfg) = (cluster.sharded(), cluster.seed(), &self.cfg);
        let k = sg.k();
        let shared = SharedRandomness::new(seed ^ 0xC07);
        let conn_cfg = EngineConfig {
            run_output_protocol: true,
            ..cfg.clone()
        };
        let mut stats = CommStats::new(k);
        let mut sketch_builds = 0;
        // Probe i = 0 is p = 1 (the input graph itself). Each machine knows its
        // local maximum weight; the global max is free to aggregate in-model.
        let max_w = (0..k)
            .filter_map(|i| {
                let nbrs = sg.view(i).adjacency().flat_map(|(_, nbrs)| nbrs);
                nbrs.map(|&(_, w)| w).max()
            })
            .max()
            .unwrap_or(1);
        let max_probe =
            2 + 64 - max_w.leading_zeros() + kmachine::bandwidth::ceil_log2(sg.n().max(2));
        let mut disconnecting = None;
        let mut probes = 0;
        for i in 0..max_probe {
            probes += 1;
            let sampled = sample_sharded(sg, &shared, i);
            let out = connected_components_sharded(&sampled, seed ^ (i as u64) << 32, &conn_cfg);
            stats.absorb(&out.stats);
            sketch_builds += out.sketch_builds;
            if out.component_count() > 1 {
                disconnecting = Some(i);
                break;
            }
        }
        let i_star = disconnecting.unwrap_or(max_probe);
        // λ is localized around 2^{i*} · Θ(log n); report the geometric pivot.
        // With p = 2^{-i*} the graph disconnected, so λ ≲ 2^{i*} · O(log n);
        // with p = 2^{-(i*-1)} it stayed connected, so λ ≳ 2^{i*-1} / O(log n).
        let estimate = match i_star {
            0 => 0,
            i => 1u64.checked_shl(i - 1).unwrap_or(u64::MAX),
        };
        MinCutOutput {
            estimate,
            disconnecting_probe: i_star,
            probes,
            stats,
            sketch_builds,
        }
    }

    fn stats(out: &MinCutOutput) -> &CommStats {
        &out.stats
    }

    fn phases(out: &MinCutOutput) -> u32 {
        out.probes
    }

    fn sketch_builds(out: &MinCutOutput) -> u64 {
        out.sketch_builds
    }
}

/// The sampled sharded subgraph of probe `i` (`p = 2^{-i}`): a
/// shared-randomness decision per canonical edge, so both endpoint home
/// shards keep or drop it identically with zero communication.
fn sample_sharded(sg: &ShardedGraph, shared: &SharedRandomness, probe: u32) -> ShardedGraph {
    if probe == 0 {
        return sg.clone();
    }
    let prf = shared.prf(Use::MinCutSample { probe });
    let n = sg.n();
    sg.filter_edges(|u, v, w| {
        // Keep with probability 1 − (1−p)^w. The first 64 units of weight
        // flip one Bernoulli(p) coin each: all `probe` leading bits of the
        // unit's PRF value zero (no unit survives at probe ≥ 64) …
        let id = u as u64 * n as u64 + v as u64;
        let unit = |t| probe < 64 && prf.eval(id, t) >> (64 - probe) == 0;
        if (0..w.min(64)).any(unit) {
            return true;
        }
        // … and the other w − 64 draw at once: one PRF value, uniform on
        // [0, 1), against their joint miss probability (1 − p)^(w−64).
        w > 64 && {
            let p = (-f64::from(probe)).exp2();
            let miss = ((w - 64) as f64 * (-p).ln_1p()).exp();
            (prf.eval(id, 64) >> 11) as f64 * (-53f64).exp2() >= miss
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::{generators, mincut, refalgo, Graph};

    fn shard(g: &Graph, k: usize, seed: u64) -> ShardedGraph {
        ShardedGraph::from_graph(g, &kgraph::Partition::random_vertex(g, k, seed))
    }

    #[test]
    fn sampling_probe0_is_identity() {
        let g = generators::gnm(50, 120, 1);
        let shared = SharedRandomness::new(2);
        let s = sample_sharded(&shard(&g, 4, 1), &shared, 0);
        assert_eq!(s.m(), g.m());
    }

    #[test]
    fn sampling_rate_halves_per_probe() {
        let g = generators::gnm(200, 4000, 3);
        let shared = SharedRandomness::new(4);
        let sg = shard(&g, 4, 3);
        let m1 = sample_sharded(&sg, &shared, 1).m() as f64;
        let m2 = sample_sharded(&sg, &shared, 2).m() as f64;
        assert!((m1 / g.m() as f64 - 0.5).abs() < 0.1, "p=1/2 keeps ~half");
        assert!(
            (m2 / g.m() as f64 - 0.25).abs() < 0.1,
            "p=1/4 keeps ~quarter"
        );
    }

    #[test]
    fn heavier_edges_survive_longer() {
        let n = 400;
        let edges: Vec<(u32, u32, u64)> = (0..n as u32 - 1).map(|i| (i, i + 1, 16)).collect();
        let g = Graph::from_edges(n, edges);
        let shared = SharedRandomness::new(5);
        // p = 1/2 with w = 16: survival 1 - 2^-16 each.
        let s = sample_sharded(&shard(&g, 4, 5), &shared, 1);
        assert!(s.m() as f64 > 0.99 * g.m() as f64);
    }

    #[test]
    fn heavy_edges_sample_by_their_whole_weight() {
        // A 4-vertex path of uniform weight w has λ = w.
        for w in [1_000, 1_000_000, 1 << 40] {
            let g = Graph::from_edges(4, (0..3).map(|i| (i, i + 1, w)));
            let cluster = Cluster::builder(2).seed(3).ingest_graph(&g);
            let est = cluster.run(MinCut::default()).output.estimate as f64;
            let ratio = (est / w as f64).max(w as f64 / est);
            assert!(ratio <= 8.0, "w = {w}: estimate {est}");
        }
        // The heaviest weight samples and estimates without overflowing.
        let g = Graph::from_edges(2, [(0, 1, u64::MAX)]);
        let cluster = Cluster::builder(2).seed(3).ingest_graph(&g);
        assert!(cluster.run(MinCut::default()).output.estimate > 0);
    }

    #[test]
    fn barbell_estimate_is_within_log_factor() {
        // Bridge weight 4 between two dense blocks: λ = 4.
        let g = generators::barbell(24, 4, 1, 7);
        let lambda = mincut::stoer_wagner(&g).unwrap();
        assert_eq!(lambda, 4);
        let cluster = Cluster::builder(4).seed(9).ingest_graph(&g);
        let out = cluster.run(MinCut::default()).output;
        let logn = (g.n() as f64).log2();
        let est = out.estimate.max(1) as f64;
        let ratio = (est / lambda as f64).max(lambda as f64 / est);
        assert!(
            ratio <= 4.0 * logn,
            "ratio {ratio} exceeds O(log n) = {logn}"
        );
        assert!(out.stats.rounds > 0);
    }

    #[test]
    fn denser_graphs_need_deeper_probes() {
        // λ(K_n restricted)… use G(n, m) with increasing density: the
        // disconnecting probe index must not decrease.
        let sparse = generators::random_connected(128, 30, 11);
        let dense = generators::random_connected(128, 1500, 12);
        let builder = Cluster::builder(4).seed(13);
        let a = builder.ingest_graph(&sparse).run(MinCut::default()).output;
        let b = builder.ingest_graph(&dense).run(MinCut::default()).output;
        assert!(
            b.disconnecting_probe >= a.disconnecting_probe,
            "denser graph disconnects later: {} vs {}",
            b.disconnecting_probe,
            a.disconnecting_probe
        );
    }

    #[test]
    fn disconnected_input_estimates_zero() {
        let g = generators::planted_components(60, 2, 4, 15);
        assert!(refalgo::component_count(&g) > 1);
        let cluster = Cluster::builder(4).seed(16).ingest_graph(&g);
        let out = cluster.run(MinCut::default()).output;
        assert_eq!(out.estimate, 0);
        assert_eq!(out.disconnecting_probe, 0);
    }
}
