//! The contraction/encoding ablation family (DESIGN.md §4, E23).
//!
//! Every cell runs the sketch-based connectivity headliner on one shared
//! ingested cluster under the four ablations of DESIGN.md §3.11 —
//! `{contract, no-contract} × {Encoding::Naive, Encoding::Varint}` — and
//! compares answers bit-for-bit against the uncontracted/naive baseline.
//! The headline guarantee is that both knobs are *observationally pure*:
//! contraction changes the communication pattern but not the answer, and
//! the encoding changes only the charged bits (every varint run carries
//! the per-message naive sum in [`kmachine::metrics::CommStats::naive_bits`]
//! as the oracle).
//! `tests/contraction_family.rs` pins the E20 bits envelope (contracted +
//! varint ≤ 0.5× the naive baseline).

use kconn::session::{Cluster, Connectivity, Problem};
use kconn::ConnectivityConfig;
use kmachine::message::Encoding;

/// One knob setting of the 2×2 ablation grid.
#[derive(Clone, Copy, Debug)]
pub struct AblationCell {
    /// Name used in ids, tables and records.
    pub name: &'static str,
    /// Phase-boundary supergraph contraction on/off.
    pub contract: bool,
    /// The wire encoding the superstep layer charges under.
    pub encoding: Encoding,
}

/// The full grid, baseline first (uncontracted, per-message naive charge —
/// bit-identical to the pre-§3.11 engine).
pub fn ablations() -> [AblationCell; 4] {
    [
        AblationCell {
            name: "baseline",
            contract: false,
            encoding: Encoding::Naive,
        },
        AblationCell {
            name: "contract",
            contract: true,
            encoding: Encoding::Naive,
        },
        AblationCell {
            name: "varint",
            contract: false,
            encoding: Encoding::Varint,
        },
        AblationCell {
            name: "contract+varint",
            contract: true,
            encoding: Encoding::Varint,
        },
    ]
}

impl AblationCell {
    /// The cell's connectivity config on top of the defaults.
    pub fn conn_cfg(&self) -> ConnectivityConfig {
        ConnectivityConfig {
            contract: self.contract,
            encoding: self.encoding,
            ..ConnectivityConfig::default()
        }
    }
}

/// One ablation cell's measurement against the shared baseline.
#[derive(Clone, Debug)]
pub struct ContractionMeasurement {
    /// The grid cell measured.
    pub cell: &'static str,
    /// Whether the outputs (labels + §2.6 count) were bit-identical to the
    /// baseline cell's.
    pub identical: bool,
    /// Rounds charged under this cell.
    pub rounds: u64,
    /// Total bits charged under this cell's encoding.
    pub total_bits: u64,
    /// The per-message naive oracle accumulated alongside.
    pub naive_bits: u64,
    /// The busiest link's bits.
    pub max_link_bits: u64,
    /// Borůvka-style phases executed.
    pub phases: u32,
    /// Wall-clock milliseconds for the run (simulator time, debug or
    /// release — comparable only within one process).
    pub wall_ms: f64,
}

impl ContractionMeasurement {
    /// This cell's charged bits relative to the baseline cell's.
    pub fn bits_ratio(&self, baseline: &ContractionMeasurement) -> f64 {
        self.total_bits as f64 / baseline.total_bits.max(1) as f64
    }
}

/// Runs the connectivity headliner under every grid cell on one shared
/// ingested cluster; `out[0]` is the baseline every other cell is compared
/// against.
pub fn measure(cluster: &Cluster) -> Vec<ContractionMeasurement> {
    let mut out: Vec<ContractionMeasurement> = Vec::new();
    let mut baseline = None;
    for cell in ablations() {
        let t0 = std::time::Instant::now();
        let run = cluster.run(Connectivity::with(cell.conn_cfg()));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let key = (run.output.labels.clone(), run.output.counted_components);
        let identical = match &baseline {
            None => {
                baseline = Some(key);
                true
            }
            Some(base) => *base == key,
        };
        out.push(ContractionMeasurement {
            cell: cell.name,
            identical,
            rounds: run.report.stats.rounds,
            total_bits: run.report.stats.total_bits,
            naive_bits: run.report.stats.naive_bits,
            max_link_bits: run.report.stats.max_link_bits,
            phases: run.output.phases,
            wall_ms,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::large::LargeScenario;

    #[test]
    fn grid_covers_all_four_cells_baseline_first() {
        let grid = ablations();
        assert_eq!(grid[0].name, "baseline");
        assert!(!grid[0].contract);
        assert!(matches!(grid[0].encoding, Encoding::Naive));
        let mut seen: Vec<(bool, bool)> = grid
            .iter()
            .map(|c| (c.contract, matches!(c.encoding, Encoding::Varint)))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4, "the 2×2 grid must be exhaustive");
    }

    #[test]
    fn measure_reports_identical_answers_on_a_small_cell() {
        let s = LargeScenario {
            id: "test/contraction".into(),
            n: 600,
            extra: 900,
            k: 4,
            seed: 9,
        };
        let ms = measure(&s.cluster());
        assert_eq!(ms.len(), 4);
        assert!(ms.iter().all(|m| m.identical));
        // The naive oracle is encoding-independent on a fixed trajectory
        // pair: varint cells carry the matching naive cell's charge.
        assert_eq!(ms[0].total_bits, ms[0].naive_bits);
        assert_eq!(ms[2].naive_bits, ms[0].total_bits);
        assert_eq!(ms[3].naive_bits, ms[1].total_bits);
    }
}
