//! The model parameters of a k-machine network: `k`, the per-link
//! bandwidth policy and how [`crate::bsp::Bsp`] charges for it.

use crate::bandwidth::{Bandwidth, CostModel};
use crate::message::Encoding;

/// Configuration of a k-machine network.
#[derive(Clone, Copy, Debug)]
pub struct NetworkConfig {
    /// Number of machines `k ≥ 2`.
    pub k: usize,
    /// Per-directed-link bandwidth policy.
    pub bandwidth: Bandwidth,
    /// Instance size `n` (resolves polylog bandwidth).
    pub n: usize,
    /// Which §1.1 restriction the BSP layer charges rounds under.
    pub cost_model: CostModel,
    /// Which wire encoding the BSP layer charges bandwidth under.
    pub encoding: Encoding,
}

impl NetworkConfig {
    /// A standard per-link configuration.
    pub fn new(k: usize, bandwidth: Bandwidth, n: usize) -> Self {
        NetworkConfig {
            k,
            bandwidth,
            n,
            cost_model: CostModel::PerLink,
            encoding: Encoding::Naive,
        }
    }

    /// The resolved per-link bits-per-round budget `W`.
    pub fn link_bits(&self) -> u64 {
        self.bandwidth.bits_per_round(self.n)
    }
}
