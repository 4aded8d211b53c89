//! 2-party set disjointness in the random input partition model (§4).
//!
//! Alice holds `X ∈ {0,1}^b`, Bob holds `Y ∈ {0,1}^b`; they must decide
//! whether there is an index with `X[i] = Y[i] = 1`. In the *random input
//! partition* model each bit of the other player's input is additionally
//! revealed with probability 1/2 (Lemma 8 shows the problem still needs
//! `Ω(b)` bits of communication).

use krand::prf::Prf;

/// A set-disjointness instance.
#[derive(Clone, Debug)]
pub struct DisjointnessInstance {
    /// Alice's input vector.
    pub x: Vec<bool>,
    /// Bob's input vector.
    pub y: Vec<bool>,
}

impl DisjointnessInstance {
    /// A random instance where each bit is 1 with probability `density`
    /// (per mille). With `force` the instance is conditioned to be
    /// disjoint (`Some(true)`) or intersecting (`Some(false)`).
    pub fn random(b: usize, density_per_mille: u64, seed: u64, force: Option<bool>) -> Self {
        assert!(b > 0);
        let prf = Prf::new(seed).derive(0xD15);
        let mut x: Vec<bool> = (0..b as u64)
            .map(|i| prf.eval(0, i) % 1000 < density_per_mille)
            .collect();
        let mut y: Vec<bool> = (0..b as u64)
            .map(|i| prf.eval(1, i) % 1000 < density_per_mille)
            .collect();
        match force {
            Some(true) => {
                // Clear every intersection.
                for i in 0..b {
                    if x[i] && y[i] {
                        y[i] = false;
                    }
                }
            }
            Some(false) => {
                // Plant one intersection at a pseudo-random index.
                let i = (prf.eval(2, 0) % b as u64) as usize;
                x[i] = true;
                y[i] = true;
            }
            None => {}
        }
        DisjointnessInstance { x, y }
    }

    /// Whether the sets are disjoint (the answer the protocol must compute).
    pub fn disjoint(&self) -> bool {
        !self.x.iter().zip(&self.y).any(|(&a, &b)| a && b)
    }

    /// Instance length `b`.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the instance is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// The random reveals of the random-input-partition model: which of Bob's
/// bits Alice also sees and vice versa (each independently w.p. 1/2).
#[derive(Clone, Debug)]
pub struct RandomInputPartition {
    /// `y_to_alice[i]`: Alice also knows `Y[i]`.
    pub y_to_alice: Vec<bool>,
    /// `x_to_bob[i]`: Bob also knows `X[i]`.
    pub x_to_bob: Vec<bool>,
}

impl RandomInputPartition {
    /// Draws the reveal sets for an instance of length `b`.
    pub fn random(b: usize, seed: u64) -> Self {
        let prf = Prf::new(seed).derive(0x9EA);
        RandomInputPartition {
            y_to_alice: (0..b as u64).map(|i| prf.eval(0, i) & 1 == 1).collect(),
            x_to_bob: (0..b as u64).map(|i| prf.eval(1, i) & 1 == 1).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_disjoint_and_intersecting() {
        for seed in 0..20u64 {
            let d = DisjointnessInstance::random(64, 300, seed, Some(true));
            assert!(d.disjoint());
            let i = DisjointnessInstance::random(64, 300, seed, Some(false));
            assert!(!i.disjoint());
        }
    }

    #[test]
    fn density_controls_bit_rate() {
        let sparse = DisjointnessInstance::random(2000, 100, 1, None);
        let dense = DisjointnessInstance::random(2000, 700, 1, None);
        let count = |v: &[bool]| v.iter().filter(|&&b| b).count();
        assert!(count(&sparse.x) < count(&dense.x));
        let rate = count(&dense.x) as f64 / 2000.0;
        assert!((rate - 0.7).abs() < 0.08);
    }

    #[test]
    fn reveals_are_roughly_half() {
        let p = RandomInputPartition::random(4000, 5);
        let c = p.y_to_alice.iter().filter(|&&b| b).count();
        assert!((1800..2200).contains(&c), "reveal count {c}");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = DisjointnessInstance::random(128, 500, 9, None);
        let b = DisjointnessInstance::random(128, 500, 9, None);
        assert_eq!(a.x, b.x);
        assert_eq!(a.y, b.y);
    }
}
