//! d-wise independent hash families via random polynomials over `F_{2^61-1}`.
//!
//! A uniformly random polynomial of degree `d-1` evaluated at distinct points
//! is a d-wise independent family (the classical Carter–Wegman / Joffe
//! construction, used by the paper through [Alon–Babai–Itai] and Theorem 2.1
//! of \[5\]). The linear-sketch level hashes need `Θ(log n)`-wise independence
//! (Cormode–Firmani), which this provides with `d = Θ(log n)` coefficients.

use crate::m61::{M61, P};
use crate::prf::Prf;

/// A hash function drawn from a d-wise independent polynomial family.
///
/// Evaluation maps `x ∈ [0, p)` to `h(x) ∈ [0, p)` by Horner's rule over the
/// Mersenne field. Coefficients are derived deterministically from a PRF key
/// so that every machine reconstructs the *same* function from the shared
/// seed without communication, mirroring Section 2.2 of the paper.
#[derive(Clone, Debug)]
pub struct PolyHash {
    coeffs: Vec<M61>,
}

impl PolyHash {
    /// Draws a degree-`(d-1)` polynomial (a d-wise independent function)
    /// with coefficients derived from `prf` under `domain`.
    pub fn from_prf(prf: &Prf, domain: u64, d: usize) -> Self {
        assert!(d >= 1, "independence parameter must be at least 1");
        let coeffs = (0..d)
            .map(|i| {
                // Rejection-free: PRF output folded into [0, p). The modulo
                // bias is 2^64 mod p ≈ 2^-58-level and irrelevant here.
                M61::new(prf.eval(domain, i as u64))
            })
            .collect();
        PolyHash { coeffs }
    }

    /// Builds a polynomial from explicit coefficients (tests / reproducibility).
    pub fn from_coeffs(coeffs: Vec<u64>) -> Self {
        assert!(!coeffs.is_empty());
        PolyHash {
            coeffs: coeffs.into_iter().map(M61::new).collect(),
        }
    }

    /// Number of coefficients, i.e. the independence parameter `d`.
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// Evaluates the polynomial at `x` by Horner's rule.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        let x = M61::new(x);
        let mut acc = M61::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc.mul_add(x, c);
        }
        acc.value()
    }

    /// Evaluates and reduces to `[0, m)`.
    #[inline]
    pub fn eval_mod(&self, x: u64, m: u64) -> u64 {
        debug_assert!(m > 0 && m < P);
        self.eval(x) % m
    }
}

/// Most polynomials a [`PolyBatch`] advances together: their accumulators
/// must all stay in registers.
const LANES: usize = 8;

/// Several [`PolyHash`] functions of one degree, evaluated at a common point
/// in one pass. One Horner chain is latency-bound (each step waits for the
/// previous multiply-add), so the coefficients are stored coefficient-major
/// (`coeffs[j · reps + rep]`) and up to eight chains advance in lock-step
/// — a throughput-bound loop yielding exactly [`PolyHash::eval`]'s values.
#[derive(Clone, Debug)]
pub struct PolyBatch {
    reps: usize,
    coeffs: Vec<M61>,
}

impl PolyBatch {
    /// Interleaves `polys`, which must all have the same independence.
    pub fn new(polys: &[PolyHash]) -> Self {
        let d = polys.first().map_or(0, PolyHash::independence);
        assert!(polys.iter().all(|h| h.independence() == d));
        let coeffs = (0..d).flat_map(|j| polys.iter().map(move |h| h.coeffs[j]));
        PolyBatch {
            reps: polys.len(),
            coeffs: coeffs.collect(),
        }
    }

    /// Calls `f(rep, h_rep(x))` for every polynomial, in order of `rep`.
    #[inline]
    pub fn eval_each(&self, x: u64, mut f: impl FnMut(usize, u64)) {
        let x = M61::new(x);
        for base in (0..self.reps).step_by(LANES) {
            let width = (self.reps - base).min(LANES);
            let mut h = [M61::ZERO; LANES];
            // A compile-time width per arm is what unrolls the lanes.
            match width {
                1 => self.horner::<1>(x, base, &mut h),
                2 => self.horner::<2>(x, base, &mut h),
                3 => self.horner::<3>(x, base, &mut h),
                4 => self.horner::<4>(x, base, &mut h),
                5 => self.horner::<5>(x, base, &mut h),
                6 => self.horner::<6>(x, base, &mut h),
                7 => self.horner::<7>(x, base, &mut h),
                _ => self.horner::<LANES>(x, base, &mut h),
            }
            for (i, h) in h[..width].iter().enumerate() {
                f(base + i, h.value());
            }
        }
    }

    /// Horner's rule on polynomials `base .. base + W`, in lock-step.
    #[inline]
    fn horner<const W: usize>(&self, x: M61, base: usize, out: &mut [M61; LANES]) {
        let mut acc = [M61::ZERO; W];
        for row in self.coeffs.chunks_exact(self.reps).rev() {
            for (a, &c) in acc.iter_mut().zip(&row[base..base + W]) {
                *a = a.mul_add(x, c);
            }
        }
        out[..W].copy_from_slice(&acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_polynomial_is_constant() {
        let h = PolyHash::from_coeffs(vec![17]);
        assert_eq!(h.eval(0), 17);
        assert_eq!(h.eval(12345), 17);
    }

    #[test]
    fn linear_polynomial_matches_reference() {
        // h(x) = 3 + 5x mod p.
        let h = PolyHash::from_coeffs(vec![3, 5]);
        assert_eq!(h.eval(0), 3);
        assert_eq!(h.eval(1), 8);
        assert_eq!(h.eval(10), 53);
        let x = P - 1;
        let expect = (3u128 + 5u128 * x as u128) % P as u128;
        assert_eq!(h.eval(x) as u128, expect);
    }

    #[test]
    fn derived_functions_are_deterministic_and_distinct() {
        let prf = Prf::new(7);
        let h1 = PolyHash::from_prf(&prf, 0, 8);
        let h1b = PolyHash::from_prf(&prf, 0, 8);
        let h2 = PolyHash::from_prf(&prf, 1, 8);
        for x in 0..32u64 {
            assert_eq!(h1.eval(x), h1b.eval(x));
        }
        assert!((0..32u64).any(|x| h1.eval(x) != h2.eval(x)));
    }

    #[test]
    fn pairwise_statistics_look_uniform() {
        // Chi-square-ish sanity: bucket 20k evaluations of a 4-wise function
        // into 16 buckets; each should be near 1/16.
        let prf = Prf::new(99);
        let h = PolyHash::from_prf(&prf, 3, 4);
        let m = 16u64;
        let trials = 20_000u64;
        let mut counts = vec![0u64; m as usize];
        for x in 0..trials {
            counts[h.eval_mod(x, m) as usize] += 1;
        }
        let expect = (trials / m) as f64;
        for &c in &counts {
            assert!((c as f64 - expect).abs() < 0.2 * expect);
        }
    }

    #[test]
    fn batch_matches_scalar_eval_across_the_lane_width() {
        let prf = Prf::new(5);
        for reps in 0..=2 * LANES + 1 {
            let polys: Vec<PolyHash> = (0..reps as u64)
                .map(|rep| PolyHash::from_prf(&prf, rep, 11))
                .collect();
            let batch = PolyBatch::new(&polys);
            for x in [0, 1, 77, P - 1, P, u64::MAX] {
                let mut got = Vec::new();
                batch.eval_each(x, |rep, h| got.push((rep, h)));
                let want: Vec<_> = polys.iter().map(|h| h.eval(x)).enumerate().collect();
                assert_eq!(got, want, "reps = {reps}, x = {x}");
            }
        }
    }
}
