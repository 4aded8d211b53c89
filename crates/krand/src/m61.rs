//! Arithmetic in the field `F_p` for the Mersenne prime `p = 2^61 - 1`.
//!
//! The sketch fingerprints and the d-wise independent polynomial hash family
//! both work over this field. Mersenne reduction needs no division: for any
//! `x < p^2`, `x mod p` is computed from the low and high 61-bit halves.

/// The Mersenne prime `2^61 - 1`.
pub const P: u64 = (1u64 << 61) - 1;

/// An element of `F_{2^61 - 1}`, always kept in canonical form `[0, p)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct M61(u64);

#[allow(clippy::should_implement_trait)] // operator impls below delegate to these inherent methods
impl M61 {
    /// The additive identity.
    pub const ZERO: M61 = M61(0);
    /// The multiplicative identity.
    pub const ONE: M61 = M61(1);

    /// Builds a field element, reducing `x` modulo `p`.
    #[inline]
    pub fn new(x: u64) -> Self {
        let mut v = (x >> 61) + (x & P);
        if v >= P {
            v -= P;
        }
        M61(v)
    }

    /// Reduces an arbitrary 128-bit value modulo `p`.
    #[inline]
    pub fn from_u128(x: u128) -> Self {
        // Split into 61-bit limbs: x = a + b*2^61 + c*2^122 with c < 2^6.
        let a = (x & P as u128) as u64;
        let b = ((x >> 61) & P as u128) as u64;
        let c = (x >> 122) as u64;
        // 2^61 ≡ 1, 2^122 ≡ 1 (mod p).
        let mut v = a as u128 + b as u128 + c as u128;
        while v >= P as u128 {
            v -= P as u128;
        }
        M61(v as u64)
    }

    /// Returns the canonical representative in `[0, p)`.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Field addition.
    #[inline]
    pub fn add(self, rhs: M61) -> M61 {
        let mut v = self.0 + rhs.0;
        if v >= P {
            v -= P;
        }
        M61(v)
    }

    /// Field subtraction.
    #[inline]
    pub fn sub(self, rhs: M61) -> M61 {
        let v = if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + P - rhs.0
        };
        M61(v)
    }

    /// Field negation.
    #[inline]
    pub fn neg(self) -> M61 {
        if self.0 == 0 {
            M61(0)
        } else {
            M61(P - self.0)
        }
    }

    /// Field multiplication: `self · rhs`.
    #[inline]
    pub fn mul(self, rhs: M61) -> M61 {
        self.mul_add(rhs, M61::ZERO)
    }

    /// Fused multiply-add `self · m + a` (one Horner step) with a single
    /// Mersenne fold: `t = self · m + a ≤ p·(p − 1) < 2^122`, so
    /// `(t mod 2^61) + ⌊t / 2^61⌋ ≡ t (mod p)` is below `2p` and one
    /// conditional subtraction makes it canonical.
    #[inline]
    pub fn mul_add(self, m: M61, a: M61) -> M61 {
        let t = self.0 as u128 * m.0 as u128 + a.0 as u128;
        let v = (t as u64 & P) + (t >> 61) as u64;
        M61(if v >= P { v - P } else { v })
    }

    /// Fast exponentiation `self^e`.
    pub fn pow(self, mut e: u64) -> M61 {
        let mut base = self;
        let mut acc = M61::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            e >>= 1;
        }
        acc
    }
}

impl std::ops::Add for M61 {
    type Output = M61;
    fn add(self, rhs: M61) -> M61 {
        M61::add(self, rhs)
    }
}

impl std::ops::Sub for M61 {
    type Output = M61;
    fn sub(self, rhs: M61) -> M61 {
        M61::sub(self, rhs)
    }
}

impl std::ops::Mul for M61 {
    type Output = M61;
    fn mul(self, rhs: M61) -> M61 {
        M61::mul(self, rhs)
    }
}

impl std::ops::AddAssign for M61 {
    fn add_assign(&mut self, rhs: M61) {
        *self = M61::add(*self, rhs);
    }
}

impl From<u64> for M61 {
    fn from(x: u64) -> M61 {
        M61::new(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form() {
        assert_eq!(M61::new(P).value(), 0);
        assert_eq!(M61::new(P + 5).value(), 5);
        assert_eq!(M61::new(u64::MAX).value(), u64::MAX % P);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = M61::new(123_456_789_012_345);
        let b = M61::new(P - 3);
        assert_eq!((a + b - b).value(), a.value());
        assert_eq!((a.sub(a)).value(), 0);
    }

    #[test]
    fn neg_is_additive_inverse() {
        for x in [0u64, 1, 2, P - 1, 999_999_937] {
            let a = M61::new(x);
            assert_eq!((a + a.neg()).value(), 0);
        }
    }

    #[test]
    fn mul_and_mul_add_match_u128_reference() {
        // Every pair and triple over the edge values 0, 1, p − 1 (where the
        // single fold lands exactly on p or 2p − 2) plus generic operands.
        let vals = [
            0u64,
            1,
            2,
            P - 2,
            P - 1,
            123_456_789,
            1 << 60,
            (1 << 60) + 12345,
        ];
        for x in vals {
            for y in vals {
                let prod = x as u128 * y as u128;
                assert_eq!(
                    M61::new(x).mul(M61::new(y)).value(),
                    (prod % P as u128) as u64,
                    "{x} * {y}"
                );
                for a in vals {
                    assert_eq!(
                        M61::new(x).mul_add(M61::new(y), M61::new(a)).value(),
                        ((prod + a as u128) % P as u128) as u64,
                        "{x} * {y} + {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_u128_reduces_correctly() {
        let x: u128 = (P as u128 - 1) * (P as u128 - 1);
        let expect = (x % P as u128) as u64;
        assert_eq!(M61::from_u128(x).value(), expect);
        assert_eq!(
            M61::from_u128(u128::MAX).value(),
            (u128::MAX % P as u128) as u64
        );
    }

    #[test]
    fn pow_small_cases() {
        let a = M61::new(3);
        assert_eq!(a.pow(0).value(), 1);
        assert_eq!(a.pow(1).value(), 3);
        assert_eq!(a.pow(4).value(), 81);
        // Fermat: a^(p-1) = 1.
        assert_eq!(a.pow(P - 1).value(), 1);
    }
}
