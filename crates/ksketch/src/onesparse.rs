//! 1-sparse recovery cells.
//!
//! A cell summarizes a ±1 vector restricted to some index subset with three
//! linear counters: the value sum, the index-weighted sum, and a fingerprint
//! `Σ sign·z^index` over `F_{2^61−1}`. If the restricted vector has exactly
//! one nonzero entry, the entry is recovered exactly; a vector that is not
//! 1-sparse passes the fingerprint test with probability at most
//! `domain / p ≈ n²/2⁶¹` (polynomial identity testing).

use krand::m61::M61;

/// One linear 1-sparse recovery cell: exactly the `64 + 64 + 61` bits
/// [`crate::SketchParams::wire_bits`] charges for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cell {
    /// Sum of entry values (each ±1 here).
    pub count: i64,
    /// Sum of `value · index` modulo `2^64`. Wrapping addition is linear,
    /// so add/remove/merge commute and cancel exactly as the integer sums
    /// would; a negative sum is held as its two's complement.
    pub index_sum: u64,
    /// `Σ value · z^index` in `F_p`.
    pub fingerprint: M61,
}

impl Cell {
    /// Adds `sign · e_index` to the cell. `z_pow` must be `z^index` for the
    /// cell's fingerprint key `z`.
    #[inline]
    pub fn add(&mut self, index: u64, sign: i8, z_pow: M61) {
        debug_assert!(sign == 1 || sign == -1);
        let (index, z_pow) = if sign == 1 {
            (index, z_pow)
        } else {
            (index.wrapping_neg(), z_pow.neg())
        };
        self.count += i64::from(sign);
        self.index_sum = self.index_sum.wrapping_add(index);
        self.fingerprint = self.fingerprint.add(z_pow);
    }

    /// Merges another cell (vector addition).
    #[inline]
    pub fn merge(&mut self, other: &Cell) {
        self.count += other.count;
        self.index_sum = self.index_sum.wrapping_add(other.index_sum);
        self.fingerprint = self.fingerprint.add(other.fingerprint);
    }

    /// Whether the cell is identically zero (empty restriction or a perfect
    /// cancellation).
    pub fn is_zero(&self) -> bool {
        self.count == 0 && self.index_sum == 0 && self.fingerprint == M61::ZERO
    }

    /// Attempts 1-sparse recovery: returns `(index, sign)` if the cell holds
    /// exactly one ±1 entry (up to fingerprint failure probability).
    /// `z_pow(i)` must return `z^i` for the cell's fingerprint key; it is
    /// asked for at most one candidate `i < domain`. For a 1-sparse cell
    /// `±index_sum` *is* the index, wrapped or not; any other cell yields a
    /// candidate the domain check or the fingerprint rejects either way.
    pub fn recover(&self, domain: u64, z_pow: impl FnOnce(u64) -> M61) -> Option<(u64, i8)> {
        let idx = match self.count {
            // ±1 vectors: a 1-sparse restriction always has count ±1.
            1 => self.index_sum,
            -1 => self.index_sum.wrapping_neg(),
            _ => return None,
        };
        if idx >= domain {
            return None;
        }
        // Fingerprint check: fingerprint must equal count · z^idx.
        let z_pow = z_pow(idx);
        let expect = if self.count == 1 { z_pow } else { z_pow.neg() };
        (expect == self.fingerprint).then_some((idx, self.count as i8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z() -> M61 {
        M61::new(0x1234_5678_9ABC)
    }

    #[test]
    fn empty_cell_recovers_nothing() {
        let c = Cell::default();
        assert!(c.is_zero());
        assert_eq!(c.recover(1000, |i| z().pow(i)), None);
    }

    #[test]
    fn single_positive_entry_recovers() {
        let mut c = Cell::default();
        c.add(42, 1, z().pow(42));
        assert_eq!(c.recover(1000, |i| z().pow(i)), Some((42, 1)));
    }

    #[test]
    fn single_negative_entry_recovers() {
        let mut c = Cell::default();
        c.add(17, -1, z().pow(17));
        assert_eq!(c.recover(1000, |i| z().pow(i)), Some((17, -1)));
    }

    #[test]
    fn two_entries_fail_recovery() {
        let mut c = Cell::default();
        c.add(10, 1, z().pow(10));
        c.add(20, 1, z().pow(20));
        // count == 2: immediately rejected.
        assert_eq!(c.recover(1000, |i| z().pow(i)), None);
    }

    #[test]
    fn opposite_entries_cancel_to_zero() {
        let mut c = Cell::default();
        c.add(10, 1, z().pow(10));
        c.add(10, -1, z().pow(10));
        assert!(c.is_zero());
    }

    #[test]
    fn plus_minus_pair_is_not_misrecovered() {
        // count = 0 with nonzero content must not recover.
        let mut c = Cell::default();
        c.add(30, 1, z().pow(30));
        c.add(12, -1, z().pow(12));
        assert_eq!(c.count, 0);
        assert!(!c.is_zero());
        assert_eq!(c.recover(1000, |i| z().pow(i)), None);
    }

    #[test]
    fn three_entry_fingerprint_rejects_fake_candidate() {
        // Entries 5, 7, -3: count = 1, index_sum = 9 -> candidate 9, but the
        // fingerprint must reject it.
        let mut c = Cell::default();
        c.add(5, 1, z().pow(5));
        c.add(7, 1, z().pow(7));
        c.add(3, -1, z().pow(3));
        assert_eq!(c.count, 1);
        assert_eq!(c.index_sum, 9);
        assert_eq!(c.recover(1000, |i| z().pow(i)), None);
    }

    #[test]
    fn index_sum_is_linear_modulo_two_to_the_64() {
        // Two entries near the top of the index range overflow the 64-bit
        // sum; removing one leaves exactly the other, and removing both
        // leaves zero — wrapping addition is still a group.
        let (i, j) = (u64::MAX - 7, u64::MAX - 100);
        let mut c = Cell::default();
        c.add(i, 1, z().pow(i));
        c.add(j, 1, z().pow(j));
        assert!(c.index_sum < j, "the sum must have wrapped");
        assert_eq!(c.recover(u64::MAX, |k| z().pow(k)), None);
        c.add(i, -1, z().pow(i));
        assert_eq!(c.recover(u64::MAX, |k| z().pow(k)), Some((j, 1)));
        let mut neg = Cell::default();
        neg.add(j, -1, z().pow(j));
        assert_eq!(neg.recover(u64::MAX, |k| z().pow(k)), Some((j, -1)));
        c.merge(&neg);
        assert!(c.is_zero());
    }

    #[test]
    fn merge_is_vector_addition() {
        let mut a = Cell::default();
        a.add(3, 1, z().pow(3));
        let mut b = Cell::default();
        b.add(3, -1, z().pow(3));
        b.add(8, 1, z().pow(8));
        a.merge(&b);
        assert_eq!(a.recover(100, |i| z().pow(i)), Some((8, 1)));
    }
}
