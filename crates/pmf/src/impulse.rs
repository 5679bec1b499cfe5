//! A single (value, probability) impulse of a discrete distribution.

use crate::{Prob, Time};

/// One impulse of a discrete probability mass function: the outcome `value`
/// occurs with probability `prob`.
///
/// Impulses inside a [`crate::Pmf`] are always sorted by `value`, carry
/// strictly positive probability, and jointly sum to one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Impulse {
    /// The support point (for this workspace: a time, in abstract units).
    pub value: Time,
    /// The probability mass at `value`.
    pub prob: Prob,
}

impl Impulse {
    /// Creates a new impulse.
    #[inline]
    pub const fn new(value: Time, prob: Prob) -> Self {
        Self { value, prob }
    }

    /// `true` when both fields are finite and the probability is strictly
    /// positive — the invariant every impulse stored in a pmf satisfies.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.value.is_finite() && self.prob.is_finite() && self.prob > 0.0
    }

    /// The contribution of this impulse to the distribution mean.
    #[inline]
    pub fn weighted_value(&self) -> f64 {
        self.value * self.prob
    }
}

/// FNV-1a 64-bit offset basis — the fingerprint of an empty impulse slice.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Deterministic 64-bit FNV-1a hash over the exact bit patterns
/// (`value.to_bits()`, `prob.to_bits()`) of an impulse slice, in order.
///
/// Two slices with equal fingerprints are *very probably* bit-identical,
/// but equality of fingerprints is only a fast necessary condition —
/// callers that need soundness must confirm with
/// [`impulses_bit_identical`]. No per-process entropy is involved, so the
/// hash is stable across runs and platforms (the determinism discipline of
/// DESIGN.md §9).
pub(crate) fn fingerprint_impulses(impulses: &[Impulse]) -> u64 {
    let mut hash = FNV_OFFSET;
    for imp in impulses {
        for byte in imp.value.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        for byte in imp.prob.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// `true` iff both slices have the same length and every impulse pair
/// matches bit-for-bit (`to_bits` on both fields) — NaN-robust, and exactly
/// the identity the non-associative convolution algebra cares about.
pub(crate) fn impulses_bit_identical(a: &[Impulse], b: &[Impulse]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.value.to_bits() == y.value.to_bits() && x.prob.to_bits() == y.prob.to_bits()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_impulse() {
        assert!(Impulse::new(3.0, 0.25).is_valid());
    }

    #[test]
    fn zero_probability_is_invalid() {
        assert!(!Impulse::new(3.0, 0.0).is_valid());
    }

    #[test]
    fn negative_probability_is_invalid() {
        assert!(!Impulse::new(3.0, -0.1).is_valid());
    }

    #[test]
    fn non_finite_value_is_invalid() {
        assert!(!Impulse::new(f64::INFINITY, 0.5).is_valid());
        assert!(!Impulse::new(f64::NAN, 0.5).is_valid());
    }

    #[test]
    fn non_finite_probability_is_invalid() {
        assert!(!Impulse::new(1.0, f64::NAN).is_valid());
    }

    #[test]
    fn weighted_value_is_product() {
        assert_eq!(Impulse::new(4.0, 0.5).weighted_value(), 2.0);
    }

    #[test]
    fn negative_values_are_allowed() {
        // Support values may be negative in general pmf algebra (e.g. after
        // shifting); validity only demands finiteness.
        assert!(Impulse::new(-7.5, 0.3).is_valid());
    }

    #[test]
    fn fingerprint_is_deterministic_and_order_sensitive() {
        let a = [Impulse::new(1.0, 0.5), Impulse::new(2.0, 0.5)];
        let b = [Impulse::new(2.0, 0.5), Impulse::new(1.0, 0.5)];
        assert_eq!(fingerprint_impulses(&a), fingerprint_impulses(&a));
        assert_ne!(fingerprint_impulses(&a), fingerprint_impulses(&b));
        assert_eq!(fingerprint_impulses(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn fingerprint_distinguishes_bit_level_differences() {
        // 0.1 + 0.2 != 0.3 bitwise: the fingerprint must see the ulp.
        let x = [Impulse::new(0.1f64 + 0.2, 1.0)];
        let y = [Impulse::new(0.3, 1.0)];
        assert_ne!(fingerprint_impulses(&x), fingerprint_impulses(&y));
        assert!(!impulses_bit_identical(&x, &y));
    }

    #[test]
    fn bit_identity_requires_equal_lengths_and_bits() {
        let a = [Impulse::new(1.0, 0.5), Impulse::new(2.0, 0.5)];
        assert!(impulses_bit_identical(&a, &a));
        assert!(!impulses_bit_identical(&a, &a[..1]));
        // -0.0 == 0.0 under float eq but differs bitwise: bit identity is
        // the stricter (and cache-correct) relation.
        let pos = [Impulse::new(0.0, 1.0)];
        let neg = [Impulse::new(-0.0, 1.0)];
        assert!(!impulses_bit_identical(&pos, &neg));
    }
}
