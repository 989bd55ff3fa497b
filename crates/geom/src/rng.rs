//! Deterministic random-number plumbing.
//!
//! Every randomised component of the reproduction (workload generation,
//! trace synthesis, Monte-Carlo scrambling, baseline algorithms) takes an
//! explicit seed so that experiments are exactly repeatable; this module
//! centralises the RNG choice.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// The RNG used throughout the workspace: ChaCha12, the `StdRng`
/// algorithm of `rand 0.8`, from the vendored `rand_chacha` crate. Its
/// stream is not upstream's; it is pinned by that crate's known-answer
/// tests (`vendor/rand_chacha/tests/keystream.rs`) on both the AVX2 and
/// the scalar refill — important for reproducible experiment tables.
pub type Rng = ChaCha12Rng;

/// Creates a deterministic RNG from a `u64` seed.
pub fn seeded_rng(seed: u64) -> Rng {
    ChaCha12Rng::seed_from_u64(seed)
}

/// Derives an independent child seed from a parent seed and an index, so
/// that parallel experiment arms get decorrelated streams without sharing
/// mutable state. SplitMix64 finalizer — full-period, well mixed.
pub fn derive_seed(parent: u64, index: u64) -> u64 {
    let mut z = parent.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_different_streams() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let same = (0..16).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(derive_seed(7, i)), "collision at index {i}");
        }
    }

    #[test]
    fn derive_seed_depends_on_parent() {
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
