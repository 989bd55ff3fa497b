//! Low-discrepancy (quasi-Monte-Carlo) point sequences.
//!
//! Section 7.1 of the ROD paper computes feasible-set sizes "using Quasi
//! Monte Carlo integration" because plain Monte-Carlo needs `O(2^d)` samples
//! for acceptable error in `d` dimensions. We implement the classic Halton
//! sequence with optional random digit scrambling (Owen-style per-digit
//! permutation is overkill at d ≤ 10; a random-shift Cranley–Patterson
//! rotation suffices and keeps the estimator unbiased across seeds).

use rand::Rng as _;

use crate::rng::{seeded_rng, Rng};
use crate::vector::Vector;

/// The first `n` primes, by trial division: the bases of an
/// `n`-dimensional Halton sequence (dimension `k` uses the `k`-th).
pub(crate) fn first_primes(n: usize) -> Vec<u64> {
    let mut primes: Vec<u64> = Vec::with_capacity(n);
    let mut candidate = 2u64;
    while primes.len() < n {
        if primes
            .iter()
            .take_while(|&&p| p * p <= candidate)
            .all(|&p| candidate % p != 0)
        {
            primes.push(candidate);
        }
        candidate += 1;
    }
    primes
}

/// Radical inverse of `index` in base `base`: reflects the base-`base`
/// digits of `index` about the radix point. The Halton sequence in
/// dimension `k` is the radical inverse in the `k`-th prime base.
pub fn radical_inverse(mut index: u64, base: u64) -> f64 {
    let mut result = 0.0;
    let mut digit_weight = 1.0 / base as f64;
    while index > 0 {
        result += (index % base) as f64 * digit_weight;
        index /= base;
        digit_weight /= base as f64;
    }
    result
}

/// A Halton low-discrepancy sequence in the unit cube `[0,1)^d`, optionally
/// rotated by a random Cranley–Patterson shift so that independent seeds
/// give independent (but still low-discrepancy) estimators.
///
/// The sequence is an odometer: it keeps the digits of the current index
/// in every base and carries on each step, instead of re-deriving them by
/// division. A coordinate is the ascending-digit sum `Σ_j digit_j · w_j`
/// over the digit weights `w_j` that [`radical_inverse`] walks (tabulated
/// by the same repeated division `w / b`), so every coordinate has the
/// bits of `radical_inverse(index, base)`. Seeking jumps to any index,
/// which lets disjoint index ranges be generated independently, and
/// writing a point into a caller's buffer allocates nothing.
#[derive(Clone, Debug)]
pub struct HaltonSeq {
    /// Prime base of each dimension.
    bases: Vec<u64>,
    shift: Vec<f64>,
    /// Dimension `k`'s digits of the next point's index, least
    /// significant first, at
    /// `digits[offsets[k]..offsets[k] + lens[k]]`; its slot runs to
    /// `offsets[k + 1]`, room for every digit of a `u64`.
    digits: Vec<u64>,
    /// `weights[offsets[k] + j]` is `base⁻⁽ʲ⁺¹⁾` as [`radical_inverse`]
    /// computes it.
    weights: Vec<f64>,
    offsets: Vec<usize>,
    /// Number of significant digits of the index in each base.
    lens: Vec<usize>,
}

impl HaltonSeq {
    /// Unshifted Halton sequence over the first `dim` prime bases.
    pub fn new(dim: usize) -> Self {
        let bases = first_primes(dim);
        let mut offsets = Vec::with_capacity(dim + 1);
        let mut weights = Vec::new();
        offsets.push(0);
        for &b in &bases {
            let mut w = 1.0 / b as f64;
            let mut rest = u64::MAX;
            while rest > 0 {
                weights.push(w);
                w /= b as f64;
                rest /= b;
            }
            offsets.push(weights.len());
        }
        let mut seq = HaltonSeq {
            digits: vec![0; weights.len()],
            lens: vec![0; dim],
            shift: vec![0.0; dim],
            bases,
            weights,
            offsets,
        };
        // Skip index 0 (the all-zeros point) — standard practice.
        seq.seek(1);
        seq
    }

    /// Randomly shifted Halton sequence (Cranley–Patterson rotation).
    pub fn shifted(dim: usize, seed: u64) -> Self {
        let mut seq = HaltonSeq::new(dim);
        let mut rng: Rng = seeded_rng(seed);
        for s in &mut seq.shift {
            *s = rng.gen::<f64>();
        }
        seq
    }

    /// Dimension of the generated points.
    pub fn dim(&self) -> usize {
        self.bases.len()
    }

    /// Positions the sequence at `index`: the next point is the radical
    /// inverse of `index` in every base (a fresh sequence is at 1).
    pub(crate) fn seek(&mut self, index: u64) {
        for (k, &b) in self.bases.iter().enumerate() {
            let digits = &mut self.digits[self.offsets[k]..self.offsets[k + 1]];
            let mut rest = index;
            let mut len = 0;
            while rest > 0 {
                digits[len] = rest % b;
                rest /= b;
                len += 1;
            }
            digits[len..].fill(0);
            self.lens[k] = len;
        }
    }

    /// Writes the next point into `out` (one slot per dimension) and
    /// advances, allocating nothing. Coordinate `k` is
    /// `radical_inverse(index, base_k) + shift_k`, wrapped into `[0,1)`,
    /// with the same float operations.
    pub(crate) fn next_into(&mut self, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim(), "point buffer has wrong length");
        for (k, (slot, &b)) in out.iter_mut().zip(&self.bases).enumerate() {
            let at = self.offsets[k];
            let len = self.lens[k];
            let mut r = 0.0;
            for (&digit, &w) in self.digits[at..at + len]
                .iter()
                .zip(&self.weights[at..at + len])
            {
                r += digit as f64 * w;
            }
            // Shift, then wrap into [0,1).
            let v = r + self.shift[k];
            *slot = v - v.floor();
            // Odometer step: add one to the least significant digit and
            // carry.
            let digits = &mut self.digits[at..self.offsets[k + 1]];
            let mut j = 0;
            loop {
                digits[j] += 1;
                if digits[j] < b {
                    break;
                }
                digits[j] = 0;
                j += 1;
            }
            self.lens[k] = self.lens[k].max(j + 1);
        }
    }

    /// Next point of the sequence.
    pub fn next_point(&mut self) -> Vector {
        let mut out = vec![0.0; self.dim()];
        self.next_into(&mut out);
        Vector::new(out)
    }

    /// Collects the next `n` points.
    pub fn take_points(&mut self, n: usize) -> Vec<Vector> {
        (0..n).map(|_| self.next_point()).collect()
    }
}

impl Iterator for HaltonSeq {
    type Item = Vector;
    fn next(&mut self) -> Option<Vector> {
        Some(self.next_point())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn radical_inverse_base2_prefix() {
        // Van der Corput: 1 → 0.5, 2 → 0.25, 3 → 0.75, 4 → 0.125.
        assert!(approx_eq(radical_inverse(1, 2), 0.5));
        assert!(approx_eq(radical_inverse(2, 2), 0.25));
        assert!(approx_eq(radical_inverse(3, 2), 0.75));
        assert!(approx_eq(radical_inverse(4, 2), 0.125));
    }

    #[test]
    fn radical_inverse_base3() {
        assert!(approx_eq(radical_inverse(1, 3), 1.0 / 3.0));
        assert!(approx_eq(radical_inverse(2, 3), 2.0 / 3.0));
        assert!(approx_eq(radical_inverse(3, 3), 1.0 / 9.0));
    }

    #[test]
    fn points_in_unit_cube() {
        let mut seq = HaltonSeq::shifted(5, 9);
        for _ in 0..200 {
            let p = seq.next_point();
            assert_eq!(p.dim(), 5);
            for &x in p.as_slice() {
                assert!((0.0..1.0).contains(&x), "coordinate {x} out of range");
            }
        }
    }

    #[test]
    fn estimates_cube_mean() {
        // The mean of each coordinate over many Halton points ≈ 1/2.
        let mut seq = HaltonSeq::new(3);
        let n = 4096;
        let mut sums = [0.0; 3];
        for _ in 0..n {
            let p = seq.next_point();
            for (s, &x) in sums.iter_mut().zip(p.as_slice()) {
                *s += x;
            }
        }
        for s in sums {
            assert!((s / n as f64 - 0.5).abs() < 1e-3, "mean {}", s / n as f64);
        }
    }

    #[test]
    fn estimates_simplex_fraction() {
        // Fraction of the unit square below x + y <= 1 is 1/2; Halton
        // should nail it to ~1e-3 with a few thousand points.
        let mut seq = HaltonSeq::new(2);
        let n = 8192;
        let hits = seq
            .take_points(n)
            .iter()
            .filter(|p| p[0] + p[1] <= 1.0)
            .count();
        assert!((hits as f64 / n as f64 - 0.5).abs() < 2e-3);
    }

    #[test]
    fn shift_changes_points_not_distribution() {
        let mut a = HaltonSeq::shifted(2, 1);
        let mut b = HaltonSeq::shifted(2, 2);
        let pa = a.next_point();
        let pb = b.next_point();
        assert_ne!(pa, pb);
    }

    /// The bases are the primes in order, so points up to d = 16 keep
    /// the bits they had over the former 16-entry table.
    #[test]
    fn bases_are_the_first_primes() {
        assert_eq!(
            first_primes(16),
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
        );
        assert_eq!(first_primes(0), Vec::<u64>::new());
        assert_eq!(first_primes(64)[63], 311);
    }

    /// Past 16 dimensions every coordinate is still the radical inverse
    /// of the point's index in the k-th prime base, bit for bit.
    #[test]
    fn dimensions_past_sixteen_match_radical_inverse() {
        for dim in [17usize, 64] {
            let bases = first_primes(dim);
            let mut seq = HaltonSeq::new(dim);
            for index in 1..=2_000u64 {
                let p = seq.next_point();
                for (k, &b) in bases.iter().enumerate() {
                    assert_eq!(
                        p[k].to_bits(),
                        radical_inverse(index, b).to_bits(),
                        "dim {dim}, index {index}, base {b}"
                    );
                }
            }
        }
    }

    /// Seeking to an index gives the points a sequential walk reaches
    /// there, whatever carries the jump skips.
    #[test]
    fn seek_matches_a_sequential_walk() {
        let mut walk = HaltonSeq::shifted(6, 11);
        let points = walk.take_points(3_000);
        for start in [1u64, 2, 3, 8, 9, 26, 27, 243, 1_024, 2_049, 2_999] {
            let mut seq = HaltonSeq::shifted(6, 11);
            seq.seek(start);
            for (i, want) in points[start as usize - 1..].iter().take(5).enumerate() {
                let got = seq.next_point();
                let bits =
                    |v: &Vector| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(want), "start {start}, step {i}");
            }
        }
    }
}
