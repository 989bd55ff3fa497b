//! Sobol' low-discrepancy sequences.
//!
//! A second QMC family alongside [`crate::qmc::HaltonSeq`]. Halton's
//! correlation artefacts grow with dimension; Sobol' points keep their
//! stratification properties further out, which matters for the d = 8
//! sweeps of the Figure 15 experiment. Implemented with Gray-code
//! updates and the Joe–Kuo direction numbers for the first 16
//! dimensions; validity of custom direction numbers (odd `m_i < 2^i`)
//! is checked at construction.

use rand::Rng as _;

use crate::rng::seeded_rng;
use crate::vector::Vector;

/// Bits of precision in the generated coordinates.
const BITS: u32 = 52;

/// Joe–Kuo primitive-polynomial parameters for dimensions 2..=16:
/// `(degree s, coefficient bits a, initial direction numbers m)`.
/// Dimension 1 is the van der Corput sequence (all `m_i = 1`).
const JOE_KUO: [(u32, u32, &[u64]); 15] = [
    (1, 0, &[1]),
    (2, 1, &[1, 3]),
    (3, 1, &[1, 3, 1]),
    (3, 2, &[1, 1, 1]),
    (4, 1, &[1, 1, 3, 3]),
    (4, 4, &[1, 3, 5, 13]),
    (5, 2, &[1, 1, 5, 5, 17]),
    (5, 4, &[1, 1, 5, 5, 5]),
    (5, 7, &[1, 1, 7, 11, 19]),
    (5, 11, &[1, 1, 5, 1, 1]),
    (5, 13, &[1, 1, 1, 3, 11]),
    (5, 14, &[1, 3, 5, 5, 31]),
    (6, 1, &[1, 3, 3, 9, 7, 49]),
    (6, 13, &[1, 1, 1, 15, 21, 21]),
    (6, 16, &[1, 3, 1, 13, 27, 49]),
];

/// A Sobol' sequence over `[0,1)^d` with optional Cranley–Patterson
/// random shift (for independent replicates across seeds).
#[derive(Clone, Debug)]
pub struct SobolSeq {
    dim: usize,
    /// Direction numbers `v[k][j]`, scaled into the top `BITS` bits.
    directions: Vec<[u64; BITS as usize]>,
    /// Current Gray-code state per dimension.
    state: Vec<u64>,
    index: u64,
    shift: Vec<f64>,
}

impl SobolSeq {
    /// Unshifted Sobol' sequence. Supports up to 16 dimensions.
    pub fn new(dim: usize) -> Self {
        assert!(
            (1..=JOE_KUO.len() + 1).contains(&dim),
            "SobolSeq supports 1..={} dimensions, got {dim}",
            JOE_KUO.len() + 1
        );
        let mut directions = Vec::with_capacity(dim);
        // Dimension 1: v_j = 2^(BITS - j - 1) (van der Corput in base 2).
        let mut first = [0u64; BITS as usize];
        for (j, v) in first.iter_mut().enumerate() {
            *v = 1u64 << (BITS - 1 - j as u32);
        }
        directions.push(first);
        for &(s, a, m_init) in JOE_KUO.iter().take(dim - 1) {
            directions.push(direction_numbers(s, a, m_init));
        }
        SobolSeq {
            dim,
            directions,
            state: vec![0; dim],
            index: 0,
            shift: vec![0.0; dim],
        }
    }

    /// Randomly shifted sequence.
    pub fn shifted(dim: usize, seed: u64) -> Self {
        let mut seq = SobolSeq::new(dim);
        let mut rng = seeded_rng(seed);
        for s in &mut seq.shift {
            *s = rng.gen::<f64>();
        }
        seq
    }

    /// Dimension of generated points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Writes the next point into `out` (one slot per dimension),
    /// allocating nothing (Gray-code update: flip the direction of the
    /// lowest zero bit of the running index).
    pub(crate) fn next_into(&mut self, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim, "point buffer has wrong length");
        // Skip the origin: advance before emitting.
        let c = self.index.trailing_ones() as usize; // lowest zero bit of index
        self.index += 1;
        let scale = 1.0 / (1u64 << BITS) as f64;
        for (k, slot) in out.iter_mut().enumerate() {
            self.state[k] ^= self.directions[k][c.min(BITS as usize - 1)];
            let v = self.state[k] as f64 * scale + self.shift[k];
            *slot = v - v.floor();
        }
    }

    /// Next point of the sequence.
    pub fn next_point(&mut self) -> Vector {
        let mut out = vec![0.0; self.dim];
        self.next_into(&mut out);
        Vector::new(out)
    }

    /// Collects the next `n` points.
    pub fn take_points(&mut self, n: usize) -> Vec<Vector> {
        (0..n).map(|_| self.next_point()).collect()
    }
}

impl Iterator for SobolSeq {
    type Item = Vector;
    fn next(&mut self) -> Option<Vector> {
        Some(self.next_point())
    }
}

/// Expands initial direction numbers via the primitive-polynomial
/// recurrence into `BITS` scaled direction numbers.
fn direction_numbers(s: u32, a: u32, m_init: &[u64]) -> [u64; BITS as usize] {
    assert_eq!(m_init.len(), s as usize, "need s initial direction numbers");
    let mut m = vec![0u64; BITS as usize];
    for (i, &mi) in m_init.iter().enumerate() {
        assert!(mi % 2 == 1, "direction number m_{i} must be odd");
        assert!(mi < (2u64 << i), "direction number m_{i} too large");
        m[i] = mi;
    }
    for j in s as usize..BITS as usize {
        // m_j = 2^s m_{j-s} XOR m_{j-s} XOR sum of a-selected terms.
        let mut val = (m[j - s as usize] << s) ^ m[j - s as usize];
        for k in 1..s {
            if (a >> (s - 1 - k)) & 1 == 1 {
                val ^= m[j - k as usize] << k;
            }
        }
        m[j] = val;
    }
    let mut v = [0u64; BITS as usize];
    for (j, entry) in v.iter_mut().enumerate() {
        *entry = m[j] << (BITS - 1 - j as u32);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_dimension_is_van_der_corput() {
        let mut seq = SobolSeq::new(1);
        // 0.5, 0.75, 0.25, 0.375 ... (Gray-code order of base-2 radical
        // inverses, origin skipped).
        let first: Vec<f64> = seq.take_points(4).iter().map(|p| p[0]).collect();
        assert_eq!(first[0], 0.5);
        assert_eq!(first[1], 0.75);
        assert_eq!(first[2], 0.25);
        assert_eq!(first[3], 0.375);
    }

    #[test]
    fn points_in_unit_cube() {
        let mut seq = SobolSeq::shifted(8, 3);
        for _ in 0..500 {
            let p = seq.next_point();
            assert_eq!(p.dim(), 8);
            for &x in p.as_slice() {
                assert!((0.0..1.0).contains(&x));
            }
        }
    }

    #[test]
    fn dyadic_stratification_per_dimension() {
        // The first 2^k points have exactly 2^(k-3) points in each of the
        // 8 dyadic intervals of every coordinate — the (t,m,s)-net
        // property that makes Sobol converge fast.
        let dim = 6;
        let mut seq = SobolSeq::new(dim);
        let n = 256;
        // The net property holds for indices 0..2^k; we skip the origin
        // (index 0), so count it back in by hand.
        let mut points = vec![Vector::zeros(dim)];
        points.extend(seq.take_points(n - 1));
        for k in 0..dim {
            let mut counts = [0usize; 8];
            for p in &points {
                counts[(p[k] * 8.0) as usize % 8] += 1;
            }
            for (bin, &c) in counts.iter().enumerate() {
                assert_eq!(c, n / 8, "dim {k} bin {bin}: {counts:?}");
            }
        }
    }

    #[test]
    fn estimates_cube_volume() {
        // Fraction of [0,1]^3 with x+y+z <= 1 is 1/6.
        let mut seq = SobolSeq::new(3);
        let n = 16_384;
        let hits = seq
            .take_points(n)
            .iter()
            .filter(|p| p[0] + p[1] + p[2] <= 1.0)
            .count();
        let est = hits as f64 / n as f64;
        assert!((est - 1.0 / 6.0).abs() < 2e-3, "estimate {est}");
    }

    #[test]
    fn high_dimension_pairwise_uniformity() {
        // 2-D projections of dims (6, 7): quadrant counts balanced.
        let mut seq = SobolSeq::new(8);
        let n = 4096;
        let mut quad = [0usize; 4];
        for p in seq.take_points(n) {
            let q = (p[6] >= 0.5) as usize * 2 + (p[7] >= 0.5) as usize;
            quad[q] += 1;
        }
        for &c in &quad {
            assert!(
                (c as f64 - n as f64 / 4.0).abs() < n as f64 * 0.02,
                "{quad:?}"
            );
        }
    }

    #[test]
    fn shifted_sequences_differ_by_seed() {
        let a = SobolSeq::shifted(2, 1).next_point();
        let b = SobolSeq::shifted(2, 2).next_point();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn too_many_dimensions_panics() {
        let _ = SobolSeq::new(17);
    }
}
