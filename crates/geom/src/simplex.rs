//! Sampling and measuring the ideal feasible simplex.
//!
//! Theorem 1 of the ROD paper shows that the best any placement can do is
//! the *ideal feasible set* — in normalised coordinates, the standard
//! simplex `{x ≥ 0 : x₁ + … + x_d ≤ 1}`; in raw rate space, the simplex
//! under `l₁r₁ + … + l_d r_d = C_T` with volume `C_T^d / (d! ∏ l_k)`.
//!
//! The evaluation (§7.1) generates "workload points, all within the ideal
//! feasible set" and reports what fraction of them a plan can sustain; this
//! module provides the uniform-in-simplex point generation, both for
//! pseudo-random points and for low-discrepancy [`crate::qmc::HaltonSeq`] inputs.

use rand::Rng as _;

use crate::rng::Rng;
use crate::vector::Vector;

/// Exact volume of the simplex `{x ≥ 0 : Σ a_k x_k ≤ c}`:
/// `c^d / (d! ∏ a_k)`. This is the paper's `V(F*)` formula with `a = l`,
/// `c = C_T`. Panics when some `a_k ≤ 0` (the region would be unbounded).
pub fn simplex_volume(coeffs: &[f64], cap: f64) -> f64 {
    assert!(!coeffs.is_empty(), "zero-dimensional simplex");
    let d = coeffs.len();
    let mut v = 1.0;
    for (k, &a) in coeffs.iter().enumerate() {
        assert!(a > 0.0, "nonpositive coefficient {a} in simplex_volume");
        // Accumulate (cap / a_k) / (k+1) to keep intermediates well scaled.
        v *= (cap / a) / (k + 1) as f64;
        let _ = k;
    }
    debug_assert_eq!(d, coeffs.len());
    v
}

/// Volume of the unit `d`-ball, `π^{d/2} / Γ(d/2 + 1)`.
pub fn unit_ball_volume(d: usize) -> f64 {
    // Iterate the recurrence V_d = V_{d-1} · √π · Γ((d+1)/2)/Γ(d/2+1)
    // via the simpler two-step form V_d = V_{d-2} · 2π/d.
    match d {
        0 => 1.0,
        1 => 2.0,
        _ => unit_ball_volume(d - 2) * 2.0 * std::f64::consts::PI / d as f64,
    }
}

/// The Figure 9 lower bound: the ratio of feasible-set volume to ideal
/// simplex volume is at least the volume of the radius-`r` hypersphere's
/// non-negative-orthant portion over the standard simplex volume:
/// `(V_d · r^d / 2^d) · d!`. Valid for normalised systems (`r` measured
/// in the normalised space whose ideal simplex is `{x ≥ 0 : Σx ≤ 1}`).
pub fn hypersphere_ratio_bound(r: f64, d: usize) -> f64 {
    let mut factorial = 1.0;
    for k in 1..=d {
        factorial *= k as f64;
    }
    unit_ball_volume(d) * r.powi(d as i32) / 2f64.powi(d as i32) * factorial
}

/// Maps a point of the unit cube `[0,1)^d` to the standard simplex
/// `{x ≥ 0 : Σ x ≤ 1}` uniformly, via the order-statistics construction:
/// sort the coordinates of `(u₁,…,u_d)` and take consecutive gaps of
/// `(0, u_(1), …, u_(d))`. The map is measure-preserving, so it works for
/// both pseudo-random and low-discrepancy inputs (for the latter it yields
/// a stratified, if not provably low-discrepancy, point set — standard
/// practice for QMC over simplices).
pub fn unit_cube_to_simplex(u: &Vector) -> Vector {
    let mut sorted: Vec<f64> = u.as_slice().to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mut prev = 0.0;
    let mut out = Vec::with_capacity(sorted.len());
    for &v in &sorted {
        out.push(v - prev);
        prev = v;
    }
    Vector::new(out)
}

/// Uniform sampler over the scaled simplex
/// `{R ≥ 0 : Σ a_k R_k ≤ c}` (the ideal feasible set in rate space).
#[derive(Clone, Debug)]
pub struct SimplexSampler {
    /// Per-axis scale factors: a standard-simplex point `x` maps to the
    /// rate point `r_k = x_k · c / a_k`.
    scale: Vec<f64>,
}

impl SimplexSampler {
    /// Sampler for `{R ≥ 0 : Σ coeffs_k R_k ≤ cap}`.
    ///
    /// A zero coefficient leaves the region unbounded along that axis (the
    /// input feeds only zero-load operators), so no finite sampler can
    /// cover it — but feasibility of any region built from the same load
    /// model is independent of that coordinate (every per-node coefficient
    /// is then also zero). Such axes are pinned to rate 0; samples stay
    /// uniform only over the load-carrying axes.
    pub fn new(coeffs: &[f64], cap: f64) -> Self {
        assert!(
            coeffs.iter().all(|&a| a.is_finite() && a >= 0.0),
            "negative or non-finite coefficient"
        );
        SimplexSampler {
            scale: coeffs
                .iter()
                .map(|&a| if a > 0.0 { cap / a } else { 0.0 })
                .collect(),
        }
    }

    /// Sampler for the standard simplex (all coefficients 1, cap 1).
    pub fn standard(dim: usize) -> Self {
        SimplexSampler {
            scale: vec![1.0; dim],
        }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.scale.len()
    }

    /// Maps a unit-cube point (from a QMC sequence) into the simplex.
    pub fn map_cube_point(&self, u: &Vector) -> Vector {
        let mut x = u.as_slice().to_vec();
        self.map_in_place(&mut x);
        Vector::new(x)
    }

    /// [`map_cube_point`](Self::map_cube_point) on a coordinate buffer,
    /// overwritten with the simplex point; allocates nothing. The float
    /// operations are [`unit_cube_to_simplex`]'s followed by the scale:
    /// the coordinates sorted under `total_cmp` (an insertion sort, which
    /// orders them exactly as the stable sort does, since `total_cmp`
    /// ties only bit-identical values), each gap `u_(k) − u_(k−1)` from
    /// `0.0`, then `gap · scale_k`.
    pub(crate) fn map_in_place(&self, u: &mut [f64]) {
        assert_eq!(u.len(), self.dim(), "cube point has wrong dimension");
        for i in 1..u.len() {
            let x = u[i];
            let mut j = i;
            while j > 0 && u[j - 1].total_cmp(&x).is_gt() {
                u[j] = u[j - 1];
                j -= 1;
            }
            u[j] = x;
        }
        let mut prev = 0.0;
        for (x, s) in u.iter_mut().zip(&self.scale) {
            let v = *x;
            *x = (v - prev) * s;
            prev = v;
        }
    }

    /// Draws a pseudo-random point uniformly from the simplex.
    pub fn sample(&self, rng: &mut Rng) -> Vector {
        let mut u: Vec<f64> = (0..self.dim()).map(|_| rng.gen::<f64>()).collect();
        self.map_in_place(&mut u);
        Vector::new(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::qmc::HaltonSeq;
    use crate::rng::seeded_rng;

    #[test]
    fn unit_ball_volumes() {
        use super::unit_ball_volume;
        assert!(approx_eq(unit_ball_volume(1), 2.0));
        assert!(approx_eq(unit_ball_volume(2), std::f64::consts::PI));
        assert!(approx_eq(
            unit_ball_volume(3),
            4.0 / 3.0 * std::f64::consts::PI
        ));
    }

    #[test]
    fn hypersphere_bound_sanity() {
        use super::hypersphere_ratio_bound;
        // d = 2: bound(r) = π r² / 4 · 2 = π r² / 2. At the ideal radius
        // r* = 1/√2 the inscribed quarter-disc covers π/4 of the triangle.
        let b = hypersphere_ratio_bound(1.0 / 2f64.sqrt(), 2);
        assert!(approx_eq(b, std::f64::consts::PI / 4.0));
        // The bound can never exceed 1 at the ideal radius.
        for d in 1..8 {
            let r_star = 1.0 / (d as f64).sqrt();
            let b = hypersphere_ratio_bound(r_star, d);
            assert!(b <= 1.0 + 1e-12, "d={d}: bound {b} > 1");
            assert!(b > 0.0);
        }
        // Monotone in r.
        assert!(hypersphere_ratio_bound(0.3, 3) > hypersphere_ratio_bound(0.2, 3));
    }

    #[test]
    fn standard_simplex_volumes() {
        assert!(approx_eq(simplex_volume(&[1.0], 1.0), 1.0));
        assert!(approx_eq(simplex_volume(&[1.0, 1.0], 1.0), 0.5));
        assert!(approx_eq(simplex_volume(&[1.0, 1.0, 1.0], 1.0), 1.0 / 6.0));
    }

    #[test]
    fn scaled_simplex_volume_matches_paper_formula() {
        // V = C_T^d / (d! * l1 * l2) for d=2: 2^2 / (2 * 10 * 11).
        assert!(approx_eq(
            simplex_volume(&[10.0, 11.0], 2.0),
            4.0 / (2.0 * 110.0)
        ));
    }

    #[test]
    fn cube_to_simplex_stays_in_simplex() {
        let mut rng = seeded_rng(3);
        let s = SimplexSampler::standard(4);
        for _ in 0..500 {
            let p = s.sample(&mut rng);
            assert!(p.is_nonnegative());
            assert!(p.sum() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn gaps_sum_to_max_coordinate() {
        let u = Vector::from([0.7, 0.2, 0.4]);
        let x = unit_cube_to_simplex(&u);
        assert!(approx_eq(x.sum(), 0.7));
        assert_eq!(x.dim(), 3);
        assert!(x.is_nonnegative());
    }

    #[test]
    fn scaled_points_respect_constraint() {
        let coeffs = [4.0, 9.0, 2.0];
        let cap = 7.0;
        let s = SimplexSampler::new(&coeffs, cap);
        let mut rng = seeded_rng(11);
        for _ in 0..500 {
            let p = s.sample(&mut rng);
            let lhs: f64 = p.as_slice().iter().zip(&coeffs).map(|(r, a)| r * a).sum();
            assert!(lhs <= cap + 1e-9);
            assert!(p.is_nonnegative());
        }
    }

    #[test]
    fn sampler_mean_matches_theory() {
        // Each coordinate of a uniform point in the standard d-simplex has
        // mean 1/(d+1).
        let d = 3;
        let s = SimplexSampler::standard(d);
        let mut rng = seeded_rng(5);
        let n = 40_000;
        let mut sums = vec![0.0; d];
        for _ in 0..n {
            let p = s.sample(&mut rng);
            for (acc, &x) in sums.iter_mut().zip(p.as_slice()) {
                *acc += x;
            }
        }
        for acc in sums {
            let mean = acc / n as f64;
            assert!(
                (mean - 1.0 / (d as f64 + 1.0)).abs() < 5e-3,
                "mean {mean} far from {}",
                1.0 / (d as f64 + 1.0)
            );
        }
    }

    #[test]
    fn halton_points_fill_simplex_uniformly() {
        // Volume check: fraction of simplex points with x0 <= 1/2 in the
        // standard 2-simplex is 1 - (1/2)^2 = 3/4.
        let s = SimplexSampler::standard(2);
        let mut seq = HaltonSeq::new(2);
        let n = 8192;
        let hits = (0..n)
            .filter(|_| {
                let p = s.map_cube_point(&seq.next_point());
                p[0] <= 0.5
            })
            .count();
        assert!((hits as f64 / n as f64 - 0.75).abs() < 5e-3);
    }
}
