//! Feasible-set volume estimation.
//!
//! The ROD objective is the volume of `F(A) = {R ≥ 0 : L^n R ≤ C}`. By
//! Theorem 1 this set is always contained in the *ideal* simplex
//! `{R ≥ 0 : Σ l_k r_k ≤ C_T}`, so we estimate the ratio
//! `|F(A)| / |F*|` by drawing (quasi-)uniform points from the ideal simplex
//! and counting how many satisfy every node constraint — precisely the
//! procedure §7.1 describes for both the Borealis prototype ("randomly
//! generating workload points, all within the ideal feasible set") and the
//! simulator ("Quasi Monte Carlo integration"). Multiplying the ratio by
//! the closed-form `V(F*) = C_T^d/(d! ∏ l_k)` recovers an absolute volume.
//!
//! For `d = 2` the exact polygon area from [`crate::polygon`] is available
//! and is used in tests to validate the estimator.

use serde::{Deserialize, Serialize};

use crate::batch::{FeasibilityKernel, PointBatch};
use crate::hyperplane::Hyperplane;
use crate::matrix::Matrix;
use crate::qmc::HaltonSeq;
use crate::simplex::{simplex_volume, SimplexSampler};
use crate::vector::Vector;

/// A feasible region `{R ≥ B : L^n R ≤ C}` with optional lower bound `B`
/// (zero by default; non-zero for the §6.1 extension).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeasibleRegion {
    /// Node load-coefficient matrix `L^n` (n × d).
    pub coefficients: Matrix,
    /// Node capacity vector `C` (length n).
    pub capacities: Vector,
    /// Workload lower bound `B` (length d, component-wise).
    pub lower_bound: Vector,
}

impl FeasibleRegion {
    /// Region with zero lower bound.
    pub fn new(coefficients: Matrix, capacities: Vector) -> Self {
        let d = coefficients.cols();
        assert_eq!(
            coefficients.rows(),
            capacities.dim(),
            "one capacity per node required"
        );
        FeasibleRegion {
            coefficients,
            capacities,
            lower_bound: Vector::zeros(d),
        }
    }

    /// Region with an explicit lower bound `B` on the workload set.
    pub fn with_lower_bound(coefficients: Matrix, capacities: Vector, lower_bound: Vector) -> Self {
        assert_eq!(coefficients.cols(), lower_bound.dim());
        let mut r = FeasibleRegion::new(coefficients, capacities);
        r.lower_bound = lower_bound;
        r
    }

    /// Number of input-rate dimensions `d`.
    pub fn dim(&self) -> usize {
        self.coefficients.cols()
    }

    /// Number of node constraints `n`.
    pub fn constraints(&self) -> usize {
        self.coefficients.rows()
    }

    /// True when rate point `r` satisfies every node constraint and the
    /// lower bound.
    pub fn contains(&self, r: &Vector) -> bool {
        if !self.lower_bound.le(r) {
            return false;
        }
        for i in 0..self.coefficients.rows() {
            let load: f64 = self
                .coefficients
                .row(i)
                .iter()
                .zip(r.as_slice())
                .map(|(l, x)| l * x)
                .sum();
            if load > self.capacities[i] + 1e-12 {
                return false;
            }
        }
        true
    }

    /// Largest `α ≥ 0` such that `base + α·direction` stays feasible —
    /// exact ray casting against the node hyperplanes:
    /// `α* = min_i (C_i − L_i·base) / (L_i·direction)` over constraints
    /// with positive directional load. `f64::INFINITY` when the ray never
    /// leaves the region, `0.0` when `base` is already infeasible.
    /// (The lower bound is ignored: headroom asks about growth.)
    pub fn max_scale_along(&self, base: &Vector, direction: &Vector) -> f64 {
        assert_eq!(base.dim(), self.dim());
        assert_eq!(direction.dim(), self.dim());
        let mut alpha = f64::INFINITY;
        for i in 0..self.coefficients.rows() {
            let row = self.coefficients.row(i);
            let load: f64 = row.iter().zip(base.as_slice()).map(|(l, x)| l * x).sum();
            let slack = self.capacities[i] - load;
            if slack < 0.0 {
                return 0.0;
            }
            let dir_load: f64 = row
                .iter()
                .zip(direction.as_slice())
                .map(|(l, x)| l * x)
                .sum();
            if dir_load > 0.0 {
                alpha = alpha.min(slack / dir_load);
            }
        }
        alpha
    }

    /// The node hyperplanes `L^n_i · R = C_i`.
    pub fn hyperplanes(&self) -> Vec<Hyperplane> {
        (0..self.coefficients.rows())
            .map(|i| Hyperplane::new(self.coefficients.row_vector(i), self.capacities[i]))
            .collect()
    }
}

/// High-accuracy volume of a three-dimensional feasible region by
/// sweeping the third coordinate and integrating the *exact* clipped
/// polygon area of each slice (composite Simpson). The slice-area
/// function of a convex polytope is piecewise smooth, so a few thousand
/// panels give ~1e-6 relative accuracy — an independent check of the
/// quasi-Monte-Carlo estimator one dimension beyond the closed-form
/// d = 2 case.
///
/// Returns `None` when the region is not 3-dimensional or is unbounded.
pub fn exact_volume_3d(region: &FeasibleRegion) -> Option<f64> {
    use crate::polygon::feasible_area;
    if region.dim() != 3 {
        return None;
    }
    if !region.lower_bound.as_slice().iter().all(|&b| b == 0.0) {
        return None; // sweep assumes the full orthant
    }
    // Bound on x3: the tightest axis-2 intercept over all constraints.
    let ln = &region.coefficients;
    let x3_max = (0..ln.rows())
        .filter(|&i| ln[(i, 2)] > 0.0)
        .map(|i| region.capacities[i] / ln[(i, 2)])
        .fold(f64::INFINITY, f64::min);
    if !x3_max.is_finite() {
        return None;
    }
    // Exact area of the slice at fixed x3.
    let slice_area = |x3: f64| -> Option<f64> {
        let constraints: Vec<Hyperplane> = (0..ln.rows())
            .map(|i| {
                Hyperplane::new(
                    Vector::from([ln[(i, 0)], ln[(i, 1)]]),
                    region.capacities[i] - ln[(i, 2)] * x3,
                )
            })
            .collect();
        // A negative remaining capacity makes the slice empty.
        if constraints.iter().any(|h| h.offset < 0.0) {
            return Some(0.0);
        }
        feasible_area(&constraints)
    };
    // Composite Simpson over [0, x3_max].
    let panels = 4096usize; // even
    let h = x3_max / panels as f64;
    let mut sum = slice_area(0.0)? + slice_area(x3_max)?;
    for j in 1..panels {
        let weight = if j % 2 == 1 { 4.0 } else { 2.0 };
        sum += weight * slice_area(j as f64 * h)?;
    }
    Some(sum * h / 3.0)
}

/// Result of a volume estimation.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct VolumeEstimate {
    /// Fraction of ideal-simplex sample points that were feasible.
    pub ratio_to_ideal: f64,
    /// `ratio_to_ideal × V(F*)`.
    pub absolute: f64,
    /// Exact volume of the enclosing ideal simplex.
    pub ideal_volume: f64,
    /// Number of sample points used.
    pub samples: usize,
}

/// Ideal-simplex volume restricted to the load-carrying axes: zero
/// coefficients are dropped (the set is unbounded along them and the
/// sampler pins those rates to 0), and an all-zero system has volume 0.
fn projected_ideal_volume(total_coeffs: &[f64], total_cap: f64) -> f64 {
    let positive: Vec<f64> = total_coeffs.iter().copied().filter(|&a| a > 0.0).collect();
    if positive.is_empty() {
        0.0
    } else {
        simplex_volume(&positive, total_cap)
    }
}

/// Quasi-Monte-Carlo estimator of feasible-set volume ratios.
///
/// The estimator is configured once with the total load coefficients
/// `l = colsums(L^o)` and total capacity `C_T` (which define the ideal
/// simplex) and can then score any number of candidate regions — all plans
/// for the same query graph share the same ideal simplex, so they are
/// scored against the *same* point set, making plan-to-plan comparisons
/// noise-free.
///
/// The points live only in the kernel's column-major [`PointBatch`]; they
/// are generated straight into its columns (see [`VolumeEstimator::new`]).
#[derive(Clone, Debug)]
pub struct VolumeEstimator {
    kernel: FeasibilityKernel,
    ideal_volume: f64,
}

/// Fewest points a generation range is dealt to a pool task — below it
/// the dispatch costs more than generating the points.
const MIN_POINTS_PER_RANGE: usize = 4_096;

impl VolumeEstimator {
    /// Builds an estimator with `samples` scrambled-Halton points uniform
    /// in the ideal simplex `{R ≥ 0 : Σ total_coeffs_k R_k ≤ total_cap}`.
    ///
    /// Zero total coefficients (inputs feeding only zero-load operators)
    /// leave the ideal set unbounded along those axes; the sampler pins
    /// them to rate 0 and `ideal_volume` is measured on the subspace of
    /// load-carrying inputs (0 when there are none). Plan-to-plan ratio
    /// comparisons stay valid — every plan is scored on the same points.
    ///
    /// Point `p` is the Halton point of index `p + 1` mapped into the
    /// simplex, with the float operations of
    /// [`SimplexSampler::map_cube_point`] over [`HaltonSeq::next_point`],
    /// written straight into the columns without either allocation. Generation is dealt to the persistent
    /// [`rod_pool::global`] pool by contiguous index ranges of whole
    /// 2,048-point chunks, one range per worker at most and at least two
    /// chunks (4,096 points, the last chunk possibly partial) each. Every
    /// range seeks its own odometer to its first index, so the columns
    /// are bit-identical at every pool size.
    pub fn new(total_coeffs: &[f64], total_cap: f64, samples: usize, seed: u64) -> Self {
        let ranges = rod_pool::global()
            .size()
            .min(samples / MIN_POINTS_PER_RANGE)
            .max(1);
        VolumeEstimator::halton_in_ranges(total_coeffs, total_cap, samples, seed, ranges)
    }

    /// [`VolumeEstimator::new`] dealt in `ranges` generation ranges
    /// (clamped to the number of point chunks) — the same columns for
    /// every `ranges`.
    pub(crate) fn halton_in_ranges(
        total_coeffs: &[f64],
        total_cap: f64,
        samples: usize,
        seed: u64,
        ranges: usize,
    ) -> Self {
        let sampler = SimplexSampler::new(total_coeffs, total_cap);
        let seq = HaltonSeq::shifted(total_coeffs.len(), seed);
        let batch = PointBatch::generate(total_coeffs.len(), samples, ranges, |first| {
            let mut seq = seq.clone();
            seq.seek(first as u64 + 1);
            let sampler = &sampler;
            move |x: &mut [f64]| {
                seq.next_into(x);
                sampler.map_in_place(x);
            }
        });
        VolumeEstimator::from_batch(batch, total_coeffs, total_cap)
    }

    /// Like [`VolumeEstimator::new`] but with a shifted Sobol' point set
    /// — preferable at the higher dimensions (d ≥ ~6) where Halton's
    /// correlation artefacts start to show. The Gray-code sequence runs
    /// serially, as one range.
    pub fn with_sobol(total_coeffs: &[f64], total_cap: f64, samples: usize, seed: u64) -> Self {
        let sampler = SimplexSampler::new(total_coeffs, total_cap);
        let batch = PointBatch::generate(total_coeffs.len(), samples, 1, |first| {
            debug_assert_eq!(first, 0, "one range starts at point 0");
            let mut seq = crate::sobol::SobolSeq::shifted(total_coeffs.len(), seed);
            let sampler = &sampler;
            move |x: &mut [f64]| {
                seq.next_into(x);
                sampler.map_in_place(x);
            }
        });
        VolumeEstimator::from_batch(batch, total_coeffs, total_cap)
    }

    fn from_batch(batch: PointBatch, total_coeffs: &[f64], total_cap: f64) -> Self {
        VolumeEstimator {
            kernel: FeasibilityKernel::from_batch(batch),
            ideal_volume: projected_ideal_volume(total_coeffs, total_cap),
        }
    }

    /// Number of sample points held.
    pub fn samples(&self) -> usize {
        self.batch().num_points()
    }

    /// Exact ideal-simplex volume.
    pub fn ideal_volume(&self) -> f64 {
        self.ideal_volume
    }

    /// The shared sample points, column-major — the layout the batched
    /// scoring paths want (the core's point-mask counter builds its
    /// per-operator load table from it), and the only copy the
    /// estimator holds.
    pub fn batch(&self) -> &PointBatch {
        self.kernel.batch()
    }

    /// Estimates the volume of `region` (which must live in the same rate
    /// space — same `d`, and be contained in the ideal simplex, which holds
    /// for every region generated from an allocation of the same graph).
    ///
    /// Scoring runs through the batched [`FeasibilityKernel`] — one
    /// column-wise pass over the structure-of-arrays point store — and the
    /// point range is partitioned across the persistent
    /// [`rod_pool::global`] worker pool (default size: `ROD_THREADS` or
    /// `std::thread::available_parallelism()`); each range's integer hit
    /// count is merged in range order, so the result is bit-identical to
    /// the serial scalar scan regardless of thread count.
    pub fn estimate(&self, region: &FeasibleRegion) -> VolumeEstimate {
        self.estimate_with_threads(region, rod_pool::global().size())
    }

    /// [`VolumeEstimator::estimate`] with an explicit chunk count
    /// (clamped to at least 1; small point sets fall back to the
    /// single-threaded kernel since dispatch would cost more than
    /// counting). Chunks run on the persistent [`rod_pool::global`]
    /// pool — no per-call thread spawn.
    pub fn estimate_with_threads(&self, region: &FeasibleRegion, threads: usize) -> VolumeEstimate {
        assert_eq!(region.dim(), self.batch().dim());
        // Below ~4k points per chunk, dispatch outweighs the counting
        // work (clamps oversized thread requests on tiny point sets).
        const MIN_POINTS_PER_THREAD: usize = 4_096;
        let samples = self.samples();
        let threads = threads
            .max(1)
            .min(samples.div_ceil(MIN_POINTS_PER_THREAD).max(1));
        let hits = if threads == 1 {
            self.kernel.count_feasible(region)
        } else {
            let ranges = rod_pool::chunks(samples, threads);
            // Ordered reduction: range counts are summed in range order.
            // Integer addition is associative, so the total equals the
            // serial count exactly, whatever the pool's worker count.
            rod_pool::global().map_reduce(
                ranges.len(),
                |t| {
                    let r = &ranges[t];
                    self.kernel.count_feasible_range(region, r.start, r.end)
                },
                0usize,
                |acc, part| acc + part,
            )
        };
        self.estimate_from_hits(hits)
    }

    /// The inner-loop implementation the kernel selected at
    /// construction ([`crate::simd::select_path`]): `Simd` on AVX2
    /// hosts unless `ROD_NO_SIMD` suppressed it, `Scalar` otherwise.
    pub fn kernel_path(&self) -> crate::simd::KernelPath {
        self.kernel.path()
    }

    /// Single-threaded estimate through the blocked kernel pinned to
    /// its **scalar** loops, whatever the host supports — the
    /// blocked-scalar reference leg of SIMD A/B comparisons (the
    /// `kernel_estimate_seconds` column of `BENCH_planner.json`).
    /// Bit-identical to [`estimate`](Self::estimate) by the kernel's
    /// path contract.
    pub fn estimate_kernel_scalar(&self, region: &FeasibleRegion) -> VolumeEstimate {
        assert_eq!(region.dim(), self.batch().dim());
        let hits = self
            .kernel
            .count_feasible_range_scalar(region, 0, self.samples());
        self.estimate_from_hits(hits)
    }

    fn estimate_from_hits(&self, hits: usize) -> VolumeEstimate {
        let ratio = hits as f64 / self.samples() as f64;
        VolumeEstimate {
            ratio_to_ideal: ratio,
            absolute: ratio * self.ideal_volume,
            ideal_volume: self.ideal_volume,
            samples: self.samples(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polygon::feasible_area;

    fn region(rows: &[&[f64]], caps: &[f64]) -> FeasibleRegion {
        FeasibleRegion::new(Matrix::from_rows(rows), Vector::from(caps))
    }

    #[test]
    fn contains_respects_constraints() {
        let r = region(&[&[1.0, 0.0], &[0.0, 1.0]], &[1.0, 2.0]);
        assert!(r.contains(&Vector::from([0.5, 1.5])));
        assert!(!r.contains(&Vector::from([1.5, 0.5])));
        assert!(!r.contains(&Vector::from([0.5, 2.5])));
    }

    #[test]
    fn contains_respects_lower_bound() {
        let r = FeasibleRegion::with_lower_bound(
            Matrix::from_rows(&[&[1.0, 1.0]]),
            Vector::from([2.0]),
            Vector::from([0.5, 0.0]),
        );
        assert!(r.contains(&Vector::from([0.6, 0.4])));
        assert!(!r.contains(&Vector::from([0.4, 0.4])), "below lower bound");
    }

    #[test]
    fn estimate_matches_exact_2d_area() {
        // Example 2 plan (a): L^n = [[4,2],[6,9]], C = (1,1);
        // ideal simplex: 10 r1 + 11 r2 <= 2.
        let reg = region(&[&[4.0, 2.0], &[6.0, 9.0]], &[1.0, 1.0]);
        let exact = feasible_area(&reg.hyperplanes()).unwrap();
        let est = VolumeEstimator::new(&[10.0, 11.0], 2.0, 50_000, 7).estimate(&reg);
        let rel_err = (est.absolute - exact).abs() / exact;
        assert!(rel_err < 0.01, "relative error {rel_err}");
    }

    #[test]
    fn ideal_region_has_ratio_one() {
        // A single node holding everything with the full capacity is
        // exactly the ideal simplex.
        let reg = region(&[&[10.0, 11.0]], &[2.0]);
        let est = VolumeEstimator::new(&[10.0, 11.0], 2.0, 20_000, 1).estimate(&reg);
        assert!(est.ratio_to_ideal > 0.999, "ratio {}", est.ratio_to_ideal);
    }

    #[test]
    fn tighter_region_has_smaller_ratio() {
        let est = VolumeEstimator::new(&[1.0, 1.0, 1.0], 1.0, 30_000, 2);
        let loose = region(
            &[&[0.4, 0.3, 0.3], &[0.3, 0.4, 0.3], &[0.3, 0.3, 0.4]],
            &[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        );
        let tight = region(
            &[&[0.8, 0.1, 0.1], &[0.1, 0.8, 0.1], &[0.1, 0.1, 0.8]],
            &[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        );
        let v_loose = est.estimate(&loose).ratio_to_ideal;
        let v_tight = est.estimate(&tight).ratio_to_ideal;
        assert!(
            v_loose > v_tight,
            "balanced plan {v_loose} should beat skewed plan {v_tight}"
        );
    }

    #[test]
    fn three_dim_exact_simplex_ratio() {
        // Region {x >= 0 : x1+x2+x3 <= 1/2} inside ideal {sum <= 1} has
        // ratio (1/2)^3 = 1/8.
        let reg = region(&[&[1.0, 1.0, 1.0]], &[0.5]);
        let est = VolumeEstimator::new(&[1.0, 1.0, 1.0], 1.0, 60_000, 3).estimate(&reg);
        assert!(
            (est.ratio_to_ideal - 0.125).abs() < 0.01,
            "ratio {}",
            est.ratio_to_ideal
        );
    }

    #[test]
    fn ray_casting_headroom() {
        // x + y <= 1, base (0.25, 0.25): along +x the boundary is at
        // alpha = 0.5; along the diagonal (1,1) at 0.25.
        let reg = region(&[&[1.0, 1.0]], &[1.0]);
        let base = Vector::from([0.25, 0.25]);
        assert!((reg.max_scale_along(&base, &Vector::from([1.0, 0.0])) - 0.5).abs() < 1e-12);
        assert!((reg.max_scale_along(&base, &Vector::from([1.0, 1.0])) - 0.25).abs() < 1e-12);
        // A direction that only shrinks load never exits.
        assert_eq!(
            reg.max_scale_along(&base, &Vector::from([-1.0, 0.0])),
            f64::INFINITY
        );
        // From an infeasible base, zero.
        assert_eq!(
            reg.max_scale_along(&Vector::from([2.0, 0.0]), &Vector::from([1.0, 0.0])),
            0.0
        );
        // Boundary point found by the ray is itself feasible.
        let alpha = reg.max_scale_along(&base, &Vector::from([1.0, 0.0]));
        let boundary = &base + &Vector::from([alpha, 0.0]);
        assert!(reg.contains(&boundary));
    }

    #[test]
    fn exact_3d_volume_of_simplex() {
        // {x >= 0 : x1 + x2 + x3 <= 1} has volume 1/6.
        let reg = region(&[&[1.0, 1.0, 1.0]], &[1.0]);
        let v = exact_volume_3d(&reg).unwrap();
        assert!((v - 1.0 / 6.0).abs() < 1e-6, "volume {v}");
    }

    #[test]
    fn exact_3d_volume_of_box() {
        // [0,1]x[0,2]x[0,3] via three axis constraints → volume 6.
        let reg = region(
            &[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]],
            &[1.0, 2.0, 3.0],
        );
        let v = exact_volume_3d(&reg).unwrap();
        assert!((v - 6.0).abs() < 1e-5, "volume {v}");
    }

    #[test]
    fn exact_3d_validates_qmc_on_random_region() {
        let reg = region(
            &[&[2.0, 1.0, 0.5], &[0.5, 2.5, 1.0], &[1.0, 0.7, 2.0]],
            &[1.0, 1.0, 1.0],
        );
        let exact = exact_volume_3d(&reg).unwrap();
        let totals = [3.5, 4.2, 3.5];
        let est = VolumeEstimator::new(&totals, 3.0, 80_000, 3).estimate(&reg);
        let rel = (est.absolute - exact).abs() / exact;
        assert!(
            rel < 0.02,
            "exact {exact} vs QMC {} (rel {rel})",
            est.absolute
        );
    }

    #[test]
    fn exact_3d_rejects_wrong_dimension_and_unbounded() {
        let reg2 = region(&[&[1.0, 1.0]], &[1.0]);
        assert_eq!(exact_volume_3d(&reg2), None);
        // x3 unconstrained → unbounded.
        let unbounded = region(&[&[1.0, 1.0, 0.0]], &[1.0]);
        assert_eq!(exact_volume_3d(&unbounded), None);
    }

    #[test]
    fn sobol_estimator_matches_exact_2d_area() {
        let reg = region(&[&[4.0, 2.0], &[6.0, 9.0]], &[1.0, 1.0]);
        let exact = feasible_area(&reg.hyperplanes()).unwrap();
        let est = VolumeEstimator::with_sobol(&[10.0, 11.0], 2.0, 50_000, 7).estimate(&reg);
        let rel_err = (est.absolute - exact).abs() / exact;
        assert!(rel_err < 0.01, "relative error {rel_err}");
    }

    #[test]
    fn parallel_estimate_is_bit_identical_to_serial() {
        // 20k points exceed the per-thread floor, so requested thread
        // counts > 1 genuinely spawn workers.
        let est = VolumeEstimator::new(&[10.0, 11.0], 2.0, 20_000, 7);
        let reg = region(&[&[4.0, 2.0], &[6.0, 9.0]], &[1.0, 1.0]);
        let serial = est.estimate_with_threads(&reg, 1);
        for threads in [2, 3, 4, 5, 8] {
            let parallel = est.estimate_with_threads(&reg, threads);
            assert_eq!(
                serial.ratio_to_ideal.to_bits(),
                parallel.ratio_to_ideal.to_bits(),
                "threads = {threads}"
            );
            assert_eq!(
                serial.absolute.to_bits(),
                parallel.absolute.to_bits(),
                "threads = {threads}"
            );
        }
        // The default path (available_parallelism) agrees too.
        assert_eq!(
            est.estimate(&reg).ratio_to_ideal.to_bits(),
            serial.ratio_to_ideal.to_bits()
        );
    }

    #[test]
    fn tiny_point_sets_fall_back_to_serial() {
        let est = VolumeEstimator::new(&[1.0, 1.0], 1.0, 500, 3);
        let reg = region(&[&[0.7, 0.6]], &[0.5]);
        let serial = est.estimate_with_threads(&reg, 1);
        let requested_many = est.estimate_with_threads(&reg, 64);
        assert_eq!(
            serial.ratio_to_ideal.to_bits(),
            requested_many.ratio_to_ideal.to_bits()
        );
    }

    /// The point-at-a-time reference walk: `FeasibleRegion::contains`
    /// over every point gathered from the columns, as a ratio.
    fn walked_ratio(est: &VolumeEstimator, reg: &FeasibleRegion) -> f64 {
        let batch = est.batch();
        let hits = (0..batch.num_points())
            .filter(|&p| reg.contains(&batch.point(p)))
            .count();
        hits as f64 / batch.num_points() as f64
    }

    #[test]
    fn batched_kernel_estimate_is_bit_identical_to_scalar() {
        // A spread of region shapes: loose, tight, lower-bounded, and
        // higher-dimensional — the kernel must agree with the per-point
        // walk bit for bit on every one.
        let est2 = VolumeEstimator::new(&[10.0, 11.0], 2.0, 30_000, 7);
        let est5 = VolumeEstimator::with_sobol(&[1.0; 5], 1.0, 30_000, 13);
        let regions2 = [
            region(&[&[4.0, 2.0], &[6.0, 9.0]], &[1.0, 1.0]),
            region(&[&[10.0, 11.0]], &[2.0]),
            FeasibleRegion::with_lower_bound(
                Matrix::from_rows(&[&[4.0, 2.0], &[6.0, 9.0]]),
                Vector::from([1.0, 1.0]),
                Vector::from([0.01, 0.01]),
            ),
        ];
        for (i, reg) in regions2.iter().enumerate() {
            let batched = est2.estimate(reg);
            let walked = walked_ratio(&est2, reg);
            assert_eq!(
                batched.ratio_to_ideal.to_bits(),
                walked.to_bits(),
                "2-d region {i}"
            );
            assert_eq!(
                batched.absolute.to_bits(),
                (walked * est2.ideal_volume()).to_bits()
            );
        }
        let reg5 = region(
            &[
                &[0.5, 0.2, 0.2, 0.2, 0.2],
                &[0.2, 0.5, 0.2, 0.2, 0.2],
                &[0.2, 0.2, 0.5, 0.2, 0.2],
            ],
            &[0.4, 0.4, 0.4],
        );
        assert_eq!(
            est5.estimate(&reg5).ratio_to_ideal.to_bits(),
            walked_ratio(&est5, &reg5).to_bits()
        );
    }

    /// The per-point oracle of the generated columns: each coordinate
    /// from `radical_inverse` of the point's index in the k-th prime
    /// base, the Cranley–Patterson shift and wrap, `unit_cube_to_simplex`
    /// and the scale, transposed by `PointBatch::from_points`.
    fn oracle_batch(coeffs: &[f64], cap: f64, samples: usize, seed: u64) -> PointBatch {
        use crate::qmc::{first_primes, radical_inverse};
        use crate::simplex::unit_cube_to_simplex;
        use rand::Rng as _;
        let bases = first_primes(coeffs.len());
        let mut rng = crate::rng::seeded_rng(seed);
        let shift: Vec<f64> = coeffs.iter().map(|_| rng.gen::<f64>()).collect();
        let scale: Vec<f64> = coeffs
            .iter()
            .map(|&a| if a > 0.0 { cap / a } else { 0.0 })
            .collect();
        let points: Vec<Vector> = (1..=samples as u64)
            .map(|index| {
                let u = Vector::new(
                    bases
                        .iter()
                        .zip(&shift)
                        .map(|(&b, s)| {
                            let v = radical_inverse(index, b) + s;
                            v - v.floor()
                        })
                        .collect(),
                );
                let x = unit_cube_to_simplex(&u);
                Vector::new(
                    x.as_slice()
                        .iter()
                        .zip(&scale)
                        .map(|(xi, s)| xi * s)
                        .collect(),
                )
            })
            .collect();
        PointBatch::from_points(&points)
    }

    /// Columns, chunk bounds and column minima of `got`, bit for bit
    /// against `want` (the oracle, whose dimension an empty point set
    /// cannot carry: an empty batch has `dim` column minima at `+inf`).
    fn same_batch(got: &PointBatch, want: &PointBatch, dim: usize) -> Result<(), String> {
        if got.dim() != dim || got.num_points() != want.num_points() {
            return Err(format!(
                "shape {}×{}, want {dim}×{}",
                got.dim(),
                got.num_points(),
                want.num_points()
            ));
        }
        let want = match want.num_points() {
            0 => (vec![], vec![], vec![f64::INFINITY.to_bits(); dim]),
            _ => want.bits(),
        };
        let got = got.bits();
        for (part, same) in [
            ("columns", got.0 == want.0),
            ("chunk bounds", got.1 == want.1),
            ("column minima", got.2 == want.2),
        ] {
            if !same {
                return Err(format!("{part} differ"));
            }
        }
        Ok(())
    }

    use proptest::prelude::*;

    proptest! {
        /// The estimator's generated columns are the per-point oracle's,
        /// for every range count, across CHUNK and word edges, past 16
        /// dimensions and with zero coefficients (pinned to rate 0).
        #[test]
        fn generated_columns_match_the_per_point_oracle(
            dim in (0usize..18).prop_map(|i| if i == 17 { 64 } else { i + 1 }),
            samples in (0usize..9)
                .prop_map(|i| [0, 1, 63, 64, 65, 2_047, 2_048, 2_049, 8_193][i]),
            draws in prop::collection::vec((0u32..4, 0.1f64..10.0), 64),
            cap in 0.5f64..20.0,
            seed in 0u64..1_000_000,
        ) {
            let coeffs: Vec<f64> = draws[..dim]
                .iter()
                .map(|&(pick, a)| if pick == 0 { 0.0 } else { a })
                .collect();
            let want = oracle_batch(&coeffs, cap, samples, seed);
            for ranges in 1..=5 {
                let est = VolumeEstimator::halton_in_ranges(&coeffs, cap, samples, seed, ranges);
                let verdict = same_batch(est.batch(), &want, dim);
                prop_assert!(verdict.is_ok(), "{ranges} ranges: {:?}", verdict);
            }
        }
    }

    /// Every range count and the pool-sized default agree at a size the
    /// pool really splits, and Sobol' points go through the same simplex
    /// map as the per-point path.
    #[test]
    fn columns_are_the_same_at_every_range_count() {
        let coeffs = [4.0, 0.0, 2.5, 9.0, 1.0];
        let want = oracle_batch(&coeffs, 12.0, 20_000, 2006);
        for ranges in [1, 2, 3, 4, 7, 64] {
            let est = VolumeEstimator::halton_in_ranges(&coeffs, 12.0, 20_000, 2006, ranges);
            assert_eq!(same_batch(est.batch(), &want, 5), Ok(()), "{ranges} ranges");
        }
        let est = VolumeEstimator::new(&coeffs, 12.0, 20_000, 2006);
        assert_eq!(same_batch(est.batch(), &want, 5), Ok(()));

        let sampler = SimplexSampler::new(&coeffs, 12.0);
        let mut seq = crate::sobol::SobolSeq::shifted(5, 3);
        let sobol: Vec<Vector> = (0..3_000)
            .map(|_| sampler.map_cube_point(&seq.next_point()))
            .collect();
        let est = VolumeEstimator::with_sobol(&coeffs, 12.0, 3_000, 3);
        assert_eq!(
            same_batch(est.batch(), &PointBatch::from_points(&sobol), 5),
            Ok(())
        );
    }

    /// The first k points of a larger set are the k-point set: columns
    /// for k points equal the first k entries of those for P > k, so a
    /// test wanting a prefix builds the smaller estimator.
    #[test]
    fn smaller_point_sets_are_prefixes_of_larger_ones() {
        let coeffs = [3.0, 1.5, 0.0, 2.0];
        let big = VolumeEstimator::new(&coeffs, 4.0, 9_000, 17);
        for k in [0usize, 1, 63, 64, 65, 2_048, 2_049, 8_999] {
            let small = VolumeEstimator::new(&coeffs, 4.0, k, 17);
            for d in 0..coeffs.len() {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(small.batch().column(d)),
                    bits(&big.batch().column(d)[..k]),
                    "k = {k}, column {d}"
                );
            }
        }
    }

    /// An estimator over no points still has the ideal simplex's
    /// dimension, so it scores a region of that dimension (as NaN, 0/0)
    /// instead of panicking.
    #[test]
    fn an_empty_point_set_keeps_its_dimension() {
        let est = VolumeEstimator::new(&[10.0, 11.0], 2.0, 0, 7);
        assert_eq!((est.samples(), est.batch().dim()), (0, 2));
        let reg = region(&[&[4.0, 2.0], &[6.0, 9.0]], &[1.0, 1.0]);
        let e = est.estimate(&reg);
        assert_eq!(e.samples, 0);
        assert!(e.ratio_to_ideal.is_nan());
        assert!(est.estimate_kernel_scalar(&reg).ratio_to_ideal.is_nan());
    }

    #[test]
    fn shared_points_give_identical_repeat_scores() {
        let est = VolumeEstimator::new(&[1.0, 1.0], 1.0, 5_000, 9);
        let reg = region(&[&[0.7, 0.6]], &[0.5]);
        let a = est.estimate(&reg).ratio_to_ideal;
        let b = est.estimate(&reg).ratio_to_ideal;
        assert_eq!(a, b);
    }
}
