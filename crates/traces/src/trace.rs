//! The [`Trace`] type: a rate series with a fixed time step.

use rand::Rng as _;
use serde::{Deserialize, Serialize};

use rod_geom::rng::Rng;
use rod_geom::OnlineStats;

/// Why a [`Trace`] could not be constructed from the given values.
///
/// Each variant pins the offending value (and bin index where there is
/// one), so generators and file readers can reject hostile rate series
/// with a diagnosis instead of a blanket panic.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceError {
    /// The bin width is zero, negative, NaN, or infinite.
    NonPositiveStep {
        /// The offending step.
        dt: f64,
    },
    /// A rate value is NaN or infinite.
    NonFiniteRate {
        /// Bin index of the offending rate.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A rate value is negative.
    NegativeRate {
        /// Bin index of the offending rate.
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::NonPositiveStep { dt } => {
                write!(f, "time step must be positive and finite (got {dt})")
            }
            TraceError::NonFiniteRate { index, value } => write!(
                f,
                "rates must be finite and non-negative: rate[{index}] = {value} is not finite"
            ),
            TraceError::NegativeRate { index, value } => write!(
                f,
                "rates must be finite and non-negative: rate[{index}] = {value} is negative"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// A non-negative rate series sampled on a uniform grid.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Rate (tuples per unit time) in each bin.
    rates: Vec<f64>,
    /// Bin width in time units.
    dt: f64,
}

impl Trace {
    /// Creates a trace, rejecting a non-positive/non-finite step and
    /// non-finite or negative rates with the specific [`TraceError`] —
    /// the fallible path for values that come from outside (files,
    /// telemetry, generator parameters under user control).
    pub fn try_new(rates: Vec<f64>, dt: f64) -> Result<Self, TraceError> {
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(TraceError::NonPositiveStep { dt });
        }
        for (index, &value) in rates.iter().enumerate() {
            if !value.is_finite() {
                return Err(TraceError::NonFiniteRate { index, value });
            }
            if value < 0.0 {
                return Err(TraceError::NegativeRate { index, value });
            }
        }
        Ok(Trace { rates, dt })
    }

    /// Creates a trace; panics on negative rates or a non-positive step.
    /// Internal generators use this — their values are correct by
    /// construction — while anything ingesting external data should use
    /// [`Trace::try_new`] and handle the error.
    pub fn new(rates: Vec<f64>, dt: f64) -> Self {
        Trace::try_new(rates, dt).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A constant-rate trace.
    pub fn constant(rate: f64, bins: usize, dt: f64) -> Self {
        Trace::new(vec![rate; bins], dt)
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// True when the trace has no bins.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Bin width.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Total covered time.
    pub fn duration(&self) -> f64 {
        self.len() as f64 * self.dt
    }

    /// The raw rate values.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Rate at an arbitrary time (piecewise constant, clamped to the last
    /// bin beyond the end).
    pub fn rate_at(&self, t: f64) -> f64 {
        if self.rates.is_empty() {
            return 0.0;
        }
        let idx = ((t / self.dt).floor().max(0.0) as usize).min(self.rates.len() - 1);
        self.rates[idx]
    }

    /// Mean rate.
    pub fn mean(&self) -> f64 {
        self.summary().mean()
    }

    /// Mean/std/min/max summary.
    pub fn summary(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        for &r in &self.rates {
            s.push(r);
        }
        s
    }

    /// Scales every rate by a factor.
    pub fn scaled(&self, factor: f64) -> Trace {
        assert!(factor >= 0.0);
        Trace::new(self.rates.iter().map(|r| r * factor).collect(), self.dt)
    }

    /// Rescales to the given mean (no-op target for an all-zero trace).
    pub fn with_mean(&self, mean: f64) -> Trace {
        let cur = self.mean();
        if cur == 0.0 {
            return self.clone();
        }
        self.scaled(mean / cur)
    }

    /// Normalises to mean 1 — the form Figure 2 plots ("normalized stream
    /// rates as a function of time").
    pub fn normalised(&self) -> Trace {
        self.with_mean(1.0)
    }

    /// Adjusts the spread so the coefficient of variation σ/μ becomes
    /// `target_cov` (keeping the mean). Each pass stretches deviations
    /// affinely and clips at zero; because clipping shaves spread back
    /// off, the transform is iterated until the measured CoV converges
    /// on the target (or stops improving — heavily skewed series with
    /// mass near zero cannot reach arbitrarily high spreads this way).
    /// Used to calibrate synthetic traces against the spreads the paper
    /// reports.
    pub fn with_cov(&self, target_cov: f64) -> Trace {
        let mut current = self.clone();
        for _ in 0..16 {
            let s = current.summary();
            let (mean, std) = (s.mean(), s.std_dev());
            if std == 0.0 || mean == 0.0 {
                return current;
            }
            if (s.coeff_of_variation() - target_cov).abs() <= 1e-4 * target_cov.max(1e-9) {
                break;
            }
            let gain = target_cov * mean / std;
            current = Trace::new(
                current
                    .rates
                    .iter()
                    .map(|&r| (mean + (r - mean) * gain).max(0.0))
                    .collect(),
                self.dt,
            )
            // Clipping also drifts the mean; restore it so the fixed
            // point has both the requested mean and spread.
            .with_mean(mean);
        }
        current
    }

    /// Aggregates adjacent bins by summing tuple counts (rate × dt),
    /// producing a coarser trace — self-similar traces keep their
    /// burstiness under this operation, Poisson traces smooth out.
    pub fn aggregate(&self, factor: usize) -> Trace {
        assert!(factor >= 1);
        let rates = self
            .rates
            .chunks(factor)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        Trace::new(rates, self.dt * factor as f64)
    }

    /// Point-wise sum of two equally-shaped traces.
    pub fn add(&self, other: &Trace) -> Trace {
        assert_eq!(self.len(), other.len(), "trace lengths differ");
        assert!((self.dt - other.dt).abs() < 1e-12, "time steps differ");
        Trace::new(
            self.rates
                .iter()
                .zip(&other.rates)
                .map(|(a, b)| a + b)
                .collect(),
            self.dt,
        )
    }

    /// Point-wise product with a modulation envelope (values ≥ 0).
    pub fn modulated(&self, envelope: &[f64]) -> Trace {
        assert_eq!(envelope.len(), self.len(), "envelope length differs");
        Trace::new(
            self.rates
                .iter()
                .zip(envelope)
                .map(|(r, e)| r * e.max(0.0))
                .collect(),
            self.dt,
        )
    }

    /// Expected tuple count over the whole trace: `Σ rate·dt`. The
    /// actual Poisson draw fluctuates around it by `O(√n)`; useful for
    /// sizing buffers and sanity-checking production-volume runs.
    pub fn expected_tuples(&self) -> f64 {
        self.rates.iter().sum::<f64>() * self.dt
    }

    /// Draws Poisson arrival timestamps consistent with the binned rates
    /// (uniform within each bin) — how the simulator turns a rate trace
    /// into a tuple stream.
    pub fn to_arrival_times(&self, rng: &mut Rng) -> Vec<f64> {
        self.draw_arrivals(rng).0
    }

    /// [`Trace::to_arrival_times`], also reporting whether the per-bin
    /// sort had to fall back to one global sort.
    fn draw_arrivals(&self, rng: &mut Rng) -> (Vec<f64>, bool) {
        // At production volume (10⁷+ arrivals) growth reallocations cost
        // real time; the expected count plus ~4σ slack almost always
        // covers the draw in one allocation.
        let expected = self.expected_tuples();
        let mut times = Vec::with_capacity((expected + 4.0 * expected.sqrt()) as usize + 16);
        let mut sorter = BinSort::default();
        for (i, &rate) in self.rates.iter().enumerate() {
            let lam = rate * self.dt;
            let count = sample_poisson(lam, rng);
            let t0 = i as f64 * self.dt;
            let start = times.len();
            for _ in 0..count {
                times.push(t0 + rng.gen::<f64>() * self.dt);
            }
            sorter.sort_run(&mut times[start..], t0, self.dt);
        }
        let fell_back = sorter.finish(&mut times);
        (times, fell_back)
    }
}

/// Runs shorter than this are insertion-sorted directly.
const SHORT_RUN: usize = 32;

/// A bucket holding more than this many times makes the bucket pass
/// give way to `sort_unstable_by`, so the insertion pass after it costs
/// at most `MAX_BUCKET / 2` moves per element. A bin's times are uniform
/// in the bin, so with one bucket per time the occupancy is Poisson(1)
/// and never comes near it.
const MAX_BUCKET: usize = 16;

/// Sorts arrival times bin by bin, as each bin's run is drawn, into the
/// order one global `sort_by(f64::total_cmp)` would give.
///
/// Each run is sorted by a linear bucket pass followed by an insertion
/// pass. A bin's times lie in `[t0, t0 + dt]` up to rounding, so sorted
/// runs are almost always already in order across bins; every boundary
/// is checked, and if any run starts below the previous run's last time
/// the whole vector is sorted once more by the global sort. `total_cmp`
/// is a total order on bit patterns, so any correct sort produces the
/// same bytes: the result is the global sort's, whichever path ran.
#[derive(Default)]
struct BinSort {
    /// Copy of the run being bucketed, sized to the largest run so far.
    scratch: Vec<f64>,
    /// Bucket counts, then write cursors.
    cursors: Vec<usize>,
    /// Last (largest) time of the latest non-empty run.
    last: Option<f64>,
    /// Set when a run starts below the previous run's last time.
    out_of_order: bool,
}

impl BinSort {
    /// Sorts `run`, the times drawn for the bin `[lo, lo + width)`, and
    /// checks its boundary with the previous non-empty run. `lo` and
    /// `width` only steer the bucket pass: any run comes out sorted.
    fn sort_run(&mut self, run: &mut [f64], lo: f64, width: f64) {
        if run.is_empty() {
            return;
        }
        if run.len() < SHORT_RUN || self.bucket_pass(run, lo, width) {
            insertion_sort(run);
        } else {
            run.sort_unstable_by(f64::total_cmp);
        }
        if self
            .last
            .is_some_and(|prev| run[0].total_cmp(&prev).is_lt())
        {
            self.out_of_order = true;
        }
        self.last = Some(run[run.len() - 1]);
    }

    /// Distributes `run` into one bucket per element by its offset in
    /// the bin; returns false, leaving `run` untouched, when a bucket
    /// overflows [`MAX_BUCKET`]. Keys never decrease as the value grows
    /// (NaN aside), so afterwards only times sharing a bucket can be out
    /// of order.
    fn bucket_pass(&mut self, run: &mut [f64], lo: f64, width: f64) -> bool {
        let buckets = run.len();
        let scale = buckets as f64 / width;
        // `as usize` saturates (negative and NaN give 0), and the clamp
        // catches times rounded onto the bin's upper edge.
        let key = |x: f64| (((x - lo) * scale) as usize).min(buckets - 1);
        self.cursors.clear();
        self.cursors.resize(buckets, 0);
        for &x in run.iter() {
            self.cursors[key(x)] += 1;
        }
        if self.cursors.iter().any(|&c| c > MAX_BUCKET) {
            return false;
        }
        let mut offset = 0;
        for cursor in &mut self.cursors {
            let count = *cursor;
            *cursor = offset;
            offset += count;
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(run);
        for &x in &self.scratch {
            let cursor = &mut self.cursors[key(x)];
            run[*cursor] = x;
            *cursor += 1;
        }
        true
    }

    /// Completes the sort of `times`, the concatenation of every run
    /// passed to [`BinSort::sort_run`]: when a boundary was out of
    /// order, sorts it globally. Returns whether that fallback ran.
    fn finish(self, times: &mut [f64]) -> bool {
        if self.out_of_order {
            times.sort_by(f64::total_cmp);
        }
        self.out_of_order
    }
}

/// Sorts `v` by `total_cmp`, moving each element left past larger ones.
fn insertion_sort(v: &mut [f64]) {
    for i in 1..v.len() {
        let x = v[i];
        let mut j = i;
        while j > 0 && x.total_cmp(&v[j - 1]).is_lt() {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

/// Poisson sample via inversion for small λ and normal approximation for
/// large λ (adequate here: arrival counts, not tail statistics).
pub(crate) fn sample_poisson(lambda: f64, rng: &mut Rng) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let limit = (-lambda).exp();
        let mut product = rng.gen::<f64>();
        let mut count = 0;
        while product > limit {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    } else {
        // Normal approximation with continuity correction.
        let (u1, u2) = (rng.gen::<f64>().max(f64::MIN_POSITIVE), rng.gen::<f64>());
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (lambda + lambda.sqrt() * z + 0.5).max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rod_geom::seeded_rng;

    #[test]
    fn construction_and_lookup() {
        let t = Trace::new(vec![1.0, 2.0, 3.0], 0.5);
        assert_eq!(t.len(), 3);
        assert_eq!(t.duration(), 1.5);
        assert_eq!(t.rate_at(0.0), 1.0);
        assert_eq!(t.rate_at(0.6), 2.0);
        assert_eq!(t.rate_at(99.0), 3.0); // clamped
        assert_eq!(t.mean(), 2.0);
    }

    #[test]
    fn expected_tuples_matches_rate_integral_and_bounds_the_draw() {
        let t = Trace::new(vec![1.0, 2.0, 3.0], 0.5);
        assert_eq!(t.expected_tuples(), 3.0);

        // On a production-volume trace the Poisson draw lands within a
        // few σ of the expectation (σ = √n), so the preallocation in
        // `to_arrival_times` covers it without regrowing.
        let big = Trace::new(vec![50_000.0; 10], 1.0);
        let expected = big.expected_tuples();
        assert_eq!(expected, 500_000.0);
        let mut rng = seeded_rng(9);
        let times = big.to_arrival_times(&mut rng);
        let sigma = expected.sqrt();
        assert!(
            (times.len() as f64 - expected).abs() < 6.0 * sigma,
            "drew {} arrivals, expected {expected} ± {sigma}",
            times.len()
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rates_rejected() {
        let _ = Trace::new(vec![1.0, -2.0], 1.0);
    }

    #[test]
    fn try_new_accepts_clean_series() {
        let t = Trace::try_new(vec![0.0, 5.0], 0.25).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.dt(), 0.25);
    }

    #[test]
    fn try_new_rejects_negative_rate_with_index() {
        let err = Trace::try_new(vec![1.0, -2.0], 1.0).unwrap_err();
        assert_eq!(
            err,
            TraceError::NegativeRate {
                index: 1,
                value: -2.0
            }
        );
    }

    #[test]
    fn try_new_rejects_nan_rate_with_index() {
        let err = Trace::try_new(vec![1.0, 2.0, f64::NAN], 1.0).unwrap_err();
        assert!(
            matches!(err, TraceError::NonFiniteRate { index: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn try_new_rejects_infinite_rate() {
        let err = Trace::try_new(vec![f64::INFINITY], 1.0).unwrap_err();
        assert!(
            matches!(err, TraceError::NonFiniteRate { index: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn try_new_rejects_degenerate_steps() {
        for dt in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = Trace::try_new(vec![1.0], dt).unwrap_err();
            assert!(matches!(err, TraceError::NonPositiveStep { .. }), "dt={dt}");
        }
    }

    #[test]
    fn scaling_and_normalisation() {
        let t = Trace::new(vec![2.0, 4.0], 1.0);
        assert_eq!(t.with_mean(6.0).rates(), &[4.0, 8.0]);
        assert_eq!(t.normalised().mean(), 1.0);
    }

    #[test]
    fn cov_calibration() {
        let t = Trace::new(vec![1.0, 2.0, 3.0, 4.0, 5.0], 1.0);
        let cal = t.with_cov(0.3);
        let s = cal.summary();
        assert!((s.coeff_of_variation() - 0.3).abs() < 1e-9);
        assert!((s.mean() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn aggregation_preserves_mean() {
        let t = Trace::new(vec![1.0, 3.0, 5.0, 7.0], 1.0);
        let agg = t.aggregate(2);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg.rates(), &[2.0, 6.0]);
        assert_eq!(agg.dt(), 2.0);
        assert_eq!(agg.mean(), t.mean());
    }

    #[test]
    fn add_and_modulate() {
        let a = Trace::new(vec![1.0, 2.0], 1.0);
        let b = Trace::new(vec![3.0, 4.0], 1.0);
        assert_eq!(a.add(&b).rates(), &[4.0, 6.0]);
        assert_eq!(a.modulated(&[2.0, 0.5]).rates(), &[2.0, 1.0]);
    }

    #[test]
    fn arrivals_match_expected_count() {
        let t = Trace::constant(100.0, 50, 1.0); // E[count] = 5000
        let mut rng = seeded_rng(4);
        let arr = t.to_arrival_times(&mut rng);
        assert!((arr.len() as f64 - 5000.0).abs() < 300.0, "{}", arr.len());
        assert!(arr.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(arr.iter().all(|&x| (0.0..=50.0).contains(&x)));
    }

    /// `to_arrival_times` as it was before the per-bin sort: the same
    /// draws in the same order, then one global stable sort. The oracle
    /// the per-bin sort must match bit for bit.
    fn oracle_arrival_times(trace: &Trace, rng: &mut Rng) -> Vec<f64> {
        let expected = trace.expected_tuples();
        let mut times = Vec::with_capacity((expected + 4.0 * expected.sqrt()) as usize + 16);
        for (i, &rate) in trace.rates.iter().enumerate() {
            let lam = rate * trace.dt;
            let count = sample_poisson(lam, rng);
            let t0 = i as f64 * trace.dt;
            for _ in 0..count {
                times.push(t0 + rng.gen::<f64>() * trace.dt);
            }
        }
        times.sort_by(|a, b| a.total_cmp(b));
        times
    }

    fn bits(times: &[f64]) -> Vec<u64> {
        times.iter().map(|t| t.to_bits()).collect()
    }

    #[test]
    fn per_bin_sort_matches_the_global_sort_oracle() {
        // Expected tuples per bin (λ = rate·dt), so each shape keeps its
        // bin sizes at every dt.
        let shapes: [(&str, Vec<f64>); 5] = [
            ("all zero", vec![0.0; 12]),
            (
                "zero bins between",
                vec![0.0, 40.0, 0.0, 0.0, 900.0, 0.0, 3.0],
            ),
            (
                "inversion (λ < 30)",
                vec![0.5, 3.0, 12.0, 29.9, 0.0, 7.0, 1.0],
            ),
            ("one-tuple bins", vec![0.05; 400]),
            ("large bins", vec![40_000.0, 150.0, 65_000.0, 31.0, 1_000.0]),
        ];
        for dt in [0.1, 0.3, 1e-3] {
            for (name, lambdas) in &shapes {
                let trace = Trace::new(lambdas.iter().map(|l| l / dt).collect(), dt);
                for seed in [0, 1, 17] {
                    let (mut fast_rng, mut oracle_rng) = (seeded_rng(seed), seeded_rng(seed));
                    let (times, fell_back) = trace.draw_arrivals(&mut fast_rng);
                    let oracle = oracle_arrival_times(&trace, &mut oracle_rng);
                    assert_eq!(bits(&times), bits(&oracle), "{name}, dt {dt}, seed {seed}");
                    assert!(
                        !fell_back,
                        "{name}, dt {dt}, seed {seed}: boundary fallback ran"
                    );
                    // Same draws consumed: the streams continue in step.
                    assert_eq!(fast_rng.gen::<u64>(), oracle_rng.gen::<u64>());
                }
            }
        }
    }

    /// Feeds `runs` (bin start, bin width, times) through [`BinSort`] as
    /// `draw_arrivals` does; returns the result and whether it fell back.
    fn sort_runs(runs: &[(f64, f64, Vec<f64>)]) -> (Vec<f64>, bool) {
        let mut times = Vec::new();
        let mut sorter = BinSort::default();
        for (lo, width, run) in runs {
            let start = times.len();
            times.extend_from_slice(run);
            sorter.sort_run(&mut times[start..], *lo, *width);
        }
        let fell_back = sorter.finish(&mut times);
        (times, fell_back)
    }

    fn global_sort(runs: &[(f64, f64, Vec<f64>)]) -> Vec<f64> {
        let mut all: Vec<f64> = runs.iter().flat_map(|r| r.2.iter().copied()).collect();
        all.sort_by(|a, b| a.total_cmp(b));
        all
    }

    /// `n` times spread over `[lo, lo + width)` in a scrambled order.
    fn scrambled(lo: f64, width: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| lo + ((k * 7919) % n) as f64 / n as f64 * width)
            .collect()
    }

    #[test]
    fn in_order_runs_need_no_fallback() {
        let runs = vec![
            (0.0, 1.0, vec![0.7, 0.1, 0.4]),
            (1.0, 1.0, scrambled(1.0, 1.0, 500)),
            (2.0, 1.0, vec![]),
            (2.0, 1.0, vec![3.0, 2.5]),
            // Starts exactly where the previous run ended: a tie is in order.
            (3.0, 1.0, vec![3.5, 3.0, 3.5, 3.25]),
            (4.0, 1.0, vec![4.0; 64]),
        ];
        let (times, fell_back) = sort_runs(&runs);
        assert!(!fell_back);
        assert_eq!(bits(&times), bits(&global_sort(&runs)));
    }

    #[test]
    fn overlapping_runs_take_the_fallback_and_match_the_oracle() {
        let cases = [
            // A short run's last time exceeds the next run's first.
            vec![
                (0.0, 1.0, vec![0.5, 0.2, 1.7, 0.9]),
                (1.0, 1.0, vec![1.9, 1.1, 1.4]),
            ],
            // A bucketed run overlaps the next bucketed run by one time.
            vec![
                (0.0, 0.3, scrambled(0.0, 0.3, 200)),
                (0.3, 0.3, {
                    let mut run = scrambled(0.3, 0.3, 200);
                    run[17] = 0.2;
                    run
                }),
            ],
            // Times outside their bin collapse into one bucket, so the
            // run sorts with `sort_unstable_by`, then trips the boundary.
            vec![
                (0.0, 1e-3, scrambled(0.0, 1e-3, 40)),
                (
                    1e-3,
                    1e-3,
                    (0..100).map(|k| 5.0 - k as f64 * 1e-9).collect(),
                ),
                (2e-3, 1e-3, scrambled(2e-3, 1e-3, 80)),
                (3e-3, 1e-3, vec![]),
                (4e-3, 1e-3, vec![4.5e-3]),
            ],
        ];
        for (i, runs) in cases.iter().enumerate() {
            let (times, fell_back) = sort_runs(runs);
            assert!(fell_back, "case {i} should take the fallback");
            assert_eq!(bits(&times), bits(&global_sort(runs)), "case {i}");
        }
    }

    #[test]
    fn degenerate_buckets_still_sort() {
        // Every time in one bucket, and NaN and infinite keys: the
        // bucket pass gives way and the run still sorts like total_cmp.
        let mut run: Vec<f64> = (0..300).map(|k| 0.5 + (k % 3) as f64 * 1e-12).collect();
        run.extend([f64::INFINITY, f64::NAN, -1.0, 0.0, f64::NEG_INFINITY]);
        let runs = vec![(0.0, 1.0, run)];
        let (times, fell_back) = sort_runs(&runs);
        assert!(!fell_back);
        assert_eq!(bits(&times), bits(&global_sort(&runs)));
    }

    #[test]
    fn poisson_sampler_moments() {
        let mut rng = seeded_rng(8);
        for lambda in [0.5, 5.0, 80.0] {
            let n = 20_000;
            let mean = (0..n)
                .map(|_| sample_poisson(lambda, &mut rng) as f64)
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - lambda).abs() < 0.05 * lambda.max(1.0),
                "lambda {lambda}: mean {mean}"
            );
        }
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
    }
}
