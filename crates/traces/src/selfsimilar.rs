//! Self-similar rate-series generators.
//!
//! Two standard constructions:
//!
//! * [`BModel`] — the conservative multiplicative cascade of Wang et al.:
//!   recursively split each interval's tuple mass into fractions `p` and
//!   `1−p` in random order. The result is bursty at *every* time scale —
//!   the paper's "similar behaviour is observed at other time-scales"
//!   property — with burstiness controlled by how far `p` is from 0.5.
//! * [`FgnMidpoint`] — fractional Gaussian noise by random midpoint
//!   displacement: increments of fractional Brownian motion with Hurst
//!   parameter `H`; `H > 0.5` gives the long-range dependence measured in
//!   the Leland et al. Ethernet study the paper cites.

use rand::Rng as _;

use rod_geom::rng::{seeded_rng, Rng};

use crate::trace::Trace;

/// The most dyadic levels either generator builds: `2^24` bins.
pub const MAX_LEVELS: u32 = 24;

/// Conservative multiplicative cascade ("b-model").
#[derive(Clone, Debug)]
pub struct BModel {
    /// Split fraction `p ∈ (0.5, 1)`: larger ⇒ burstier. The classic
    /// traffic-modelling range is 0.6–0.8.
    pub bias: f64,
    /// Number of dyadic levels: the trace has `2^levels` bins.
    pub levels: u32,
    /// Mean rate of the finished trace.
    pub mean_rate: f64,
    /// Bin width.
    pub dt: f64,
}

impl BModel {
    /// A cascade with the given bias and size.
    pub fn new(bias: f64, levels: u32, mean_rate: f64, dt: f64) -> Self {
        assert!((0.5..1.0).contains(&bias), "bias must be in [0.5, 1)");
        assert!(levels <= MAX_LEVELS, "2^{levels} bins is unreasonable");
        BModel {
            bias,
            levels,
            mean_rate,
            dt,
        }
    }

    /// Generates the trace.
    pub fn generate(&self, seed: u64) -> Trace {
        let mut rng = seeded_rng(seed);
        let bins = 1usize << self.levels;
        let mut mass = vec![1.0f64; 1];
        for _ in 0..self.levels {
            let mut next = Vec::with_capacity(mass.len() * 2);
            for &m in &mass {
                let p = if rng.gen::<bool>() {
                    self.bias
                } else {
                    1.0 - self.bias
                };
                next.push(m * p);
                next.push(m * (1.0 - p));
            }
            mass = next;
        }
        debug_assert_eq!(mass.len(), bins);
        // Mass sums to 1; convert to rates with the requested mean.
        let scale = self.mean_rate * bins as f64;
        Trace::new(mass.into_iter().map(|m| m * scale).collect(), self.dt)
    }
}

/// Fractional Gaussian noise via random midpoint displacement, shifted and
/// clipped into a non-negative rate series.
#[derive(Clone, Debug)]
pub struct FgnMidpoint {
    /// Hurst exponent `H ∈ (0, 1)`; `H > 0.5` ⇒ long-range dependent.
    pub hurst: f64,
    /// Number of dyadic levels: the trace has `2^levels` bins.
    pub levels: u32,
    /// Mean rate.
    pub mean_rate: f64,
    /// Coefficient of variation before clipping.
    pub cov: f64,
    /// Bin width.
    pub dt: f64,
}

impl FgnMidpoint {
    /// A generator with the given Hurst exponent and spread.
    pub fn new(hurst: f64, levels: u32, mean_rate: f64, cov: f64, dt: f64) -> Self {
        assert!((0.0..1.0).contains(&hurst) && hurst > 0.0, "H in (0,1)");
        assert!(levels <= MAX_LEVELS);
        FgnMidpoint {
            hurst,
            levels,
            mean_rate,
            cov,
            dt,
        }
    }

    /// Generates the trace.
    pub fn generate(&self, seed: u64) -> Trace {
        let mut rng = seeded_rng(seed);
        let n = 1usize << self.levels;
        // Random midpoint displacement builds fBm on [0, 1]; fGn is its
        // increment series.
        let mut fbm = vec![0.0f64; n + 1];
        fbm[n] = gaussian(&mut rng);
        let mut scale = 1.0f64;
        let mut step = n;
        while step > 1 {
            let half = step / 2;
            scale *= 2f64.powf(-self.hurst);
            // Variance correction for midpoint displacement.
            let sd = scale * (1.0 - 2f64.powf(2.0 * self.hurst - 2.0)).sqrt();
            let mut i = half;
            while i < n {
                fbm[i] = 0.5 * (fbm[i - half] + fbm[i + half]) + sd * gaussian(&mut rng);
                i += step;
            }
            step = half;
        }
        let incr: Vec<f64> = fbm.windows(2).map(|w| w[1] - w[0]).collect();
        // Standardise, then shift/scale to (mean_rate, cov·mean_rate).
        let mean = incr.iter().sum::<f64>() / n as f64;
        let var = incr.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let sd = var.sqrt().max(f64::MIN_POSITIVE);
        let rates = incr
            .into_iter()
            .map(|x| (self.mean_rate + (x - mean) / sd * self.cov * self.mean_rate).max(0.0))
            .collect();
        Trace::new(rates, self.dt)
    }
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut Rng) -> f64 {
    let u1 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::hurst_rs;

    #[test]
    fn bmodel_conserves_mass() {
        let t = BModel::new(0.7, 10, 50.0, 1.0).generate(3);
        assert_eq!(t.len(), 1024);
        assert!((t.mean() - 50.0).abs() < 1e-9, "mean {}", t.mean());
        assert!(t.rates().iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn bmodel_burstier_with_higher_bias() {
        let calm = BModel::new(0.55, 12, 1.0, 1.0).generate(1);
        let bursty = BModel::new(0.8, 12, 1.0, 1.0).generate(1);
        assert!(bursty.summary().coeff_of_variation() > calm.summary().coeff_of_variation());
    }

    #[test]
    fn bmodel_burstiness_survives_aggregation() {
        // Self-similarity: CoV decays much slower than the sqrt(k) decay
        // of an i.i.d. series under k-fold aggregation.
        let t = BModel::new(0.75, 14, 1.0, 1.0).generate(9);
        let cov1 = t.summary().coeff_of_variation();
        let cov16 = t.aggregate(16).summary().coeff_of_variation();
        // i.i.d. would give cov16 ≈ cov1/4; demand clearly slower decay.
        assert!(
            cov16 > cov1 / 3.0,
            "cov1={cov1}, cov16={cov16}: aggregation destroyed burstiness"
        );
    }

    #[test]
    fn fgn_hits_requested_moments() {
        let t = FgnMidpoint::new(0.8, 13, 10.0, 0.2, 1.0).generate(5);
        let s = t.summary();
        assert!((s.mean() - 10.0).abs() < 0.5, "mean {}", s.mean());
        assert!(
            (s.coeff_of_variation() - 0.2).abs() < 0.05,
            "cov {}",
            s.coeff_of_variation()
        );
    }

    #[test]
    fn fgn_high_hurst_measures_high() {
        let lrd = FgnMidpoint::new(0.85, 13, 1.0, 0.3, 1.0).generate(2);
        let h = hurst_rs(lrd.rates());
        assert!(h > 0.6, "estimated H = {h} for H=0.85 input");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = BModel::new(0.7, 8, 1.0, 1.0).generate(11);
        let b = BModel::new(0.7, 8, 1.0, 1.0).generate(11);
        assert_eq!(a, b);
        let c = BModel::new(0.7, 8, 1.0, 1.0).generate(12);
        assert_ne!(a, c);
    }
}
