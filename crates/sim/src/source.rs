//! Input-stream sources.

use rand::Rng as _;

use rod_geom::rng::Rng;
use rod_traces::Trace;

/// The most arrival times a run may expect to draw, over all sources.
///
/// Every arrival time is drawn before the run starts, at 8 B each, and
/// exact mode queues one 48-byte `SourceBatch` event per tuple on top:
/// about 56 B per arrival, so a run at the cap holds ~1.1 GB (more while
/// the event heap grows). The largest run in the repository,
/// `pipeline_1m`, draws 10.6M times, 85 MB: the cap leaves it ~1.9× of
/// headroom.
pub const MAX_EXPECTED_ARRIVALS: f64 = 2.0e7;

/// Rejects a run whose `sources` expect to draw more than
/// [`MAX_EXPECTED_ARRIVALS`] arrival times over `horizon`, naming both
/// the count and the cap — a finite but huge horizon or rate would
/// otherwise exhaust memory before the first event.
pub fn check_expected_arrivals(sources: &[SourceSpec], horizon: f64) -> Result<(), String> {
    let expected: f64 = sources.iter().map(|s| s.expected_arrivals(horizon)).sum();
    // Written so that a NaN count is rejected too.
    if expected <= MAX_EXPECTED_ARRIVALS {
        Ok(())
    } else {
        Err(format!(
            "the run expects {expected:.4e} arrivals, above the cap of {MAX_EXPECTED_ARRIVALS:.0} \
             (every arrival is drawn up front); lower the horizon or the rates"
        ))
    }
}

/// How one system input stream produces tuples.
#[derive(Clone, Debug)]
pub enum SourceSpec {
    /// Poisson arrivals at a constant mean rate — the §7.1 feasibility-
    /// probing workload ("we run the system for a sufficiently long
    /// period" at one rate point).
    ConstantRate(f64),
    /// Arrivals following a rate trace (piecewise-constant intensity,
    /// Poisson within each bin) — the bursty-latency workload.
    TraceDriven(Trace),
}

impl SourceSpec {
    /// Mean rate over the simulated horizon.
    pub fn mean_rate(&self) -> f64 {
        match self {
            SourceSpec::ConstantRate(r) => *r,
            SourceSpec::TraceDriven(t) => t.mean(),
        }
    }

    /// Expected number of arrival times [`SourceSpec::arrivals`] draws
    /// for `horizon`: rate × horizon at a constant rate, and the whole
    /// trace's [`Trace::expected_tuples`] for a trace, whose every bin is
    /// drawn before the times past the horizon are cut.
    pub fn expected_arrivals(&self, horizon: f64) -> f64 {
        match self {
            SourceSpec::ConstantRate(rate) => rate * horizon,
            SourceSpec::TraceDriven(trace) => trace.expected_tuples(),
        }
    }

    /// Generates all arrival timestamps within `[0, horizon)`, sorted.
    pub fn arrivals(&self, horizon: f64, rng: &mut Rng) -> Vec<f64> {
        match self {
            SourceSpec::ConstantRate(rate) => {
                let mut times = Vec::new();
                if *rate <= 0.0 {
                    return times;
                }
                let mut t = 0.0;
                loop {
                    // Exponential inter-arrival.
                    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    t -= u.ln() / rate;
                    if t >= horizon {
                        break;
                    }
                    times.push(t);
                }
                times
            }
            SourceSpec::TraceDriven(trace) => {
                // Sorted, so the times inside the horizon are a prefix.
                let mut times = trace.to_arrival_times(rng);
                times.truncate(times.partition_point(|&t| t < horizon));
                times
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rod_geom::seeded_rng;

    #[test]
    fn constant_rate_counts() {
        let mut rng = seeded_rng(1);
        let arr = SourceSpec::ConstantRate(50.0).arrivals(100.0, &mut rng);
        assert!((arr.len() as f64 - 5000.0).abs() < 300.0, "{}", arr.len());
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert!(arr.iter().all(|&t| t < 100.0));
    }

    #[test]
    fn zero_rate_is_silent() {
        let mut rng = seeded_rng(2);
        assert!(SourceSpec::ConstantRate(0.0)
            .arrivals(10.0, &mut rng)
            .is_empty());
    }

    #[test]
    fn trace_driven_respects_horizon() {
        let mut rng = seeded_rng(3);
        let trace = Trace::constant(10.0, 100, 1.0); // 100 time units long
        let arr = SourceSpec::TraceDriven(trace).arrivals(20.0, &mut rng);
        assert!(arr.iter().all(|&t| t < 20.0));
        assert!((arr.len() as f64 - 200.0).abs() < 60.0, "{}", arr.len());
    }

    #[test]
    fn expected_arrivals_per_source() {
        assert_eq!(
            SourceSpec::ConstantRate(50.0).expected_arrivals(10.0),
            500.0
        );
        assert_eq!(SourceSpec::ConstantRate(0.0).expected_arrivals(10.0), 0.0);
        // A trace counts every bin, also those past the horizon.
        let trace = Trace::new(vec![10.0, 30.0, 1e6], 0.5);
        assert_eq!(
            SourceSpec::TraceDriven(trace).expected_arrivals(1.0),
            500_020.0
        );
    }

    #[test]
    fn runs_within_the_arrival_cap_pass() {
        // pipeline_1m's shape: two 4.5e5/s streams over 11 s of trace.
        let trace = Trace::constant(4.5e5, 110, 0.1);
        let sources = vec![
            SourceSpec::TraceDriven(trace.clone()),
            SourceSpec::TraceDriven(trace),
        ];
        assert!(check_expected_arrivals(&sources, 10.0).is_ok());
        let at_cap = vec![SourceSpec::ConstantRate(MAX_EXPECTED_ARRIVALS / 10.0)];
        assert!(check_expected_arrivals(&at_cap, 10.0).is_ok());
        assert!(check_expected_arrivals(&[], 10.0).is_ok());
    }

    // These inputs would exhaust memory if drawn, so they are tested
    // through the check only.
    #[test]
    fn huge_horizon_is_rejected_with_count_and_cap() {
        let sources = vec![
            SourceSpec::ConstantRate(20.0),
            SourceSpec::ConstantRate(20.0),
        ];
        let err = check_expected_arrivals(&sources, 1e12).unwrap_err();
        assert!(err.contains("expects 4.0000e13 arrivals"), "{err}");
        assert!(err.contains("cap of 20000000"), "{err}");
    }

    #[test]
    fn huge_rates_are_rejected() {
        let err = check_expected_arrivals(&[SourceSpec::ConstantRate(f64::MAX)], 30.0).unwrap_err();
        assert!(err.contains("expects inf arrivals"), "{err}");
        let trace = Trace::new(vec![1.0, 1e9], 1.0);
        let err = check_expected_arrivals(&[SourceSpec::TraceDriven(trace)], 1.0).unwrap_err();
        assert!(err.contains("expects 1.0000e9 arrivals"), "{err}");
        // Just over the cap, summed across sources.
        let half = SourceSpec::ConstantRate(MAX_EXPECTED_ARRIVALS / 2.0 + 1.0);
        assert!(check_expected_arrivals(&[half.clone(), half], 1.0).is_err());
    }

    #[test]
    fn mean_rates() {
        assert_eq!(SourceSpec::ConstantRate(7.0).mean_rate(), 7.0);
        let t = Trace::new(vec![1.0, 3.0], 1.0);
        assert_eq!(SourceSpec::TraceDriven(t).mean_rate(), 2.0);
    }
}
