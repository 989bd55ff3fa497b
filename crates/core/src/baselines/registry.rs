//! The unified planner registry: one serialisable description of "which
//! algorithm, with which parameters", and one constructor turning it into
//! a boxed [`Planner`].
//!
//! Before this existed, the CLI, the comparison harness, and each
//! experiment binary hand-rolled its own string→planner `match`, which
//! meant every new algorithm (or new parameter, like the optimal
//! planner's budget) had to be threaded through several copies. A
//! [`PlannerSpec`] travels as JSON like every other library type, so
//! experiment configs and shell pipelines can name planners uniformly.

use serde::{Deserialize, Serialize};

use crate::baselines::{
    connected::ConnectedPlanner, correlation::CorrelationPlanner, llf::LlfPlanner,
    optimal::OptimalPlanner, random::RandomPlanner, Planner,
};
use crate::cluster::Topology;
use crate::hierarchical::HierarchicalRod;
use crate::resilience::{ResilientRodOptions, ResilientRodPlanner};
use crate::rod::{RodOptions, RodPlanner};

/// A self-contained, serialisable description of a planner instance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PlannerSpec {
    /// The ROD algorithm with default options (§5, Figure 10).
    Rod,
    /// Largest-Load-First balancing at one observed rate point (§7.2).
    Llf {
        /// The observed system-input rates.
        rates: Vec<f64>,
    },
    /// Connectivity-preferring balancing at one rate point (§7.2).
    Connected {
        /// The observed system-input rates.
        rates: Vec<f64>,
    },
    /// Correlation-based placement over a rate time series (§7.2, \[23\]).
    Correlation {
        /// Rate history, one inner vector per time step.
        history: Vec<Vec<f64>>,
    },
    /// Random balanced placement (§7.2).
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// ROD hardened against node loss: hill-climbs from the plain-ROD
    /// plan to maximise the worst-case survivor feasible set across
    /// k-node failure scenarios.
    ResilientRod {
        /// QMC sample points used to score survivor feasible sets.
        samples: usize,
        /// Seed for the scrambled point set.
        seed: u64,
        /// Plan against every loss of up to this many nodes.
        max_failures: usize,
        /// Worker chunks for the parallel neighborhood scan (0 = the
        /// global pool size); placements are identical for every value.
        threads: usize,
    },
    /// Two-level ROD: across rack aggregates, then within each rack
    /// (`crate::hierarchical`). An empty rack list means the automatic
    /// `⌈√n⌉`-rack contiguous split.
    Hierarchical {
        /// Rack member lists (node indices); empty = automatic topology.
        racks: Vec<Vec<usize>>,
    },
    /// Brute-force optimum by feasible-set volume (§7.3.1).
    Optimal {
        /// QMC sample points used to score each candidate plan.
        samples: usize,
        /// Seed for the scrambled point set.
        seed: u64,
        /// Refuse instances whose plan count exceeds this bound.
        max_plans: u64,
    },
}

impl PlannerSpec {
    /// Display name matching [`Planner::name`] of the built planner.
    pub fn name(&self) -> &'static str {
        match self {
            PlannerSpec::Rod => "ROD",
            PlannerSpec::Llf { .. } => "LLF",
            PlannerSpec::Connected { .. } => "Connected",
            PlannerSpec::Correlation { .. } => "Correlation",
            PlannerSpec::Random { .. } => "Random",
            PlannerSpec::ResilientRod { .. } => "ResilientRod",
            PlannerSpec::Hierarchical { .. } => "Hierarchical",
            PlannerSpec::Optimal { .. } => "Optimal",
        }
    }

    /// The deterministic jittered rate history synthesised around a
    /// single rate point when no measured time series is available (the
    /// CLI's stand-in input for the correlation planner): step `t`
    /// perturbs stream `k` by ±30% on a period-7 pattern.
    pub fn jittered_history(rates: &[f64], len: usize) -> Vec<Vec<f64>> {
        (0..len)
            .map(|t| {
                rates
                    .iter()
                    .enumerate()
                    .map(|(k, r)| r * (1.0 + 0.3 * (((t * (k + 1)) % 7) as f64 - 3.0) / 3.0))
                    .collect()
            })
            .collect()
    }

    /// Correlation spec seeded from one rate point via
    /// [`jittered_history`](Self::jittered_history).
    pub fn correlation_from_rates(rates: &[f64]) -> PlannerSpec {
        PlannerSpec::Correlation {
            history: Self::jittered_history(rates, 32),
        }
    }

    /// Parses a CLI algorithm name into a spec. `rates` feeds the
    /// single-point balancers (and the synthetic correlation history),
    /// `seed` the random planner, `samples` the QMC point count of the
    /// ResilientRod and optimal scorers, `max_plans` the optimal search
    /// budget, `threads` ResilientRod's neighborhood-scan width (0 = the
    /// global pool size; the one planner with a parallel scan), and
    /// `racks` the hierarchical planner's topology (empty = automatic).
    pub fn from_cli(
        algorithm: &str,
        rates: &[f64],
        seed: u64,
        samples: usize,
        max_plans: u64,
        threads: usize,
        racks: &[Vec<usize>],
    ) -> Result<PlannerSpec, String> {
        match algorithm {
            "rod" => Ok(PlannerSpec::Rod),
            "hier" | "hierarchical" => Ok(PlannerSpec::Hierarchical {
                racks: racks.to_vec(),
            }),
            "llf" => Ok(PlannerSpec::Llf {
                rates: rates.to_vec(),
            }),
            "connected" => Ok(PlannerSpec::Connected {
                rates: rates.to_vec(),
            }),
            "correlation" => Ok(Self::correlation_from_rates(rates)),
            "random" => Ok(PlannerSpec::Random { seed }),
            "resilient" | "resilientrod" => Ok(PlannerSpec::ResilientRod {
                samples,
                seed,
                max_failures: 1,
                threads,
            }),
            "optimal" => Ok(PlannerSpec::Optimal {
                samples,
                seed,
                max_plans,
            }),
            other => Err(format!("--algorithm: unknown '{other}'")),
        }
    }
}

/// Builds the planner a spec describes.
pub fn build_planner(spec: &PlannerSpec) -> Box<dyn Planner> {
    match spec {
        PlannerSpec::Rod => Box::new(RodPlanner::new()),
        PlannerSpec::Llf { rates } => Box::new(LlfPlanner::new(rates.clone())),
        PlannerSpec::Connected { rates } => Box::new(ConnectedPlanner::new(rates.clone())),
        PlannerSpec::Correlation { history } => Box::new(CorrelationPlanner::new(history.clone())),
        PlannerSpec::Random { seed } => Box::new(RandomPlanner::new(*seed)),
        PlannerSpec::Hierarchical { racks } => Box::new(if racks.is_empty() {
            HierarchicalRod::new()
        } else {
            HierarchicalRod::with_options(RodOptions::default(), Some(Topology::new(racks.clone())))
        }),
        PlannerSpec::ResilientRod {
            samples,
            seed,
            max_failures,
            threads,
        } => Box::new(ResilientRodPlanner::with_options(ResilientRodOptions {
            samples: *samples,
            seed: *seed,
            max_failures: *max_failures,
            threads: *threads,
            ..ResilientRodOptions::default()
        })),
        PlannerSpec::Optimal {
            samples,
            seed,
            max_plans,
        } => Box::new(OptimalPlanner {
            samples: *samples,
            seed: *seed,
            max_plans: *max_plans,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::chain_pair_model;
    use crate::cluster::Cluster;

    fn all_specs() -> Vec<PlannerSpec> {
        vec![
            PlannerSpec::Rod,
            PlannerSpec::Llf {
                rates: vec![1.0, 2.0],
            },
            PlannerSpec::Connected {
                rates: vec![1.0, 2.0],
            },
            PlannerSpec::correlation_from_rates(&[1.0, 2.0]),
            PlannerSpec::Random { seed: 7 },
            PlannerSpec::Hierarchical { racks: vec![] },
            PlannerSpec::Hierarchical {
                racks: vec![vec![0], vec![1]],
            },
            PlannerSpec::ResilientRod {
                samples: 500,
                seed: 7,
                max_failures: 1,
                threads: 2,
            },
            PlannerSpec::Optimal {
                samples: 2_000,
                seed: 1,
                max_plans: 5_000_000,
            },
        ]
    }

    #[test]
    fn every_spec_builds_a_planner_that_plans() {
        let model = chain_pair_model();
        let cluster = Cluster::homogeneous(2, 1.0);
        for spec in all_specs() {
            let planner = build_planner(&spec);
            assert_eq!(planner.name(), spec.name());
            let alloc = planner.plan(&model, &cluster).expect("plan");
            assert!(alloc.is_complete(), "{}", spec.name());
        }
    }

    #[test]
    fn specs_round_trip_through_json() {
        for spec in all_specs() {
            let json = serde_json::to_string(&spec).unwrap();
            let back: PlannerSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
        }
    }

    #[test]
    fn from_cli_parses_all_names_and_rejects_unknown() {
        for name in [
            "rod",
            "llf",
            "connected",
            "correlation",
            "random",
            "resilientrod",
            "hierarchical",
            "optimal",
        ] {
            let spec = PlannerSpec::from_cli(name, &[1.0], 3, 100, 1_000, 0, &[]).unwrap();
            assert_eq!(spec.name().to_lowercase(), name);
        }
        // "hier" is the short CLI alias; explicit racks pass through.
        let spec = PlannerSpec::from_cli("hier", &[1.0], 3, 100, 1_000, 0, &[vec![0, 1], vec![2]])
            .unwrap();
        assert_eq!(
            spec,
            PlannerSpec::Hierarchical {
                racks: vec![vec![0, 1], vec![2]],
            }
        );
        assert!(PlannerSpec::from_cli("nonsense", &[], 0, 0, 0, 0, &[]).is_err());
    }

    #[test]
    fn jittered_history_matches_pinned_formula() {
        let h = PlannerSpec::jittered_history(&[1.0, 10.0], 4);
        assert_eq!(h.len(), 4);
        // t = 0: every (t·(k+1)) % 7 = 0 → factor 1 + 0.3·(-3)/3 = 0.7.
        assert!((h[0][0] - 0.7).abs() < 1e-12);
        assert!((h[0][1] - 7.0).abs() < 1e-12);
        // t = 1, k = 1: (1·2) % 7 = 2 → factor 1 + 0.3·(2-3)/3 = 0.9.
        assert!((h[1][1] - 9.0).abs() < 1e-12);
    }
}
