//! The §7.3 comparison protocol.
//!
//! "We repeat each algorithm except ROD ten times. For the Random
//! algorithm, we use different random seeds for each run. For the load
//! balancing algorithms, we use random input stream rates, and for the
//! Correlation-based algorithm, we generate random stream-rate time
//! series. ROD does not need to be repeated."

use serde::{Deserialize, Serialize};

use rod_core::allocation::PlanEvaluator;
use rod_core::baselines::{build_planner, PlannerSpec};
use rod_core::cluster::Cluster;
use rod_core::load_model::LoadModel;
use rod_core::metrics::{feasible_ratio, make_estimator};
use rod_geom::rng::derive_seed;
use rod_geom::{seeded_rng, OnlineStats, SimplexSampler};

/// How a comparison sweep is run.
#[derive(Clone, Debug)]
pub struct ComparisonConfig {
    /// Repetitions per randomised algorithm (paper: 10).
    pub reps: usize,
    /// QMC samples for volume estimation.
    pub volume_samples: usize,
    /// Base seed.
    pub seed: u64,
    /// Length of the rate time series fed to the Correlation planner.
    pub history_len: usize,
}

impl Default for ComparisonConfig {
    fn default() -> Self {
        ComparisonConfig {
            reps: 10,
            volume_samples: 20_000,
            seed: 42,
            history_len: 32,
        }
    }
}

/// Aggregated outcome of one algorithm over the repetitions.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AlgorithmResult {
    /// Display name.
    pub name: String,
    /// Mean feasible-set ratio (plan volume / ideal volume).
    pub mean_ratio: f64,
    /// Standard deviation of the ratio across repetitions.
    pub std_ratio: f64,
    /// Mean min-plane-distance across repetitions.
    pub mean_plane_distance: f64,
    /// Repetitions run.
    pub reps: usize,
}

/// Runs the full §7.2 algorithm set on one model + cluster. Returns
/// results in a fixed order: ROD, Hierarchical, Correlation, LLF,
/// Random, Connected.
pub fn compare_algorithms(
    model: &LoadModel,
    cluster: &Cluster,
    config: &ComparisonConfig,
) -> Vec<AlgorithmResult> {
    let ev = PlanEvaluator::new(model, cluster);
    let estimator = make_estimator(model, cluster, config.volume_samples, config.seed);
    let d_in = model.num_inputs();

    // Random rate points for the single-point balancers are drawn, as in
    // the paper's probing, uniformly from the ideal simplex restricted to
    // the system-input axes.
    let coeffs: Vec<f64> = (0..d_in)
        .map(|k| model.total_coeffs()[k].max(1e-12))
        .collect();
    let rate_sampler = SimplexSampler::new(&coeffs, cluster.total_capacity());

    let mut results = Vec::new();

    // ROD: deterministic, run once.
    {
        let alloc = build_planner(&PlannerSpec::Rod)
            .plan(model, cluster)
            .expect("ROD placement");
        let ratio = feasible_ratio(&ev, &estimator, &alloc);
        let pd = ev.min_plane_distance(&alloc);
        results.push(AlgorithmResult {
            name: "ROD".into(),
            mean_ratio: ratio,
            std_ratio: 0.0,
            mean_plane_distance: pd,
            reps: 1,
        });
    }

    // Hierarchical ROD (auto √n racks): deterministic, run once.
    {
        let alloc = build_planner(&PlannerSpec::Hierarchical { racks: vec![] })
            .plan(model, cluster)
            .expect("hierarchical placement");
        let ratio = feasible_ratio(&ev, &estimator, &alloc);
        let pd = ev.min_plane_distance(&alloc);
        results.push(AlgorithmResult {
            name: "Hierarchical".into(),
            mean_ratio: ratio,
            std_ratio: 0.0,
            mean_plane_distance: pd,
            reps: 1,
        });
    }

    // The randomised baselines: each repetition builds a fresh spec from
    // the repetition's RNG and hands it to the shared registry.
    for name in ["Correlation", "LLF", "Random", "Connected"] {
        let mut ratio_stats = OnlineStats::new();
        let mut pd_stats = OnlineStats::new();
        for rep in 0..config.reps {
            let rep_seed = derive_seed(config.seed, rep as u64 * 31 + name.len() as u64);
            let mut rng = seeded_rng(rep_seed);
            let mut sample_rates = || rate_sampler.sample(&mut rng).as_slice().to_vec();
            let spec = match name {
                "Random" => PlannerSpec::Random { seed: rep_seed },
                "LLF" => PlannerSpec::Llf {
                    rates: sample_rates(),
                },
                "Connected" => PlannerSpec::Connected {
                    rates: sample_rates(),
                },
                _ => PlannerSpec::Correlation {
                    history: (0..config.history_len).map(|_| sample_rates()).collect(),
                },
            };
            let alloc = build_planner(&spec)
                .plan(model, cluster)
                .expect("baseline placement");
            ratio_stats.push(feasible_ratio(&ev, &estimator, &alloc));
            pd_stats.push(ev.min_plane_distance(&alloc));
        }
        results.push(AlgorithmResult {
            name: name.into(),
            mean_ratio: ratio_stats.mean(),
            std_ratio: ratio_stats.std_dev(),
            mean_plane_distance: pd_stats.mean(),
            reps: config.reps,
        });
    }
    results
}

/// Averages `value` per algorithm over several graphs'
/// [`compare_algorithms`] results, keeping the algorithms in the order
/// that function returns them. `value` sees each result next to the same
/// graph's ROD result.
pub fn mean_per_algorithm<'a>(
    runs: impl IntoIterator<Item = &'a [AlgorithmResult]>,
    value: impl Fn(&AlgorithmResult, &AlgorithmResult) -> f64,
) -> Vec<(String, f64)> {
    let mut acc: Vec<(String, OnlineStats)> = Vec::new();
    for results in runs {
        for (a, r) in results.iter().enumerate() {
            if a == acc.len() {
                acc.push((r.name.clone(), OnlineStats::new()));
            }
            acc[a].1.push(value(r, &results[0]));
        }
    }
    acc.into_iter()
        .map(|(name, stats)| (name, stats.mean()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rod_workloads::RandomTreeGenerator;

    #[test]
    fn mean_per_algorithm_keeps_order_and_pairs_each_graph_with_its_rod() {
        let result = |name: &str, mean_ratio: f64| AlgorithmResult {
            name: name.into(),
            mean_ratio,
            std_ratio: 0.0,
            mean_plane_distance: 0.0,
            reps: 1,
        };
        let a = [result("ROD", 0.8), result("LLF", 0.4)];
        let b = [result("ROD", 0.5), result("LLF", 0.5)];
        let means = mean_per_algorithm([&a[..], &b[..]], |r, rod| r.mean_ratio / rod.mean_ratio);
        assert_eq!(
            means,
            vec![("ROD".to_string(), 1.0), ("LLF".to_string(), 0.75)]
        );
    }

    #[test]
    fn rod_wins_on_paper_workload() {
        let graph = RandomTreeGenerator::paper_default(3, 12).generate(5);
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(3, 1.0);
        let results = compare_algorithms(
            &model,
            &cluster,
            &ComparisonConfig {
                reps: 3,
                volume_samples: 8_000,
                ..ComparisonConfig::default()
            },
        );
        assert_eq!(results.len(), 6);
        let rod = &results[0];
        assert_eq!(rod.name, "ROD");
        let hier = &results[1];
        assert_eq!(hier.name, "Hierarchical");
        assert!(hier.mean_ratio > 0.0);
        for other in &results[2..] {
            assert!(
                rod.mean_ratio >= other.mean_ratio * 0.98,
                "ROD {} should not lose to {} {}",
                rod.mean_ratio,
                other.name,
                other.mean_ratio
            );
        }
        // Connected is the canonical loser on tree workloads.
        let connected = results.iter().find(|r| r.name == "Connected").unwrap();
        assert!(rod.mean_ratio > connected.mean_ratio);
    }
}
