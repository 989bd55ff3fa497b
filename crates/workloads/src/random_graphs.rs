//! The paper's random query-graph generator (§7.1).
//!
//! "We used random query graphs generated as a collection of operator
//! trees rooted at input operators. We randomly generate with equal
//! probability from one to three downstream operators for each node of
//! the tree. … we let each operator tree consist of the same number of
//! operators and vary this number in the experiments. … The delay times
//! of the operators are uniformly distributed between 0.1 ms to 1 ms.
//! Half of these operators are randomly selected and assigned a
//! selectivity of one. The selectivities of other operators are uniformly
//! distributed from 0.5 to 1."
//!
//! Costs are expressed in CPU-seconds per tuple (a delay operator busy-
//! waits), so a node of capacity 1.0 models one CPU-second per second.

use std::collections::VecDeque;

use rand::seq::SliceRandom;
use rand::Rng as _;

use rod_geom::rng::seeded_rng;

use rod_core::graph::{GraphBuilder, QueryGraph};
use rod_core::ids::StreamId;
use rod_core::operator::OperatorKind;

/// Configuration of the random-tree workload.
#[derive(Clone, Debug)]
pub struct RandomTreeConfig {
    /// Number of system input streams (= number of trees), `d`.
    pub num_inputs: usize,
    /// Operators per tree; total operators `m = d × ops_per_tree`.
    pub ops_per_tree: usize,
    /// Lower bound of the per-tuple cost range (seconds). Paper: 1e-4.
    pub min_cost: f64,
    /// Upper bound of the per-tuple cost range (seconds). Paper: 1e-3.
    pub max_cost: f64,
    /// Lower bound of the non-unit selectivity range. Paper: 0.5.
    pub min_selectivity: f64,
}

impl Default for RandomTreeConfig {
    fn default() -> Self {
        RandomTreeConfig {
            num_inputs: 5,
            ops_per_tree: 20,
            min_cost: 1e-4,
            max_cost: 1e-3,
            min_selectivity: 0.5,
        }
    }
}

/// Deterministic generator of the paper's random operator-tree graphs.
#[derive(Clone, Debug)]
pub struct RandomTreeGenerator {
    config: RandomTreeConfig,
}

impl RandomTreeGenerator {
    /// Generator with the given configuration.
    pub fn new(config: RandomTreeConfig) -> Self {
        assert!(config.num_inputs > 0);
        assert!(config.ops_per_tree > 0);
        assert!(0.0 < config.min_cost && config.min_cost <= config.max_cost);
        assert!((0.0..=1.0).contains(&config.min_selectivity));
        RandomTreeGenerator { config }
    }

    /// The paper's default setup with `d` inputs and `t` operators each.
    pub fn paper_default(num_inputs: usize, ops_per_tree: usize) -> Self {
        RandomTreeGenerator::new(RandomTreeConfig {
            num_inputs,
            ops_per_tree,
            ..RandomTreeConfig::default()
        })
    }

    /// Total operator count of generated graphs.
    pub fn num_operators(&self) -> usize {
        self.config.num_inputs * self.config.ops_per_tree
    }

    /// Generates one graph.
    pub fn generate(&self, seed: u64) -> QueryGraph {
        let mut rng = seeded_rng(seed);
        let mut b = GraphBuilder::new();
        let inputs: Vec<StreamId> = (0..self.config.num_inputs).map(|_| b.add_input()).collect();

        // Pre-draw which operators get selectivity exactly one: "half of
        // these operators are randomly selected".
        let total = self.num_operators();
        let mut unit_sel = vec![false; total];
        for flag in unit_sel.iter_mut().take(total / 2) {
            *flag = true;
        }
        unit_sel.shuffle(&mut rng);

        let mut op_index = 0usize;
        for (tree, &input) in inputs.iter().enumerate() {
            // Frontier of streams still accepting children, with their
            // remaining fan-out budget (uniform 1..=3 per vertex).
            let mut frontier: VecDeque<(StreamId, u32)> = VecDeque::new();
            frontier.push_back((input, rng.gen_range(1..=3)));
            let mut created = 0usize;
            while created < self.config.ops_per_tree {
                let (parent, budget) = frontier
                    .pop_front()
                    // All budgets exhausted early: re-seed from the tree
                    // input so generation always completes.
                    .unwrap_or((input, 1));
                let cost = rng.gen_range(self.config.min_cost..=self.config.max_cost);
                let sel = if unit_sel[op_index] {
                    1.0
                } else {
                    rng.gen_range(self.config.min_selectivity..=1.0)
                };
                let (_, out) = b
                    .add_operator(
                        format!("t{tree}_d{created}"),
                        OperatorKind::delay(cost, sel),
                        &[parent],
                    )
                    .expect("generated operator is valid");
                created += 1;
                op_index += 1;
                if budget > 1 {
                    frontier.push_back((parent, budget - 1));
                }
                frontier.push_back((out, rng.gen_range(1..=3)));
            }
        }
        b.build().expect("generated graph is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rod_core::graph::StreamSource;
    use rod_core::ids::OperatorId;
    use rod_core::load_model::LoadModel;

    #[test]
    fn counts_match_config() {
        let gen = RandomTreeGenerator::paper_default(5, 20);
        let g = gen.generate(1);
        assert_eq!(g.num_inputs(), 5);
        assert_eq!(g.num_operators(), 100);
    }

    #[test]
    fn every_operator_has_one_input_forming_trees() {
        let g = RandomTreeGenerator::paper_default(3, 15).generate(2);
        for op in g.operators() {
            assert_eq!(op.inputs.len(), 1, "trees are unary-input");
        }
        // Tree property: each stream consumed by at most 3 operators.
        for s in 0..g.num_streams() {
            let consumers = g.consumers_of(rod_core::ids::StreamId(s));
            assert!(
                consumers.len() <= 3,
                "stream {s} has {} consumers",
                consumers.len()
            );
        }
    }

    #[test]
    fn costs_and_selectivities_in_paper_ranges() {
        let g = RandomTreeGenerator::paper_default(4, 25).generate(3);
        let mut unit = 0usize;
        for op in g.operators() {
            let OperatorKind::Linear {
                costs,
                selectivities,
            } = &op.kind
            else {
                panic!("delay operators are linear");
            };
            assert!((1e-4..=1e-3).contains(&costs[0]), "cost {}", costs[0]);
            let s = selectivities[0];
            assert!((0.5..=1.0).contains(&s), "selectivity {s}");
            if s == 1.0 {
                unit += 1;
            }
        }
        // "Half of these operators ... selectivity of one" — the draw is
        // exact (100/2) plus whatever the uniform range happens to hit.
        assert!(unit >= 50, "{unit} unit-selectivity operators");
    }

    #[test]
    fn loads_depend_only_on_own_tree() {
        // Each tree is rooted at one input, so each operator's load
        // coefficient row has exactly one nonzero column.
        let g = RandomTreeGenerator::paper_default(3, 10).generate(7);
        let model = LoadModel::derive(&g).unwrap();
        for j in 0..model.num_operators() {
            let row = model.operator_sparse_row(OperatorId(j)).to_dense();
            let nonzero = row.iter().filter(|&&v| v > 0.0).count();
            assert_eq!(nonzero, 1, "operator {j} row {row:?}");
        }
        // And each input stream carries some load.
        assert!(model.total_coeffs().as_slice().iter().all(|&l| l > 0.0));
    }

    #[test]
    fn trees_root_at_inputs() {
        let g = RandomTreeGenerator::paper_default(2, 8).generate(9);
        let roots = g
            .operators()
            .iter()
            .filter(|op| matches!(g.source_of(op.inputs[0]), StreamSource::Input(_)))
            .count();
        assert!(roots >= 2, "each input roots at least one operator");
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = RandomTreeGenerator::paper_default(3, 12);
        let a = format!("{:?}", gen.generate(5).operators());
        let b = format!("{:?}", gen.generate(5).operators());
        assert_eq!(a, b);
        let c = format!("{:?}", gen.generate(6).operators());
        assert_ne!(a, c);
    }
}
