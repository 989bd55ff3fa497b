//! Continuous-query operators and their cost model.
//!
//! Following §2.2 of the paper, an operator is characterised by its
//! **cost** (average CPU cycles needed per input tuple) and its
//! **selectivity** (output rate / input rate). Three behavioural classes
//! cover everything the paper discusses:
//!
//! * [`OperatorKind::Linear`] — union, map, filter, aggregate, the
//!   experimental *delay* operator: constant per-tuple cost and constant
//!   selectivity per input port, so both the load and the output rate are
//!   linear in the input rates;
//! * [`OperatorKind::VariableSelectivity`] — constant per-tuple cost but a
//!   data-dependent selectivity (Example 3's `o₁`): the operator's *own*
//!   load is still linear in its input rates, but downstream rates are
//!   not, so linearisation introduces the output rate as a fresh variable;
//! * [`OperatorKind::WindowJoin`] — a time-window join (§6.2): with window
//!   `w` and input rates `r_u, r_v` it processes `w·r_u·r_v` tuple pairs
//!   per unit time, costing `c` cycles per pair and emitting
//!   `s·w·r_u·r_v` tuples. Its load is linear in its *output* rate
//!   (`(c/s)·r_out`), which linearisation exploits.

use serde::{Deserialize, Serialize};

use crate::error::GraphError;
use crate::ids::{OperatorId, StreamId};

/// The behavioural class and parameters of an operator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum OperatorKind {
    /// Constant cost and constant selectivity per input port.
    ///
    /// With input rates `r_p`: load `= Σ_p costs[p]·r_p`, output rate
    /// `= Σ_p selectivities[p]·r_p` (a union has all selectivities 1, a
    /// filter one selectivity < 1, etc.).
    Linear {
        /// CPU cost per tuple, per input port.
        costs: Vec<f64>,
        /// Output tuples per input tuple, per input port.
        selectivities: Vec<f64>,
    },
    /// Constant per-tuple cost, data-dependent selectivity.
    ///
    /// `nominal_selectivities` are the long-run averages used when a
    /// concrete rate must be produced (simulation, probing); the planner
    /// treats the output rate as an independent variable instead.
    VariableSelectivity {
        /// CPU cost per tuple, per input port.
        costs: Vec<f64>,
        /// Average output tuples per input tuple, per input port.
        nominal_selectivities: Vec<f64>,
    },
    /// A time-window-based join over exactly two inputs.
    WindowJoin {
        /// Join window length `w` (time units).
        window: f64,
        /// CPU cycles per tuple *pair* examined.
        cost_per_pair: f64,
        /// Output tuples per tuple pair examined (must be > 0 so the §6.2
        /// substitution `load = (c/s)·r_out` is defined).
        selectivity_per_pair: f64,
    },
}

impl OperatorKind {
    /// Number of input ports this kind requires, or `None` when any
    /// positive arity is allowed.
    pub fn required_arity(&self) -> Option<usize> {
        match self {
            OperatorKind::Linear { costs, .. }
            | OperatorKind::VariableSelectivity { costs, .. } => Some(costs.len()),
            OperatorKind::WindowJoin { .. } => Some(2),
        }
    }
}

/// A placed-as-a-unit continuous-query operator (§2.1: "we consider each
/// continuous query operator as the minimum task allocation unit").
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OperatorSpec {
    /// Stable identifier (index into the graph's operator list).
    pub id: OperatorId,
    /// Human-readable label (for plans, traces, debug output).
    pub name: String,
    /// Behavioural class and parameters.
    pub kind: OperatorKind,
    /// Streams consumed, in port order.
    pub inputs: Vec<StreamId>,
    /// The single stream produced.
    pub output: StreamId,
}

impl OperatorSpec {
    /// Instantaneous CPU load given concrete input rates (tuples/time on
    /// each port). This is the *true*, possibly nonlinear load — the
    /// ground truth the linearised model must agree with.
    pub fn load_at(&self, input_rates: &[f64]) -> f64 {
        assert_eq!(input_rates.len(), self.inputs.len(), "rate per port");
        match &self.kind {
            OperatorKind::Linear { costs, .. }
            | OperatorKind::VariableSelectivity { costs, .. } => {
                costs.iter().zip(input_rates).map(|(c, r)| c * r).sum()
            }
            OperatorKind::WindowJoin {
                window,
                cost_per_pair,
                ..
            } => cost_per_pair * window * input_rates[0] * input_rates[1],
        }
    }

    /// Output stream rate given concrete input rates, using nominal
    /// selectivities where the true selectivity is data-dependent.
    pub fn output_rate_at(&self, input_rates: &[f64]) -> f64 {
        assert_eq!(input_rates.len(), self.inputs.len(), "rate per port");
        match &self.kind {
            OperatorKind::Linear { selectivities, .. } => selectivities
                .iter()
                .zip(input_rates)
                .map(|(s, r)| s * r)
                .sum(),
            OperatorKind::VariableSelectivity {
                nominal_selectivities,
                ..
            } => nominal_selectivities
                .iter()
                .zip(input_rates)
                .map(|(s, r)| s * r)
                .sum(),
            OperatorKind::WindowJoin {
                window,
                selectivity_per_pair,
                ..
            } => selectivity_per_pair * window * input_rates[0] * input_rates[1],
        }
    }

    /// Validates costs/selectivities/window for this operator.
    pub fn validate(&self) -> Result<(), GraphError> {
        let invalid = |message: String| GraphError::InvalidParameter {
            operator: self.id,
            message,
        };
        let check_nonneg = |label: &str, xs: &[f64]| -> Result<(), GraphError> {
            for &x in xs {
                if !x.is_finite() || x < 0.0 {
                    return Err(invalid(format!("{label} {x} must be finite and >= 0")));
                }
            }
            Ok(())
        };
        match &self.kind {
            OperatorKind::Linear {
                costs,
                selectivities,
            } => {
                if costs.len() != selectivities.len() {
                    return Err(invalid(format!(
                        "{} costs vs {} selectivities",
                        costs.len(),
                        selectivities.len()
                    )));
                }
                check_nonneg("cost", costs)?;
                check_nonneg("selectivity", selectivities)?;
            }
            OperatorKind::VariableSelectivity {
                costs,
                nominal_selectivities,
            } => {
                if costs.len() != nominal_selectivities.len() {
                    return Err(invalid(format!(
                        "{} costs vs {} nominal selectivities",
                        costs.len(),
                        nominal_selectivities.len()
                    )));
                }
                check_nonneg("cost", costs)?;
                check_nonneg("nominal selectivity", nominal_selectivities)?;
            }
            OperatorKind::WindowJoin {
                window,
                cost_per_pair,
                selectivity_per_pair,
            } => {
                if !window.is_finite() || *window <= 0.0 {
                    return Err(invalid(format!("window {window} must be > 0")));
                }
                if !cost_per_pair.is_finite() || *cost_per_pair < 0.0 {
                    return Err(invalid(format!(
                        "cost per pair {cost_per_pair} must be >= 0"
                    )));
                }
                if !selectivity_per_pair.is_finite() || *selectivity_per_pair <= 0.0 {
                    return Err(invalid(format!(
                        "join selectivity {selectivity_per_pair} must be > 0 \
                         (required by the (c/s)·r_out linearisation)"
                    )));
                }
            }
        }
        if let Some(expected) = self.kind.required_arity() {
            if expected != self.inputs.len() {
                return Err(GraphError::ArityMismatch {
                    operator: self.id,
                    expected: match &self.kind {
                        OperatorKind::WindowJoin { .. } => "exactly 2",
                        _ => "one cost per port",
                    },
                    actual: self.inputs.len(),
                });
            }
        }
        Ok(())
    }
}

/// Shorthand constructors for the common relational-algebra-style kinds.
impl OperatorKind {
    /// A single-input filter: cost per tuple, selectivity ≤ 1 (not
    /// enforced — some "filters" enrich).
    pub fn filter(cost: f64, selectivity: f64) -> Self {
        OperatorKind::Linear {
            costs: vec![cost],
            selectivities: vec![selectivity],
        }
    }

    /// A single-input map: selectivity exactly 1.
    pub fn map(cost: f64) -> Self {
        OperatorKind::Linear {
            costs: vec![cost],
            selectivities: vec![1.0],
        }
    }

    /// An n-ary union: every input passes through at cost `cost` each.
    pub fn union(cost: f64, arity: usize) -> Self {
        OperatorKind::Linear {
            costs: vec![cost; arity],
            selectivities: vec![1.0; arity],
        }
    }

    /// A single-input aggregate emitting `selectivity` outputs per input
    /// tuple (e.g. 1/window-size for a tumbling window).
    pub fn aggregate(cost: f64, selectivity: f64) -> Self {
        OperatorKind::Linear {
            costs: vec![cost],
            selectivities: vec![selectivity],
        }
    }

    /// The paper's experimental *delay* operator (§7.1): adjustable
    /// per-tuple cost and selectivity — behaviourally identical to a
    /// filter but named for fidelity to the evaluation setup.
    pub fn delay(cost: f64, selectivity: f64) -> Self {
        OperatorKind::Linear {
            costs: vec![cost],
            selectivities: vec![selectivity],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: OperatorKind, ninputs: usize) -> OperatorSpec {
        OperatorSpec {
            id: OperatorId(0),
            name: "t".into(),
            kind,
            inputs: (0..ninputs).map(StreamId).collect(),
            output: StreamId(99),
        }
    }

    #[test]
    fn linear_load_and_rate() {
        let op = spec(OperatorKind::filter(4.0, 0.5), 1);
        assert_eq!(op.load_at(&[3.0]), 12.0);
        assert_eq!(op.output_rate_at(&[3.0]), 1.5);
    }

    #[test]
    fn union_sums_ports() {
        let op = spec(OperatorKind::union(2.0, 3), 3);
        assert_eq!(op.load_at(&[1.0, 2.0, 3.0]), 12.0);
        assert_eq!(op.output_rate_at(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    fn join_is_quadratic() {
        let op = spec(
            OperatorKind::WindowJoin {
                window: 2.0,
                cost_per_pair: 5.0,
                selectivity_per_pair: 0.1,
            },
            2,
        );
        // pairs = w * r_u * r_v = 2 * 3 * 4 = 24
        assert_eq!(op.load_at(&[3.0, 4.0]), 120.0);
        assert!((op.output_rate_at(&[3.0, 4.0]) - 2.4).abs() < 1e-12);
        // Doubling one rate doubles the load (bilinear).
        assert_eq!(op.load_at(&[6.0, 4.0]), 240.0);
    }

    #[test]
    fn variable_selectivity_uses_nominal_for_rates() {
        let op = spec(
            OperatorKind::VariableSelectivity {
                costs: vec![3.0],
                nominal_selectivities: vec![0.7],
            },
            1,
        );
        assert_eq!(op.load_at(&[10.0]), 30.0);
        assert!((op.output_rate_at(&[10.0]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(spec(OperatorKind::filter(-1.0, 0.5), 1).validate().is_err());
        assert!(spec(OperatorKind::filter(1.0, f64::NAN), 1)
            .validate()
            .is_err());
        assert!(spec(
            OperatorKind::WindowJoin {
                window: 0.0,
                cost_per_pair: 1.0,
                selectivity_per_pair: 0.1,
            },
            2
        )
        .validate()
        .is_err());
        // Zero join selectivity breaks the (c/s) substitution.
        assert!(spec(
            OperatorKind::WindowJoin {
                window: 1.0,
                cost_per_pair: 1.0,
                selectivity_per_pair: 0.0,
            },
            2
        )
        .validate()
        .is_err());
    }

    #[test]
    fn validation_rejects_arity_mismatch() {
        // A join with three inputs.
        let bad = spec(
            OperatorKind::WindowJoin {
                window: 1.0,
                cost_per_pair: 1.0,
                selectivity_per_pair: 0.5,
            },
            3,
        );
        assert!(matches!(
            bad.validate(),
            Err(GraphError::ArityMismatch { .. })
        ));
        // A filter with two inputs.
        let bad = spec(OperatorKind::filter(1.0, 1.0), 2);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn valid_specs_pass() {
        assert!(spec(OperatorKind::map(2.0), 1).validate().is_ok());
        assert!(spec(OperatorKind::union(1.0, 4), 4).validate().is_ok());
        assert!(spec(
            OperatorKind::WindowJoin {
                window: 0.5,
                cost_per_pair: 2.0,
                selectivity_per_pair: 0.3,
            },
            2
        )
        .validate()
        .is_ok());
    }
}
