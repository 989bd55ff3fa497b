//! # rod-core — Resilient Operator Distribution
//!
//! A from-scratch reproduction of the placement algorithms of
//! *"Providing Resiliency to Load Variations in Distributed Stream
//! Processing"* (Xing, Hwang, Çetintemel, Zdonik — VLDB 2006).
//!
//! A continuous-query dataflow ([`QueryGraph`]) is to be partitioned across
//! a shared-nothing cluster ([`Cluster`]). Because input-stream rates vary
//! unpredictably at all time scales, the goal is not to balance load for
//! one observed rate point but to choose the *static* placement whose
//! **feasible set** — the set of input-rate combinations at which no node
//! is overloaded — is as large as possible.
//!
//! The pipeline is:
//!
//! 1. derive a **linear load model** from the graph ([`LoadModel`]),
//!    introducing fresh rate variables for nonlinear operators such as
//!    windowed joins (§6.2 linearisation, [`linearize`]);
//! 2. optionally **cluster** operators connected by expensive arcs so the
//!    arc never crosses the network (§6.3, [`clustering`]);
//! 3. run the **ROD algorithm** ([`rod::RodPlanner`]) — order operators by
//!    load-vector norm, then greedily place each on a *Class I* node
//!    (placement keeps the node hyperplane above the ideal hyperplane) if
//!    any exists, else on the node with maximum candidate plane distance
//!    (§5, Figure 10);
//! 4. evaluate the result: exact node hyperplanes, normalised weight
//!    matrix, plane/axis distances, and quasi-Monte-Carlo feasible-set
//!    volume ([`allocation`], [`metrics`]).
//!
//! The [`baselines`] module implements the four competitors of §7.2
//! (Random, Largest-Load-First, Connected, and Correlation-based load
//! balancing) plus the brute-force optimum used in §7.3.1.
//!
//! ## Quick example
//!
//! ```
//! use rod_core::prelude::*;
//!
//! // The query graph of Figure 4 / Example 2 of the paper.
//! let graph = rod_core::examples_paper::figure4_graph();
//! let model = LoadModel::derive(&graph).unwrap();
//! let cluster = Cluster::homogeneous(2, 1.0);
//!
//! let plan = RodPlanner::new().place(&model, &cluster).unwrap();
//! assert!(plan.allocation.is_complete());
//! let eval = PlanEvaluator::new(&model, &cluster);
//! assert!(eval.min_plane_distance(&plan.allocation) > 0.0);
//! ```

#![warn(missing_docs)]
pub mod allocation;
pub mod baselines;
pub mod capacity;
pub mod cluster;
pub mod clustering;
pub mod error;
pub mod eval;
pub mod examples_paper;
pub mod explain;
pub mod graph;
pub mod headroom;
pub mod hierarchical;
pub mod ids;
pub mod linearize;
pub mod load_model;
pub mod metrics;
pub mod obs;
pub mod operator;
pub mod resilience;
pub mod rod;

pub use allocation::{Allocation, PlanEvaluator, WeightMatrix};
pub use baselines::{build_planner, PlannerSpec};
pub use cluster::{Cluster, Topology};
pub use error::{GraphError, PlacementError};
pub use eval::{CandidateScore, IncrementalPlanEval, PlanSnapshot};
pub use graph::{GraphBuilder, QueryGraph};
pub use hierarchical::{HierPlan, HierarchicalRod};
pub use ids::{InputId, NodeId, OperatorId, StreamId, VarId};
pub use load_model::{LoadModel, RateExpr};
pub use obs::{MetricsRegistry, MetricsSnapshot};
pub use operator::{OperatorKind, OperatorSpec};
pub use resilience::{
    FailoverTable, FailureScenario, ResilientPlan, ResilientRodOptions, ResilientRodPlanner,
};
pub use rod::{RodOptions, RodPlan, RodPlanner};

/// Convenient glob import for downstream users.
pub mod prelude {
    pub use crate::allocation::{Allocation, PlanEvaluator, WeightMatrix};
    pub use crate::baselines::{
        build_planner, connected::ConnectedPlanner, correlation::CorrelationPlanner,
        llf::LlfPlanner, optimal::OptimalPlanner, random::RandomPlanner, Planner, PlannerSpec,
    };
    pub use crate::cluster::{Cluster, Topology};
    pub use crate::error::{GraphError, PlacementError};
    pub use crate::eval::{CandidateScore, IncrementalPlanEval, PlanSnapshot};
    pub use crate::graph::{GraphBuilder, QueryGraph};
    pub use crate::hierarchical::{HierPlan, HierarchicalRod};
    pub use crate::ids::{InputId, NodeId, OperatorId, StreamId, VarId};
    pub use crate::load_model::{LoadModel, RateExpr};
    pub use crate::obs::{MetricsRegistry, MetricsSnapshot};
    pub use crate::operator::{OperatorKind, OperatorSpec};
    pub use crate::resilience::{
        FailoverTable, FailureScenario, ResilientPlan, ResilientRodOptions, ResilientRodPlanner,
    };
    pub use crate::rod::{RodOptions, RodPlan, RodPlanner};
}
