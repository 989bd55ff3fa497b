//! # rod — Resilient Operator Distribution for distributed stream processing
//!
//! A production-quality Rust reproduction of
//! *"Providing Resiliency to Load Variations in Distributed Stream
//! Processing"* (Xing, Hwang, Çetintemel, Zdonik — VLDB 2006), the
//! Borealis-lineage algorithm for choosing a **static operator placement
//! that maximises the feasible set** — the set of input-rate combinations
//! the cluster can sustain without any node overloading.
//!
//! This facade re-exports the whole workspace:
//!
//! * [`core`] (from `rod-core`) — query graphs, the linear load model and
//!   §6.2 linearisation, the ROD algorithm with its MMAD/MMPD heuristics,
//!   the §6.1 lower-bound and §6.3 clustering extensions, and the four
//!   baseline planners plus a brute-force optimum;
//! * [`geom`] (from `rod-geom`) — the hyperplane geometry and
//!   quasi-Monte-Carlo feasible-set volume machinery;
//! * [`traces`] (from `rod-traces`) — synthetic self-similar / bursty
//!   rate traces standing in for the paper's network traces;
//! * [`workloads`] (from `rod-workloads`) — the paper's random operator
//!   trees and the motivating traffic-monitoring / financial workloads;
//! * [`sim`] (from `rod-sim`) — a discrete-event distributed SPE
//!   simulator standing in for the Borealis prototype, with the paper's
//!   utilisation-based feasibility probing;
//! * [`ctrl`] (from `rod-ctrl`) — the online replanning control loop
//!   behind `rodctl daemon`: tolerant telemetry ingestion, drift detection with
//!   hysteresis, guarded replanning under a deadline budget, and
//!   chaos-hardened migration execution with a degradation ladder.
//!
//! ## Quickstart
//!
//! ```
//! use rod::prelude::*;
//!
//! // Build a query network: two input streams, a few operators.
//! let mut b = GraphBuilder::new();
//! let packets = b.add_input();
//! let flows = b.add_input();
//! let (_, parsed) = b.add_operator("parse", OperatorKind::map(2e-4), &[packets]).unwrap();
//! let (_, counted) = b.add_operator("count", OperatorKind::aggregate(6e-4, 0.1), &[parsed]).unwrap();
//! b.add_operator("alert", OperatorKind::filter(1e-4, 0.05), &[counted]).unwrap();
//! b.add_operator("track", OperatorKind::filter(4e-4, 0.5), &[flows]).unwrap();
//! let graph = b.build().unwrap();
//!
//! // Derive the load model and place resiliently on a 3-node cluster.
//! let model = LoadModel::derive(&graph).unwrap();
//! let cluster = Cluster::homogeneous(3, 1.0);
//! let plan = RodPlanner::new().place(&model, &cluster).unwrap();
//!
//! // Inspect the placement quality.
//! let eval = PlanEvaluator::new(&model, &cluster);
//! assert!(plan.allocation.is_complete());
//! assert!(eval.min_plane_distance(&plan.allocation) > 0.0);
//! ```

#![warn(missing_docs)]
pub use rod_core as core;
pub use rod_ctrl as ctrl;
pub use rod_geom as geom;
pub use rod_sim as sim;
pub use rod_traces as traces;
pub use rod_workloads as workloads;

/// One-stop import for applications.
pub mod prelude {
    pub use rod_core::capacity::{min_nodes_for, CapacityPlan, TargetWorkloads};
    pub use rod_core::explain::explain_plan;
    pub use rod_core::headroom::{headroom, HeadroomReport};
    pub use rod_core::prelude::*;
    pub use rod_ctrl::{ControlConfig, ControlLoop, Decision, ReplaySummary};
    pub use rod_geom::{Hyperplane, Matrix, Vector, VolumeEstimator};
    pub use rod_sim::{
        BatchConfig, FailoverConfig, FeasibilityProbe, JsonlSink, MigrationConfig, NetworkConfig,
        NullSink, Outage, ProbeConfig, RecoveryRecord, SchedulingPolicy, SimReport, Simulation,
        SimulationConfig, SourceSpec, TraceRecord, TraceSink, VecSink,
    };
    pub use rod_traces::{paper_traces, PaperTrace, Trace};
    pub use rod_workloads::{RandomTreeConfig, RandomTreeGenerator};
}
