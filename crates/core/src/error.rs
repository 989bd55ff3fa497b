//! Error types.

use std::fmt;

use crate::ids::{OperatorId, StreamId};

/// Errors raised while building or validating a [`crate::QueryGraph`].
#[derive(Clone, Debug, PartialEq)]
pub enum GraphError {
    /// An operator references a stream that does not exist.
    UnknownStream(StreamId),
    /// Two operators claim the same output stream.
    DuplicateProducer {
        /// The contested stream.
        stream: StreamId,
        /// The operator registered first.
        first: OperatorId,
        /// The operator that collided with it.
        second: OperatorId,
    },
    /// The graph contains a directed cycle (query graphs must be acyclic).
    Cyclic,
    /// An operator has the wrong number of inputs for its kind (e.g. a
    /// join with one input).
    ArityMismatch {
        /// The offending operator.
        operator: OperatorId,
        /// How many inputs its kind requires.
        expected: &'static str,
        /// How many it was given.
        actual: usize,
    },
    /// A cost or selectivity is negative, NaN, or otherwise out of range.
    InvalidParameter {
        /// The offending operator.
        operator: OperatorId,
        /// What was wrong with it.
        message: String,
    },
    /// The graph has no system input streams.
    NoInputs,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownStream(s) => write!(f, "operator consumes unknown stream {s}"),
            GraphError::DuplicateProducer {
                stream,
                first,
                second,
            } => write!(
                f,
                "stream {stream} is produced by both {first} and {second}"
            ),
            GraphError::Cyclic => write!(f, "query graph contains a cycle"),
            GraphError::ArityMismatch {
                operator,
                expected,
                actual,
            } => write!(
                f,
                "operator {operator} expects {expected} inputs but has {actual}"
            ),
            GraphError::InvalidParameter { operator, message } => {
                write!(f, "operator {operator}: {message}")
            }
            GraphError::NoInputs => write!(f, "query graph has no system input streams"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Errors raised by placement algorithms.
#[derive(Clone, Debug, PartialEq)]
pub enum PlacementError {
    /// The cluster has no nodes.
    EmptyCluster,
    /// The load model has no operators to place.
    EmptyModel,
    /// A capacity is non-positive.
    InvalidCapacity {
        /// Index of the offending node.
        node: usize,
        /// Its declared capacity.
        capacity: f64,
    },
    /// Exhaustive search was asked for an instance too large to enumerate.
    TooLargeForExhaustive {
        /// Operators in the instance.
        operators: usize,
        /// Nodes in the instance.
        nodes: usize,
    },
    /// A failure scenario names no nodes.
    EmptyScenario,
    /// A failure scenario (or outage) names a node outside the cluster.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// Nodes in the cluster.
        nodes: usize,
    },
    /// A failure scenario kills every node, leaving nothing to plan for.
    NoSurvivors {
        /// Nodes in the cluster.
        nodes: usize,
    },
    /// A rack of a [`crate::cluster::Topology`] names a node outside the
    /// cluster.
    RackNodeOutOfRange {
        /// Index of the offending rack.
        rack: usize,
        /// The offending node index.
        node: usize,
        /// Nodes in the cluster.
        nodes: usize,
    },
    /// A rack of a topology contains no nodes.
    EmptyRack {
        /// Index of the offending rack.
        rack: usize,
    },
    /// A node appears in more than one rack of a topology.
    DuplicateRackNode {
        /// The node listed twice.
        node: usize,
    },
    /// A cluster node is not covered by any rack of a topology.
    UncoveredNode {
        /// The node no rack claims.
        node: usize,
    },
    /// A topology has no racks at all.
    EmptyTopology,
    /// A §6.1 input lower bound does not give one rate per system input.
    LowerBoundLength {
        /// The model's number of system inputs.
        expected: usize,
        /// Rates the bound gives.
        given: usize,
    },
    /// A §6.1 input lower bound holds a NaN or infinite rate.
    LowerBoundNotFinite {
        /// Index of the offending system input.
        input: usize,
        /// Its bound.
        value: f64,
    },
    /// A sampled-volume planner was configured with zero QMC points: it
    /// has nothing to score a plan on.
    NoSamplePoints {
        /// The planner's name.
        planner: &'static str,
    },
    /// A rate point does not give one rate per system input.
    RateCount {
        /// The model's number of system inputs.
        expected: usize,
        /// Rates the point gives.
        given: usize,
    },
    /// An allocation to extend is sized for another model or cluster.
    AllocationMismatch {
        /// What the sizes count: `"operators"` (the model's) or
        /// `"nodes"` (the cluster's).
        what: &'static str,
        /// The allocation's size.
        allocation: usize,
        /// The model's or cluster's size.
        expected: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::EmptyCluster => write!(f, "cluster has no nodes"),
            PlacementError::EmptyModel => write!(f, "no operators to place"),
            PlacementError::InvalidCapacity { node, capacity } => {
                write!(f, "node {node} has invalid capacity {capacity}")
            }
            PlacementError::TooLargeForExhaustive { operators, nodes } => write!(
                f,
                "exhaustive search over {operators} operators x {nodes} nodes is intractable"
            ),
            PlacementError::EmptyScenario => write!(f, "failure scenario names no nodes"),
            PlacementError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} is out of range for a {nodes}-node cluster")
            }
            PlacementError::NoSurvivors { nodes } => {
                write!(
                    f,
                    "scenario kills all {nodes} nodes; no survivors to plan for"
                )
            }
            PlacementError::RackNodeOutOfRange { rack, node, nodes } => write!(
                f,
                "rack {rack} names node {node}, out of range for a {nodes}-node cluster"
            ),
            PlacementError::EmptyRack { rack } => write!(f, "rack {rack} contains no nodes"),
            PlacementError::DuplicateRackNode { node } => {
                write!(f, "node {node} appears in more than one rack")
            }
            PlacementError::UncoveredNode { node } => {
                write!(f, "node {node} is not covered by any rack")
            }
            PlacementError::EmptyTopology => write!(f, "topology has no racks"),
            PlacementError::LowerBoundLength { expected, given } => write!(
                f,
                "input lower bound gives {given} rates, but the model has {expected} inputs"
            ),
            PlacementError::LowerBoundNotFinite { input, value } => {
                write!(
                    f,
                    "input {input} has lower bound {value}, not a finite rate"
                )
            }
            PlacementError::NoSamplePoints { planner } => write!(
                f,
                "{planner} scores plans on QMC sample points, but samples is 0 \
                 (must be at least 1)"
            ),
            PlacementError::RateCount { expected, given } => write!(
                f,
                "rate point gives {given} rates, but the model has {expected} inputs"
            ),
            PlacementError::AllocationMismatch {
                what,
                allocation,
                expected,
            } => write!(
                f,
                "existing allocation covers {allocation} {what}, but the problem has {expected}"
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::UnknownStream(StreamId(4));
        assert!(e.to_string().contains("s4"));
        let e = PlacementError::TooLargeForExhaustive {
            operators: 30,
            nodes: 4,
        };
        assert!(e.to_string().contains("30"));
    }
}
