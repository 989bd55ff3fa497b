//! Failure-resilient placement: k-safe scenario enumeration, survivor
//! feasible-set scoring, precomputed failover tables, and the
//! ResilientRod planner.
//!
//! The paper maximises the feasible set under *load* variation but
//! assumes nodes never die. Operator migration is exactly the slow,
//! disruptive mechanism its introduction warns about, and downtime during
//! reconfiguration dominates recovery — so resiliency to *node loss*
//! must, like resiliency to load, be planned statically:
//!
//! 1. enumerate the failures worth planning for
//!    ([`FailureScenario`]: every single-node loss, optionally every
//!    k-node loss);
//! 2. for a candidate placement, score each scenario by the feasible-set
//!    volume that *survives* it — unassign the dead nodes' operators,
//!    re-place them on survivors with ROD's own Phase 1 and Phase 2, and
//!    count the quasi-Monte-Carlo points the survivor constraints keep
//!    ([`survivor_moves`], [`ScenarioScorer`]);
//! 3. choose the placement maximising the **worst-case** survivor volume
//!    ([`ResilientRodPlanner`]): start from plain ROD and hill-climb with
//!    single-operator moves, so the result is never worse than ROD's on
//!    that objective, by construction;
//! 4. precompute where each node's operators go when it dies
//!    ([`FailoverTable`]), so recovery at runtime is a table lookup plus
//!    the unavoidable migration downtime, not a re-planning pass.
//!
//! The simulator (`rod-sim`) executes step 4 under injected outages:
//! after a detection delay, orphaned operators migrate to their
//! table-designated backups while bounded queues shed (and count) the
//! overflow, turning node loss into a measured recovery window instead of
//! an unbounded backlog.

mod failover;
mod planner;
mod scenario;

pub use failover::{survivor_moves, FailoverTable, ScenarioScorer};
pub use planner::{ResilientPlan, ResilientRodOptions, ResilientRodPlanner};
pub use scenario::FailureScenario;
