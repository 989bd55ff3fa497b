//! # rod-ctrl — the robust online replanning control loop
//!
//! The paper's planner is an offline optimiser: given a load model and a
//! cluster it emits one resilient operator placement. A deployed system
//! also needs the *online* half — something watching real utilisation
//! telemetry, deciding when the workload has drifted outside the plan's
//! comfort zone, and re-planning without making things worse when its own
//! machinery misbehaves. This crate is that half, built library-first so
//! every layer is testable in isolation and `rodctl daemon` is a thin
//! shell:
//!
//! * [`telemetry`] — tolerant `UtilSample` JSONL ingestion: hostile input
//!   (malformed lines, invalid UTF-8, NaN/negative values, stale
//!   timestamps, unknown nodes) never panics, never silently disappears — every rejection is
//!   classified and counted. Bounded ring buffers + EWMA smooth the
//!   accepted rates into a planning estimate.
//! * [`drift`] — a Schmitt-trigger detector on the plan's uniform
//!   headroom (distance to the feasible-set boundary), with hysteresis
//!   bands and a cooldown so boundary chatter does not thrash replans.
//! * [`guard`] — replanning as a guarded action: panics are caught,
//!   overruns are bounded by an optional watchdog budget, and every
//!   candidate is distrusted until it passes the feasibility and
//!   cost/benefit gates.
//! * [`ladder`] — the degradation ladder: full re-plan → incremental
//!   moves only → hold last-good → advise shedding, descending on
//!   consecutive faults, ascending on sustained successes.
//! * [`executor`] — chaos-hardened migration execution: per-step failure
//!   injection, bounded retries with deterministic exponential backoff,
//!   and the guarantee that execution always ends in a complete
//!   allocation.
//! * [`daemon`] — [`ControlLoop`] wiring the layers
//!   together, with a JSONL decision log and `ctrl.*` metrics
//!   (`ctrl.samples_rejected`, `ctrl.replans_triggered`,
//!   `ctrl.replans_aborted`, `ctrl.migrations_retried`,
//!   `ctrl.degradation_level`) threaded through
//!   [`rod_core::obs::MetricsRegistry`].
//!
//! Determinism contract: with `plan_budget: None` (the replay default)
//! the loop reads no wall clock and draws no unseeded randomness, so a
//! fixed input stream produces a bit-identical decision log — the chaos
//! suite and CI assert exactly that.

#![warn(missing_docs)]
pub mod daemon;
pub mod drift;
pub mod executor;
pub mod guard;
pub mod ladder;
pub mod telemetry;

pub use daemon::{bootstrap, ControlConfig, ControlLoop, Decision, ReplaySummary, INGEST_BATCH};
pub use drift::{DriftConfig, DriftDetector, DriftVerdict};
pub use executor::{
    apply_plan, steps, ChaosExecutor, ExecReport, MigrationExecutor, MigrationStep,
    ReliableExecutor, RetryPolicy, StepOutcome,
};
pub use guard::{GuardedPlanner, PlanFault, PlanMode, PlanRequest, PlanStrategy, RodStrategy};
pub use ladder::{DegradationLadder, DegradationLevel, LadderConfig};
pub use telemetry::{Ingested, RejectReason, SampleBatch, TelemetryConfig, TelemetryIngest};
