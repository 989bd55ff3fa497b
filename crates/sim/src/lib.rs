//! # rod-sim — a discrete-event distributed stream-processing simulator
//!
//! The paper evaluates ROD both on the Borealis prototype and on "a
//! custom-built simulator", observing that "the simulator results tracked
//! the results in Borealis very closely, thus allowing us to trust the
//! simulator for experiments in which the total running time in Borealis
//! would be prohibitive". This crate is that simulator, rebuilt from the
//! paper's system model (§2.1–2.2):
//!
//! * shared-nothing nodes with fixed CPU capacity, connected by a
//!   high-bandwidth LAN (network transfer adds latency and, optionally,
//!   CPU overhead — the §6.3 relaxation);
//! * operators process tuples at their configured per-tuple cost and emit
//!   downstream per their selectivity; windowed joins maintain real tuple
//!   windows and pay per *pair examined*, so the bilinear load law
//!   emerges from first principles rather than being assumed;
//! * sources are either constant-rate Poisson processes (for feasibility
//!   probing, §7.1: "for each workload point, we run the system … and
//!   monitor the CPU utilization of all the nodes") or driven by
//!   [`rod_traces::Trace`] rate series (for latency experiments on bursty
//!   workloads).
//!
//! The crate offers two levels:
//!
//! * [`engine::Simulation`] — a configured run of the event engine
//!   ([`batched`]) with full reports ([`report::SimReport`]:
//!   utilisations, end-to-end latency percentiles, queue peaks). Runs
//!   are exact by default — one tuple per batch, every tuple its own
//!   event — and opt into coalescing with [`BatchConfig`] for
//!   production-volume traces. A golden corpus
//!   (`tests/golden_corpus.rs`) pins exact mode's reports and traces
//!   byte for byte;
//! * [`probe::FeasibilityProbe`] — the paper's measurement procedure:
//!   deem a rate point feasible iff no node saturates, and estimate
//!   feasible-set ratios by probing points sampled inside the ideal
//!   simplex.

#![warn(missing_docs)]
pub mod batched;
pub mod engine;
pub mod events;
pub mod probe;
pub mod replay;
pub mod report;
pub mod source;
pub mod trace;

pub use engine::{
    BatchConfig, FailoverConfig, MigrationChaos, MigrationConfig, NetworkConfig, Outage,
    SchedulingPolicy, Simulation, SimulationConfig,
};
pub use probe::{FeasibilityProbe, ProbeConfig, ProbeOutcome};
pub use report::{RecoveryRecord, SimReport, TimelineSample};
pub use source::{check_expected_arrivals, SourceSpec, MAX_EXPECTED_ARRIVALS};
pub use trace::{JsonlSink, NullSink, SampleError, TraceRecord, TraceSink, VecSink};
