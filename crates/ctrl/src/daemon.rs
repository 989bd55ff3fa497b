//! The control loop: telemetry in, decisions out.
//!
//! [`ControlLoop`] ties the layers together. Each telemetry line flows
//! through tolerant ingestion ([`crate::telemetry`]); accepted samples
//! update the rate estimate, whose headroom against the *current* plan
//! feeds the drift detector ([`crate::drift`]); a drift verdict replans
//! under the guard ([`crate::guard`]) at whatever breadth the degradation
//! ladder ([`crate::ladder`]) currently allows; a committed plan executes
//! through the chaos-hardened migration executor ([`crate::executor`]).
//!
//! Two invariants hold across every injected fault:
//!
//! * **the loop never crashes** — hostile telemetry, panicking planners,
//!   and failing migrations all land as counted [`Decision`]s;
//! * **`last_good` is always a complete allocation that was feasible at
//!   its commit-time estimate** — it only advances after a candidate
//!   passed the feasibility gate *and* every migration step applied.
//!
//! Everything is deterministic in the input stream: no wall-clock reads,
//! no unseeded randomness (the optional watchdog budget introduces real
//! time and is off in replay mode). Fixed inputs ⇒ bit-identical
//! decision logs, which CI asserts.

use std::convert::Infallible;
use std::io::Read;

use serde::{Deserialize, Serialize};

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::headroom::headroom;
use rod_core::ids::OperatorId;
use rod_core::load_model::LoadModel;
use rod_core::obs::MetricsRegistry;
use rod_core::PlanEvaluator;
use rod_sim::replay::scan::{probe_util_sample, LineScanner, UtilScratch};
use rod_sim::MigrationConfig;

use crate::drift::{DriftConfig, DriftDetector, DriftVerdict};
use crate::executor::{apply_plan, MigrationExecutor, ReliableExecutor, RetryPolicy, StepOutcome};
use crate::guard::{
    budget_limit, GuardedPlanner, PlanMode, PlanRequest, PlanStrategy, RodStrategy,
};
use crate::ladder::{DegradationLadder, DegradationLevel, LadderConfig};
use crate::telemetry::{Ingested, RejectReason, SampleBatch, TelemetryConfig, TelemetryIngest};

/// One externally-visible choice the loop made, in order. The JSONL
/// serialisation of this sequence is the daemon's decision log.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Decision {
    /// A telemetry line or sample was rejected.
    SampleRejected {
        /// 1-based index of the offending line in the input stream.
        line: u64,
        /// Why it was rejected.
        reason: RejectReason,
    },
    /// Drift fired and a replan started.
    ReplanTriggered {
        /// Telemetry time of the triggering sample.
        time: f64,
        /// Uniform headroom of the current plan at the estimate.
        headroom: f64,
        /// The rate estimate planned for.
        estimate: Vec<f64>,
        /// Search breadth the ladder allowed.
        mode: PlanMode,
    },
    /// A replan produced no committed plan (fault or failed gate).
    ReplanAborted {
        /// Telemetry time.
        time: f64,
        /// Human-readable cause.
        reason: String,
    },
    /// Drift fired but the ladder forbids planning at this rung.
    ReplanSuppressed {
        /// Telemetry time.
        time: f64,
        /// The rung that suppressed it.
        level: DegradationLevel,
    },
    /// A candidate passed the gate and execution began.
    PlanCommitted {
        /// Telemetry time.
        time: f64,
        /// Number of migration steps.
        moves: usize,
        /// Predicted total migration downtime, seconds.
        predicted_downtime: f64,
        /// Uniform headroom before, at the estimate.
        headroom_before: f64,
        /// Uniform headroom of the candidate, at the estimate.
        headroom_after: f64,
    },
    /// One migration attempt failed and will be retried after backoff.
    MigrationRetry {
        /// Telemetry time of the commit.
        time: f64,
        /// Operator being moved.
        op: usize,
        /// Destination node.
        dest: usize,
        /// Failed attempt number (1-based).
        attempt: u32,
        /// Backoff before the retry, seconds.
        backoff: f64,
    },
    /// A migration step exhausted its retries; the operator stays put.
    MigrationAborted {
        /// Telemetry time of the commit.
        time: f64,
        /// Operator that failed to move.
        op: usize,
        /// Origin node (where it remains).
        from: usize,
        /// Intended destination.
        to: usize,
        /// Attempts spent.
        attempts: u32,
    },
    /// The degradation ladder changed rung.
    DegradationChanged {
        /// Telemetry time.
        time: f64,
        /// The new rung.
        level: DegradationLevel,
    },
    /// At the bottom rung with an infeasible plan: advise shedding.
    ShedAdvised {
        /// Telemetry time.
        time: f64,
        /// Feasible fraction of the offered load (= headroom, < 1).
        keep_fraction: f64,
    },
}

/// Control-loop parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ControlConfig {
    /// Telemetry ring-buffer length per stream.
    pub telemetry_window: usize,
    /// EWMA smoothing factor in (0, 1].
    pub ewma_alpha: f64,
    /// Drift hysteresis.
    pub drift: DriftConfig,
    /// Degradation thresholds.
    pub ladder: LadderConfig,
    /// Migration retry policy.
    pub retry: RetryPolicy,
    /// Migration cost model (downtime per move, pinned operators).
    pub migration: MigrationConfig,
    /// Minimum uniform-headroom gain a routine replan must buy.
    pub min_headroom_gain: f64,
    /// Maximum predicted downtime a routine replan may cost, seconds.
    pub max_predicted_downtime: f64,
    /// Optional wall-clock planner budget, seconds: finite, positive and
    /// below 2⁶⁴ ([`budget_limit`]). `None` = inline, deterministic —
    /// required for bit-identical replays.
    pub plan_budget: Option<f64>,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            telemetry_window: 8,
            ewma_alpha: 0.3,
            drift: DriftConfig::default(),
            ladder: LadderConfig::default(),
            retry: RetryPolicy::default(),
            migration: MigrationConfig::default(),
            min_headroom_gain: 0.1,
            max_predicted_downtime: 2.0,
            plan_budget: None,
        }
    }
}

/// Samples per fast-path batch in `rodctl daemon`'s replay. Every batch
/// size yields the same summary, decision log and metrics apart from the
/// `ctrl.ingest_batches` counter (`tests/batch_equiv.rs`).
pub const INGEST_BATCH: usize = 256;

/// Summary of one replay run, for CI assertions and the daemon's stdout.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplaySummary {
    /// Lines consumed.
    pub lines: u64,
    /// Samples accepted into the estimators.
    pub samples_accepted: u64,
    /// Lines/samples rejected (all classes).
    pub samples_rejected: u64,
    /// Replans started.
    pub replans_triggered: u64,
    /// Replans that produced no committed plan.
    pub replans_aborted: u64,
    /// Plans committed and executed.
    pub plans_committed: u64,
    /// Migration retries across all commits.
    pub migrations_retried: u64,
    /// Final ladder rung.
    pub degradation_level: DegradationLevel,
}

enum Gate {
    Commit {
        moves: usize,
        predicted_downtime: f64,
        headroom_after: f64,
    },
    Reject {
        reason: String,
        /// True when the rejection indicts the planner (escalates the
        /// ladder); false for benign "not worth it" outcomes.
        fault: bool,
    },
}

/// The online replanning control loop. See the module docs for the data
/// flow; construct with [`ControlLoop::new`], feed lines with
/// [`observe_line`](ControlLoop::observe_line) or whole streams with
/// [`replay_batched`](ControlLoop::replay_batched).
pub struct ControlLoop {
    model: LoadModel,
    cluster: Cluster,
    cfg: ControlConfig,
    ingest: TelemetryIngest,
    drift: DriftDetector,
    ladder: DegradationLadder,
    planner: GuardedPlanner,
    executor: Box<dyn MigrationExecutor>,
    current: Allocation,
    last_good: Allocation,
    decisions: Vec<Decision>,
    metrics: MetricsRegistry,
    lines_seen: u64,
    plans_committed: u64,
}

impl ControlLoop {
    /// A loop controlling `initial` (which must be a complete allocation
    /// of the model's operators onto the cluster) with the real ROD
    /// strategy and a reliable executor.
    pub fn new(
        model: LoadModel,
        cluster: Cluster,
        initial: Allocation,
        cfg: ControlConfig,
    ) -> Result<ControlLoop, String> {
        if !initial.is_complete() {
            return Err("initial allocation is incomplete".into());
        }
        if initial.num_operators() != model.num_operators()
            || initial.num_nodes() != cluster.num_nodes()
        {
            return Err(format!(
                "initial allocation shape {}x{} does not match model {} operators on {} nodes",
                initial.num_operators(),
                initial.num_nodes(),
                model.num_operators(),
                cluster.num_nodes()
            ));
        }
        let nodes = cluster.num_nodes();
        if let Some((j, node)) = (0..initial.num_operators())
            .filter_map(|j| Some((j, initial.node_of(OperatorId(j))?.index())))
            .find(|&(_, node)| node >= nodes)
        {
            return Err(format!(
                "initial allocation places operator {j} on node {node}, but the cluster has {nodes} nodes"
            ));
        }
        cfg.drift.validate()?;
        if let Some(budget) = cfg.plan_budget {
            budget_limit(budget)?;
        }
        let telemetry = TelemetryConfig {
            num_inputs: model.num_inputs(),
            num_nodes: cluster.num_nodes(),
            window: cfg.telemetry_window,
            ewma_alpha: cfg.ewma_alpha,
        };
        telemetry.validate()?;
        let strategy = Box::new(RodStrategy::new(model.clone(), cluster.clone()));
        let planner = match cfg.plan_budget {
            None => GuardedPlanner::inline(strategy),
            Some(budget) => GuardedPlanner::with_budget(strategy, budget),
        };
        let metrics = MetricsRegistry::new();
        metrics.set_gauge("ctrl.degradation_level", 0.0);
        Ok(ControlLoop {
            ingest: TelemetryIngest::new(telemetry),
            drift: DriftDetector::new(cfg.drift.clone()),
            ladder: DegradationLadder::new(cfg.ladder.clone()),
            planner,
            executor: Box::new(ReliableExecutor),
            current: initial.clone(),
            last_good: initial,
            decisions: Vec::new(),
            metrics,
            lines_seen: 0,
            plans_committed: 0,
            model,
            cluster,
            cfg,
        })
    }

    /// Replaces the planning strategy (chaos tests install hostile ones).
    pub fn with_strategy(mut self, strategy: Box<dyn PlanStrategy>) -> ControlLoop {
        self.planner = match self.cfg.plan_budget {
            None => GuardedPlanner::inline(strategy),
            Some(budget) => GuardedPlanner::with_budget(strategy, budget),
        };
        self
    }

    /// Replaces the migration executor (chaos tests inject failures).
    pub fn with_executor(mut self, executor: Box<dyn MigrationExecutor>) -> ControlLoop {
        self.executor = executor;
        self
    }

    /// The plan the system is running right now.
    pub fn current(&self) -> &Allocation {
        &self.current
    }

    /// The newest plan that passed the feasibility gate and applied
    /// fully. Always complete.
    pub fn last_good(&self) -> &Allocation {
        &self.last_good
    }

    /// Every decision so far, in order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// The decision log as JSONL (one decision per line).
    pub fn decision_log_jsonl(&self) -> String {
        let mut out = String::new();
        for d in &self.decisions {
            out.push_str(&serde_json::to_string(d).expect("decisions serialise"));
            out.push('\n');
        }
        out
    }

    /// The loop's metrics registry (`ctrl.*` counters and gauges).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Feeds one raw telemetry line. Never panics.
    pub fn observe_line(&mut self, line: &str) {
        let outcome = self.ingest.ingest_line(line);
        self.observe(outcome);
    }

    /// Feeds one pre-parsed sample (bypasses JSONL decoding only; all
    /// value validation still applies).
    pub fn observe_sample(&mut self, time: f64, utilisations: &[f64], rates: &[f64]) {
        let outcome = self.ingest.ingest_sample(time, utilisations, rates);
        self.observe(outcome);
    }

    /// Acts on one counted line's ingest outcome.
    fn observe(&mut self, outcome: Ingested) {
        self.lines_seen += 1;
        match outcome {
            Ingested::Sample { time } => self.on_sample(time),
            Ingested::Other => {}
            Ingested::Rejected(reason) => self.on_reject(reason),
        }
    }

    /// Consumes a whole telemetry stream and returns the run summary.
    ///
    /// Lines split as `BufRead::lines` splits them, and blank lines are
    /// skipped uncounted. Strict-form `UtilSample` lines are decoded by
    /// the zero-copy scanner ([`rod_sim::replay::scan`]) and committed
    /// `max_batch` at a time through [`TelemetryIngest::ingest_batch`],
    /// amortising parsing, allocation, and dispatch. Any other line
    /// flushes the pending batch — preserving stream order — and falls
    /// back to [`observe_line`](ControlLoop::observe_line); a line that
    /// is not valid UTF-8 is rejected as [`RejectReason::InvalidUtf8`]
    /// and skipped. Every `max_batch` yields the same estimator state,
    /// decision log, and [`ReplaySummary`] (proptest-pinned in
    /// `tests/batch_equiv.rs`); the split is observable only via the
    /// `ctrl.ingest_batches`, `ctrl.ingest_fast_path_lines`, and
    /// `ctrl.ingest_fallback_lines` counters. Only an error from
    /// `reader` itself fails the replay, after the lines before it have
    /// been committed.
    pub fn replay_batched<R: Read>(
        &mut self,
        mut reader: R,
        max_batch: usize,
    ) -> Result<ReplaySummary, std::io::Error> {
        let max_batch = max_batch.max(1);
        let mut scanner = LineScanner::new();
        let mut scratch = UtilScratch::default();
        let mut batch = SampleBatch::new();
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            let n = match reader.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                // `BufRead::read_until` retries interrupted reads; match it.
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.flush_batch(&mut batch);
                    return Err(e);
                }
            };
            scanner
                .feed(&buf[..n], |line| -> Result<(), Infallible> {
                    self.batched_line(line, &mut scratch, &mut batch, max_batch);
                    Ok(())
                })
                .unwrap_or_else(|never| match never {});
        }
        scanner
            .finish(|line| -> Result<(), Infallible> {
                self.batched_line(line, &mut scratch, &mut batch, max_batch);
                Ok(())
            })
            .unwrap_or_else(|never| match never {});
        self.flush_batch(&mut batch);
        Ok(self.summary())
    }

    /// One scanned line of [`replay_batched`](ControlLoop::replay_batched):
    /// blank lines skip uncounted, strict-form `UtilSample`s append to
    /// the pending batch, anything else flushes the batch and goes
    /// through the line-at-a-time path.
    fn batched_line(
        &mut self,
        line: &[u8],
        scratch: &mut UtilScratch,
        batch: &mut SampleBatch,
        max_batch: usize,
    ) {
        // ASCII-blank lines (the common case) skip without decoding.
        if line.iter().all(|b| b.is_ascii_whitespace()) {
            return;
        }
        if probe_util_sample(line, scratch) {
            batch.push(scratch.time, &scratch.utilisations, &scratch.rates);
            if batch.len() >= max_batch {
                self.flush_batch(batch);
            }
            return;
        }
        let text = std::str::from_utf8(line);
        // The rare Unicode-whitespace blank skips too, as `str::trim`
        // defines blank.
        if text.is_ok_and(|text| text.trim().is_empty()) {
            return;
        }
        self.flush_batch(batch);
        self.metrics.incr("ctrl.ingest_fallback_lines");
        let outcome = match text {
            Ok(text) => self.ingest.ingest_line(text),
            Err(_) => self.ingest.reject(RejectReason::InvalidUtf8),
        };
        self.observe(outcome);
    }

    /// Commits the pending fast-path batch: every record flows through
    /// the same per-sample routine as the line path, in stream order,
    /// with the estimator state after each record visible to the
    /// decision logic.
    fn flush_batch(&mut self, batch: &mut SampleBatch) {
        if batch.is_empty() {
            return;
        }
        self.metrics.incr("ctrl.ingest_batches");
        self.metrics
            .add("ctrl.ingest_fast_path_lines", batch.len() as u64);
        // The ingest accumulator is moved out so the callback can borrow
        // the rest of `self`; `on_sample_est` takes the estimate by value
        // precisely so nothing re-reads `self.ingest` underneath us.
        let mut ingest = std::mem::replace(
            &mut self.ingest,
            TelemetryIngest::new(TelemetryConfig::default()),
        );
        ingest.ingest_batch(batch, |ing, outcome| {
            self.lines_seen += 1;
            match outcome {
                Ingested::Sample { time } => {
                    let estimate = ing.estimate();
                    self.on_sample_est(time, estimate);
                }
                Ingested::Other => {}
                Ingested::Rejected(reason) => self.on_reject(reason),
            }
        });
        self.ingest = ingest;
        batch.clear();
    }

    /// The current run summary.
    pub fn summary(&self) -> ReplaySummary {
        ReplaySummary {
            lines: self.lines_seen,
            samples_accepted: self.ingest.accepted(),
            samples_rejected: self.ingest.total_rejected(),
            replans_triggered: self.metrics.counter("ctrl.replans_triggered"),
            replans_aborted: self.metrics.counter("ctrl.replans_aborted"),
            plans_committed: self.plans_committed,
            migrations_retried: self.metrics.counter("ctrl.migrations_retried"),
            degradation_level: self.ladder.level(),
        }
    }

    fn on_reject(&mut self, reason: RejectReason) {
        self.metrics.incr("ctrl.samples_rejected");
        self.metrics
            .incr(&format!("ctrl.samples_rejected.{}", reason.label()));
        self.decisions.push(Decision::SampleRejected {
            line: self.lines_seen,
            reason,
        });
    }

    fn uniform_headroom(&self, alloc: &Allocation, rates: &[f64]) -> f64 {
        let ev = PlanEvaluator::new(&self.model, &self.cluster);
        // `headroom()` ray-casts from inside the region and saturates at
        // 1.0 once the base point is infeasible; past the boundary the
        // informative margin is 1/peak-utilisation (< 1), which is also
        // the feasible fraction a shedder should keep.
        let peak = ev
            .utilisations_at(alloc, rates)
            .as_slice()
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        if peak > 1.0 {
            return 1.0 / peak;
        }
        headroom(&ev, alloc, rates)
            .expect("telemetry estimates carry one rate per model input")
            .uniform
    }

    fn on_sample(&mut self, time: f64) {
        let estimate = self.ingest.estimate();
        self.on_sample_est(time, estimate);
    }

    fn on_sample_est(&mut self, time: f64, estimate: Option<Vec<f64>>) {
        let Some(estimate) = estimate else {
            return;
        };
        // An all-zero estimate carries no drift information (and the
        // boundary ray cast degenerates); wait for traffic.
        if estimate.iter().all(|&r| r <= 0.0) {
            return;
        }
        let h = self.uniform_headroom(&self.current, &estimate);
        self.metrics.set_gauge("ctrl.headroom", h);
        match self.drift.observe(h) {
            DriftVerdict::Calm => self.ladder_success(time),
            DriftVerdict::Suppressed => {}
            DriftVerdict::Drift => self.on_drift(time, h, estimate),
        }
    }

    fn on_drift(&mut self, time: f64, h: f64, estimate: Vec<f64>) {
        match self.ladder.level() {
            DegradationLevel::AdviseShed => {
                if h < 1.0 {
                    let keep = h.clamp(0.0, 1.0);
                    self.metrics.set_gauge("ctrl.shed_keep_fraction", keep);
                    self.decisions.push(Decision::ShedAdvised {
                        time,
                        keep_fraction: keep,
                    });
                } else {
                    self.decisions.push(Decision::ReplanSuppressed {
                        time,
                        level: DegradationLevel::AdviseShed,
                    });
                }
            }
            DegradationLevel::HoldLastGood => {
                self.decisions.push(Decision::ReplanSuppressed {
                    time,
                    level: DegradationLevel::HoldLastGood,
                });
                // Infeasibility while holding keeps the pressure on the
                // ladder until shedding is advised.
                if h < 1.0 {
                    self.ladder_fault(time);
                }
            }
            DegradationLevel::FullReplan => self.replan(time, h, estimate, PlanMode::Full),
            DegradationLevel::IncrementalOnly => {
                self.replan(time, h, estimate, PlanMode::IncrementalOnly)
            }
        }
    }

    fn replan(&mut self, time: f64, h: f64, estimate: Vec<f64>, mode: PlanMode) {
        self.metrics.incr("ctrl.replans_triggered");
        self.decisions.push(Decision::ReplanTriggered {
            time,
            headroom: h,
            estimate: estimate.clone(),
            mode,
        });
        let req = PlanRequest {
            rates: estimate.clone(),
            current: self.current.clone(),
            mode,
            now: time,
        };
        let candidate = match self.planner.plan(req) {
            Ok(candidate) => candidate,
            Err(fault) => {
                self.abort_replan(time, fault.to_string());
                self.ladder_fault(time);
                return;
            }
        };
        let gate = self.gate(&candidate, h, &estimate);
        match gate {
            Gate::Reject { reason, fault } => {
                self.abort_replan(time, reason);
                if fault {
                    self.ladder_fault(time);
                } else {
                    self.ladder_success(time);
                }
            }
            Gate::Commit {
                moves,
                predicted_downtime,
                headroom_after,
            } => {
                self.plans_committed += 1;
                self.metrics.incr("ctrl.plans_committed");
                self.decisions.push(Decision::PlanCommitted {
                    time,
                    moves,
                    predicted_downtime,
                    headroom_before: h,
                    headroom_after,
                });
                self.execute(time, &candidate);
            }
        }
    }

    /// Distrust every candidate: structural checks, pinned operators,
    /// feasibility at the estimate, then cost/benefit.
    fn gate(&self, candidate: &Allocation, h: f64, estimate: &[f64]) -> Gate {
        if !candidate.is_complete()
            || candidate.num_operators() != self.model.num_operators()
            || candidate.num_nodes() != self.cluster.num_nodes()
        {
            return Gate::Reject {
                reason: "candidate is malformed (incomplete or wrong shape)".into(),
                fault: true,
            };
        }
        let moves = crate::executor::steps(&self.current, candidate);
        if moves
            .iter()
            .any(|step| self.cfg.migration.pinned.contains(&step.op))
        {
            return Gate::Reject {
                reason: "candidate moves a pinned operator".into(),
                fault: true,
            };
        }
        let ev = PlanEvaluator::new(&self.model, &self.cluster);
        if !ev.is_feasible_at(candidate, estimate) {
            return Gate::Reject {
                reason: "candidate is infeasible at the estimate".into(),
                fault: true,
            };
        }
        if moves.is_empty() {
            return Gate::Reject {
                reason: "candidate equals the current plan".into(),
                fault: false,
            };
        }
        let headroom_after = headroom(&ev, candidate, estimate)
            .expect("telemetry estimates carry one rate per model input")
            .uniform;
        let predicted_downtime = moves.len() as f64 * self.cfg.migration.base_downtime;
        // A rescue (current plan infeasible, candidate feasible) is
        // always worth the downtime; a routine improvement must buy
        // enough headroom and stay under the downtime ceiling.
        let rescue = h < 1.0;
        let routine = headroom_after - h >= self.cfg.min_headroom_gain
            && predicted_downtime <= self.cfg.max_predicted_downtime;
        if rescue || routine {
            Gate::Commit {
                moves: moves.len(),
                predicted_downtime,
                headroom_after,
            }
        } else {
            Gate::Reject {
                reason: format!(
                    "not beneficial: headroom {h:.3} -> {headroom_after:.3} \
                     for {predicted_downtime:.3}s predicted downtime"
                ),
                fault: false,
            }
        }
    }

    fn execute(&mut self, time: f64, target: &Allocation) {
        let report = apply_plan(
            &mut self.current,
            target,
            self.executor.as_mut(),
            &self.cfg.retry,
        );
        for (step, outcome) in &report.outcomes {
            let attempts = match outcome {
                StepOutcome::Applied { attempts } => *attempts,
                StepOutcome::Aborted { attempts, .. } => *attempts,
            };
            for attempt in 1..attempts {
                self.decisions.push(Decision::MigrationRetry {
                    time,
                    op: step.op.index(),
                    dest: step.to.index(),
                    attempt,
                    backoff: self.cfg.retry.backoff(attempt),
                });
            }
            if let StepOutcome::Aborted { attempts, .. } = outcome {
                self.decisions.push(Decision::MigrationAborted {
                    time,
                    op: step.op.index(),
                    from: step.from.index(),
                    to: step.to.index(),
                    attempts: *attempts,
                });
            }
        }
        self.metrics.add("ctrl.migrations_retried", report.retries);
        if report.aborted > 0 {
            self.metrics.add("ctrl.migrations_aborted", report.aborted);
        }
        if report.fully_applied() {
            self.last_good = self.current.clone();
            self.ladder_success(time);
        } else {
            // Partial application is still a complete allocation, but the
            // target was not reached: keep last_good and count a fault.
            self.ladder_fault(time);
        }
    }

    fn abort_replan(&mut self, time: f64, reason: String) {
        self.metrics.incr("ctrl.replans_aborted");
        self.decisions
            .push(Decision::ReplanAborted { time, reason });
    }

    fn ladder_fault(&mut self, time: f64) {
        if let Some(level) = self.ladder.record_fault() {
            self.metrics
                .set_gauge("ctrl.degradation_level", level.gauge());
            self.decisions
                .push(Decision::DegradationChanged { time, level });
        }
    }

    fn ladder_success(&mut self, time: f64) {
        if let Some(level) = self.ladder.record_success() {
            self.metrics
                .set_gauge("ctrl.degradation_level", level.gauge());
            self.decisions
                .push(Decision::DegradationChanged { time, level });
        }
    }
}

/// A convenience constructor: derive the model, plan the initial
/// allocation with ROD, and return the ready loop.
pub fn bootstrap(
    graph: &rod_core::QueryGraph,
    cluster: Cluster,
    cfg: ControlConfig,
) -> Result<ControlLoop, String> {
    let model = LoadModel::derive(graph).map_err(|e| e.to_string())?;
    let initial = rod_core::rod::RodPlanner::new()
        .place(&model, &cluster)
        .map_err(|e| e.to_string())?
        .allocation;
    ControlLoop::new(model, cluster, initial, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::PlanFault;
    use rod_core::examples_paper::figure4_graph;

    fn make_loop() -> ControlLoop {
        let graph = figure4_graph();
        bootstrap(
            &graph,
            Cluster::homogeneous(2, 1.0),
            ControlConfig::default(),
        )
        .unwrap()
    }

    /// Feeds `n` samples at a fixed rate point, starting at `t0`.
    fn feed(loop_: &mut ControlLoop, t0: f64, n: usize, rates: &[f64]) {
        for i in 0..n {
            loop_.observe_sample(t0 + i as f64, &[0.5, 0.5], rates);
        }
    }

    /// `ControlLoop::new` rejects a `plan_budget` no deadline can hold
    /// with an error naming it, and the guard, handed that budget
    /// directly, plans without a panic: with no deadline when the budget
    /// is too large, with no time (a timeout, or a result that was
    /// already in) otherwise.
    fn assert_budget_rejected(budget: f64) {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let initial = rod_core::rod::RodPlanner::new()
            .place(&model, &cluster)
            .unwrap()
            .allocation;
        let cfg = ControlConfig {
            plan_budget: Some(budget),
            ..ControlConfig::default()
        };
        let err = ControlLoop::new(model.clone(), cluster.clone(), initial.clone(), cfg)
            .err()
            .unwrap();
        assert_eq!(
            err,
            format!(
                "plan budget {budget:?} s is not a finite, positive number of seconds below 2^64"
            )
        );
        let guard =
            GuardedPlanner::with_budget(Box::new(RodStrategy::new(model.clone(), cluster)), budget);
        let req = PlanRequest {
            rates: vec![0.05; model.num_inputs()],
            current: initial,
            mode: PlanMode::Full,
            now: 0.0,
        };
        match guard.plan(req) {
            Ok(plan) => assert!(plan.is_complete()),
            Err(PlanFault::Timeout { .. }) if budget.is_nan() || budget <= 0.0 => {}
            Err(fault) => panic!("budget {budget}: {fault}"),
        }
    }

    #[test]
    fn an_infinite_plan_budget_is_rejected() {
        assert_budget_rejected(f64::INFINITY);
    }

    #[test]
    fn a_plan_budget_too_large_for_a_duration_is_rejected() {
        assert_budget_rejected(1e30);
    }

    #[test]
    fn a_nan_plan_budget_is_rejected() {
        assert_budget_rejected(f64::NAN);
    }

    #[test]
    fn a_negative_plan_budget_is_rejected() {
        assert_budget_rejected(-1.0);
    }

    #[test]
    fn a_zero_plan_budget_is_rejected() {
        assert_budget_rejected(0.0);
    }

    #[test]
    fn new_rejects_a_plan_on_a_node_outside_the_cluster() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let mut nodes = vec!["0"; model.num_operators()];
        nodes[1] = "2";
        let json = format!(r#"{{"assignment":[{}],"num_nodes":2}}"#, nodes.join(","));
        let initial: Allocation = serde_json::from_str(&json).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let err = ControlLoop::new(model, cluster, initial, ControlConfig::default())
            .err()
            .unwrap();
        assert_eq!(
            err,
            "initial allocation places operator 1 on node 2, but the cluster has 2 nodes"
        );
    }

    #[test]
    fn calm_traffic_produces_no_decisions() {
        let mut l = make_loop();
        feed(&mut l, 0.0, 10, &[0.01, 0.01]);
        assert!(l.decisions().is_empty(), "{:?}", l.decisions());
        assert_eq!(l.summary().replans_triggered, 0);
    }

    #[test]
    fn rate_surge_triggers_a_replan_and_commits_or_aborts() {
        let mut l = make_loop();
        feed(&mut l, 0.0, 5, &[0.01, 0.01]);
        // Surge close to the boundary.
        feed(&mut l, 100.0, 10, &[0.09, 0.09]);
        let summary = l.summary();
        assert!(summary.replans_triggered >= 1, "{summary:?}");
        assert!(l
            .decisions()
            .iter()
            .any(|d| matches!(d, Decision::ReplanTriggered { .. })));
        // Whatever happened, the loop's plans stay complete.
        assert!(l.current().is_complete());
        assert!(l.last_good().is_complete());
    }

    #[test]
    fn hostile_lines_are_counted_never_fatal() {
        let mut l = make_loop();
        l.observe_line("%%% garbage %%%");
        l.observe_sample(1.0, &[0.5], &[f64::NAN, 0.0]);
        l.observe_sample(1.0, &[0.5], &[-1.0, 0.0]);
        let summary = l.summary();
        assert_eq!(summary.samples_rejected, 3);
        assert_eq!(l.metrics().counter("ctrl.samples_rejected"), 3);
        assert_eq!(
            l.metrics().counter("ctrl.samples_rejected.malformed_line"),
            1
        );
        assert_eq!(
            l.decisions()
                .iter()
                .filter(|d| matches!(d, Decision::SampleRejected { .. }))
                .count(),
            3
        );
    }

    #[test]
    fn invalid_utf8_is_a_counted_rejection() {
        let sample = |time: f64| {
            format!(
                "{{\"UtilSample\":{{\"time\":{time:?},\"utilisations\":[0.5,0.5],\
                 \"queue_depths\":[0,0],\"queued\":0,\"rates\":[0.01,0.01]}}}}\n"
            )
        };
        let mut stream = sample(1.0).into_bytes();
        stream.extend_from_slice(b"\xff\xfe garbage\n");
        stream.extend_from_slice(sample(2.0).as_bytes());
        let mut l = make_loop();
        let s = l.replay_batched(&stream[..], INGEST_BATCH).unwrap();
        assert_eq!((s.lines, s.samples_accepted, s.samples_rejected), (3, 2, 1));
        assert_eq!(l.metrics().counter("ctrl.samples_rejected"), 1);
        assert_eq!(l.metrics().counter("ctrl.samples_rejected.invalid_utf8"), 1);
        assert_eq!(l.metrics().counter("ctrl.ingest_fallback_lines"), 1);
        assert_eq!(
            l.decisions(),
            &[Decision::SampleRejected {
                line: 2,
                reason: RejectReason::InvalidUtf8,
            }]
        );
    }

    #[test]
    fn planner_panics_walk_the_ladder_down() {
        struct Panicker;
        impl PlanStrategy for Panicker {
            fn plan(&mut self, _req: &PlanRequest) -> Result<Allocation, PlanFault> {
                panic!("chaos");
            }
        }
        let mut l = make_loop().with_strategy(Box::new(Panicker));
        let before = l.last_good().clone();
        // Sustained overload (infeasible for any plan on this cluster):
        // every replan panics, faults accumulate, and the ladder descends
        // FullReplan -> ... -> AdviseShed.
        for burst in 0..6 {
            feed(&mut l, burst as f64 * 1000.0, 8, &[0.11, 0.11]);
        }
        let summary = l.summary();
        assert!(summary.replans_aborted >= 2, "{summary:?}");
        assert_eq!(summary.degradation_level, DegradationLevel::AdviseShed);
        assert_eq!(l.last_good(), &before, "last-good survived every panic");
        assert!(l
            .decisions()
            .iter()
            .any(|d| matches!(d, Decision::DegradationChanged { .. })));
    }

    #[test]
    fn infeasible_candidates_never_commit() {
        struct Degenerate;
        impl PlanStrategy for Degenerate {
            fn plan(&mut self, req: &PlanRequest) -> Result<Allocation, PlanFault> {
                // Pile everything onto node 0 — maximally concentrated.
                let mut a = req.current.clone();
                for op in 0..a.num_operators() {
                    a.assign(rod_core::ids::OperatorId(op), rod_core::ids::NodeId(0));
                }
                Ok(a)
            }
        }
        let mut l = make_loop().with_strategy(Box::new(Degenerate));
        feed(&mut l, 0.0, 10, &[0.11, 0.11]);
        assert_eq!(l.summary().plans_committed, 0);
        assert!(!l
            .decisions()
            .iter()
            .any(|d| matches!(d, Decision::PlanCommitted { .. })));
    }

    #[test]
    fn fixed_input_replays_bit_identically() {
        let drive = |seed_unused: u64| {
            let _ = seed_unused;
            let mut l = make_loop();
            feed(&mut l, 0.0, 5, &[0.01, 0.01]);
            l.observe_line("corrupt {{{");
            feed(&mut l, 50.0, 10, &[0.09, 0.09]);
            feed(&mut l, 100.0, 10, &[0.02, 0.02]);
            l.decision_log_jsonl()
        };
        assert_eq!(drive(0), drive(1));
    }

    #[test]
    fn metrics_render_shows_every_ctrl_series() {
        let mut l = make_loop();
        l.observe_line("junk");
        feed(&mut l, 0.0, 5, &[0.01, 0.01]);
        feed(&mut l, 50.0, 10, &[0.09, 0.09]);
        let rendered = l.metrics().snapshot().render();
        for name in [
            "ctrl.samples_rejected",
            "ctrl.replans_triggered",
            "ctrl.degradation_level",
        ] {
            assert!(rendered.contains(name), "missing {name} in:\n{rendered}");
        }
    }
}
