//! Guarded replanning.
//!
//! A replan is the control loop's most dangerous act: the planner may be
//! slow (holding the loop past its deadline), may panic, or may return
//! garbage. The guard isolates all three failure modes:
//!
//! * **panics** are caught (`catch_unwind`) and surfaced as
//!   [`PlanFault::Panicked`] — the loop keeps its last-good plan;
//! * **overruns** are bounded by an optional wall-clock budget: the
//!   planner runs on a watchdog thread and a result that misses the
//!   deadline becomes [`PlanFault::Timeout`] (the stray thread finishes
//!   into the void). With `budget: None` the call is inline and
//!   deterministic — the mode every CI replay uses;
//! * **errors** ([`PlanFault::Failed`]) pass through with their message.
//!
//! The guard does *not* validate candidate quality — feasibility and
//! cost/benefit gating happen in the control loop, which distrusts every
//! candidate regardless of origin.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::load_model::LoadModel;
use rod_core::rod::RodPlanner;
use rod_core::PlanEvaluator;

/// How much of the plan space a replan may search.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanMode {
    /// Full ROD placement from scratch.
    Full,
    /// Bounded single-operator moves from the current plan.
    IncrementalOnly,
}

/// One replanning request.
#[derive(Clone, Debug)]
pub struct PlanRequest {
    /// Smoothed input-rate estimate to plan for.
    pub rates: Vec<f64>,
    /// The currently-running allocation.
    pub current: Allocation,
    /// Search breadth allowed by the degradation ladder.
    pub mode: PlanMode,
    /// Telemetry time of the triggering sample (for logs only).
    pub now: f64,
}

/// Why a guarded replan produced no candidate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PlanFault {
    /// The planner missed its wall-clock budget.
    Timeout {
        /// The budget it missed, in seconds.
        budget: f64,
    },
    /// The planner panicked; the payload message when extractable.
    Panicked {
        /// Panic payload rendered to text.
        message: String,
    },
    /// The planner returned an error.
    Failed {
        /// The error rendered to text.
        message: String,
    },
}

impl std::fmt::Display for PlanFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanFault::Timeout { budget } => write!(f, "planner missed its {budget}s budget"),
            PlanFault::Panicked { message } => write!(f, "planner panicked: {message}"),
            PlanFault::Failed { message } => write!(f, "planner failed: {message}"),
        }
    }
}

impl std::error::Error for PlanFault {}

/// A replanning algorithm the guard can drive.
///
/// Implementations may be arbitrarily untrustworthy — the chaos tests
/// install strategies that panic, stall, and emit infeasible plans.
pub trait PlanStrategy: Send {
    /// Produces a candidate allocation for the request.
    fn plan(&mut self, req: &PlanRequest) -> Result<Allocation, PlanFault>;
}

/// The real strategy: full mode runs the ROD planner; incremental mode
/// hill-climbs single-operator moves that reduce the peak utilisation at
/// the estimate, bounded by `max_incremental_moves`.
#[derive(Clone, Debug)]
pub struct RodStrategy {
    model: LoadModel,
    cluster: Cluster,
    /// Cap on relocations per incremental replan (blast-radius bound).
    pub max_incremental_moves: usize,
}

impl RodStrategy {
    /// A strategy planning for this model/cluster pair.
    pub fn new(model: LoadModel, cluster: Cluster) -> RodStrategy {
        RodStrategy {
            model,
            cluster,
            max_incremental_moves: 2,
        }
    }

    fn incremental(&self, req: &PlanRequest) -> Result<Allocation, PlanFault> {
        let ev = PlanEvaluator::new(&self.model, &self.cluster);
        let mut best = req.current.clone();
        let peak = |alloc: &Allocation| -> f64 {
            ev.utilisations_at(alloc, &req.rates)
                .as_slice()
                .iter()
                .fold(0.0f64, |a, &b| a.max(b))
        };
        let mut best_peak = peak(&best);
        for _ in 0..self.max_incremental_moves {
            let mut improved = false;
            let mut round_best = best.clone();
            let mut round_peak = best_peak;
            for op in 0..best.num_operators() {
                let op = rod_core::ids::OperatorId(op);
                let home = best.node_of(op);
                for node in self.cluster.nodes() {
                    if Some(node) == home {
                        continue;
                    }
                    let mut cand = best.clone();
                    cand.assign(op, node);
                    let p = peak(&cand);
                    if p < round_peak - 1e-12 {
                        round_peak = p;
                        round_best = cand;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
            best = round_best;
            best_peak = round_peak;
        }
        Ok(best)
    }
}

impl PlanStrategy for RodStrategy {
    fn plan(&mut self, req: &PlanRequest) -> Result<Allocation, PlanFault> {
        match req.mode {
            PlanMode::Full => RodPlanner::new()
                .place(&self.model, &self.cluster)
                .map(|plan| plan.allocation)
                .map_err(|e| PlanFault::Failed {
                    message: e.to_string(),
                }),
            PlanMode::IncrementalOnly => self.incremental(req),
        }
    }
}

/// The wall-clock limit of a planner budget of `budget` seconds, or an
/// error naming the budget unless it is finite, positive and below the
/// 2⁶⁴ s a [`Duration`] holds.
pub fn budget_limit(budget: f64) -> Result<Duration, String> {
    match Duration::try_from_secs_f64(budget) {
        Ok(limit) if budget > 0.0 => Ok(limit),
        _ => Err(format!(
            "plan budget {budget:?} s is not a finite, positive number of seconds below 2^64"
        )),
    }
}

/// Wraps a strategy with panic isolation and an optional deadline.
pub struct GuardedPlanner {
    strategy: Arc<Mutex<Box<dyn PlanStrategy>>>,
    /// Wall-clock budget in seconds; `None` runs inline (deterministic).
    pub budget: Option<f64>,
}

impl GuardedPlanner {
    /// Guards `strategy` with no deadline (inline, deterministic mode).
    pub fn inline(strategy: Box<dyn PlanStrategy>) -> GuardedPlanner {
        GuardedPlanner {
            strategy: Arc::new(Mutex::new(strategy)),
            budget: None,
        }
    }

    /// Guards `strategy` with a wall-clock deadline in seconds. A budget
    /// that [`budget_limit`] rejects still plans without a panic: a NaN,
    /// zero or negative one allows no time, and one too large for a
    /// [`Duration`] sets no deadline.
    pub fn with_budget(strategy: Box<dyn PlanStrategy>, budget: f64) -> GuardedPlanner {
        GuardedPlanner {
            strategy: Arc::new(Mutex::new(strategy)),
            budget: Some(budget),
        }
    }

    /// Runs one guarded replan. Never panics, never blocks past the
    /// budget (plus scheduler noise).
    pub fn plan(&self, req: PlanRequest) -> Result<Allocation, PlanFault> {
        match self.budget {
            None => run_caught(&self.strategy, &req),
            Some(budget) => {
                let strategy = Arc::clone(&self.strategy);
                let (tx, rx) = mpsc::channel();
                std::thread::spawn(move || {
                    // The receiver may be gone after a timeout; a failed
                    // send only means nobody is listening any more.
                    let _ = tx.send(run_caught(&strategy, &req));
                });
                let limit = budget_limit(budget).unwrap_or(if budget > 0.0 {
                    Duration::MAX
                } else {
                    Duration::ZERO
                });
                match rx.recv_timeout(limit) {
                    Ok(result) => result,
                    Err(_) => Err(PlanFault::Timeout { budget }),
                }
            }
        }
    }
}

/// Locks the strategy (recovering from poisoning — a prior panic already
/// produced its own fault) and runs it under `catch_unwind`.
fn run_caught(
    strategy: &Arc<Mutex<Box<dyn PlanStrategy>>>,
    req: &PlanRequest,
) -> Result<Allocation, PlanFault> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut guard = match strategy.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.plan(req)
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => Err(PlanFault::Panicked {
            message: panic_message(payload),
        }),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rod_core::examples_paper::figure4_graph;
    use rod_core::ids::{NodeId, OperatorId};

    fn setup() -> (LoadModel, Cluster) {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        (model, cluster)
    }

    fn request(model: &LoadModel, cluster: &Cluster, mode: PlanMode) -> PlanRequest {
        // Everything piled on node 0 — plenty of incremental upside.
        let mut current = Allocation::new(model.num_operators(), cluster.num_nodes());
        for op in 0..model.num_operators() {
            current.assign(OperatorId(op), NodeId(0));
        }
        PlanRequest {
            rates: vec![0.05; model.num_inputs()],
            current,
            mode,
            now: 0.0,
        }
    }

    #[test]
    fn full_mode_matches_rod_planner() {
        let (model, cluster) = setup();
        let req = request(&model, &cluster, PlanMode::Full);
        let expected = RodPlanner::new()
            .place(&model, &cluster)
            .unwrap()
            .allocation;
        let guard = GuardedPlanner::inline(Box::new(RodStrategy::new(model, cluster)));
        assert_eq!(guard.plan(req).unwrap(), expected);
    }

    #[test]
    fn incremental_mode_strictly_improves_peak_utilisation() {
        let (model, cluster) = setup();
        let req = request(&model, &cluster, PlanMode::IncrementalOnly);
        let ev = PlanEvaluator::new(&model, &cluster);
        let before = ev
            .utilisations_at(&req.current, &req.rates)
            .as_slice()
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        let strategy = RodStrategy::new(model.clone(), cluster.clone());
        let moves_cap = strategy.max_incremental_moves;
        let guard = GuardedPlanner::inline(Box::new(strategy));
        let out = guard.plan(req.clone()).unwrap();
        let after = ev
            .utilisations_at(&out, &req.rates)
            .as_slice()
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        assert!(after < before, "peak {after} !< {before}");
        assert!(out.is_complete());
        // One relocation per hill-climb round, so the blast radius is
        // bounded by the move cap.
        assert!(req.current.diff(&out).len() <= moves_cap);
    }

    struct Panicker;
    impl PlanStrategy for Panicker {
        fn plan(&mut self, _req: &PlanRequest) -> Result<Allocation, PlanFault> {
            panic!("synthetic planner explosion");
        }
    }

    #[test]
    fn panics_become_faults_and_the_guard_survives_reuse() {
        let (model, cluster) = setup();
        let req = request(&model, &cluster, PlanMode::Full);
        let guard = GuardedPlanner::inline(Box::new(Panicker));
        for _ in 0..2 {
            match guard.plan(req.clone()) {
                Err(PlanFault::Panicked { message }) => {
                    assert!(message.contains("synthetic"), "{message}")
                }
                other => panic!("expected panic fault, got {other:?}"),
            }
        }
    }

    struct Staller;
    impl PlanStrategy for Staller {
        fn plan(&mut self, _req: &PlanRequest) -> Result<Allocation, PlanFault> {
            std::thread::sleep(Duration::from_secs(5));
            Err(PlanFault::Failed {
                message: "too late anyway".into(),
            })
        }
    }

    #[test]
    fn overruns_become_timeouts() {
        let (model, cluster) = setup();
        let req = request(&model, &cluster, PlanMode::Full);
        let guard = GuardedPlanner::with_budget(Box::new(Staller), 0.05);
        match guard.plan(req) {
            Err(PlanFault::Timeout { budget }) => assert!((budget - 0.05).abs() < 1e-9),
            other => panic!("expected timeout, got {other:?}"),
        }
    }
}
