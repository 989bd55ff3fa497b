//! `plan_scale`: rodctl plan's path. Flat and hierarchical ROD place a
//! d=64, m=4,000 sparse graph on 1,000 nodes; ResilientRod places a
//! d=5 × 5-op paper tree on 12 nodes with the pool. The phase-2 scan,
//! incremental evaluation, sparse rows, the QMC kernel and the pool do
//! the work; the simulator and the control loop are absent. Parsing the
//! 690 KB graph JSON dominates `setup_s`.

use std::time::Instant;

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::graph::QueryGraph;
use rod_core::hierarchical::HierarchicalRod;
use rod_core::load_model::LoadModel;
use rod_core::obs::MetricsRegistry;
use rod_core::resilience::{ResilientPlan, ResilientRodOptions, ResilientRodPlanner};
use rod_core::rod::RodPlanner;
use rod_core::PlanEvaluator;
use rod_geom::VolumeEstimator;

use crate::gen::{self, PlanScaleInputs, SPARSE_NODES, TREE_NODES};
use crate::span::Tracer;
use crate::{host, Args, Report};

/// Set-ups timed per run; each parses the 690 KB graph JSON.
const SETUP_REPS: usize = 3;
/// Flat calls per round, each followed by [`HIER_PER_FLAT`]
/// hierarchical calls: the two legs interleave, so both average the
/// host's speed over the same ~2.7 s of every round.
const FLAT_CALLS: usize = 10;
const HIER_PER_FLAT: usize = 3;
const HIER_CALLS: usize = FLAT_CALLS * HIER_PER_FLAT;
/// Consecutive calls per timed stretch, about a second of each planner.
const FLAT_WINDOW: usize = 8;
const HIER_WINDOW: usize = 30;
/// QMC points for the feasible-set ratio of the flat ROD tree plan.
const QMC_SAMPLES: usize = 200_000;
const QMC_SEED: u64 = 2006;

struct Setup {
    sparse: LoadModel,
    sparse_cluster: Cluster,
    tree: LoadModel,
    tree_cluster: Cluster,
    estimator: VolumeEstimator,
}

fn parse(json: &str, t: &mut Tracer) -> LoadModel {
    let graph: QueryGraph = t
        .scoped("json.parse", |_| serde_json::from_str(json))
        .expect("generated graph parses");
    graph.validate().expect("generated graph is valid");
    t.scoped("core.derive", |_| LoadModel::derive(&graph))
        .expect("generated graph derives")
}

/// What `rodctl plan` does before planning: parse and validate both
/// graphs, derive their load models, build the QMC point set.
fn setup(inputs: &PlanScaleInputs, t: &mut Tracer) -> Setup {
    let sparse = parse(&inputs.sparse_json, t);
    let tree = parse(&inputs.tree_json, t);
    let tree_cluster = Cluster::homogeneous(TREE_NODES, 1.0);
    let estimator = t.scoped("core.qmc_points", |_| {
        rod_core::metrics::make_estimator(&tree, &tree_cluster, QMC_SAMPLES, QMC_SEED)
    });
    Setup {
        sparse,
        sparse_cluster: Cluster::homogeneous(SPARSE_NODES, 1.0),
        tree,
        tree_cluster,
        estimator,
    }
}

/// One registry per planner, for the traced round's
/// `place_with_metrics` calls.
#[derive(Default)]
struct Registries {
    flat: MetricsRegistry,
    hier: MetricsRegistry,
    resilient: MetricsRegistry,
}

struct Round {
    flat: Allocation,
    hier: Allocation,
    resilient: ResilientPlan,
    flat_calls: Vec<f64>,
    hier_calls: Vec<f64>,
    resilient_s: f64,
    wall_s: f64,
    /// Every repeated call placed exactly as the first.
    repeatable: bool,
}

/// One timed call of `place` inside a span named `name`.
fn timed<P>(
    name: &'static str,
    t: &mut Tracer,
    place: impl FnOnce() -> Result<P, rod_core::PlacementError>,
) -> Result<(P, f64), String> {
    let start = Instant::now();
    let plan = t.scoped(name, |_| place()).map_err(|e| e.to_string())?;
    Ok((plan, start.elapsed().as_secs_f64()))
}

fn round(s: &Setup, t: &mut Tracer, reg: Option<&Registries>) -> Result<Round, String> {
    let start = Instant::now();
    let (sparse, cluster) = (&s.sparse, &s.sparse_cluster);
    let (mut flat, mut hier) = (None::<Allocation>, None::<Allocation>);
    let mut flat_calls = Vec::with_capacity(FLAT_CALLS);
    let mut hier_calls = Vec::with_capacity(HIER_CALLS);
    let mut repeatable = true;
    for _ in 0..FLAT_CALLS {
        let (plan, secs) = timed("core.rod.place", t, || match reg {
            Some(r) => RodPlanner::new().place_with_metrics(sparse, cluster, &r.flat),
            None => RodPlanner::new().place(sparse, cluster),
        })?;
        flat_calls.push(secs);
        repeatable &= flat.get_or_insert_with(|| plan.allocation.clone()) == &plan.allocation;
        for _ in 0..HIER_PER_FLAT {
            let (plan, secs) = timed("core.hier.place", t, || match reg {
                Some(r) => HierarchicalRod::new().place_with_metrics(sparse, cluster, &r.hier),
                None => HierarchicalRod::new().place(sparse, cluster),
            })?;
            hier_calls.push(secs);
            repeatable &= hier.get_or_insert_with(|| plan.allocation.clone()) == &plan.allocation;
        }
    }
    let (resilient, resilient_s) = timed("core.resilient.place", t, || match reg {
        Some(r) => {
            ResilientRodPlanner::new().place_with_metrics(&s.tree, &s.tree_cluster, &r.resilient)
        }
        None => ResilientRodPlanner::new().place(&s.tree, &s.tree_cluster),
    })?;
    Ok(Round {
        flat: flat.expect("FLAT_CALLS >= 1"),
        hier: hier.expect("HIER_PER_FLAT >= 1"),
        resilient,
        flat_calls,
        hier_calls,
        resilient_s,
        wall_s: start.elapsed().as_secs_f64(),
        repeatable,
    })
}

const CALLS_PER_ROUND: u64 = (FLAT_CALLS + HIER_CALLS + 1) as u64;

fn fingerprint(r: &Round) -> String {
    let p = &r.resilient;
    format!(
        "{}\n{}\n{}\n{} {} {} {} {}",
        serde_json::to_string(&r.flat).expect("plan serialises"),
        serde_json::to_string(&r.hier).expect("plan serialises"),
        serde_json::to_string(&p.allocation).expect("plan serialises"),
        p.worst_alive,
        p.baseline_worst_alive,
        p.healthy_alive,
        p.num_points,
        p.moves,
    )
}

fn check(report: &mut Report, r: &Round) {
    report.check(r.repeatable, || {
        "repeated plan calls placed differently".to_string()
    });
    for (name, plan) in [
        ("flat", &r.flat),
        ("hier", &r.hier),
        ("resilient", &r.resilient.allocation),
    ] {
        report.check(plan.is_complete(), || {
            format!("the {name} plan is incomplete")
        });
    }
}

/// Deterministic plan quality — MMPD, feasible-set ratio, worst
/// survivor ratio — which catches a speed-up that changed a plan.
fn quality(s: &Setup, r: &Round) -> [f64; 3] {
    let ev = PlanEvaluator::new(&s.sparse, &s.sparse_cluster);
    let mmpd = ev
        .min_plane_distance(&r.flat)
        .min(ev.min_plane_distance(&r.hier));
    let tree_rod = RodPlanner::new()
        .place(&s.tree, &s.tree_cluster)
        .expect("ROD plans the tree instance")
        .allocation;
    let tree_ev = PlanEvaluator::new(&s.tree, &s.tree_cluster);
    let ratio = rod_core::metrics::feasible_ratio(&tree_ev, &s.estimator, &tree_rod);
    [mmpd, ratio, r.resilient.worst_survivor_ratio()]
}

fn note_quality(report: &mut Report, [mmpd, ratio, survivors]: [f64; 3]) {
    report.note("min_plane_distance", mmpd);
    report.note("feasible_ratio", ratio);
    report.note("worst_survivor_ratio", survivors);
    report.note("qmc_points", QMC_SAMPLES);
}

pub fn run(args: &Args) -> Report {
    let inputs = gen::plan_scale(args.seed);
    if args.trace {
        return traced(args, &inputs);
    }
    let mut report = Report::default();
    let mut off = Tracer::off();
    let (setups, s) = crate::time_setups(SETUP_REPS, || setup(&inputs, &mut off));

    let mut peak = None;
    let results = crate::repeat(args, || {
        let r = round(&s, &mut off, None);
        peak = peak.or_else(host::peak_rss_mb);
        r
    });
    report.attempted = CALLS_PER_ROUND * results.len() as u64;
    let rounds: Vec<Round> = match results.into_iter().collect() {
        Ok(rounds) => rounds,
        Err(e) => {
            report.failed = 1;
            report.check(false, || format!("planner error: {e}"));
            return report;
        }
    };
    let reference = fingerprint(&rounds[0]);
    for r in &rounds {
        check(&mut report, r);
        report.check(fingerprint(r) == reference, || {
            "a repeated round placed differently".to_string()
        });
    }
    let all = |f: fn(&Round) -> &[f64]| rounds.iter().flat_map(f).copied().collect::<Vec<f64>>();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let resilient: Vec<f64> = rounds.iter().map(|r| r.resilient_s).collect();
    // Each planner's cost per call, from its own fastest stretch.
    let flat_s = crate::fastest(&all(|r| &r.flat_calls), FLAT_WINDOW);
    let hier_s = crate::fastest(&all(|r| &r.hier_calls), HIER_WINDOW);
    let resilient_s = crate::fastest(&resilient, 1);
    let round_s = FLAT_CALLS as f64 * flat_s + HIER_CALLS as f64 * hier_s + resilient_s;
    let quality = quality(&s, &rounds[0]);
    report.set("setup_s", crate::setup_s(&[setups]));
    report.set("peak_rss_mb", peak.unwrap_or(f64::NAN));
    report.set("work_per_s", CALLS_PER_ROUND as f64 / round_s);
    report.set("plan_mmpd", quality[0]);
    report.note("plan_flat_s", flat_s);
    report.note("plan_hier_s", hier_s);
    report.note("plan_resilient_s", resilient_s);
    report.note("round_walls", crate::list(&walls));
    report.note("resilient_calls", crate::list(&resilient));
    report.note("resilient_moves", rounds[0].resilient.moves);
    note_quality(&mut report, quality);
    report
}

fn hist_mean(reg: &MetricsRegistry, name: &str) -> f64 {
    reg.snapshot()
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(f64::NAN, |h| h.mean)
}

fn traced(args: &Args, inputs: &PlanScaleInputs) -> Report {
    let mut report = Report::default();
    let mut off = Tracer::off();
    let s = setup(inputs, &mut off);
    let plain = match round(&s, &mut off, None) {
        Ok(r) => r,
        Err(e) => {
            report.attempted = CALLS_PER_ROUND;
            report.failed = 1;
            report.check(false, || format!("planner error: {e}"));
            return report;
        }
    };
    let plain_quality = quality(&s, &plain);
    drop(s);

    let reg = Registries::default();
    let before = crate::Counters::now();
    let mut t = Tracer::on(format!("{}-seed{}", args.workload, args.seed));
    let wall_start = Instant::now();
    let root = t.enter("run");
    let s = t.scoped("setup", |t| setup(inputs, t));
    let traced = t.scoped("round", |t| round(&s, t, Some(&reg)));
    // The QMC estimate is where the feasibility kernel scores blocks.
    let traced_quality = match &traced {
        Ok(r) => Some(t.scoped("core.quality", |_| quality(&s, r))),
        Err(_) => None,
    };
    let serial = t.scoped("core.resilient.serial", |_| {
        ResilientRodPlanner::with_options(ResilientRodOptions {
            threads: 1,
            ..ResilientRodOptions::default()
        })
        .place(&s.tree, &s.tree_cluster)
    });
    t.exit(root);
    let wall = wall_start.elapsed().as_secs_f64();

    report.attempted = 2 * CALLS_PER_ROUND + 1;
    let (traced, serial) = match (traced, serial) {
        (Ok(r), Ok(p)) => (r, p),
        (r, p) => {
            report.failed = 1;
            report.check(false, || {
                format!(
                    "planner error: {:?} {:?}",
                    r.err(),
                    p.err().map(|e| e.to_string())
                )
            });
            return report;
        }
    };
    check(&mut report, &traced);
    report.check(fingerprint(&plain) == fingerprint(&traced), || {
        "place and place_with_metrics placed differently".to_string()
    });
    let bits = |q: [f64; 3]| q.map(f64::to_bits);
    report.check(
        traced_quality.map(bits) == Some(bits(plain_quality)),
        || "traced and untraced plan quality differ".to_string(),
    );
    report.check(
        serial.allocation == traced.resilient.allocation
            && serial.worst_alive == traced.resilient.worst_alive
            && serial.healthy_alive == traced.resilient.healthy_alive,
        || "pooled and 1-thread ResilientRod placed differently".to_string(),
    );
    crate::trace_summary(&mut report, &t, wall, args, &before);

    let (flat, hier, res) = (&reg.flat, &reg.hier, &reg.resilient);
    let rod_candidates = (flat.counter("rod.candidates_scored") / FLAT_CALLS as u64) as f64;
    let hier_candidates = (hier.counter("hier.candidates_scored") / HIER_CALLS as u64) as f64;
    let hier_s = hist_mean(hier, "hier.level1_seconds") + hist_mean(hier, "hier.level2_seconds");
    let moves = res.counter("resilient_rod.candidate_moves") as f64;
    let hits = res.counter("resilient_rod.score_cache_hits") as f64;
    let misses = res.counter("resilient_rod.score_cache_misses") as f64;
    report.set("json.parse_s", t.total("json.parse"));
    report.set(
        "json.bytes",
        (inputs.sparse_json.len() + inputs.tree_json.len()) as f64,
    );
    report.set("core.derive_s", t.total("core.derive"));
    report.set("core.nnz", (s.sparse.nnz() + s.tree.nnz()) as f64);
    report.set("core.rod.candidates_scored", rod_candidates);
    report.set(
        "core.rod.candidates_per_s",
        rod_candidates / hist_mean(flat, "rod.phase2_seconds"),
    );
    report.set("core.hier.candidates_scored", hier_candidates);
    report.set("core.hier.candidates_per_s", hier_candidates / hier_s);
    report.set("core.resilient.candidate_moves", moves);
    report.set(
        "core.resilient.moves_per_s",
        moves / hist_mean(res, "resilient_rod.hill_climb_seconds"),
    );
    report.set(
        "core.resilient.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    report.set(
        "pool.speedup",
        t.total("core.resilient.serial") / traced.resilient_s,
    );
    report.absent("sim.");
    report.absent("ctrl.");
    report.set("trace.overhead_s", t.total("round") - plain.wall_s);
    for (key, reg, name) in [
        ("core.rod.phase1_s", flat, "rod.phase1_seconds"),
        ("core.rod.phase2_s", flat, "rod.phase2_seconds"),
        ("core.hier.level1_s", hier, "hier.level1_seconds"),
        ("core.hier.level2_s", hier, "hier.level2_seconds"),
        ("core.resilient.qmc_s", res, "resilient_rod.qmc_seconds"),
        (
            "core.resilient.hill_climb_s",
            res,
            "resilient_rod.hill_climb_seconds",
        ),
    ] {
        report.note(key, hist_mean(reg, name));
    }
    report.note("resilient_s", traced.resilient_s);
    report.note("serial_resilient_s", t.total("core.resilient.serial"));
    report.note("resilient_moves", traced.resilient.moves);
    note_quality(&mut report, plain_quality);
    report
}
