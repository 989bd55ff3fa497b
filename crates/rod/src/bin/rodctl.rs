//! `rodctl` — command-line front end for the ROD library.
//!
//! ```text
//! rodctl generate --kind tree --inputs 3 --ops-per-tree 12 --seed 7 > graph.json
//! rodctl plan     --graph graph.json --nodes 4 [--algorithm rod|llf|connected|correlation|random] > plan.json
//! rodctl evaluate --graph graph.json --plan plan.json --nodes 4 [--samples 20000]
//! rodctl simulate --graph graph.json --plan plan.json --nodes 4 --rates 100,80,60 --horizon 30
//! rodctl trace    --kind pkt --bins-log2 10 --mean 200 --out trace.csv
//! ```
//!
//! Graphs and plans travel as JSON (the library types' serde form), so
//! the pieces compose with shell pipelines and other tooling.

use std::fs;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use rod::core::baselines::{build_planner, PlannerSpec};
use rod::core::metrics::{make_estimator, report};
use rod::prelude::*;
use rod::workloads::financial::{compliance_rules, FinancialConfig};
use rod::workloads::joins::{join_pairs, JoinConfig};
use rod::workloads::traffic::{traffic_monitoring, TrafficConfig};

/// Flags that take no value (presence alone switches them on).
const BOOL_FLAGS: &[&str] = &["timings"];

/// Parsed command-line flags: `--name value` pairs after the subcommand.
#[derive(Debug, Default)]
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{flag}'"))?;
            if BOOL_FLAGS.contains(&name) {
                pairs.push((name.to_string(), "true".to_string()));
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// All values of a repeatable flag, in command-line order.
    fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value '{v}'")),
        }
    }
}

fn usage() -> String {
    "usage: rodctl <generate|plan|evaluate|explain|headroom|compare|simulate|trace|daemon>\n\
     \u{20}      [--flag value]... (a flag the subcommand does not read is an error)\n\
     \n\
     generate --kind tree|traffic|financial|joins [--inputs N] [--ops-per-tree N] [--seed N]\n\
     plan     --graph FILE --nodes N [--capacity C]\n\
     \u{20}        [--algorithm rod|hier|resilient|llf|connected|correlation|random|optimal]\n\
     \u{20}        [--rates r1,r2,...] [--seed N] [--out FILE] [--timings]\n\
     \u{20}        [--threads N] — pool size: QMC points, ResilientRod's scan\n\
     \u{20}        (same plan at every N; the optimal search is serial)\n\
     \u{20}        (resilient, optimal: [--samples N]; optimal: [--max-plans N])\n\
     \u{20}        (hier only: [--racks \"0,1;2,3\"] — node groups, ';'-separated)\n\
     evaluate --graph FILE --plan FILE --nodes N [--capacity C] [--samples N]\n\
     explain  --graph FILE --plan FILE --nodes N [--capacity C]\n\
     headroom --graph FILE --plan FILE --nodes N [--capacity C] --rates r1,r2,...\n\
     compare  --graph FILE --nodes N [--capacity C] [--samples N] [--seed N]\n\
     simulate --graph FILE --plan FILE --nodes N [--capacity C] [--horizon S] [--seed N]\n\
     \u{20}        (--rates r1,r2,... | --traces a.csv,b.csv,...)\n\
     \u{20}        [--outage NODE:START:END]... [--failover DETECTION_DELAY]\n\
     \u{20}        [--scheduling fifo|rr|lqf] [--op-queue-bound N]\n\
     \u{20}        [--batch N] [--batch-bucket S] — ≤N tuples per batch\n\
     \u{20}        coalesced within S-second buckets (production volumes;\n\
     \u{20}        identical counts, latency quantiles to within the bucket\n\
     \u{20}        width; --batch 1 is the default exact mode)\n\
     \u{20}        [--trace-out FILE] [--metrics-interval T] [--threads N]\n\
     \u{20}        (--fault-tolerance is an alias for --failover)\n\
     trace    --kind pkt|tcp|http|poisson [--bins-log2 N] [--mean R] [--seed N] [--out FILE]\n\
     daemon   --graph FILE --nodes N --trace-in FILE [--capacity C]\n\
     \u{20}        [--plan FILE] [--plan-out FILE] [--log-out FILE] [--budget SECONDS]"
        .to_string()
}

fn parse_rates(spec: &str, expected: usize) -> Result<Vec<f64>, String> {
    let rates: Result<Vec<f64>, _> = spec.split(',').map(str::parse).collect();
    let rates = rates.map_err(|_| format!("--rates: bad list '{spec}'"))?;
    if rates.len() != expected {
        return Err(format!(
            "--rates: expected {expected} values, got {}",
            rates.len()
        ));
    }
    for &rate in &rates {
        if !rate.is_finite() {
            return Err(format!("--rates: rate {rate} is not finite"));
        }
        if rate < 0.0 {
            return Err(format!("--rates: rate {rate} is negative"));
        }
    }
    Ok(rates)
}

fn load_graph(flags: &Flags) -> Result<rod::core::QueryGraph, String> {
    let path = flags.require("graph")?;
    let json = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let graph: rod::core::QueryGraph =
        serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))?;
    // Deserialized graphs bypass the builder's correct-by-construction
    // guarantees — validate structure before trusting them.
    graph.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(graph)
}

fn load_cluster(flags: &Flags) -> Result<Cluster, String> {
    let nodes: usize = flags
        .require("nodes")?
        .parse()
        .map_err(|_| "--nodes: bad value".to_string())?;
    let capacity: f64 = flags.parse_num("capacity", 1.0)?;
    let cluster = Cluster::homogeneous(nodes, capacity);
    // Every subcommand goes through here, so no planner, evaluator or
    // simulator ever sees a cluster without nodes or with a zero,
    // negative, NaN or infinite capacity.
    cluster
        .validate()
        .map_err(|e| format!("--nodes {nodes} --capacity {capacity}: {e}"))?;
    Ok(cluster)
}

fn load_plan(flags: &Flags) -> Result<Allocation, String> {
    let path = flags.require("plan")?;
    let json = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))
}

/// Rejects a plan that does not fit: one made for a graph with a
/// different operator count, one that places an operator on a node the
/// cluster does not have, or, when `complete`, one that leaves an
/// operator unplaced.
fn check_plan_fits(
    graph: &rod::core::QueryGraph,
    plan: &Allocation,
    cluster: &Cluster,
    complete: bool,
) -> Result<(), String> {
    if plan.num_operators() != graph.num_operators() {
        return Err(format!(
            "plan places {} operators but the graph has {} (is it a plan for another graph?)",
            plan.num_operators(),
            graph.num_operators()
        ));
    }
    for j in 0..plan.num_operators() {
        match plan.node_of(OperatorId(j)) {
            None if complete => return Err(format!("plan leaves operator {j} unplaced")),
            Some(node) if node.index() >= cluster.num_nodes() => {
                return Err(format!(
                    "plan places operator {j} on node {}, but --nodes gives {} nodes",
                    node.index(),
                    cluster.num_nodes()
                ))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Loads `--plan` for `evaluate`, `explain` and `headroom`. An
/// incomplete plan is fine, but the evaluator sizes its node loads by
/// the plan's node count, so that count must be `--nodes`.
fn load_plan_to_evaluate(
    flags: &Flags,
    graph: &rod::core::QueryGraph,
    cluster: &Cluster,
) -> Result<Allocation, String> {
    let plan = load_plan(flags)?;
    if plan.num_nodes() != cluster.num_nodes() {
        return Err(format!(
            "plan is for {} nodes but --nodes gives {}",
            plan.num_nodes(),
            cluster.num_nodes()
        ));
    }
    check_plan_fits(graph, &plan, cluster, false)?;
    Ok(plan)
}

fn cmd_generate(flags: &Flags) -> Result<String, String> {
    let seed: u64 = flags.parse_num("seed", 0)?;
    let inputs: usize = flags.parse_num("inputs", 3)?;
    let graph = match flags.get_or("kind", "tree") {
        "tree" => {
            let ops: usize = flags.parse_num("ops-per-tree", 12)?;
            RandomTreeGenerator::paper_default(inputs, ops).generate(seed)
        }
        "traffic" => traffic_monitoring(&TrafficConfig {
            links: inputs,
            ..TrafficConfig::default()
        }),
        "financial" => compliance_rules(
            &FinancialConfig {
                feeds: inputs,
                ..FinancialConfig::default()
            },
            seed,
        ),
        "joins" => join_pairs(
            &JoinConfig {
                pairs: inputs.div_ceil(2),
                ..JoinConfig::default()
            },
            seed,
        ),
        other => return Err(format!("--kind: unknown workload '{other}'")),
    };
    serde_json::to_string_pretty(&graph).map_err(|e| e.to_string())
}

/// Parses `--threads`: a positive worker count for the persistent
/// planning pool. Absent means 0 ("auto": `ROD_THREADS` or hardware
/// parallelism). Degenerate values get specific errors; oversized
/// values are legal — the planners clamp to the available work, and
/// results are identical at every thread count.
fn parse_threads(flags: &Flags) -> Result<usize, String> {
    let Some(v) = flags.get("threads") else {
        return Ok(0);
    };
    let n: usize = v
        .parse()
        .map_err(|_| format!("--threads: bad value '{v}' (expected a positive integer)"))?;
    if n == 0 {
        return Err(
            "--threads: must be at least 1 (a pool with zero workers can never run)".into(),
        );
    }
    Ok(n)
}

/// Parses `--samples`: how many QMC points a feasible-set ratio is
/// estimated from (default 20,000). A ratio over zero points is 0/0, so
/// zero gets a specific error.
fn parse_samples(flags: &Flags) -> Result<usize, String> {
    let n: usize = flags.parse_num("samples", 20_000)?;
    if n == 0 {
        return Err("--samples: must be at least 1 (a ratio over zero points is undefined)".into());
    }
    Ok(n)
}

/// Parses `--racks "0,1;2,3"` into rack member lists for the
/// hierarchical planner. Each `;`-separated group is one rack's
/// comma-separated node indices.
///
/// Rejects with a specific message: an empty rack (nothing between two
/// `;`), a non-numeric index, and an index outside the `nodes`-node
/// cluster. Coverage/duplicate violations across racks are reported by
/// [`Topology::validate`](rod::core::cluster::Topology::validate) when
/// the planner runs.
fn parse_racks(spec: &str, nodes: usize) -> Result<Vec<Vec<usize>>, String> {
    let mut racks = Vec::new();
    for (r, group) in spec.split(';').enumerate() {
        if group.trim().is_empty() {
            return Err(format!("--racks: rack {r} is empty in '{spec}'"));
        }
        let mut members = Vec::new();
        for field in group.split(',') {
            let node: usize = field
                .trim()
                .parse()
                .map_err(|_| format!("--racks: bad node index '{field}' in '{spec}'"))?;
            if node >= nodes {
                return Err(format!(
                    "--racks: unknown node {node} in '{spec}' (cluster has {nodes} nodes)"
                ));
            }
            members.push(node);
        }
        racks.push(members);
    }
    Ok(racks)
}

fn cmd_plan(flags: &Flags) -> Result<String, String> {
    let graph = load_graph(flags)?;
    let cluster = load_cluster(flags)?;
    let model = LoadModel::derive(&graph).map_err(|e| e.to_string())?;
    let seed: u64 = flags.parse_num("seed", 0)?;
    let rates = match flags.get("rates") {
        Some(spec) => parse_rates(spec, graph.num_inputs())?,
        None => vec![1.0; graph.num_inputs()],
    };
    let samples = parse_samples(flags)?;
    let max_plans: u64 = flags.parse_num("max-plans", 5_000_000)?;
    let threads = parse_threads(flags)?;
    if threads > 0 {
        // First sizing wins for the process; ResilientRod additionally
        // receives the count through its spec, so even when the pool
        // was already sized differently its scan width is honoured.
        rod_pool::configure_global(threads);
    }
    let racks = match flags.get("racks") {
        Some(spec) => parse_racks(spec, cluster.num_nodes())?,
        None => Vec::new(),
    };
    let spec = PlannerSpec::from_cli(
        flags.get_or("algorithm", "rod"),
        &rates,
        seed,
        samples,
        max_plans,
        threads,
        &racks,
    )?;
    let planner = build_planner(&spec);
    // --timings routes through plan_with_metrics and prints the phase
    // table on stderr, keeping stdout pipeline-clean (plan JSON only).
    let allocation = if flags.has("timings") {
        let metrics = rod::core::MetricsRegistry::new();
        let allocation = planner
            .plan_with_metrics(&model, &cluster, &metrics)
            .map_err(|e| e.to_string())?;
        eprint!("{}", metrics.snapshot().render());
        allocation
    } else {
        planner.plan(&model, &cluster).map_err(|e| e.to_string())?
    };
    let json = serde_json::to_string_pretty(&allocation).map_err(|e| e.to_string())?;
    if let Some(path) = flags.get("out") {
        fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
        Ok(format!("plan written to {path}"))
    } else {
        Ok(json)
    }
}

fn cmd_evaluate(flags: &Flags) -> Result<String, String> {
    let samples = parse_samples(flags)?;
    let graph = load_graph(flags)?;
    let cluster = load_cluster(flags)?;
    let plan = load_plan_to_evaluate(flags, &graph, &cluster)?;
    let model = LoadModel::derive(&graph).map_err(|e| e.to_string())?;
    let ev = PlanEvaluator::new(&model, &cluster);
    let estimator = make_estimator(&model, &cluster, samples, 1);
    let rep = report("plan", &ev, &estimator, &plan);
    let mut out = String::new();
    out.push_str(&format!(
        "operators: {}   rate variables: {}   nodes: {}\n",
        model.num_operators(),
        model.num_vars(),
        cluster.num_nodes()
    ));
    out.push_str(&format!(
        "feasible-set ratio (vs ideal): {:.4}\n",
        rep.feasible_ratio
    ));
    out.push_str(&format!(
        "min plane distance: {:.4}\n",
        rep.min_plane_distance
    ));
    out.push_str(&format!(
        "min axis distances: {:?}\n",
        rep.min_axis_distances
            .iter()
            .map(|d| format!("{d:.3}"))
            .collect::<Vec<_>>()
    ));
    out.push_str(&format!("max weight: {:.4}\n", rep.max_weight));
    out.push_str(&format!("inter-node arcs: {}\n", rep.internode_arcs));
    out.push_str(&format!("operators per node: {:?}", rep.node_counts));
    Ok(out)
}

fn cmd_explain(flags: &Flags) -> Result<String, String> {
    let graph = load_graph(flags)?;
    let cluster = load_cluster(flags)?;
    let plan = load_plan_to_evaluate(flags, &graph, &cluster)?;
    let model = LoadModel::derive(&graph).map_err(|e| e.to_string())?;
    let ev = PlanEvaluator::new(&model, &cluster);
    Ok(rod::core::explain::explain_plan(&ev, &plan))
}

fn cmd_trace(flags: &Flags) -> Result<String, String> {
    use rod::traces::PaperTrace;
    let bins_log2: u32 = flags.parse_num("bins-log2", 10)?;
    let mean: f64 = flags.parse_num("mean", 1.0)?;
    let seed: u64 = flags.parse_num("seed", 0)?;
    let trace = match flags.get_or("kind", "pkt") {
        "pkt" => PaperTrace::Pkt.generate(bins_log2, seed).with_mean(mean),
        "tcp" => PaperTrace::Tcp.generate(bins_log2, seed).with_mean(mean),
        "http" => PaperTrace::Http.generate(bins_log2, seed).with_mean(mean),
        "poisson" => rod::traces::poisson::PoissonTrace {
            rate: mean,
            bins: 1 << bins_log2,
            dt: 1.0,
        }
        .generate(seed),
        other => return Err(format!("--kind: unknown trace '{other}'")),
    };
    let csv = rod::traces::to_csv(&trace);
    if let Some(path) = flags.get("out") {
        fs::write(path, &csv).map_err(|e| format!("write {path}: {e}"))?;
        Ok(format!(
            "{} bins written to {path} (mean {:.2}, cov {:.3})",
            trace.len(),
            trace.mean(),
            trace.summary().coeff_of_variation()
        ))
    } else {
        Ok(csv)
    }
}

fn cmd_compare(flags: &Flags) -> Result<String, String> {
    use rod::core::metrics::feasible_ratio;
    let samples = parse_samples(flags)?;
    let graph = load_graph(flags)?;
    let cluster = load_cluster(flags)?;
    let model = LoadModel::derive(&graph).map_err(|e| e.to_string())?;
    let seed: u64 = flags.parse_num("seed", 0)?;
    let ev = PlanEvaluator::new(&model, &cluster);
    let estimator = make_estimator(&model, &cluster, samples, seed);
    let rates = vec![1.0; graph.num_inputs()];
    let specs = [
        PlannerSpec::Rod,
        PlannerSpec::correlation_from_rates(&rates),
        PlannerSpec::Llf {
            rates: rates.clone(),
        },
        PlannerSpec::Random { seed },
        PlannerSpec::Connected { rates },
    ];
    let mut plans: Vec<(&str, Allocation)> = Vec::with_capacity(specs.len());
    for spec in &specs {
        let alloc = build_planner(spec)
            .plan(&model, &cluster)
            .map_err(|e| e.to_string())?;
        plans.push((spec.name(), alloc));
    }
    let mut out = format!(
        "{:>12}  {:>12}  {:>15}\n",
        "algorithm", "ratio/ideal", "min plane dist"
    );
    for (name, alloc) in &plans {
        out.push_str(&format!(
            "{:>12}  {:>12.4}  {:>15.4}\n",
            name,
            feasible_ratio(&ev, &estimator, alloc),
            ev.min_plane_distance(alloc)
        ));
    }
    Ok(out.trim_end().to_string())
}

fn cmd_headroom(flags: &Flags) -> Result<String, String> {
    let graph = load_graph(flags)?;
    let cluster = load_cluster(flags)?;
    let plan = load_plan_to_evaluate(flags, &graph, &cluster)?;
    let model = LoadModel::derive(&graph).map_err(|e| e.to_string())?;
    let rates = parse_rates(flags.require("rates")?, graph.num_inputs())?;
    let ev = PlanEvaluator::new(&model, &cluster);
    let report = rod::core::headroom::headroom(&ev, &plan, &rates).map_err(|e| e.to_string())?;
    let mut out = format!("headroom at rates {rates:?}:\n");
    for (k, m) in report.per_stream.iter().enumerate() {
        out.push_str(&format!("  stream {k} alone can grow to {m:.2}x\n"));
    }
    out.push_str(&format!(
        "  the whole mix can grow to {:.2}x (node {} saturates first)",
        report.uniform, report.binding_node
    ));
    Ok(out)
}

/// Parses one `--outage NODE:START:END` spec (e.g. `1:5.0:12.5`).
///
/// Rejects the spec shapes that used to slip through to a panic or a
/// confusing downstream error: empty fields, an out-of-range node index
/// (larger than `usize`), non-finite or negative times, and zero/negative
/// span (`START >= END`). Duplicate or overlapping outages on one node
/// are caught later by [`SimulationConfig::validate`], which sees the
/// whole list.
fn parse_outage(spec: &str) -> Result<Outage, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [node, start, end] = parts.as_slice() else {
        return Err(format!("--outage: expected NODE:START:END, got '{spec}'"));
    };
    for (what, field) in [("node", node), ("start time", start), ("end time", end)] {
        if field.is_empty() {
            return Err(format!("--outage: empty {what} in '{spec}'"));
        }
    }
    let node: usize = node
        .parse()
        .map_err(|_| format!("--outage: bad node '{node}' in '{spec}'"))?;
    let start: f64 = start
        .parse()
        .map_err(|_| format!("--outage: bad start time '{start}' in '{spec}'"))?;
    let end: f64 = end
        .parse()
        .map_err(|_| format!("--outage: bad end time '{end}' in '{spec}'"))?;
    if !start.is_finite() || !end.is_finite() || start < 0.0 {
        return Err(format!(
            "--outage: times must be finite and non-negative in '{spec}'"
        ));
    }
    if start >= end {
        return Err(format!(
            "--outage: '{spec}' needs positive length (start < end)"
        ));
    }
    Ok(Outage {
        node: NodeId(node),
        start,
        end,
    })
}

fn parse_scheduling(name: &str) -> Result<SchedulingPolicy, String> {
    match name {
        "fifo" => Ok(SchedulingPolicy::Fifo),
        "rr" => Ok(SchedulingPolicy::RoundRobin),
        "lqf" => Ok(SchedulingPolicy::LongestQueueFirst),
        other => Err(format!(
            "--scheduling: unknown policy '{other}' (expected fifo|rr|lqf)"
        )),
    }
}

fn cmd_simulate(flags: &Flags) -> Result<String, String> {
    let graph = load_graph(flags)?;
    let cluster = load_cluster(flags)?;
    let plan = load_plan(flags)?;
    check_plan_fits(&graph, &plan, &cluster, true)?;
    let threads = parse_threads(flags)?;
    if threads > 0 {
        // Sizes the planning pool used by failover-table precomputation
        // and any volume estimation the run performs.
        rod_pool::configure_global(threads);
    }
    let horizon: f64 = flags.parse_num("horizon", 30.0)?;
    let seed: u64 = flags.parse_num("seed", 0)?;
    let scheduling = parse_scheduling(flags.get_or("scheduling", "fifo"))?;
    let outages: Vec<Outage> = flags
        .get_all("outage")
        .into_iter()
        .map(parse_outage)
        .collect::<Result<_, _>>()?;
    // --failover (alias --fault-tolerance) takes the detection delay in
    // seconds and precomputes the MMPD backup table from the loaded plan.
    let failover = match (flags.get("failover"), flags.get("fault-tolerance")) {
        (None, None) => None,
        (Some(v), _) | (None, Some(v)) => {
            let delay: f64 = v
                .parse()
                .map_err(|_| format!("--failover: bad detection delay '{v}'"))?;
            if cluster.num_nodes() < 2 {
                return Err("--failover needs at least 2 nodes to back each other up".into());
            }
            let model = LoadModel::derive(&graph).map_err(|e| e.to_string())?;
            let table = FailoverTable::precompute(&model, &cluster, &plan);
            Some(FailoverConfig::new(table, delay))
        }
    };
    let op_queue_bound = match flags.get("op-queue-bound") {
        None => None,
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| format!("--op-queue-bound: bad value '{v}'"))?,
        ),
    };
    // --batch / --batch-bucket coalesce tuples into batches (without
    // them the run is exact); either flag alone fills the other from
    // BatchConfig's default.
    let batch = match (flags.get("batch"), flags.get("batch-bucket")) {
        (None, None) => None,
        (max_batch, bucket) => {
            let mut bc = BatchConfig::default();
            if let Some(v) = max_batch {
                bc.max_batch = v
                    .parse::<usize>()
                    .map_err(|_| format!("--batch: bad value '{v}'"))?;
            }
            if let Some(v) = bucket {
                bc.bucket = v
                    .parse::<f64>()
                    .map_err(|_| format!("--batch-bucket: bad value '{v}'"))?;
            }
            Some(bc)
        }
    };
    let (sources, description) = match (flags.get("rates"), flags.get("traces")) {
        (Some(spec), None) => {
            let rates = parse_rates(spec, graph.num_inputs())?;
            let sources = rates.iter().map(|&r| SourceSpec::ConstantRate(r)).collect();
            (sources, format!("rates {rates:?}"))
        }
        (None, Some(paths)) => {
            let paths: Vec<&str> = paths.split(',').collect();
            if paths.len() != graph.num_inputs() {
                return Err(format!(
                    "--traces: expected {} files, got {}",
                    graph.num_inputs(),
                    paths.len()
                ));
            }
            let mut sources = Vec::new();
            for path in &paths {
                let trace = rod::traces::read_csv_file(path).map_err(|e| format!("{path}: {e}"))?;
                sources.push(SourceSpec::TraceDriven(trace));
            }
            (sources, format!("traces {paths:?}"))
        }
        _ => return Err("simulate needs exactly one of --rates or --traces".into()),
    };
    let trace_out = flags.get("trace-out");
    // --metrics-interval controls the utilisation/queue-depth sampling
    // tick; giving --trace-out without it defaults to one sample per
    // simulated second so traces carry a timeseries out of the box.
    let sample_interval = match flags.get("metrics-interval") {
        Some(v) => {
            let t: f64 = v
                .parse()
                .map_err(|_| format!("--metrics-interval: bad value '{v}'"))?;
            if !t.is_finite() || t <= 0.0 {
                return Err(format!("--metrics-interval: '{v}' must be > 0"));
            }
            Some(t)
        }
        None => trace_out.map(|_| 1.0),
    };
    let config = SimulationConfig {
        horizon,
        warmup: horizon * 0.15,
        seed,
        scheduling,
        outages,
        failover,
        op_queue_bound,
        sample_interval,
        batch,
        ..SimulationConfig::default()
    };
    // Validate before constructing (horizon, warm-up, outages, failover,
    // sampling, batch): Simulation::new enforces this with a panic; the
    // CLI turns it into a real error message instead.
    config.validate(cluster.num_nodes())?;
    rod::sim::check_expected_arrivals(&sources, horizon)?;
    let had_outages = !config.outages.is_empty();
    let sim = Simulation::new(&graph, &plan, &cluster, sources, config);
    let mut out = String::new();
    let report = match trace_out {
        Some(path) => {
            let mut sink =
                rod::sim::JsonlSink::create(path).map_err(|e| format!("create {path}: {e}"))?;
            let report = sim.run_with_sink(&mut sink);
            let records = sink.records_written();
            sink.into_inner(); // flush
            out.push_str(&format!("trace: {records} records written to {path}\n"));
            report
        }
        None => sim.run(),
    };
    out.push_str(&format!("simulated {horizon} s with {description}\n"));
    out.push_str(&format!(
        "node utilisations: {:?}\n",
        report
            .utilisations
            .iter()
            .map(|u| format!("{u:.3}"))
            .collect::<Vec<_>>()
    ));
    out.push_str(&format!(
        "tuples: in {}, out {}, processed {}\n",
        report.tuples_in, report.tuples_out, report.tuples_processed
    ));
    // All-shed runs (e.g. --op-queue-bound 0) have no latency samples at
    // all; both branches must stay None-safe rather than unwrap.
    match (report.mean_latency(), report.p99_latency()) {
        (Some(mean), Some(p99)) => out.push_str(&format!(
            "latency: mean {:.2} ms, p99 {:.2} ms\n",
            mean * 1e3,
            p99 * 1e3
        )),
        _ => out.push_str("latency: no sink tuples observed\n"),
    }
    if had_outages {
        out.push_str(&format!(
            "failovers: {}   tuples shed: {} ({} during recovery)\n",
            report.failovers, report.tuples_shed, report.tuples_shed_in_recovery
        ));
        for rec in &report.recoveries {
            out.push_str(&format!(
                "recovery: node {} failed at {:.2} s, detected at {:.2} s, \
                 {} operator(s) re-homed by {:.2} s (latency {:.2} s)\n",
                rec.node,
                rec.outage_start,
                rec.detected_at,
                rec.operators_moved,
                rec.recovered_at,
                rec.recovery_latency()
            ));
        }
        if let Some(u) = report.post_failure_max_utilisation {
            out.push_str(&format!("post-failure max utilisation: {u:.3}\n"));
        }
    }
    out.push_str(&format!(
        "feasible (util < 97%): {}",
        report.is_feasible(0.97)
    ));
    Ok(out)
}

fn cmd_daemon(flags: &Flags) -> Result<String, String> {
    let graph = load_graph(flags)?;
    let cluster = load_cluster(flags)?;

    let mut cfg = rod::ctrl::ControlConfig::default();
    if flags.has("budget") {
        cfg.plan_budget = Some(flags.parse_num("budget", 0.0)?);
    }

    let mut loop_ = if flags.has("plan") {
        let initial = load_plan(flags)?;
        let model = LoadModel::derive(&graph).map_err(|e| e.to_string())?;
        rod::ctrl::ControlLoop::new(model, cluster, initial, cfg)?
    } else {
        rod::ctrl::bootstrap(&graph, cluster, cfg)?
    };

    let trace_path = flags.require("trace-in")?;
    let file = fs::File::open(trace_path).map_err(|e| format!("open {trace_path}: {e}"))?;
    let summary = loop_
        .replay_batched(file, rod::ctrl::INGEST_BATCH)
        .map_err(|e| format!("read {trace_path}: {e}"))?;

    if let Some(out) = flags.get("plan-out") {
        let json =
            serde_json::to_string(loop_.current()).map_err(|e| format!("serialise plan: {e}"))?;
        fs::write(out, json).map_err(|e| format!("write {out}: {e}"))?;
    }
    if let Some(out) = flags.get("log-out") {
        fs::write(out, loop_.decision_log_jsonl()).map_err(|e| format!("write {out}: {e}"))?;
    }

    let mut out = serde_json::to_string(&summary).map_err(|e| format!("serialise summary: {e}"))?;
    out.push('\n');
    out.push_str(&loop_.metrics().snapshot().render());
    Ok(out)
}

/// A subcommand's entry point.
type Command = fn(&Flags) -> Result<String, String>;

/// Every subcommand with the flags it reads, space-separated. [`run`]
/// rejects any other flag before the subcommand starts, so a misspelt
/// flag is never ignored and never leaves a half-written file behind.
const COMMANDS: &[(&str, Command, &str)] = &[
    ("generate", cmd_generate, "kind inputs ops-per-tree seed"),
    (
        "plan",
        cmd_plan,
        "graph nodes capacity algorithm rates seed samples max-plans threads racks timings out",
    ),
    (
        "evaluate",
        cmd_evaluate,
        "graph plan nodes capacity samples",
    ),
    ("explain", cmd_explain, "graph plan nodes capacity"),
    ("headroom", cmd_headroom, "graph plan nodes capacity rates"),
    ("compare", cmd_compare, "graph nodes capacity samples seed"),
    (
        "simulate",
        cmd_simulate,
        "graph plan nodes capacity horizon seed rates traces outage failover fault-tolerance \
         scheduling op-queue-bound batch batch-bucket trace-out metrics-interval threads",
    ),
    ("trace", cmd_trace, "kind bins-log2 mean seed out"),
    (
        "daemon",
        cmd_daemon,
        "graph nodes capacity plan trace-in plan-out log-out budget",
    ),
];

fn run(args: &[String]) -> Result<String, String> {
    let command = args.first().ok_or_else(usage)?;
    let flags = Flags::parse(&args[1..])?;
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let Some(&(name, cmd, known)) = COMMANDS.iter().find(|(name, _, _)| name == command) else {
        return Err(format!("unknown command '{command}'\n{}", usage()));
    };
    if let Some((flag, _)) = flags
        .pairs
        .iter()
        .find(|(flag, _)| !known.split_whitespace().any(|k| k == flag))
    {
        return Err(format!("unknown flag --{flag} for rodctl {name}"));
    }
    cmd(&flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let message = match run(&args) {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
                // A reader that stopped early (`rodctl … | head -1`) is
                // not an error of this program.
                Err(e) if e.kind() != ErrorKind::BrokenPipe => format!("write stdout: {e}"),
                _ => return ExitCode::SUCCESS,
            }
        }
        Err(message) => message,
    };
    eprintln!("rodctl: {message}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_pairs() {
        let f = Flags::parse(&strings(&["--a", "1", "--b", "x"])).unwrap();
        assert_eq!(f.get("a"), Some("1"));
        assert_eq!(f.get("b"), Some("x"));
        assert_eq!(f.get("c"), None);
        assert_eq!(f.get_or("c", "z"), "z");
    }

    #[test]
    fn flags_reject_bad_shapes() {
        assert!(Flags::parse(&strings(&["positional"])).is_err());
        assert!(Flags::parse(&strings(&["--dangling"])).is_err());
    }

    #[test]
    fn every_subcommand_rejects_a_flag_it_does_not_read() {
        let misspelt = [
            ("generate", "--ops-per-tre"),
            ("plan", "--algoritm"),
            ("evaluate", "--sample"),
            ("explain", "--capacty"),
            ("headroom", "--rate"),
            ("compare", "--seeds"),
            ("simulate", "--horizn"),
            ("trace", "--bins"),
            ("daemon", "--ingest-batch"),
        ];
        assert_eq!(misspelt.len(), COMMANDS.len());
        for (command, flag) in misspelt {
            let err = run(&strings(&[command, flag, "1"])).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag} for rodctl {command}"));
        }
    }

    #[test]
    fn a_misspelt_flag_next_to_out_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("rodctl-unknown-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let out = dir.join("trace.csv");
        let out_arg = out.to_str().unwrap();
        let err = run(&strings(&[
            "trace",
            "--kind",
            "poisson",
            "--out",
            out_arg,
            "--bins-log",
            "6",
        ]))
        .unwrap_err();
        assert_eq!(err, "unknown flag --bins-log for rodctl trace");
        assert!(!out.exists(), "a rejected run wrote {out_arg}");
        let err = run(&strings(&["plan", "--out", out_arg, "--algoritm", "hier"])).unwrap_err();
        assert_eq!(err, "unknown flag --algoritm for rodctl plan");
        assert!(!out.exists(), "a rejected run wrote {out_arg}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_rates_validates_arity() {
        assert_eq!(parse_rates("1,2,3", 3).unwrap(), vec![1.0, 2.0, 3.0]);
        assert!(parse_rates("1,2", 3).is_err());
        assert!(parse_rates("1,x", 2).is_err());
    }

    // A NaN or infinite rate would make the simulator draw arrivals
    // forever, so these inputs are tested through the parser only.
    #[test]
    fn parse_rates_rejects_nan() {
        let err = parse_rates("nan,20", 2).unwrap_err();
        assert_eq!(err, "--rates: rate NaN is not finite");
    }

    #[test]
    fn parse_rates_rejects_infinities() {
        for spec in ["inf,20", "20,-inf"] {
            let err = parse_rates(spec, 2).unwrap_err();
            assert!(err.contains("inf is not finite"), "{spec}: {err}");
        }
    }

    #[test]
    fn parse_rates_rejects_negative_rates() {
        let err = parse_rates("-5,20", 2).unwrap_err();
        assert_eq!(err, "--rates: rate -5 is negative");
        assert_eq!(parse_rates("0,20", 2).unwrap(), vec![0.0, 20.0]);
    }

    #[test]
    fn generate_emits_valid_graph_json() {
        let f = Flags::parse(&strings(&[
            "--kind", "tree", "--inputs", "2", "--seed", "3",
        ]))
        .unwrap();
        let json = cmd_generate(&f).unwrap();
        let graph: rod::core::QueryGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(graph.num_inputs(), 2);
    }

    #[test]
    fn generate_rejects_unknown_kind() {
        let f = Flags::parse(&strings(&["--kind", "nonsense"])).unwrap();
        assert!(cmd_generate(&f).is_err());
    }

    #[test]
    fn full_pipeline_via_tempfiles() {
        let dir = std::env::temp_dir().join(format!("rodctl-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("graph.json");
        let plan_path = dir.join("plan.json");

        // generate
        let f = Flags::parse(&strings(&[
            "--kind", "tree", "--inputs", "2", "--seed", "1",
        ]))
        .unwrap();
        fs::write(&graph_path, cmd_generate(&f).unwrap()).unwrap();

        // plan
        let f = Flags::parse(&strings(&[
            "--graph",
            graph_path.to_str().unwrap(),
            "--nodes",
            "2",
            "--out",
            plan_path.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = cmd_plan(&f).unwrap();
        assert!(msg.contains("written"));

        // evaluate
        let f = Flags::parse(&strings(&[
            "--graph",
            graph_path.to_str().unwrap(),
            "--plan",
            plan_path.to_str().unwrap(),
            "--nodes",
            "2",
            "--samples",
            "2000",
        ]))
        .unwrap();
        let out = cmd_evaluate(&f).unwrap();
        assert!(out.contains("feasible-set ratio"));

        // explain
        let f = Flags::parse(&strings(&[
            "--graph",
            graph_path.to_str().unwrap(),
            "--plan",
            plan_path.to_str().unwrap(),
            "--nodes",
            "2",
        ]))
        .unwrap();
        let out = cmd_explain(&f).unwrap();
        assert!(out.contains("binding node"));

        // simulate
        let f = Flags::parse(&strings(&[
            "--graph",
            graph_path.to_str().unwrap(),
            "--plan",
            plan_path.to_str().unwrap(),
            "--nodes",
            "2",
            "--rates",
            "20,20",
            "--horizon",
            "5",
        ]))
        .unwrap();
        let out = cmd_simulate(&f).unwrap();
        assert!(out.contains("node utilisations"));

        // trace generation + trace-driven simulate
        let trace_path = dir.join("trace.csv");
        let f = Flags::parse(&strings(&[
            "--kind",
            "poisson",
            "--bins-log2",
            "6",
            "--mean",
            "20",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = cmd_trace(&f).unwrap();
        assert!(msg.contains("bins written"));
        let traces_arg = format!("{0},{0}", trace_path.to_str().unwrap());
        let f = Flags::parse(&strings(&[
            "--graph",
            graph_path.to_str().unwrap(),
            "--plan",
            plan_path.to_str().unwrap(),
            "--nodes",
            "2",
            "--traces",
            &traces_arg,
            "--horizon",
            "5",
        ]))
        .unwrap();
        let out = cmd_simulate(&f).unwrap();
        assert!(out.contains("traces"));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rack_specs_parse_groups_in_order() {
        assert_eq!(
            parse_racks("0,1;2,3", 4).unwrap(),
            vec![vec![0, 1], vec![2, 3]]
        );
        assert_eq!(
            parse_racks(" 0 , 2 ; 1 ", 3).unwrap(),
            vec![vec![0, 2], vec![1]]
        );
        assert_eq!(parse_racks("0", 1).unwrap(), vec![vec![0]]);
    }

    #[test]
    fn rack_specs_reject_edge_cases_with_specific_errors() {
        // An unknown node names both the node and the cluster size.
        let err = parse_racks("0,1;2,7", 4).unwrap_err();
        assert!(err.contains("unknown node 7"), "{err}");
        assert!(err.contains("4 nodes"), "{err}");
        // Empty racks name the rack position.
        for (bad, rack) in [(";1", "rack 0"), ("0;;1", "rack 1"), ("0;1;", "rack 2")] {
            let err = parse_racks(bad, 4).unwrap_err();
            assert!(err.contains("empty"), "'{bad}': {err}");
            assert!(err.contains(rack), "'{bad}': {err}");
        }
        // Non-numeric members are bad indices, not unknown nodes.
        for bad in ["a;1", "0,x", "0;1.5"] {
            let err = parse_racks(bad, 4).unwrap_err();
            assert!(err.contains("bad node index"), "'{bad}': {err}");
        }
    }

    #[test]
    fn plan_hier_algorithm_plans_with_and_without_racks() {
        let (dir, graph_path, _plan) = graph_and_plan("hier");
        for extra in [&[][..], &["--racks", "0,2;1,3"][..]] {
            let mut args = vec![
                "--graph",
                graph_path.as_str(),
                "--nodes",
                "4",
                "--algorithm",
                "hier",
            ];
            args.extend_from_slice(extra);
            let f = Flags::parse(&strings(&args)).unwrap();
            let json = cmd_plan(&f).unwrap();
            let alloc: Allocation = serde_json::from_str(&json).unwrap();
            assert!(alloc.is_complete(), "racks: {extra:?}");
        }
        // Racks that fail Topology validation surface the library error.
        let f = Flags::parse(&strings(&[
            "--graph",
            graph_path.as_str(),
            "--nodes",
            "4",
            "--algorithm",
            "hier",
            "--racks",
            "0,1;2",
        ]))
        .unwrap();
        let err = cmd_plan(&f).unwrap_err();
        assert!(err.contains("not covered"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn outage_specs_parse_and_reject_garbage() {
        let o = parse_outage("1:5.0:12.5").unwrap();
        assert_eq!(o.node, NodeId(1));
        assert_eq!(o.start, 5.0);
        assert_eq!(o.end, 12.5);
        for bad in ["", "1", "1:2", "1:2:3:4", "x:2:3", "1:x:3", "1:2:x"] {
            assert!(parse_outage(bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn outage_specs_reject_edge_cases_with_specific_errors() {
        // Empty fields name the field instead of a generic parse error.
        for (bad, field) in [("::5", "node"), ("1::5", "start"), ("1:2:", "end")] {
            let err = parse_outage(bad).unwrap_err();
            assert!(err.contains("empty"), "'{bad}': {err}");
            assert!(err.contains(field), "'{bad}': {err}");
        }
        // A node index beyond usize::MAX cannot wrap around.
        let err = parse_outage("18446744073709551616:1:2").unwrap_err();
        assert!(err.contains("bad node"), "{err}");
        // Zero-length and inverted spans are caught at parse time.
        for bad in ["1:3:3", "1:5:2"] {
            let err = parse_outage(bad).unwrap_err();
            assert!(err.contains("positive length"), "'{bad}': {err}");
        }
        // Negative and non-finite times are rejected.
        for bad in ["1:-1:2", "1:NaN:2", "1:1:inf"] {
            let err = parse_outage(bad).unwrap_err();
            assert!(err.contains("finite and non-negative"), "'{bad}': {err}");
        }
    }

    #[test]
    fn simulate_rejects_duplicate_outages_per_node() {
        let (dir, graph_path, plan_path) = graph_and_plan("dupoutage");
        let f = Flags::parse(&strings(&[
            "--graph",
            &graph_path,
            "--plan",
            &plan_path,
            "--nodes",
            "2",
            "--rates",
            "10,10",
            "--horizon",
            "5",
            "--outage",
            "1:1:3",
            "--outage",
            "1:2:4",
        ]))
        .unwrap();
        let err = cmd_simulate(&f).unwrap_err();
        assert!(err.contains("overlapping outages on node 1"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scheduling_names_map_to_policies() {
        assert_eq!(parse_scheduling("fifo").unwrap(), SchedulingPolicy::Fifo);
        assert_eq!(
            parse_scheduling("rr").unwrap(),
            SchedulingPolicy::RoundRobin
        );
        assert_eq!(
            parse_scheduling("lqf").unwrap(),
            SchedulingPolicy::LongestQueueFirst
        );
        assert!(parse_scheduling("sjf").is_err());
    }

    /// Writes a small graph + ROD plan pair to tempfiles and returns
    /// (dir, graph_path, plan_path) for simulate-flag tests.
    fn graph_and_plan(tag: &str) -> (std::path::PathBuf, String, String) {
        let dir = std::env::temp_dir().join(format!("rodctl-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("graph.json");
        let plan_path = dir.join("plan.json");
        let f = Flags::parse(&strings(&[
            "--kind", "tree", "--inputs", "2", "--seed", "1",
        ]))
        .unwrap();
        fs::write(&graph_path, cmd_generate(&f).unwrap()).unwrap();
        let f = Flags::parse(&strings(&[
            "--graph",
            graph_path.to_str().unwrap(),
            "--nodes",
            "2",
            "--out",
            plan_path.to_str().unwrap(),
        ]))
        .unwrap();
        cmd_plan(&f).unwrap();
        (
            dir.clone(),
            graph_path.to_str().unwrap().to_string(),
            plan_path.to_str().unwrap().to_string(),
        )
    }

    /// The simulate flags for `graph_and_plan`'s pair on 2 nodes.
    fn simulate_args(graph_path: &str, plan_path: &str, extra: &[&str]) -> Flags {
        let mut args = strings(&[
            "--graph", graph_path, "--plan", plan_path, "--nodes", "2", "--rates", "10,10",
        ]);
        args.extend(strings(extra));
        Flags::parse(&args).unwrap()
    }

    /// Runs every subcommand that builds a cluster with `cluster`
    /// (`--nodes N --capacity C`) on `graph_and_plan`'s pair, asserting
    /// each fails with `expected` instead of panicking.
    fn assert_cluster_rejected(tag: &str, cluster: &[&str], expected: &str) {
        let (dir, graph_path, plan_path) = graph_and_plan(tag);
        let rest = [
            "--graph",
            graph_path.as_str(),
            "--plan",
            plan_path.as_str(),
            "--rates",
            "10,10",
            "--samples",
            "500",
            "--trace-in",
            "unused.jsonl",
        ];
        let args = strings(&[cluster, &rest[..]].concat());
        let f = Flags::parse(&args).unwrap();
        type Command = fn(&Flags) -> Result<String, String>;
        let commands: [(&str, Command); 7] = [
            ("plan", cmd_plan),
            ("evaluate", cmd_evaluate),
            ("explain", cmd_explain),
            ("headroom", cmd_headroom),
            ("compare", cmd_compare),
            ("simulate", cmd_simulate),
            ("daemon", cmd_daemon),
        ];
        for (name, command) in commands {
            let err = command(&f).unwrap_err();
            assert!(err.contains(expected), "{name}: {err}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert_cluster_rejected(
            "cap0",
            &["--nodes", "2", "--capacity", "0"],
            "--nodes 2 --capacity 0: node 0 has invalid capacity 0",
        );
    }

    #[test]
    fn negative_capacity_is_rejected() {
        assert_cluster_rejected(
            "capneg",
            &["--nodes", "2", "--capacity", "-1.5"],
            "node 0 has invalid capacity -1.5",
        );
    }

    #[test]
    fn nan_capacity_is_rejected() {
        assert_cluster_rejected(
            "capnan",
            &["--nodes", "2", "--capacity", "nan"],
            "node 0 has invalid capacity NaN",
        );
    }

    #[test]
    fn infinite_capacity_is_rejected() {
        assert_cluster_rejected(
            "capinf",
            &["--nodes", "2", "--capacity", "inf"],
            "node 0 has invalid capacity inf",
        );
    }

    #[test]
    fn zero_nodes_are_rejected() {
        assert_cluster_rejected(
            "nodes0",
            &["--nodes", "0"],
            "--nodes 0 --capacity 1: cluster has no nodes",
        );
    }

    #[test]
    fn simulate_rejects_degenerate_horizons() {
        let (dir, graph_path, plan_path) = graph_and_plan("badhorizon");
        for bad in ["0", "-5", "nan", "inf"] {
            let f = simulate_args(&graph_path, &plan_path, &["--horizon", bad]);
            let err = cmd_simulate(&f).unwrap_err();
            assert!(
                err.starts_with("horizon must be finite and positive"),
                "--horizon {bad}: {err}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// Writes `plan` next to `graph_and_plan`'s files and returns its path.
    fn write_plan(dir: &std::path::Path, name: &str, plan: &Allocation) -> String {
        let path = dir.join(name);
        fs::write(&path, serde_json::to_string(plan).unwrap()).unwrap();
        path.to_str().unwrap().to_string()
    }

    /// Operator count of `graph_and_plan`'s plan.
    fn plan_ops(plan_path: &str) -> usize {
        load_plan(&Flags::parse(&strings(&["--plan", plan_path])).unwrap())
            .unwrap()
            .num_operators()
    }

    /// Runs every subcommand that reads `--plan` on the given files with
    /// `--nodes nodes`, asserting each fails with exactly its `expected`
    /// message, or succeeds where that is `None`. Order: evaluate,
    /// explain, headroom, simulate, daemon.
    fn assert_plan_handled(
        graph_path: &str,
        plan_path: &str,
        nodes: &str,
        expected: [Option<&str>; 5],
    ) {
        let f = Flags::parse(&strings(&[
            "--graph",
            graph_path,
            "--plan",
            plan_path,
            "--nodes",
            nodes,
            "--rates",
            "10,10",
            "--samples",
            "500",
            "--trace-in",
            "unused.jsonl",
        ]))
        .unwrap();
        type Command = fn(&Flags) -> Result<String, String>;
        let commands: [(&str, Command); 5] = [
            ("evaluate", cmd_evaluate),
            ("explain", cmd_explain),
            ("headroom", cmd_headroom),
            ("simulate", cmd_simulate),
            ("daemon", cmd_daemon),
        ];
        for ((name, command), want) in commands.into_iter().zip(expected) {
            match (command(&f), want) {
                (Ok(_), None) => {}
                (Err(err), Some(want)) => assert_eq!(err, want, "{name}"),
                (got, want) => panic!("{name}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn simulate_rejects_a_plan_for_another_graph() {
        let (dir, graph_path, plan_path) = graph_and_plan("othergraph");
        let ops = plan_ops(&plan_path);
        let mut plan = Allocation::new(3, 2);
        for j in 0..3 {
            plan.assign(OperatorId(j), NodeId(0));
        }
        let plan_path = write_plan(&dir, "other.json", &plan);
        let other = format!(
            "plan places 3 operators but the graph has {ops} (is it a plan for another graph?)"
        );
        let shape =
            format!("initial allocation shape 3x2 does not match model {ops} operators on 2 nodes");
        let other = Some(other.as_str());
        assert_plan_handled(
            &graph_path,
            &plan_path,
            "2",
            [other, other, other, other, Some(&shape)],
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_rejects_a_plan_for_a_larger_cluster() {
        let (dir, graph_path, plan_path) = graph_and_plan("widerplan");
        let ops = plan_ops(&plan_path);
        let mut plan = Allocation::new(ops, 4);
        for j in 0..ops {
            plan.assign(OperatorId(j), NodeId(j % 4));
        }
        let plan_path = write_plan(&dir, "four.json", &plan);
        let count = Some("plan is for 4 nodes but --nodes gives 2");
        let shape = format!(
            "initial allocation shape {ops}x4 does not match model {ops} operators on 2 nodes"
        );
        let simulate = Some("plan places operator 2 on node 2, but --nodes gives 2 nodes");
        assert_plan_handled(
            &graph_path,
            &plan_path,
            "2",
            [count, count, count, simulate, Some(&shape)],
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evaluators_reject_a_plan_for_a_smaller_cluster() {
        let (dir, graph_path, plan_path) = graph_and_plan("narrowplan");
        let ops = plan_ops(&plan_path);
        let count = Some("plan is for 2 nodes but --nodes gives 3");
        let shape = format!(
            "initial allocation shape {ops}x2 does not match model {ops} operators on 3 nodes"
        );
        // `simulate` runs a plan that leaves some nodes idle.
        assert_plan_handled(
            &graph_path,
            &plan_path,
            "3",
            [count, count, count, None, Some(&shape)],
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_plan_reader_rejects_a_node_index_out_of_range() {
        let (dir, graph_path, plan_path) = graph_and_plan("farnode");
        let mut nodes = vec!["0"; plan_ops(&plan_path)];
        nodes[1] = "5";
        let json = format!(r#"{{"assignment":[{}],"num_nodes":2}}"#, nodes.join(","));
        let plan_path = dir.join("far.json");
        fs::write(&plan_path, json).unwrap();
        let far = Some("plan places operator 1 on node 5, but --nodes gives 2 nodes");
        let daemon =
            Some("initial allocation places operator 1 on node 5, but the cluster has 2 nodes");
        assert_plan_handled(
            &graph_path,
            plan_path.to_str().unwrap(),
            "2",
            [far, far, far, far, daemon],
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_rejects_an_incomplete_plan() {
        let (dir, graph_path, plan_path) = graph_and_plan("partialplan");
        let mut plan =
            load_plan(&Flags::parse(&strings(&["--plan", &plan_path])).unwrap()).unwrap();
        plan.unassign(OperatorId(1));
        let plan_path = write_plan(&dir, "partial.json", &plan);
        let err = cmd_simulate(&simulate_args(&graph_path, &plan_path, &[])).unwrap_err();
        assert_eq!(err, "plan leaves operator 1 unplaced");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_rejects_invalid_outages_with_real_errors() {
        let (dir, graph_path, plan_path) = graph_and_plan("badoutage");
        // Node out of range for a 2-node cluster.
        let f = Flags::parse(&strings(&[
            "--graph",
            &graph_path,
            "--plan",
            &plan_path,
            "--nodes",
            "2",
            "--rates",
            "10,10",
            "--horizon",
            "5",
            "--outage",
            "7:1:2",
        ]))
        .unwrap();
        let err = cmd_simulate(&f).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // Zero-length outage.
        let f = Flags::parse(&strings(&[
            "--graph",
            &graph_path,
            "--plan",
            &plan_path,
            "--nodes",
            "2",
            "--rates",
            "10,10",
            "--horizon",
            "5",
            "--outage",
            "1:3:3",
        ]))
        .unwrap();
        let err = cmd_simulate(&f).unwrap_err();
        assert!(err.contains("positive length"), "{err}");
        // Malformed spec.
        let f = Flags::parse(&strings(&[
            "--graph",
            &graph_path,
            "--plan",
            &plan_path,
            "--nodes",
            "2",
            "--rates",
            "10,10",
            "--horizon",
            "5",
            "--outage",
            "1-3-5",
        ]))
        .unwrap();
        let err = cmd_simulate(&f).unwrap_err();
        assert!(err.contains("NODE:START:END"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_batch_one_matches_per_tuple_output() {
        let (dir, graph_path, plan_path) = graph_and_plan("batch");
        let base = strings(&[
            "--graph",
            &graph_path,
            "--plan",
            &plan_path,
            "--nodes",
            "2",
            "--rates",
            "40,40",
            "--horizon",
            "5",
        ]);
        let per_tuple = cmd_simulate(&Flags::parse(&base).unwrap()).unwrap();
        // End to end through the CLI: batch size 1 is exact mode, the
        // default run, byte for byte.
        let mut with_batch = base.clone();
        with_batch.extend(strings(&["--batch", "1", "--batch-bucket", "0.5"]));
        assert_eq!(
            cmd_simulate(&Flags::parse(&with_batch).unwrap()).unwrap(),
            per_tuple
        );
        // Larger batches with the default bucket still produce a full
        // report (exact equivalence at batch > 1 is the sim crate's
        // proptest suite's job, not the CLI's).
        let mut batched = base.clone();
        batched.extend(strings(&["--batch", "64"]));
        let out = cmd_simulate(&Flags::parse(&batched).unwrap()).unwrap();
        assert!(out.contains("node utilisations"), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_rejects_degenerate_batch_flags() {
        let (dir, graph_path, plan_path) = graph_and_plan("badbatch");
        let base = strings(&[
            "--graph",
            &graph_path,
            "--plan",
            &plan_path,
            "--nodes",
            "2",
            "--rates",
            "10,10",
            "--horizon",
            "5",
        ]);
        let mut zero_batch = base.clone();
        zero_batch.extend(strings(&["--batch", "0"]));
        let err = cmd_simulate(&Flags::parse(&zero_batch).unwrap()).unwrap_err();
        assert!(err.contains("batch"), "{err}");
        let mut zero_bucket = base.clone();
        zero_bucket.extend(strings(&["--batch-bucket", "0"]));
        let err = cmd_simulate(&Flags::parse(&zero_bucket).unwrap()).unwrap_err();
        assert!(err.contains("bucket"), "{err}");
        let mut junk = base.clone();
        junk.extend(strings(&["--batch", "many"]));
        let err = cmd_simulate(&Flags::parse(&junk).unwrap()).unwrap_err();
        assert!(err.contains("--batch"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_with_failover_reports_recovery() {
        let (dir, graph_path, plan_path) = graph_and_plan("failover");
        let f = Flags::parse(&strings(&[
            "--graph",
            &graph_path,
            "--plan",
            &plan_path,
            "--nodes",
            "2",
            "--rates",
            "10,10",
            "--horizon",
            "20",
            "--outage",
            "0:5:15",
            "--failover",
            "0.5",
            "--scheduling",
            "lqf",
            "--op-queue-bound",
            "500",
        ]))
        .unwrap();
        let out = cmd_simulate(&f).unwrap();
        assert!(out.contains("failovers:"), "{out}");
        assert!(out.contains("recovery: node 0"), "{out}");
        assert!(out.contains("detected at 5.50"), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_tolerance_is_an_alias_for_failover() {
        let (dir, graph_path, plan_path) = graph_and_plan("ftalias");
        let f = Flags::parse(&strings(&[
            "--graph",
            &graph_path,
            "--plan",
            &plan_path,
            "--nodes",
            "2",
            "--rates",
            "10,10",
            "--horizon",
            "12",
            "--outage",
            "1:3:10",
            "--fault-tolerance",
            "0.4",
        ]))
        .unwrap();
        let out = cmd_simulate(&f).unwrap();
        assert!(out.contains("recovery: node 1"), "{out}");
        // A single-node cluster cannot back itself up.
        let f = Flags::parse(&strings(&[
            "--graph",
            &graph_path,
            "--plan",
            &plan_path,
            "--nodes",
            "1",
            "--rates",
            "10,10",
            "--fault-tolerance",
            "0.4",
        ]))
        .unwrap();
        assert!(cmd_simulate(&f).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_shed_run_reports_without_panicking() {
        // --op-queue-bound 0 sheds every arrival, so no tuple ever
        // reaches a sink and the latency sample set is empty; the report
        // path must say so instead of unwrapping a missing quantile.
        let (dir, graph_path, plan_path) = graph_and_plan("allshed");
        let f = Flags::parse(&strings(&[
            "--graph",
            &graph_path,
            "--plan",
            &plan_path,
            "--nodes",
            "2",
            "--rates",
            "10,10",
            "--horizon",
            "5",
            "--op-queue-bound",
            "0",
        ]))
        .unwrap();
        let out = cmd_simulate(&f).unwrap();
        assert!(out.contains("latency: no sink tuples observed"), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_out_is_deterministic_and_parses_line_by_line() {
        let (dir, graph_path, plan_path) = graph_and_plan("goldentrace");
        let run = |tag: &str| -> (String, std::path::PathBuf) {
            let trace_path = dir.join(format!("trace-{tag}.jsonl"));
            let f = Flags::parse(&strings(&[
                "--graph",
                &graph_path,
                "--plan",
                &plan_path,
                "--nodes",
                "2",
                "--rates",
                "20,20",
                "--horizon",
                "5",
                "--seed",
                "42",
                "--outage",
                "1:2:4",
                "--failover",
                "0.3",
                "--trace-out",
                trace_path.to_str().unwrap(),
            ]))
            .unwrap();
            (cmd_simulate(&f).unwrap(), trace_path)
        };
        let (out_a, path_a) = run("a");
        let (_, path_b) = run("b");
        assert!(out_a.contains("records written"), "{out_a}");
        let bytes_a = fs::read(&path_a).unwrap();
        let bytes_b = fs::read(&path_b).unwrap();
        assert!(!bytes_a.is_empty());
        // Golden determinism: same seed, byte-identical JSONL.
        assert_eq!(bytes_a, bytes_b);
        let text = String::from_utf8(bytes_a).unwrap();
        let mut kinds = std::collections::BTreeSet::new();
        for line in text.lines() {
            let record: rod::sim::TraceRecord =
                serde_json::from_str(line).expect("every line is one TraceRecord");
            kinds.insert(format!("{record:?}").split(' ').next().unwrap().to_string());
        }
        let first = text.lines().next().unwrap();
        let last = text.lines().last().unwrap();
        assert!(first.contains("RunStart"), "{first}");
        assert!(last.contains("RunEnd"), "{last}");
        // The failover scenario exercises the interesting record kinds.
        for kind in ["UtilSample", "OutageStart", "FailureDetected"] {
            assert!(kinds.iter().any(|k| k.contains(kind)), "missing {kind}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_timings_keeps_stdout_json_clean() {
        let (dir, graph_path, _plan) = graph_and_plan("timings");
        for algorithm in ["rod", "resilient"] {
            let f = Flags::parse(&strings(&[
                "--graph",
                &graph_path,
                "--nodes",
                "2",
                "--algorithm",
                algorithm,
                "--timings",
            ]))
            .unwrap();
            // stdout payload must still be exactly the plan JSON (the
            // timing table goes to stderr).
            let json = cmd_plan(&f).unwrap();
            let plan: Allocation = serde_json::from_str(&json).unwrap();
            assert!(plan.is_complete(), "{algorithm}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_rejects_bad_metrics_interval() {
        let (dir, graph_path, plan_path) = graph_and_plan("badtick");
        for bad in ["0", "-1", "x"] {
            let f = Flags::parse(&strings(&[
                "--graph",
                &graph_path,
                "--plan",
                &plan_path,
                "--nodes",
                "2",
                "--rates",
                "10,10",
                "--metrics-interval",
                bad,
            ]))
            .unwrap();
            let err = cmd_simulate(&f).unwrap_err();
            assert!(err.contains("metrics-interval"), "'{bad}': {err}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_requires_exactly_one_source_kind() {
        let f = Flags::parse(&strings(&["--graph", "x", "--plan", "y", "--nodes", "1"])).unwrap();
        // Fails before touching files because neither --rates nor
        // --traces was given? No — graph loads first; use a bad path to
        // verify the error chain is file-first, then source-kind.
        assert!(cmd_simulate(&f).is_err());
    }

    #[test]
    fn trace_kinds_generate() {
        for kind in ["pkt", "tcp", "http", "poisson"] {
            let f = Flags::parse(&strings(&["--kind", kind, "--bins-log2", "5"])).unwrap();
            let csv = cmd_trace(&f).unwrap();
            assert!(csv.lines().count() > 30, "{kind}: {}", csv.lines().count());
        }
        let f = Flags::parse(&strings(&["--kind", "nope"])).unwrap();
        assert!(cmd_trace(&f).is_err());
    }

    #[test]
    fn unknown_command_reports_usage() {
        let err = run(&strings(&["frobnicate"])).unwrap_err();
        assert!(err.contains("usage"));
    }

    #[test]
    fn compare_ranks_rod_first_on_tree_workloads() {
        let dir = std::env::temp_dir().join(format!("rodctl-cmp-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("graph.json");
        let f = Flags::parse(&strings(&[
            "--kind",
            "tree",
            "--inputs",
            "3",
            "--ops-per-tree",
            "10",
        ]))
        .unwrap();
        fs::write(&graph_path, cmd_generate(&f).unwrap()).unwrap();
        let f = Flags::parse(&strings(&[
            "--graph",
            graph_path.to_str().unwrap(),
            "--nodes",
            "3",
            "--samples",
            "5000",
        ]))
        .unwrap();
        let out = cmd_compare(&f).unwrap();
        assert!(out.contains("ROD"));
        assert!(out.contains("Connected"));
        // ROD's row is the first data row; parse its ratio and check it
        // is the maximum of all rows.
        let ratios: Vec<f64> = out
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().nth(1).unwrap().parse::<f64>().unwrap())
            .collect();
        let rod = ratios[0];
        assert!(ratios.iter().all(|&r| rod >= r - 1e-9), "{ratios:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_algorithm_plans() {
        let dir = std::env::temp_dir().join(format!("rodctl-algos-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("graph.json");
        let f = Flags::parse(&strings(&["--kind", "tree", "--inputs", "2"])).unwrap();
        fs::write(&graph_path, cmd_generate(&f).unwrap()).unwrap();
        for algo in [
            "rod",
            "resilient",
            "llf",
            "connected",
            "correlation",
            "random",
        ] {
            let f = Flags::parse(&strings(&[
                "--graph",
                graph_path.to_str().unwrap(),
                "--nodes",
                "2",
                "--algorithm",
                algo,
                "--samples",
                "1500",
            ]))
            .unwrap();
            let json = cmd_plan(&f).unwrap();
            let plan: Allocation = serde_json::from_str(&json).unwrap();
            assert!(plan.is_complete(), "{algo} produced incomplete plan");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn optimal_plans_through_registry_with_budget_flags() {
        let dir = std::env::temp_dir().join(format!("rodctl-opt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("graph.json");
        // Small enough for exhaustive search: 2 trees of 4 operators.
        let f = Flags::parse(&strings(&[
            "--kind",
            "tree",
            "--inputs",
            "2",
            "--ops-per-tree",
            "4",
        ]))
        .unwrap();
        fs::write(&graph_path, cmd_generate(&f).unwrap()).unwrap();
        let f = Flags::parse(&strings(&[
            "--graph",
            graph_path.to_str().unwrap(),
            "--nodes",
            "2",
            "--algorithm",
            "optimal",
            "--samples",
            "2000",
        ]))
        .unwrap();
        let json = cmd_plan(&f).unwrap();
        let plan: Allocation = serde_json::from_str(&json).unwrap();
        assert!(plan.is_complete());
        // A starved --max-plans budget is refused, not silently ignored.
        let f = Flags::parse(&strings(&[
            "--graph",
            graph_path.to_str().unwrap(),
            "--nodes",
            "2",
            "--algorithm",
            "optimal",
            "--samples",
            "2000",
            "--max-plans",
            "1",
        ]))
        .unwrap();
        assert!(cmd_plan(&f).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_flag_rejects_degenerate_values_with_specific_errors() {
        // Absent flag means "auto" — the pool picks its own width.
        let f = Flags::parse(&strings(&[])).unwrap();
        assert_eq!(parse_threads(&f).unwrap(), 0);
        // Zero workers can never make progress.
        let f = Flags::parse(&strings(&["--threads", "0"])).unwrap();
        let err = parse_threads(&f).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        // Non-numeric and negative counts name the offending value.
        for bad in ["x", "-1", "2.5", ""] {
            let f = Flags::parse(&strings(&["--threads", bad])).unwrap();
            let err = parse_threads(&f).unwrap_err();
            assert!(err.contains("bad value"), "'{bad}': {err}");
            assert!(err.contains(bad), "'{bad}': {err}");
        }
    }

    #[test]
    fn samples_flag_rejects_zero_with_a_specific_error() {
        let f = Flags::parse(&strings(&[])).unwrap();
        assert_eq!(parse_samples(&f).unwrap(), 20_000);
        let f = Flags::parse(&strings(&["--samples", "0"])).unwrap();
        let err = parse_samples(&f).unwrap_err();
        assert!(err.contains("--samples: must be at least 1"), "{err}");
        let f = Flags::parse(&strings(&["--samples", "-3"])).unwrap();
        assert!(parse_samples(&f).unwrap_err().contains("bad value '-3'"));
        // plan reads --samples for its QMC-scored planners too.
        let (dir, graph_path, _) = graph_and_plan("samples0");
        let f = Flags::parse(&strings(&[
            "--graph",
            graph_path.as_str(),
            "--nodes",
            "2",
            "--algorithm",
            "resilient",
            "--samples",
            "0",
        ]))
        .unwrap();
        assert!(cmd_plan(&f).unwrap_err().contains("at least 1"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_json_is_byte_identical_across_thread_counts() {
        // An oversized --threads (beyond the candidate count of this tiny
        // instance) is clamped by the planner and must not perturb a
        // single byte of the emitted plan relative to serial.
        let dir = std::env::temp_dir().join(format!("rodctl-threads-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("graph.json");
        let f = Flags::parse(&strings(&[
            "--kind", "tree", "--inputs", "2", "--seed", "7",
        ]))
        .unwrap();
        fs::write(&graph_path, cmd_generate(&f).unwrap()).unwrap();
        let mut outputs = Vec::new();
        for threads in ["1", "64"] {
            let f = Flags::parse(&strings(&[
                "--graph",
                graph_path.to_str().unwrap(),
                "--nodes",
                "3",
                "--algorithm",
                "resilient",
                "--samples",
                "2000",
                "--threads",
                threads,
            ]))
            .unwrap();
            outputs.push(cmd_plan(&f).unwrap());
        }
        assert_eq!(
            outputs[0], outputs[1],
            "plan JSON must not depend on --threads"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_accepts_threads_and_rejects_zero() {
        let (dir, graph_path, plan_path) = graph_and_plan("simthreads");
        let base = [
            "--graph",
            graph_path.as_str(),
            "--plan",
            plan_path.as_str(),
            "--nodes",
            "2",
            "--rates",
            "10,10",
            "--horizon",
            "5",
        ];
        let mut ok_args: Vec<&str> = base.to_vec();
        ok_args.extend(["--threads", "2"]);
        let f = Flags::parse(&strings(&ok_args)).unwrap();
        assert!(cmd_simulate(&f).unwrap().contains("node utilisations"));
        let mut bad_args: Vec<&str> = base.to_vec();
        bad_args.extend(["--threads", "0"]);
        let f = Flags::parse(&strings(&bad_args)).unwrap();
        let err = cmd_simulate(&f).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }
}
