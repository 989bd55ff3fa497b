//! The shared harness of the `perf_*` trajectory binaries: the
//! `BENCH_*.json` layout ([`BenchFile`]), the median, the command line,
//! the table, the file write, and `--check` — a schema check whose key
//! sets come from the Rust types, the suite invariants, the [`Floor`]s
//! and the ratio gate. Each suite declares its contract as a [`Suite`]
//! ([`planner`], [`sim`], [`ctrl`]); its `perf_*` binary keeps the grid,
//! the timed legs and their cross-checks, and calls [`main`]. A leg a
//! cell does not run is `null`. Layout and gates: `docs/benchmarks.md`.

use std::path::{Path, PathBuf};
use std::process::{exit, Command};

use serde::{Deserialize, Serialize, Value};

use crate::output::print_table;

pub mod ctrl;
pub mod planner;
pub mod sim;

/// Layout version shared by every `BENCH_*.json`; `--check` refuses
/// any other.
const SCHEMA_VERSION: u32 = 6;

/// A ratio gate fails a cell whose speedup fell by more than this factor.
const RATIO_LIMIT: f64 = 2.0;

/// Repeats of a `--quick` run, in every suite.
const QUICK_REPEATS: usize = 3;

/// Columns holding a time, a rate or a speedup, which must be positive.
const TIMED_SUFFIXES: [&str; 3] = ["_seconds", "_per_sec", "_speedup"];

/// One `BENCH_*.json` file: the run's provenance (the writing suite,
/// Unix time, `rustc --version`, git commit, logical cores), whether it
/// was `--quick`, the repeats per cell, the workload seed, and one
/// object per cell in the suite's [`Suite::Cell`] layout.
#[derive(Serialize, Deserialize)]
pub struct BenchFile {
    schema_version: u32,
    suite: String,
    created_unix: u64,
    rustc: String,
    commit: String,
    cores: usize,
    quick: bool,
    repeats: usize,
    seed: u64,
    grid: Vec<Value>,
}

/// Where a [`Floor`] applies.
pub enum Scope {
    /// The named cell, which every file must contain.
    Cell(&'static str),
    /// The best cell among those that ran the leg; disarmed when none did.
    Best,
    /// Every cell whose `column` is at least `at_least`, in a file
    /// recorded on at least `min_cores` cores.
    Where {
        /// Fewest recording cores that arm the floor.
        min_cores: usize,
        /// Column that selects the judged cells.
        column: &'static str,
        /// Smallest `column` value that selects a cell.
        at_least: f64,
    },
}

/// An absolute minimum on a speedup column, for baseline and fresh run.
pub struct Floor {
    /// The floored column.
    pub column: &'static str,
    /// The smallest acceptable value.
    pub min_speedup: f64,
    /// Which cells it judges.
    pub scope: Scope,
}

/// One trajectory's file contract.
pub trait Suite {
    /// One grid row. It has a `name: String` field, and a leg the cell
    /// does not run is an `Option` column holding `None`.
    type Cell: Serialize + Deserialize;
    /// Short name: the `suite` key, `perf_<NAME>`, `BENCH_<NAME>.json`.
    const NAME: &'static str;
    /// Columns held to the 2× ratio gate against the baseline.
    const RATIO_GATES: &'static [&'static str];
    /// Absolute floors.
    const FLOORS: &'static [Floor];
    /// Suite-specific violations, one message per problem.
    fn invariants(cells: &[Self::Cell]) -> Vec<String>;
}

/// The command line: `--quick`, `--out FILE`, `--check FILE`.
#[derive(Debug, Default, PartialEq)]
struct Args {
    quick: bool,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
}

/// Parses the arguments after the program name. Unknown arguments, a
/// repeated flag, and `--out`/`--check` without a value are errors.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--quick" if !parsed.quick => {
                parsed.quick = true;
                continue;
            }
            "--out" => &mut parsed.out,
            "--check" => &mut parsed.check,
            "--quick" => return Err("--quick given twice".into()),
            _ => return Err(format!("unknown argument `{arg}`")),
        };
        let value = args
            .next()
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("{arg} needs a FILE"))?;
        if slot.replace(PathBuf::from(value)).is_some() {
            return Err(format!("{arg} given twice"));
        }
    }
    Ok(parsed)
}

/// Records the message as a violation unless `ok` holds.
fn require(bad: &mut Vec<String>, ok: bool, message: impl FnOnce() -> String) {
    if !ok {
        bad.push(message());
    }
}

/// Median of a leg's samples (the upper middle of an even count);
/// `None` when the leg did not run.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied()
}

fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// A field of a serialised object.
fn get<'a>(obj: &'a Value, key: &str) -> Option<&'a Value> {
    obj.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn name_of(cell: &Value) -> &str {
    match get(cell, "name") {
        Some(Value::Str(name)) => name,
        _ => "?",
    }
}

/// A numeric column of a serialised cell; `None` when null or absent.
fn column(cell: &Value, key: &str) -> Option<f64> {
    match *get(cell, key)? {
        Value::Float(x) => Some(x),
        Value::Int(i) => Some(i as f64),
        Value::UInt(u) => Some(u as f64),
        _ => None,
    }
}

fn json(v: Option<&Value>) -> String {
    v.and_then(|v| serde_json::to_string(v).ok())
        .unwrap_or("missing".into())
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .map_or(Vec::new(), |o| o.iter().map(|(k, _)| k.as_str()).collect())
}

/// Keys of `doc` the type's own serialisation lacks. Missing keys are
/// caught earlier, by deserialisation.
fn extra_keys(what: &str, doc: &Value, typed: &Value) -> Result<(), String> {
    let known = keys(typed);
    match keys(doc).into_iter().find(|k| !known.contains(k)) {
        Some(k) => Err(format!("{what}: unexpected key `{k}`")),
        None => Ok(()),
    }
}

/// The schema check: version, suite, and the key sets of [`BenchFile`]
/// and `S::Cell`. The returned grid holds the typed cells re-serialised,
/// so a `null` in a plain number column reads as NaN and fails
/// [`validate`].
fn parse<S: Suite>(text: &str) -> Result<(BenchFile, Vec<S::Cell>), String> {
    let doc = serde_json::parse_value(text).map_err(|e| format!("not JSON: {e}"))?;
    let (version, suite) = (
        Value::Int(SCHEMA_VERSION.into()),
        Value::Str(S::NAME.into()),
    );
    for (key, want) in [("schema_version", version), ("suite", suite)] {
        let (got, want) = (json(get(&doc, key)), json(Some(&want)));
        if got != want {
            return Err(format!("{key} is {got}, expected {want}"));
        }
    }
    let mut file = BenchFile::from_value(&doc).map_err(|e| e.to_string())?;
    extra_keys("top level", &doc, &file.to_value())?;
    let mut cells = Vec::with_capacity(file.grid.len());
    for cell in &mut file.grid {
        let typed = S::Cell::from_value(cell).map_err(|e| format!("{}: {e}", name_of(cell)))?;
        let value = typed.to_value();
        extra_keys(name_of(cell), cell, &value)?;
        *cell = value;
        cells.push(typed);
    }
    Ok((file, cells))
}

/// Everything a file must satisfy on its own: sane metadata, unique
/// cell names, every number finite, every present time, rate and
/// speedup positive, the suite invariants and the floors. Returns one
/// message per violation.
pub fn validate<S: Suite>(file: &BenchFile, cells: &[S::Cell]) -> Vec<String> {
    let mut bad = Vec::new();
    let counts = [
        ("cores", file.cores),
        ("repeats", file.repeats),
        ("cells", file.grid.len()),
    ];
    for (what, _) in counts.iter().filter(|(_, n)| *n == 0) {
        bad.push(format!("{what} is 0, expected at least 1"));
    }
    for (i, cell) in file.grid.iter().enumerate() {
        let name = name_of(cell);
        let unique = !file.grid[..i].iter().any(|c| name_of(c) == name);
        require(&mut bad, unique, || format!("{name}: duplicate cell"));
        for (key, value) in cell.as_object().unwrap_or_default() {
            let Value::Float(x) = *value else { continue };
            let timed = TIMED_SUFFIXES.iter().any(|s| key.ends_with(s));
            let ok = x.is_finite() && (x > 0.0 || !timed);
            require(&mut bad, ok, || {
                format!("{name}: {key} is {x}, not finite and positive")
            });
        }
    }
    bad.extend(S::invariants(cells));
    for floor in S::FLOORS {
        bad.extend(floor_violations(floor, file));
    }
    bad
}

fn floor_violations(floor: &Floor, file: &BenchFile) -> Vec<String> {
    let col = floor.column;
    let judged: Vec<(&str, Option<f64>)> = match floor.scope {
        Scope::Cell(name) => match file.grid.iter().find(|c| name_of(c) == name) {
            Some(cell) => vec![(name, column(cell, col))],
            None => return vec![format!("{name}: cell missing; its {col} floor needs it")],
        },
        Scope::Best => {
            let best = file
                .grid
                .iter()
                .filter_map(|c| column(c, col))
                .reduce(f64::max);
            best.map(|v| ("best cell", Some(v))).into_iter().collect()
        }
        Scope::Where {
            min_cores,
            column: when,
            at_least,
        } => file
            .grid
            .iter()
            .filter(|c| file.cores >= min_cores && column(c, when).is_some_and(|w| w >= at_least))
            .map(|c| (name_of(c), column(c, col)))
            .collect(),
    };
    let min = floor.min_speedup;
    judged
        .into_iter()
        .filter_map(|(name, value)| match value {
            None => Some(format!("{name}: {col} missing; it has a floor")),
            Some(v) if v < min => Some(format!("{name}: {col} {v:.2}x under the {min}x floor")),
            Some(_) => None,
        })
        .collect()
}

/// The ratio gate: every cell of `fresh` whose gated speedup fell by
/// more than [`RATIO_LIMIT`] against the same-named baseline cell. A
/// column is compared only when both cells have it.
fn ratio_regressions<S: Suite>(fresh: &BenchFile, baseline: &BenchFile) -> Vec<String> {
    let mut bad = Vec::new();
    for cur in &fresh.grid {
        let name = name_of(cur);
        let Some(base) = baseline.grid.iter().find(|b| name_of(b) == name) else {
            continue;
        };
        for &col in S::RATIO_GATES {
            if let (Some(b), Some(c)) = (column(base, col), column(cur, col)) {
                if b / c > RATIO_LIMIT {
                    bad.push(format!("{name}: {col} {c:.2}x vs baseline {b:.2}x"));
                }
            }
        }
    }
    bad
}

/// Reads a bench file through the schema check; errors name the file.
pub fn read<S: Suite>(path: &Path) -> Result<(BenchFile, Vec<S::Cell>), String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse::<S>(&text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Formats a table value: `-` for an absent leg, four decimals or four
/// significant digits for a float.
fn show(v: &Value) -> String {
    match *v {
        Value::Null => "-".into(),
        Value::Float(x) if x != 0.0 && !(1e-3..1e6).contains(&x.abs()) => format!("{x:.3e}"),
        Value::Float(x) => format!("{x:.4}"),
        Value::Str(ref s) => s.clone(),
        ref other => serde_json::to_string(other).unwrap_or_default(),
    }
}

/// Prints the grid with one row per column and one column per cell.
fn print_grid(title: &str, grid: &[Value]) {
    let mut header = vec!["column"];
    header.extend(grid.iter().map(name_of));
    let columns = grid.first().map_or(Vec::new(), keys);
    let rows: Vec<Vec<String>> = columns
        .into_iter()
        .filter(|&key| key != "name")
        .map(|key| {
            let mut row = vec![key.to_string()];
            row.extend(grid.iter().map(|c| get(c, key).map_or("?".into(), show)));
            row
        })
        .collect();
    print_table(title, &header, &rows);
}

fn die(bin: &str, code: i32, msg: &str) -> ! {
    eprintln!("{bin}: {msg}");
    exit(code)
}

/// True when both paths name one existing file.
fn same_file(a: &Path, b: &Path) -> bool {
    matches!((a.canonicalize(), b.canonicalize()), (Ok(a), Ok(b)) if a == b)
}

/// Runs a suite binary: parses the command line and resolves the output
/// file (exit 2 on misuse, including an output file that is the `--check`
/// baseline), reads the baseline through the schema check (exit 1 when
/// it fails), calls `run(quick, repeats)` for the grid, prints and writes
/// the file, then validates the baseline and the fresh file and applies
/// the ratio gate (exit 1 on any violation).
pub fn main<S: Suite>(seed: u64, repeats: usize, run: impl FnOnce(bool, usize) -> Vec<S::Cell>) {
    let bin = format!("perf_{}", S::NAME);
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        let usage = format!("usage: {bin} [--quick] [--out FILE] [--check FILE]");
        die(&bin, 2, &format!("{e}\n{usage}"))
    });
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = args
        .out
        .unwrap_or_else(|| root.join(format!("BENCH_{}.json", S::NAME)));
    if let Some(path) = args.check.as_deref().filter(|path| same_file(path, &out)) {
        let msg = format!(
            "the fresh run would overwrite the --check baseline {}; pass --out FILE",
            path.display()
        );
        die(&bin, 2, &msg);
    }
    let baseline = args.check.map(|path| match read::<S>(&path) {
        Ok((file, cells)) => (path, file, cells),
        Err(e) => die(&bin, 1, &format!("baseline {e}")),
    });

    let repeats = if args.quick { QUICK_REPEATS } else { repeats };
    let cells = run(args.quick, repeats);
    let file = BenchFile {
        schema_version: SCHEMA_VERSION,
        suite: S::NAME.to_string(),
        created_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        rustc: tool_line("rustc", &["--version"]),
        commit: tool_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"]),
        cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
        quick: args.quick,
        repeats,
        seed,
        grid: cells.iter().map(Serialize::to_value).collect(),
    };
    print_grid(&format!("{bin} (medians)"), &file.grid);

    let json = serde_json::to_string_pretty(&file).expect("a value tree always renders");
    if let Err(e) = std::fs::write(&out, &json) {
        die(&bin, 1, &format!("write {}: {e}", out.display()));
    }
    println!("[bench written to {}]", out.display());

    let Some((path, base, base_cells)) = baseline else {
        return;
    };
    let mut bad = Vec::new();
    for (file_path, problems) in [
        (&path, validate::<S>(&base, &base_cells)),
        (&out, validate::<S>(&file, &cells)),
    ] {
        let name = file_path.display();
        bad.extend(problems.iter().map(|e| format!("{name}: {e}")));
    }
    if let Err(e) = parse::<S>(&json) {
        bad.push(format!("{}: does not read back: {e}", out.display()));
    }
    bad.extend(ratio_regressions::<S>(&file, &base));
    let (path, report) = (path.display(), bad.join("\n  "));
    if !bad.is_empty() {
        die(&bin, 1, &format!("--check {path} FAILED:\n  {report}"));
    }
    println!("[check] no >2x speedup regressions vs {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy cell with one column per kind of floor.
    #[derive(Serialize, Deserialize)]
    struct Toy {
        name: String,
        serial_seconds: f64,
        fast_speedup: Option<f64>,
        lane_speedup: Option<f64>,
        pool_speedup: Option<f64>,
    }

    struct ToySuite;

    impl Suite for ToySuite {
        type Cell = Toy;
        const NAME: &'static str = "toy";
        const RATIO_GATES: &'static [&'static str] = &["fast_speedup", "lane_speedup"];
        const FLOORS: &'static [Floor] = &[
            Floor {
                column: "fast_speedup",
                min_speedup: 3.0,
                scope: Scope::Cell("a"),
            },
            Floor {
                column: "lane_speedup",
                min_speedup: 2.0,
                scope: Scope::Best,
            },
            Floor {
                column: "pool_speedup",
                min_speedup: 1.05,
                scope: Scope::Where {
                    min_cores: 4,
                    column: "serial_seconds",
                    at_least: 0.2,
                },
            },
        ];
        fn invariants(_: &[Toy]) -> Vec<String> {
            Vec::new()
        }
    }

    fn toy(name: &str, fast: Option<f64>) -> Toy {
        Toy {
            name: name.into(),
            serial_seconds: 0.5,
            fast_speedup: fast,
            lane_speedup: None,
            pool_speedup: None,
        }
    }

    fn file(cores: usize, cells: &[Toy]) -> BenchFile {
        BenchFile {
            schema_version: SCHEMA_VERSION,
            suite: "toy".into(),
            created_unix: 1,
            rustc: "rustc".into(),
            commit: "abc".into(),
            cores,
            quick: true,
            repeats: 3,
            seed: 42,
            grid: cells.iter().map(Serialize::to_value).collect(),
        }
    }

    fn check(cores: usize, cells: &[Toy]) -> Vec<String> {
        validate::<ToySuite>(&file(cores, cells), cells)
    }

    fn text(cores: usize, cells: &[Toy]) -> String {
        serde_json::to_string_pretty(&file(cores, cells)).unwrap()
    }

    fn parse_err(text: &str) -> String {
        parse::<ToySuite>(text).err().expect("parse should fail")
    }

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn ratio_gate_fires_just_above_2x_and_not_at_2x() {
        let base = file(1, &[toy("a", Some(8.0))]);
        let at_limit = file(1, &[toy("a", Some(4.0))]);
        assert!(ratio_regressions::<ToySuite>(&at_limit, &base).is_empty());
        let below = file(1, &[toy("a", Some(3.99))]);
        assert_eq!(
            ratio_regressions::<ToySuite>(&below, &base),
            ["a: fast_speedup 3.99x vs baseline 8.00x"]
        );
    }

    #[test]
    fn ratio_gate_skips_a_leg_absent_on_either_side() {
        let present = file(1, &[toy("a", Some(8.0)), toy("b", Some(8.0))]);
        let absent = file(1, &[toy("a", None)]);
        assert!(ratio_regressions::<ToySuite>(&absent, &present).is_empty());
        let fresh = file(1, &[toy("a", Some(1.0)), toy("c", Some(1.0))]);
        assert!(ratio_regressions::<ToySuite>(&fresh, &absent).is_empty());
    }

    #[test]
    fn floors_fire_on_the_fresh_run_and_on_the_baseline() {
        let slow = [toy("a", Some(2.5))];
        assert_eq!(
            check(1, &slow),
            ["a: fast_speedup 2.50x under the 3x floor"]
        );
        let path = std::env::temp_dir().join(format!("perf_floor_{}.json", std::process::id()));
        std::fs::write(&path, text(1, &slow)).unwrap();
        let (baseline, cells) = read::<ToySuite>(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            validate::<ToySuite>(&baseline, &cells),
            ["a: fast_speedup 2.50x under the 3x floor"]
        );

        assert!(check(1, &[toy("a", Some(3.0))]).is_empty());
        assert_eq!(
            check(1, &[toy("b", Some(9.0))]),
            ["a: cell missing; its fast_speedup floor needs it"]
        );
        assert_eq!(
            check(1, &[toy("a", None)]),
            ["a: fast_speedup missing; it has a floor"]
        );
    }

    #[test]
    fn best_cell_floor_is_disarmed_when_no_cell_ran_the_leg() {
        let lanes = |a: Option<f64>, b: Option<f64>| {
            let mut cells = [toy("a", Some(3.0)), toy("b", None)];
            cells[0].lane_speedup = a;
            cells[1].lane_speedup = b;
            check(1, &cells)
        };
        assert!(lanes(None, None).is_empty());
        assert!(lanes(Some(1.5), Some(2.0)).is_empty());
        assert_eq!(
            lanes(Some(1.5), Some(1.9)),
            ["best cell: lane_speedup 1.90x under the 2x floor"]
        );
    }

    #[test]
    fn thread_scaling_floor_arms_only_at_four_cores() {
        let pooled = |serial_seconds: f64| {
            let mut cell = toy("a", Some(3.0));
            cell.serial_seconds = serial_seconds;
            cell.pool_speedup = Some(1.0);
            [cell]
        };
        assert!(check(2, &pooled(0.5)).is_empty());
        assert!(check(4, &pooled(0.1)).is_empty());
        assert_eq!(
            check(4, &pooled(0.5)),
            ["a: pool_speedup 1.00x under the 1.05x floor"]
        );
    }

    #[test]
    fn schema_check_catches_extra_and_missing_keys() {
        let good = text(1, &[toy("a", Some(3.0))]);
        assert!(parse::<ToySuite>(&good).is_ok());
        let top_extra = good.replacen("\"seed\"", "\"qmc_seed\": 7,\n  \"seed\"", 1);
        assert_eq!(
            parse_err(&top_extra),
            "top level: unexpected key `qmc_seed`"
        );
        let top_missing = good.replacen("\"seed\": 42,", "", 1);
        assert!(parse_err(&top_missing).contains("missing field `seed`"));
        let cell_extra = good.replacen("\"fast_speedup\"", "\"simd\": true,\n\"fast_speedup\"", 1);
        assert_eq!(parse_err(&cell_extra), "a: unexpected key `simd`");
        let cell_missing = good.replacen("\"lane_speedup\": null,", "", 1);
        assert!(parse_err(&cell_missing).starts_with("a: missing field `lane_speedup`"));
    }

    #[test]
    fn non_finite_or_non_positive_values_are_rejected() {
        let mut cell = toy("a", Some(f64::NAN));
        cell.serial_seconds = 0.0;
        let bad = check(1, &[cell]);
        assert!(bad.contains(&"a: fast_speedup is NaN, not finite and positive".into()));
        assert!(bad.contains(&"a: serial_seconds is 0, not finite and positive".into()));
        let infinite = [toy("a", Some(f64::INFINITY))];
        assert_eq!(
            check(1, &infinite),
            ["a: fast_speedup is inf, not finite and positive"]
        );
        // A plain number column written as null reads back as NaN.
        let good = text(1, &[toy("a", Some(3.0))]);
        let nulled = good.replacen("\"serial_seconds\": 0.5", "\"serial_seconds\": null", 1);
        let (file, cells) = parse::<ToySuite>(&nulled).unwrap();
        assert_eq!(
            validate::<ToySuite>(&file, &cells),
            ["a: serial_seconds is NaN, not finite and positive"]
        );
    }

    #[test]
    fn another_schema_version_is_refused() {
        let good = text(1, &[toy("a", Some(3.0))]);
        let v5 = good.replacen("\"schema_version\": 6", "\"schema_version\": 5", 1);
        assert_eq!(parse_err(&v5), "schema_version is 5, expected 6");
    }

    #[test]
    fn another_suites_file_is_refused() {
        let sim = text(1, &[toy("a", Some(3.0))]).replacen("\"toy\"", "\"sim\"", 1);
        assert_eq!(parse_err(&sim), "suite is \"sim\", expected \"toy\"");
    }

    #[test]
    fn an_unparsable_file_is_refused() {
        assert!(parse_err("{\"grid\": [").starts_with("not JSON"));
        assert_eq!(parse_err("[]"), "schema_version is missing, expected 6");
    }

    #[test]
    fn metadata_and_duplicate_cells_are_checked() {
        let mut empty = file(0, &[]);
        empty.repeats = 0;
        let bad = validate::<ToySuite>(&empty, &[]);
        assert!(bad.contains(&"cores is 0, expected at least 1".into()));
        assert!(bad.contains(&"repeats is 0, expected at least 1".into()));
        assert!(bad.contains(&"cells is 0, expected at least 1".into()));
        let twice = [toy("a", Some(3.0)), toy("a", Some(3.0))];
        assert_eq!(check(1, &twice), ["a: duplicate cell"]);
    }

    #[test]
    fn a_missing_baseline_names_the_file() {
        let err = read::<ToySuite>(Path::new("no/such/BENCH_toy.json")).err();
        assert!(err.unwrap().starts_with("no/such/BENCH_toy.json: "));
    }

    #[test]
    fn a_baseline_error_names_the_file() {
        let path = std::env::temp_dir().join(format!("perf_sim_{}.json", std::process::id()));
        std::fs::write(&path, text(1, &[toy("a", Some(3.0))]).replace("toy", "sim")).unwrap();
        let err = read::<ToySuite>(&path).err().unwrap();
        std::fs::remove_file(&path).ok();
        let expected = format!("{}: suite is \"sim\", expected \"toy\"", path.display());
        assert_eq!(err, expected);
    }

    #[test]
    fn args_parse_the_three_flags() {
        assert_eq!(args(&[]), Ok(Args::default()));
        let all = args(&["--quick", "--out", "o.json", "--check", "b.json"]).unwrap();
        assert!(all.quick);
        assert_eq!(all.out, Some(PathBuf::from("o.json")));
        assert_eq!(all.check, Some(PathBuf::from("b.json")));
    }

    #[test]
    fn a_misspelt_flag_is_rejected() {
        let err = args(&["--quick", "--chek", "b.json"]).unwrap_err();
        assert_eq!(err, "unknown argument `--chek`");
        assert_eq!(args(&["b.json"]).unwrap_err(), "unknown argument `b.json`");
    }

    #[test]
    fn a_flag_without_its_value_is_rejected() {
        assert_eq!(
            args(&["--quick", "--check"]).unwrap_err(),
            "--check needs a FILE"
        );
        assert_eq!(
            args(&["--check", "--quick"]).unwrap_err(),
            "--check needs a FILE"
        );
        assert_eq!(args(&["--out"]).unwrap_err(), "--out needs a FILE");
    }

    #[test]
    fn a_repeated_flag_is_rejected() {
        assert_eq!(
            args(&["--out", "a", "--out", "b"]).unwrap_err(),
            "--out given twice"
        );
        assert_eq!(
            args(&["--quick", "--quick"]).unwrap_err(),
            "--quick given twice"
        );
    }

    #[test]
    fn median_takes_the_upper_middle_and_none_for_a_skipped_leg() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(3.0));
    }
}
