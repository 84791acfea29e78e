//! Output: one workload's result lines and closing JSON line, and the
//! all-workloads driver that runs each workload in a fresh child process
//! (so pool contents, allocator state and peak RSS do not leak between
//! them), prints the table, and under `--repeat` judges repeatability.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::spec::*;
use crate::stats;
use crate::workload::Kind;
use crate::Args;

/// Which declared metric set a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Names {
    EndToEnd,
    PerLayer,
}

impl Names {
    /// `(name, unit)` of every metric in the set, in declared order.
    fn declared(self) -> Vec<(&'static str, &'static str)> {
        match self {
            Names::EndToEnd => END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            Names::PerLayer => PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
        }
    }
}

/// One workload's result in one mode.
pub struct Outcome {
    kind: Kind,
    attempted: u64,
    failed: u64,
    /// `(metric, value, samples behind it)`.
    rows: Vec<(&'static str, f64, usize)>,
}

impl Outcome {
    pub fn new(kind: Kind, attempted: u64, failed: u64) -> Self {
        Self { kind, attempted, failed, rows: Vec::new() }
    }

    pub fn push(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(value.is_finite(), "{name} is not a finite number");
        self.rows.push((name, value, samples));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// One `workload metric value unit n=samples` line per metric, then
    /// the result line: a JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn print(&self, names: Names) {
        let declared = names.declared();
        let reported: Vec<&str> = self.rows.iter().map(|r| r.0).collect();
        let expected: Vec<&str> = declared.iter().map(|d| d.0).collect();
        assert_eq!(reported, expected, "the run must report exactly the declared metrics");
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (&(name, value, samples), &(_, unit))) in
            self.rows.iter().zip(&declared).enumerate()
        {
            println!("{} {name} {value} {unit} n={samples}", self.kind.name());
            let sep = if i == 0 { "" } else { ", " };
            json.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// `metric → (value, unit)` parsed back from a child's result lines.
type Parsed = BTreeMap<String, (f64, String)>;

/// Runs one workload in a child process and parses its result lines.
/// `None` when the child failed its checks or could not run.
fn run_child(kind: Kind, seed: u64, seconds: u64, trace: bool) -> Option<Parsed> {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let out = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("re-exec the benchmark");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut parsed = Parsed::new();
    for line in text.lines() {
        let t: Vec<&str> = line.split_whitespace().collect();
        if t.len() == 5 && t[0] == kind.name() && t[1] != "info" {
            if let Ok(v) = t[2].parse::<f64>() {
                parsed.insert(t[1].to_string(), (v, t[3].to_string()));
            }
        }
        if !line.starts_with('{') {
            println!("{line}");
        }
    }
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        eprintln!("{}: FAILED ({})", kind.name(), out.status);
        return None;
    }
    Some(parsed)
}

fn env_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"page_size\": {PAGE_SIZE}, \"profile\": \"release\", \
         \"os\": \"{}\", \"arch\": \"{}\"}}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

fn sizes_json() -> String {
    format!(
        "{{\"read_tuples\": {READ_TUPLES}, \"delta_tuples\": {DELTA_TUPLES}, \
         \"selection_dims\": {SELECTION_DIMS}, \"cardinality\": {CARDINALITY}, \
         \"ranking_dims\": {RANKING_DIMS}, \"queries\": {QUERIES}, \"k\": {K}, \
         \"hot_pool_pages\": {HOT_POOL_PAGES}, \"cold_pool_pages\": {COLD_POOL_PAGES}, \
         \"shards\": {SHARDS}, \"shard_pool_pages\": {SHARD_POOL_PAGES}, \
         \"delta_pool_pages\": {DELTA_POOL_PAGES}, \"flush_every_writes\": {FLUSH_EVERY}, \
         \"setups_per_run\": {SETUPS}}}"
    )
}

fn metrics_json(parsed: &Parsed, indent: &str) -> String {
    let rows: Vec<String> = parsed
        .iter()
        .map(|(name, (v, unit))| {
            format!("{indent}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    rows.join(",\n")
}

/// Every workload once, each in its own process; with `--trace 1` the
/// traced pass as well. Ends with one JSON document whose last key is
/// `"claim": null`: this benchmark is the instrument, not a claim.
fn run_set_once(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut doc = format!(
        "{{\n  \"bench\": \"e2e\",\n  \"smoke\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"env\": {},\n  \"sizes\": {},\n  \"workloads\": {{\n",
        args.smoke,
        args.seed,
        args.seconds,
        env_json(),
        sizes_json()
    );
    for (i, kind) in Kind::ALL.into_iter().enumerate() {
        let e2e = run_child(kind, args.seed, args.seconds, false);
        let layers = if args.trace { run_child(kind, args.seed, args.seconds, true) } else { None };
        ok &= e2e.is_some() && (!args.trace || layers.is_some());
        let sep = if i + 1 == Kind::ALL.len() { "" } else { "," };
        doc.push_str(&format!(
            "    \"{}\": {{\n      \"clients\": {},\n      \"end_to_end\": {{\n{}\n      }},\n      \
             \"per_layer\": {{\n{}\n      }}\n    }}{sep}\n",
            kind.name(),
            crate::workload::clients(),
            metrics_json(&e2e.unwrap_or_default(), "        "),
            metrics_json(&layers.unwrap_or_default(), "        "),
        ));
    }
    // The declared interactions: which end-to-end metric, on which
    // workload, each per-layer metric is expected to move.
    let moves: Vec<String> =
        PER_LAYER.iter().map(|m| format!("    \"{}\": \"{}\"", m.name, m.moves)).collect();
    doc.push_str(&format!(
        "  }},\n  \"interactions\": {{\n{}\n  }},\n  \"errors\": {},\n  \"claim\": null\n}}",
        moves.join(",\n"),
        !ok
    ));
    println!("{doc}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--repeat N`: the whole set N times, workload order alternating, each
/// repetition on the next seed — the acceptance check of a benchmark
/// driver, run locally. A metric passes when the distance between its
/// quartiles stays within its bound (as a share of the median;
/// `setup_s` exempt) and the median of the second half of the
/// repetitions is not worse than the first half's by more than the bound.
fn run_repeated(args: &Args) -> ExitCode {
    let mut values: BTreeMap<(Kind, &'static str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for rep in 0..args.repeat {
        let mut order = Kind::ALL.to_vec();
        if rep % 2 == 1 {
            order.reverse();
        }
        for kind in order {
            match run_child(kind, args.seed + rep as u64, args.seconds, false) {
                Some(parsed) => {
                    for m in &END_TO_END {
                        values.entry((kind, m.name)).or_default().push(parsed[m.name].0);
                    }
                }
                None => ok = false,
            }
        }
    }
    println!("workload metric q1 median q3 spread bound half1 half2 verdict");
    for kind in Kind::ALL {
        for m in &END_TO_END {
            let Some(v) = values.get(&(kind, m.name)).filter(|v| v.len() >= 2) else {
                continue;
            };
            let [q1, med, q3] = stats::quartiles(v);
            let spread = (q3 - q1) / med;
            let (a, b) = v.split_at(v.len() / 2);
            let (ha, hb) = (stats::median_f64(a), stats::median_f64(b));
            let worse = if m.better == "lower" { (hb - ha) / ha } else { (ha - hb) / ha };
            let steady = (m.name == "setup_s" || spread <= m.bound) && worse <= m.bound;
            ok &= steady;
            println!(
                "{} {} {q1:.4} {med:.4} {q3:.4} {spread:.4} {} {ha:.4} {hb:.4} {}",
                kind.name(),
                m.name,
                m.bound,
                if steady { "ok" } else { "UNSTEADY" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

pub fn run_all(args: &Args) -> ExitCode {
    if args.repeat > 0 {
        run_repeated(args)
    } else {
        run_set_once(args)
    }
}
