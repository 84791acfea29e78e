//! One `BENCH_*.json` document. An emitter sets its fields in order as
//! typed values and declares its gates; the report renders the JSON, writes
//! it at the workspace root and applies the one gate rule.
//!
//! # Gates
//!
//! Every gate is recorded under `gates`, keyed by the measured key it
//! guards, as `{ "kind", "bound", "min_threads", "enforced", "why" }`:
//!
//! * `clock` — a wall-clock figure. Enforced if and only if
//!   `RCUBE_BENCH_SOFT` is unset and the machine has at least `min_threads`
//!   hardware threads (`judge`); enforced and missed, it panics naming the
//!   key, value and bound, otherwise a miss is a warning. A clock gate with
//!   no `min_threads` is a target: recorded, never enforced.
//! * `counter` — a deterministic count. It stays a plain `assert!` where
//!   the bench measures it, hard everywhere, and is only recorded here.

use std::fmt;

/// A JSON value as the bench documents print it.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Int(i128),
    /// Printed with this many decimals; a non-finite value prints `null`.
    Fixed(f64, usize),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Obj),
    /// A fragment copied verbatim: the `BEFORE` history constants, `null`.
    Raw(&'static str),
}

/// `value` printed with `decimals` decimals.
pub fn fixed(value: f64, decimals: usize) -> Json {
    Json::Fixed(value, decimals)
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Self {
                Json::Int(n as i128)
            }
        }
    )*};
}
int_json!(u32, u64, usize, i64);

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<Obj> for Json {
    fn from(o: Obj) -> Self {
        Json::Obj(o)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// The value as text, at nesting `depth` (a one-field-a-line object
    /// indents its fields two spaces deeper than itself).
    fn render(&self, depth: usize) -> String {
        match self {
            Json::Int(n) => n.to_string(),
            Json::Fixed(v, decimals) if v.is_finite() => format!("{v:.decimals$}"),
            Json::Fixed(..) => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            // Debug escapes `"` and `\` as JSON does; keys and strings
            // here are printable text.
            Json::Str(s) => format!("{s:?}"),
            Json::Raw(s) => s.to_string(),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(|v| v.render(depth)).collect();
                format!("[{}]", items.join(", "))
            }
            Json::Obj(o) if o.fields.is_empty() => "{}".to_string(),
            Json::Obj(o) => {
                let fields =
                    o.fields.iter().map(|(k, v)| format!("{k:?}: {}", v.render(depth + 1)));
                let fields: Vec<String> = fields.collect();
                let pad = "  ".repeat(depth + 1);
                if o.lines {
                    format!("{{\n{pad}{}\n{}}}", fields.join(&format!(",\n{pad}")), &pad[2..])
                } else {
                    format!("{{ {} }}", fields.join(", "))
                }
            }
        }
    }
}

/// A JSON object: its fields in the order they were set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Obj {
    fields: Vec<(String, Json)>,
    lines: bool,
}

impl Obj {
    /// An object printed on one line.
    pub fn new() -> Self {
        Self::default()
    }

    /// An object printed one field a line.
    pub fn lines() -> Self {
        Obj { lines: true, ..Self::default() }
    }

    pub fn with(mut self, key: impl Into<String>, value: impl Into<Json>) -> Self {
        self.push(key, value);
        self
    }

    fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        self.fields.push((key.into(), value.into()));
    }

    fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Which side of a clock gate's bound a measurement must fall on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    Min(f64),
    Max(f64),
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Min(b) => write!(f, ">= {b:?}"),
            Bound::Max(b) => write!(f, "<= {b:?}"),
        }
    }
}

/// The gate rule: whether a clock gate with thread floor `min_threads` is
/// enforced, and why. It is if and only if `RCUBE_BENCH_SOFT` is unset
/// (`!soft`) and the machine has at least `min_threads` hardware threads;
/// a gate with no floor is a target and never is.
fn judge(soft: bool, hardware: usize, min_threads: Option<usize>) -> (bool, String) {
    match min_threads {
        None => (false, "a target, never enforced".to_string()),
        Some(_) if soft => (false, "RCUBE_BENCH_SOFT is set".to_string()),
        Some(m) if hardware < m => (false, format!("{hardware} hardware threads < {m}")),
        Some(m) => (true, format!("RCUBE_BENCH_SOFT unset, {hardware} hardware threads >= {m}")),
    }
}

/// One entry of `gates`.
fn gate(kind: &str, bound: &str, min_threads: Option<usize>, enforced: bool, why: &str) -> Obj {
    let min_threads = min_threads.map_or(Json::Raw("null"), Json::from);
    let entry = Obj::new().with("kind", kind).with("bound", bound).with("min_threads", min_threads);
    entry.with("enforced", enforced).with("why", why)
}

/// One `BENCH_<name>.json` document under construction.
pub struct BenchReport {
    name: String,
    doc: Obj,
    gates: Obj,
    soft: bool,
    hardware: usize,
}

impl BenchReport {
    /// A document that opens with `bench` and `bench_env` (hardware
    /// threads, simulated page size, build profile), so archived documents
    /// from different machines and build modes stay comparable.
    pub fn new(name: &str) -> Self {
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        let env = Obj::new()
            .with("hardware_threads", hardware)
            .with("page_size_bytes", rcube_storage::DEFAULT_PAGE_SIZE)
            .with("build_profile", profile);
        let doc = Obj::lines().with("bench", name).with("bench_env", env);
        let soft = std::env::var_os("RCUBE_BENCH_SOFT").is_some();
        BenchReport { name: name.to_string(), doc, gates: Obj::lines(), soft, hardware }
    }

    /// A criterion bench's document: `bench`, `unit` (`ns_per_iter`),
    /// `bench_env`, then `results`, each measurement's mean by id.
    pub fn criterion<'a>(name: &str, results: impl IntoIterator<Item = (&'a str, f64)>) -> Self {
        let mut report = Self::new(name);
        report.doc.fields.insert(1, ("unit".to_string(), "ns_per_iter".into()));
        let table = results.into_iter().fold(Obj::lines(), |o, (id, ns)| o.with(id, fixed(ns, 1)));
        report.set("results", table);
        report
    }

    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        self.doc.push(key, value);
        self
    }

    /// The mean of criterion measurement `id`.
    pub fn result(&self, id: &str) -> Option<f64> {
        let Some(Json::Obj(results)) = self.doc.get("results") else { return None };
        match results.get(id)? {
            Json::Fixed(ns, _) => Some(*ns),
            _ => None,
        }
    }

    /// `result(num) / result(den)`; 0 when either is missing or `den` is
    /// not positive.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        match (self.result(num), self.result(den)) {
            (Some(n), Some(d)) if d > 0.0 => n / d,
            _ => 0.0,
        }
    }

    /// Records a clock gate on `key` and applies the gate rule to it.
    pub fn clock_gate(&mut self, key: &str, value: f64, bound: Bound, min_threads: Option<usize>) {
        let (enforced, why) = judge(self.soft, self.hardware, min_threads);
        let mode = if enforced { "enforced" } else { "not enforced" };
        println!("{}: gate {key} = {value:.2}, bound {bound}, {mode}: {why}", self.name);
        self.gates.push(key, gate("clock", &bound.to_string(), min_threads, enforced, &why));
        let held = match bound {
            Bound::Min(b) => value >= b,
            Bound::Max(b) => value <= b,
        };
        if !held {
            let miss = format!("{key} = {value:.2} misses its bound {bound} ({why})");
            assert!(!enforced, "{miss}");
            eprintln!("WARNING: {miss}");
        }
    }

    /// Records a counter gate: a deterministic count the bench asserts
    /// where it measures it, hard everywhere.
    pub fn counter_gate(&mut self, key: &str, bound: &str, why: &str) {
        self.gates.push(key, gate("counter", bound, Some(1), true, why));
    }

    /// The document as it is written: the fields in order, `gates` last.
    pub(crate) fn render(&self) -> String {
        let doc = self.doc.clone().with("gates", self.gates.clone());
        format!("{}\n", Json::Obj(doc).render(0))
    }

    /// Writes `BENCH_<name>.json` at the workspace root and prints its path.
    pub fn write(self) {
        let path = format!("{}/../../BENCH_{}.json", env!("CARGO_MANIFEST_DIR"), self.name);
        std::fs::write(&path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_document_renders_to_the_golden_text() {
        let nested =
            Obj::new().with("n", -3i64).with("inner", Obj::new().with("nan", fixed(f64::NAN, 1)));
        let doc = Obj::lines()
            .with("bench", "say \"hi\" \\ twice")
            .with("count", 7u64)
            .with("ratio", fixed(1.23456, 2))
            .with("flags", vec![true, false])
            .with("empty", Obj::new())
            .with("nested", nested)
            .with("inf", fixed(f64::INFINITY, 3))
            .with("table", Obj::lines().with("t1", fixed(2.0, 1)).with("none", Json::Raw("null")))
            .with("before", Json::Raw("{ \"commit\": \"x\" }"));
        let golden = r#"{
  "bench": "say \"hi\" \\ twice",
  "count": 7,
  "ratio": 1.23,
  "flags": [true, false],
  "empty": {},
  "nested": { "n": -3, "inner": { "nan": null } },
  "inf": null,
  "table": {
    "t1": 2.0,
    "none": null
  },
  "before": { "commit": "x" }
}"#;
        assert_eq!(Json::Obj(doc).render(0), golden);
    }

    #[test]
    fn the_gate_rule_enforces_where_each_gate_enforced_before() {
        // Each gate's enforcement as its bench decided it before the rule
        // moved here, against the thread floor it now declares.
        type Rule = fn(bool, usize) -> bool;
        let before: [(&str, usize, Rule); 4] = [
            ("idlist, sig, storage, obs", 1, |soft, _| !soft),
            ("concurrency, 2 threads", 2, |soft, hw| !soft && hw >= 2),
            ("shard, 4 shards", 4, |soft, hw| !soft && hw >= 4),
            ("maintenance, 4 readers", 4 + 1, |soft, hw| !soft && hw > 4),
        ];
        for (gate, min_threads, enforced_before) in before {
            for soft in [false, true] {
                for hardware in 1..=16 {
                    let (enforced, _) = judge(soft, hardware, Some(min_threads));
                    assert_eq!(
                        enforced,
                        enforced_before(soft, hardware),
                        "{gate}: {soft} {hardware}"
                    );
                }
            }
        }
        assert_eq!(judge(false, 2, Some(4)), (false, "2 hardware threads < 4".to_string()));
        assert_eq!(judge(true, 8, Some(1)), (false, "RCUBE_BENCH_SOFT is set".to_string()));
        let why = "RCUBE_BENCH_SOFT unset, 2 hardware threads >= 2".to_string();
        assert_eq!(judge(false, 2, Some(2)), (true, why));
        assert_eq!(judge(false, 64, None), (false, "a target, never enforced".to_string()));
        assert_eq!(
            (Bound::Max(3.0).to_string(), Bound::Min(1.17).to_string()),
            ("<= 3.0".into(), ">= 1.17".into())
        );
    }

    fn report(soft: bool, hardware: usize) -> BenchReport {
        BenchReport { soft, hardware, ..BenchReport::new("t") }
    }

    #[test]
    #[should_panic(expected = "scaling_2t_vs_1t = 1.10 misses its bound >= 1.17")]
    fn an_enforced_failing_gate_panics() {
        report(false, 2).clock_gate("scaling_2t_vs_1t", 1.1, Bound::Min(1.17), Some(2));
    }

    #[test]
    fn a_soft_held_or_target_gate_does_not_panic() {
        report(true, 2).clock_gate("soft", 1.1, Bound::Min(1.17), Some(2));
        report(false, 1).clock_gate("few_threads", 1.1, Bound::Min(1.17), Some(2));
        report(false, 2).clock_gate("held", 1.2, Bound::Min(1.17), Some(2));
        report(false, 8).clock_gate("target", 0.7, Bound::Min(2.5), None);
        report(false, 8).clock_gate("overhead", 7.0, Bound::Max(5.0), Some(16));
    }

    #[test]
    fn gates_follow_the_fields_and_results_feed_ratios() {
        let mut r = BenchReport::criterion("t", [("a", 30.0), ("b", 10.0), ("z", 0.0)]);
        r.set("speedup", fixed(r.ratio("a", "b"), 2));
        r.counter_gate("speedup", ">= 2.0", "a deterministic count");
        r.clock_gate("scaling", 3.0, Bound::Min(2.5), None);
        assert_eq!(r.result("b"), Some(10.0));
        assert_eq!((r.ratio("a", "z"), r.ratio("a", "missing")), (0.0, 0.0));
        let text = r.render();
        let at = |key: &str| text.find(key).unwrap_or_else(|| panic!("{key} in {text}"));
        assert!(at("\"bench\"") < at("\"unit\"") && at("\"unit\"") < at("\"bench_env\""));
        assert!(
            at("\"results\"") < at("\"speedup\": 3.00")
                && at("\"speedup\": 3.00") < at("\"gates\"")
        );
        assert!(text.contains(
            "\"scaling\": { \"kind\": \"clock\", \"bound\": \">= 2.5\", \"min_threads\": null, \
             \"enforced\": false, \"why\": \"a target, never enforced\" }"
        ));
        assert!(text.ends_with("  }\n}\n"));
    }
}
