//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory, written out once at exit. A span's self
//! time is its duration minus what its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Spans of one op share its id.
    pub op: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    next_op: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), next_op: 0 }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a root span: the start of one op.
    pub fn begin_op(&mut self, name: &'static str) {
        assert!(self.open.is_empty(), "ops do not nest");
        self.next_op += 1;
        self.enter(name);
    }

    pub fn enter(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        let now = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op: self.next_op });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Every span's duration, by name.
    pub fn durations(&self) -> BTreeMap<&'static str, Vec<u64>> {
        self.by_name(self.spans.iter().map(Span::duration))
    }

    /// Every span's self time (duration minus child coverage), by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.duration();
            }
        }
        self.by_name(self.spans.iter().zip(covered).map(|(s, c)| s.duration().saturating_sub(c)))
    }

    /// Groups one value per span, in span order, under the spans' names.
    fn by_name(&self, values: impl Iterator<Item = u64>) -> BTreeMap<&'static str, Vec<u64>> {
        let mut grouped: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, v) in self.spans.iter().zip(values) {
            grouped.entry(s.name).or_default().push(v);
        }
        grouped
    }

    /// Share of the `root`-named spans' wall time that their child spans
    /// account for — what the per-layer rows sum to.
    pub fn attributed_share(&self, root: &str) -> f64 {
        let mut wall = 0u64;
        let mut children = 0u64;
        for s in &self.spans {
            if s.name == root {
                wall += s.duration();
            } else if s.parent.is_some_and(|p| self.spans[p as usize].name == root) {
                children += s.duration();
            }
        }
        children as f64 / wall.max(1) as f64
    }

    /// The trace file: the spans, and the counts taken at the same
    /// boundaries.
    pub fn to_json(&self, workload: &str, counts: &[(&str, f64)]) -> String {
        let mut s = format!("{{\n  \"workload\": \"{workload}\",\n  \"counts\": {{");
        for (i, (name, v)) in counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            s.push_str(&format!("{sep}\n    \"{name}\": {v}"));
        }
        s.push_str("\n  },\n  \"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{sep}\n    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.op
            ));
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.begin_op("op");
        t.span("a", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.span("b", || ());
        t.exit();
        let total = t.durations()["op"][0];
        let own = t.self_times()["op"][0];
        let kids = t.durations()["a"][0] + t.durations()["b"][0];
        assert_eq!(own, total - kids);
        assert!(t.attributed_share("op") > 0.5);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].op, 1);
    }
}
