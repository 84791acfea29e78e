//! The metrics registry: named counters, gauges and log₂-bucketed
//! histograms behind cheap pre-resolved handles (crate docs for the
//! locking discipline and the cost model: a record is one relaxed atomic
//! add on the recording thread's stripe of a [`Striped`] cell).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log₂ buckets per histogram. Bucket `i > 0` holds recorded
/// values whose bit length is `i`, i.e. the half-open magnitude range
/// `[2^(i-1), 2^i)`; bucket 0 holds exactly the value 0; the last bucket
/// absorbs everything too large to classify.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Bucket index for a recorded value (see [`HISTOGRAM_BUCKETS`]).
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` — the `le` label in the
/// Prometheus exposition.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Stripes per [`Striped`] cell. Fixed: a recording thread draws one slot
/// for its lifetime, so up to this many threads record without ever
/// writing a cache line another of them writes; beyond that, threads share
/// stripes (still exact — every add is an atomic read-modify-write — just
/// no longer private).
pub const STRIPES: usize = 16;

/// The slot this thread records into, drawn round-robin on first use.
fn stripe_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    SLOT.with(|s| *s)
}

/// One thread's share of a [`Striped`] cell, on cache lines of its own
/// (128 bytes: x86-64 prefetches lines in adjacent pairs).
#[derive(Debug)]
#[repr(align(128))]
struct Stripe<const N: usize>([AtomicU64; N]);

/// `N` monotonic `u64` tallies striped by recording thread — the one cell
/// behind every [`Counter`] and [`Histogram`], and behind the I/O meter
/// and cache totals of the storage and core crates. [`Self::add`] is one
/// relaxed atomic add on the calling thread's stripe; [`Self::sum`] reads
/// every stripe once. Each per-stripe value only grows, so a sum observed
/// twice is monotonic; tallies of one cell are not read atomically with
/// respect to each other (they never were).
#[derive(Debug)]
pub struct Striped<const N: usize> {
    stripes: [Stripe<N>; STRIPES],
}

impl<const N: usize> Default for Striped<N> {
    fn default() -> Self {
        Self {
            stripes: std::array::from_fn(|_| Stripe(std::array::from_fn(|_| AtomicU64::new(0)))),
        }
    }
}

impl<const N: usize> Striped<N> {
    /// Adds `n` to tally `i` on this thread's stripe.
    #[inline]
    pub fn add(&self, i: usize, n: u64) {
        self.stripes[stripe_slot()].0[i].fetch_add(n, Ordering::Relaxed);
    }

    /// Tally `i` summed over every stripe.
    pub fn sum(&self, i: usize) -> u64 {
        self.stripes.iter().map(|s| s.0[i].load(Ordering::Relaxed)).sum()
    }

    /// Zeroes every tally (measurement points only: adds racing a reset
    /// may land on either side of it).
    pub fn reset(&self) {
        for cell in self.stripes.iter().flat_map(|s| &s.0) {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

/// A histogram's tallies: one per bucket, then the sum of recorded values.
/// The observation count is the sum of the buckets.
type HistogramCell = Striped<{ HISTOGRAM_BUCKETS + 1 }>;
const SUM: usize = HISTOGRAM_BUCKETS;

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Striped<1>>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Default)]
struct Registry {
    instruments: Mutex<BTreeMap<String, Instrument>>,
}

impl Registry {
    /// Resolves (or creates) the named instrument. Panics if `name` is
    /// already registered as a different kind — a programmer error that
    /// would otherwise silently split one series in two.
    fn resolve(&self, name: &str, make: impl FnOnce() -> Instrument) -> Instrument {
        let mut map = self.instruments.lock().unwrap();
        let inst = map.entry(name.to_string()).or_insert_with(make).clone();
        drop(map);
        inst
    }
}

/// A handle on one registry (or on nothing): `Arc`-cheap to clone, all
/// methods `&self`. See the crate docs for the enabled/disabled cost
/// model.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    registry: Option<Arc<Registry>>,
}

impl Metrics {
    /// A fresh, enabled registry (e.g. one per `Engine`).
    pub fn new() -> Self {
        Self { registry: Some(Arc::new(Registry::default())) }
    }

    /// The null registry: every handle minted from it is a no-op and
    /// records through one predictable branch — no atomics, no locks.
    pub fn disabled() -> Self {
        Self { registry: None }
    }

    /// The process-wide default registry (created on first use). Static
    /// call sites with no engine in reach (e.g. `scrub_path`) record
    /// here.
    pub fn global() -> &'static Metrics {
        static GLOBAL: OnceLock<Metrics> = OnceLock::new();
        GLOBAL.get_or_init(Metrics::new)
    }

    /// Whether handles minted from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Resolves the named monotonic counter (registering it on first
    /// use). Resolve once, record forever: the registry lock is paid
    /// here, never in [`Counter::inc`].
    pub fn counter(&self, name: &str) -> Counter {
        match &self.registry {
            None => Counter(None),
            Some(r) => match r.resolve(name, || Instrument::Counter(Arc::default())) {
                Instrument::Counter(c) => Counter(Some(c)),
                other => panic!("metric {name:?} already registered as a {}", other.kind()),
            },
        }
    }

    /// Resolves the named gauge (a settable `u64`, e.g. a generation).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.registry {
            None => Gauge(None),
            Some(r) => match r.resolve(name, || Instrument::Gauge(Arc::new(AtomicU64::new(0)))) {
                Instrument::Gauge(g) => Gauge(Some(g)),
                other => panic!("metric {name:?} already registered as a {}", other.kind()),
            },
        }
    }

    /// Resolves the named log₂-bucketed histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.registry {
            None => Histogram(None),
            Some(r) => match r.resolve(name, || Instrument::Histogram(Arc::default())) {
                Instrument::Histogram(h) => Histogram(Some(h)),
                other => panic!("metric {name:?} already registered as a {}", other.kind()),
            },
        }
    }

    /// A point-in-time copy of every registered instrument, sorted by
    /// name. Concurrent recording keeps running; each stripe of each
    /// instrument is read once, so a counter observed across two snapshots
    /// is monotonic.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let Some(r) = &self.registry else { return snap };
        let map = r.instruments.lock().unwrap();
        for (name, inst) in map.iter() {
            match inst {
                Instrument::Counter(c) => snap.counters.push((name.clone(), c.sum(0))),
                Instrument::Gauge(g) => snap.gauges.push((name.clone(), g.load(Ordering::Relaxed))),
                Instrument::Histogram(h) => {
                    let buckets: Vec<u64> = (0..HISTOGRAM_BUCKETS).map(|i| h.sum(i)).collect();
                    let count = buckets.iter().sum();
                    snap.histograms.push((
                        name.clone(),
                        HistogramSnapshot { buckets, count, sum: h.sum(SUM) },
                    ));
                }
            }
        }
        snap
    }
}

/// A monotonic counter handle. `Default` (and any handle minted from
/// [`Metrics::disabled`]) is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<Striped<1>>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1)
    }

    /// Adds `n` (one relaxed atomic on the recording thread's stripe when
    /// enabled, one branch when not).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.add(0, n);
        }
    }

    /// Current value, summed over the stripes (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.sum(0))
    }
}

/// A settable gauge handle (last write wins).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Adds to the gauge.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(g) = &self.0 {
            g.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A log₂-bucketed histogram handle (units are the caller's — the
/// workspace records microseconds for latencies, raw counts otherwise).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

impl Histogram {
    /// Records one observation (two relaxed atomics on the recording
    /// thread's stripe when enabled: its bucket and the sum).
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.add(bucket_index(value), 1);
            h.add(SUM, value);
        }
    }

    /// Observations recorded so far (0 when disabled).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| (0..HISTOGRAM_BUCKETS).map(|i| h.sum(i)).sum())
    }

    /// Sum of recorded values (0 when disabled).
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.sum(SUM))
    }
}

/// One histogram at snapshot time: per-bucket counts (non-cumulative,
/// indexed as [`HISTOGRAM_BUCKETS`] describes), total count and sum.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Non-cumulative per-bucket observation counts.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the smallest bucket whose cumulative count reaches
    /// quantile `q` of all observations — a ≤2× overestimate by
    /// construction of the log₂ buckets. `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return bucket_upper(i);
            }
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1)
    }
}

/// A sorted point-in-time copy of a registry ([`Metrics::snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` per histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Value of the named gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Dots and dashes in metric names become underscores; histograms
    /// render as the conventional cumulative `_bucket{le="…"}` series
    /// plus `_sum` / `_count`.
    pub fn to_prometheus_text(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                if b == 0 {
                    continue;
                }
                cumulative += b;
                out.push_str(&format!("{n}_bucket{{le=\"{}\"}} {cumulative}\n", bucket_upper(i)));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}` with
    /// histogram buckets as `[upper_bound, count]` pairs (zero buckets
    /// omitted).
    pub fn to_json(&self) -> String {
        fn escape(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", escape(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", escape(name)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                escape(name),
                h.count,
                h.sum
            ));
            let mut first = true;
            for (bi, &b) in h.buckets.iter().enumerate() {
                if b == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("[{},{b}]", bucket_upper(bi)));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucketing_covers_the_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every bucket's values fall at or below its upper bound.
        for v in [0u64, 1, 2, 3, 7, 8, 1 << 20, u64::MAX] {
            assert!(v <= bucket_upper(bucket_index(v)), "v={v}");
        }
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let m = Metrics::new();
        let c = m.counter("pool.hits");
        c.inc();
        c.add(4);
        m.gauge("gen").set(7);
        let h = m.histogram("lat.us");
        for v in [0u64, 1, 5, 5, 300] {
            h.record(v);
        }
        let snap = m.snapshot();
        assert_eq!(snap.counter("pool.hits"), Some(5));
        assert_eq!(snap.gauge("gen"), Some(7));
        let hs = snap.histogram("lat.us").unwrap();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 311);
        assert_eq!(hs.buckets.iter().sum::<u64>(), 5);
        assert!(hs.quantile(0.5) >= 5);
        // Re-resolving the same name returns the same underlying cell.
        m.counter("pool.hits").add(1);
        assert_eq!(m.snapshot().counter("pool.hits"), Some(6));
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        let c = m.counter("x");
        c.add(100);
        assert_eq!(c.get(), 0);
        let h = m.histogram("y");
        h.record(9);
        assert_eq!(h.count(), 0);
        let snap = m.snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let m = Metrics::new();
        m.counter("x");
        m.gauge("x");
    }

    #[test]
    fn exports_render_every_series() {
        let m = Metrics::new();
        m.counter("a.b").add(3);
        m.gauge("g").set(2);
        m.histogram("h").record(6);
        let snap = m.snapshot();
        let prom = snap.to_prometheus_text();
        assert!(prom.contains("# TYPE a_b counter"), "{prom}");
        assert!(prom.contains("a_b 3"), "{prom}");
        assert!(prom.contains("h_bucket{le=\"7\"} 1"), "{prom}");
        assert!(prom.contains("h_bucket{le=\"+Inf\"} 1"), "{prom}");
        let json = snap.to_json();
        assert!(json.contains("\"a.b\":3"), "{json}");
        assert!(json.contains("\"h\":{\"count\":1,\"sum\":6,\"buckets\":[[7,1]]}"), "{json}");
    }

    /// Threads × adds per thread of the exactness tests below.
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 100_000;

    #[test]
    fn striped_instruments_sum_exactly_under_eight_threads() {
        let m = Metrics::new();
        let (c, h) = (m.counter("c"), m.histogram("h"));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (c, h) = (c.clone(), h.clone());
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record((i + t) % 1000);
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS * PER_THREAD);
        assert_eq!(h.count(), THREADS * PER_THREAD);
        // What one thread would have recorded, bucket by bucket.
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        let mut sum = 0u64;
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                buckets[bucket_index((i + t) % 1000)] += 1;
                sum += (i + t) % 1000;
            }
        }
        let snap = m.snapshot();
        let hs = snap.histogram("h").unwrap();
        assert_eq!((hs.count, hs.sum, h.sum()), (THREADS * PER_THREAD, sum, sum));
        assert_eq!(hs.buckets, buckets);
        assert_eq!(snap.counter("c"), Some(THREADS * PER_THREAD));
    }

    #[test]
    fn a_counter_read_while_writers_run_is_monotonic() {
        let m = Metrics::new();
        let c = m.counter("c");
        let stop = std::sync::atomic::AtomicBool::new(false);
        let started = std::sync::Barrier::new(5);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    started.wait();
                    while !stop.load(Ordering::Relaxed) {
                        c.inc();
                    }
                });
            }
            started.wait();
            let mut last = 0;
            for _ in 0..2_000 {
                let now = m.snapshot().counter("c").unwrap();
                assert!(now >= last, "counter went back: {last} -> {now}");
                last = now;
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(m.snapshot().counter("c"), Some(c.get()));
    }

    #[test]
    fn more_live_threads_than_stripes_still_sum_exactly() {
        let cell = Striped::<2>::default();
        let threads = 3 * STRIPES;
        // Every thread is alive (parked on the barrier) before any records,
        // so stripes are shared by construction, not by luck.
        let all_alive = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    all_alive.wait();
                    for _ in 0..10_000 {
                        cell.add(0, 1);
                        cell.add(1, 3);
                    }
                });
            }
        });
        assert_eq!((cell.sum(0), cell.sum(1)), (threads as u64 * 10_000, threads as u64 * 30_000));
        cell.reset();
        assert_eq!((cell.sum(0), cell.sum(1)), (0, 0));
    }

    #[test]
    fn exports_are_byte_identical_to_the_unstriped_registry() {
        // The literals are what the single-atomic registry (PR 21) rendered
        // for this sequence; striping must not show in either export.
        let m = Metrics::new();
        m.counter("pool.hits").add(41);
        m.counter("pool.hits").inc();
        m.counter("query.grid.count").add(7);
        m.gauge("delta.generation").set(3);
        let h = m.histogram("query.grid.latency_us");
        for v in [0u64, 1, 1, 13, 14, 200, 4096, 1 << 40] {
            h.record(v);
        }
        m.histogram("empty.us");
        let snap = m.snapshot();
        assert_eq!(
            snap.to_prometheus_text(),
            "# TYPE pool_hits counter\npool_hits 42\n\
             # TYPE query_grid_count counter\nquery_grid_count 7\n\
             # TYPE delta_generation gauge\ndelta_generation 3\n\
             # TYPE empty_us histogram\n\
             empty_us_bucket{le=\"+Inf\"} 0\nempty_us_sum 0\nempty_us_count 0\n\
             # TYPE query_grid_latency_us histogram\n\
             query_grid_latency_us_bucket{le=\"0\"} 1\n\
             query_grid_latency_us_bucket{le=\"1\"} 3\n\
             query_grid_latency_us_bucket{le=\"15\"} 5\n\
             query_grid_latency_us_bucket{le=\"255\"} 6\n\
             query_grid_latency_us_bucket{le=\"8191\"} 7\n\
             query_grid_latency_us_bucket{le=\"2199023255551\"} 8\n\
             query_grid_latency_us_bucket{le=\"+Inf\"} 8\n\
             query_grid_latency_us_sum 1099511632101\nquery_grid_latency_us_count 8\n"
        );
        assert_eq!(
            snap.to_json(),
            "{\"counters\":{\"pool.hits\":42,\"query.grid.count\":7},\
             \"gauges\":{\"delta.generation\":3},\
             \"histograms\":{\"empty.us\":{\"count\":0,\"sum\":0,\"buckets\":[]},\
             \"query.grid.latency_us\":{\"count\":8,\"sum\":1099511632101,\
             \"buckets\":[[0,1],[1,2],[15,2],[255,1],[8191,1],[2199023255551,1]]}}}"
        );
    }
}
