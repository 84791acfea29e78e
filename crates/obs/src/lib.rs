//! Zero-dependency observability for the ranking-cube workspace: a
//! lock-free [`Metrics`] registry (counters, gauges, log₂-bucketed
//! histograms) and a per-query [`QueryTrace`] ring buffer with a span API.
//!
//! # Design
//!
//! * **Free when disabled.** Every instrument handle is an
//!   `Option<Arc<…>>`: a handle minted from [`Metrics::disabled`] is
//!   `None`, so the hot-path cost of an un-instrumented component is one
//!   predictable branch — no atomics, no locks, no allocation.
//! * **Lock-free and unshared when enabled.** The cost model of a record
//!   is *one relaxed atomic add on the recording thread's stripe* (two for
//!   a histogram: its bucket and the sum). Counters and histograms are
//!   [`Striped`] cells: a fixed [`STRIPES`] cache-line-padded copies of the
//!   tallies, a thread drawing its stripe once, so two query threads
//!   recording into the same series never write the same cache line;
//!   reading sums the stripes, so snapshots and both exports show the same
//!   totals a single atomic would. Gauges are last-write-wins and stay one
//!   atomic. The registry's mutex is touched only at registration
//!   ([`Metrics::counter`] et al.) and snapshot time, never on a
//!   read/record path. Components resolve their handles once (`OnceLock`)
//!   and reuse them forever.
//! * **Cheap handles.** [`Metrics`] is a thin `Arc` — clone it freely
//!   into every component. A process-wide default lives behind
//!   [`Metrics::global`]; each `Engine` owns its own registry so two
//!   engines in one process never mix counters.
//!
//! # Exports
//!
//! [`Metrics::snapshot`] produces a [`MetricsSnapshot`] that renders as
//! Prometheus exposition text ([`MetricsSnapshot::to_prometheus_text`])
//! or a single JSON object ([`MetricsSnapshot::to_json`]).
//! [`QueryTrace::to_json_lines`] renders a trace as JSON lines, one
//! event per line, in emission order.

mod metrics;
mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot, Striped,
    HISTOGRAM_BUCKETS, STRIPES,
};
pub use trace::{QueryTrace, Span, TraceEvent};
