//! The repository's benchmark of record: four workloads through the
//! `ranking_cube::Engine` front door, self-checked against a table scan.
//! See `README.md` beside this package for the tables and the method.
//!
//! ```sh
//! cargo run --release --manifest-path crates/bench/examples/e2e/Cargo.toml -- \
//!     --workload grid_hot --seed 42 --seconds 15 --trace 0
//! ```
//!
//! With `--workload` it runs that workload in this process and ends with
//! one JSON line (`correct`, `attempted`, `failed`, `metrics`): the
//! end-to-end metrics under `--trace 0`, the per-layer ones under
//! `--trace 1`. Without, it runs every workload in a fresh child process
//! each and prints their table.

mod fixture;
mod layers;
mod report;
mod spec;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use fixture::Scratch;
use report::{Names, Outcome};
use spec::*;
use workload::{Kind, Tally};

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<Kind>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub repeat: usize,
    pub smoke: bool,
    pub describe: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: rcube_e2e [--workload grid_hot|grid_cold|shard_scatter|delta_mixed] [--seed N] \
         [--seconds N] [--trace 0|1] [--repeat N] [--smoke] [--describe]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        repeat: 0,
        smoke: false,
        describe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(Kind::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = value() == "1",
            "--repeat" => a.repeat = value().parse().unwrap_or_else(|_| usage()),
            "--smoke" => a.smoke = true,
            "--describe" => a.describe = true,
            _ => usage(),
        }
    }
    if a.smoke {
        a.seconds = 1;
    }
    a
}

/// `setup_s` is the median of `SETUPS` set-ups; the last one is served.
fn setup_repeatedly(kind: Kind, seed: u64, scratch: &Scratch) -> (workload::Served, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut served: Option<workload::Served> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = served.take() {
            previous.discard();
        }
        let start = Instant::now();
        served = Some(workload::setup(kind, seed, scratch));
        times.push(start.elapsed().as_secs_f64());
    }
    (served.expect("SETUPS >= 1"), stats::median_f64(&times))
}

/// The untraced run: end-to-end metrics only.
fn run_end_to_end(kind: Kind, args: &Args) -> Outcome {
    let scratch = Scratch::new();
    let window = Duration::from_secs(args.seconds);
    let (served, setup_s) = setup_repeatedly(kind, args.seed, &scratch);
    let mut checks = Tally::default();
    let (mut tally, qps, bytes, tuples, peak_rss_mb) = if kind == Kind::DeltaMixed {
        let out = workload::run_delta_mixed(&served, args.seed, window);
        let live_at_end = (DELTA_TUPLES + out.live.len()) as u64;
        let end_bytes = workload::verify_delta(served, &out.live, &mut checks);
        // Space and memory grow with every flush, so both are read at a
        // fixed flush count, not at the end of the window: a faster
        // flush must not read as a bigger file. A window too short to
        // get there reports the end state.
        let (bytes, tuples, rss) = out
            .marks
            .get(SPACE_AFTER_FLUSHES - 1)
            .map_or((end_bytes, live_at_end, stats::peak_rss_mb()), |m| {
                (m.file_bytes, m.live_tuples, m.peak_rss_mb)
            });
        println!(
            "{} info flushes={} writes={} live_inserts={} write_p50_us={:.1} flush_p50_ms={:.1}",
            kind.name(),
            out.marks.len(),
            out.tally.write_ns.len(),
            out.live.len(),
            stats::median_u64(&mut out.tally.write_ns.clone()) / 1e3,
            stats::median_u64(&mut out.tally.flush_ns.clone()) / 1e6,
        );
        (out.tally, out.qps, bytes, tuples, rss)
    } else {
        let expected = workload::verify_read_only(&served, &mut checks);
        let (tally, qps) = workload::run_read_only(&served, &expected, args.seed, window);
        checks.failed += workload::engine_degraded(&served.engine);
        let bytes = served.file_bytes();
        served.discard();
        (tally, qps, bytes, READ_TUPLES as u64, stats::peak_rss_mb())
    };
    tally.attempted += checks.attempted;
    tally.failed += checks.failed;

    let mut out = Outcome::new(kind, tally.attempted, tally.failed);
    let n = tally.query_ns.len();
    tally.query_ns.sort_unstable();
    tally.ttfa_ns.sort_unstable();
    let (p_high, which) = stats::highest_percentile(&tally.query_ns);
    out.push("qps", qps, n);
    out.push("query_p50_us", stats::median_sorted(&tally.query_ns) / 1e3, n);
    out.push("ttfa_p50_us", stats::median_sorted(&tally.ttfa_ns) / 1e3, n);
    // Exact on the read-only workloads: the oracle's one lap over the
    // seed's queries, not however many ops the window happened to fit.
    let (blocks, over) =
        if kind == Kind::DeltaMixed { (tally.blocks, n) } else { (checks.blocks, QUERIES) };
    out.push("blocks_per_query", blocks as f64 / over.max(1) as f64, over);
    out.push("setup_s", setup_s, SETUPS);
    out.push("bytes_per_tuple", bytes as f64 / tuples as f64, 1);
    out.push("peak_rss_mb", peak_rss_mb, 1);
    // Reported, not gated: the tail does not repeat within any bound
    // the driver permits (see `spec::END_TO_END`).
    println!("{} info query_{which}_us={} n={n}", kind.name(), p_high as f64 / 1e3);
    println!("{} info clients={} seconds={}", kind.name(), workload::clients(), args.seconds);
    out
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.describe {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) {
        eprintln!("rcube_e2e measures optimized builds only: run with --release");
        return ExitCode::from(2);
    }
    let Some(kind) = args.workload else {
        return report::run_all(&args);
    };
    let outcome =
        if args.trace { layers::run_traced(kind, &args) } else { run_end_to_end(kind, &args) };
    outcome.print(if args.trace { Names::PerLayer } else { Names::EndToEnd });
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
