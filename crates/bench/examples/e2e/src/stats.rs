//! Order statistics over the benchmark's own samples, and the process's
//! peak resident set.

/// Nearest-rank percentile of an ascending slice, or `None` when fewer
/// than ten samples lie beyond it (the choosing-metrics rule).
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((n as f64) * p).ceil() as usize;
    (rank >= 1 && n - rank.min(n) >= 10).then(|| sorted[rank - 1])
}

/// The highest of p99/p95/p90/p50 that `percentile` allows, and its name.
pub fn highest_percentile(sorted: &[u64]) -> (u64, &'static str) {
    [(0.99, "p99"), (0.95, "p95"), (0.90, "p90")]
        .into_iter()
        .find_map(|(p, name)| percentile(sorted, p).map(|v| (v, name)))
        .unwrap_or((median_sorted(sorted) as u64, "p50"))
}

/// Median of an ascending slice; 0 when it is empty.
pub fn median_sorted(sorted: &[u64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2] as f64,
        _ => (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0,
    }
}

pub fn median_u64(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    median_sorted(samples)
}

pub fn median_f64(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// `--repeat` judges spread exactly as the accepting driver does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// `VmHWM` of this process in MB (linux `/proc`; 0 elsewhere).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v, 0.50), Some(500));
    }
}
