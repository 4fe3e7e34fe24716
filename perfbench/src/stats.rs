//! Summary statistics and process measurements.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Latency and throughput figures of a measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median latency, µs.
    pub p50_us: f64,
    /// Completed operations per second.
    pub ops_per_s: f64,
    /// Windows the figures come from (1 = the whole phase).
    pub windows: usize,
}

/// Fewest operations a window needs to count.
pub const MIN_WINDOW_OPS: usize = 50;

/// Summarize `(completion time s, latency µs)` samples of a phase that
/// lasted `wall` seconds. The phase is cut into windows of `window_s`
/// seconds, the median latency and the throughput are computed per
/// window, and the best decile across windows is reported: the 10th
/// percentile of the window medians and the 90th percentile of the
/// window throughputs. Load from outside the process only ever slows a
/// window down, so the near-best windows estimate the program's own
/// speed. When fewer than three windows hold [`MIN_WINDOW_OPS`]
/// operations (long transactions) the whole phase is one window.
pub fn summarize(samples: &[(f64, f64)], wall: f64, window_s: f64) -> Summary {
    let n = ((wall / window_s).floor() as usize).max(1);
    let mut windows: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
    for &(t, lat) in samples {
        windows[((t / window_s) as usize).min(n - 1)].push((t, lat));
    }
    windows.retain(|w| w.len() >= MIN_WINDOW_OPS);
    if windows.len() < 3 {
        let lat: Vec<f64> = samples.iter().map(|s| s.1).collect();
        return Summary {
            p50_us: median(&lat),
            ops_per_s: samples.len() as f64 / wall,
            windows: 1,
        };
    }
    let p50s: Vec<f64> = windows
        .iter()
        .map(|w| median(&w.iter().map(|s| s.1).collect::<Vec<f64>>()))
        .collect();
    // Rate between the first and last completion inside the window.
    let rates: Vec<f64> = windows
        .iter()
        .map(|w| (w.len() - 1) as f64 / (w[w.len() - 1].0 - w[0].0))
        .collect();
    Summary {
        p50_us: percentile(&p50s, 10.0),
        ops_per_s: percentile(&rates, 90.0),
        windows: windows.len(),
    }
}

/// The process's high-water resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn windows_report_the_best_decile_and_short_phases_fall_back() {
        // Ten 1 s windows of 1000 ops each; window k has latency
        // 10 + k µs and completes an op every 1/(1000 + k) s.
        let mut samples = Vec::new();
        for k in 0..10 {
            let rate = 1_000.0 + k as f64;
            for i in 0..1_000 {
                samples.push((k as f64 + i as f64 / rate, 10.0 + k as f64));
            }
        }
        let s = summarize(&samples, 10.0, 1.0);
        assert_eq!((s.p50_us, s.windows), (10.0, 10));
        assert!((s.ops_per_s - 1_008.0).abs() < 1e-6, "{}", s.ops_per_s);
        let few = [(0.5, 4.0), (1.5, 2.0), (2.5, 3.0)];
        let s = summarize(&few, 3.0, 1.0);
        assert_eq!((s.p50_us, s.ops_per_s, s.windows), (3.0, 1.0, 1));
    }

    #[test]
    fn rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
