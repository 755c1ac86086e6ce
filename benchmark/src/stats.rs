//! Order statistics and the process's own CPU and memory counters.

/// Percentiles a timing may be reported at, ascending, in tenths of a
/// percent (integers keep the ten-samples rule exact).
pub const PERCENTILE_LADDER_PERMILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The value at percentile `p` (0..=100) of an ascending-sorted, non-empty
/// slice, by linear interpolation between closest ranks.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `samples` (0 for none, so an unexercised layer reads 0).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Percentile `p` of unsorted `samples` (0 for none).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Interquartile mean: the average of the samples between the first and
/// third quartile (0 for none). As robust to tails as the median, but it
/// moves smoothly where a bimodal sample makes the median jump between the
/// modes.
pub fn midmean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let middle = &sorted[n / 4..n - n / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Mean of `samples` without their largest fiftieth (0 for none): a mean,
/// because a slowed machine stretches the upper half of a timing
/// distribution far more than its median, but deaf to the rare sample that
/// a scheduler stall multiplies a thousandfold.
pub fn mean_without_top_2pct(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = &sorted[..sorted.len() - sorted.len() / 50];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The highest ladder percentile that still has at least ten of `n`
/// samples beyond it — the only tail worth printing. `None` below twenty
/// samples, where not even the median qualifies.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER_PERMILLE
        .iter()
        .rfind(|&&pm| n * (1000 - pm) >= 10 * 1000)
        .map(|&pm| pm as f64 / 10.0)
}

/// First and third quartile spread as a share of the median — the
/// repeatability figure the driver gates on (the exclusive method of
/// Python's `statistics.quantiles(values, n=4)`). `None` below two samples.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quantile = |k: f64| {
        let pos = k * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        // Unclamped, as Python: the end quantiles of tiny samples extrapolate.
        let frac = pos - lo as f64;
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    let med = percentile_sorted(&sorted, 50.0);
    (med != 0.0).then(|| (quantile(3.0) - quantile(1.0)) / med.abs())
}

/// User+system CPU this process has consumed so far, in milliseconds,
/// including threads that already exited (`/proc/self/stat` fields 14-15).
/// Linux reports them in `USER_HZ` ticks, which is 100 on every supported
/// architecture.
pub fn process_cpu_ms() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) * 1e3 / USER_HZ
}

/// Peak resident set size so far (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn midmean_averages_the_middle_half() {
        assert_eq!(midmean(&[]), 0.0);
        assert_eq!(midmean(&[5.0]), 5.0);
        assert_eq!(midmean(&[1.0, 9.0]), 5.0);
        // Tails do not move it; a bimodal sample lands between the modes.
        assert_eq!(midmean(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1000.0]), 4.5);
        assert_eq!(midmean(&[1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0]), 5.0);
    }

    #[test]
    fn trimmed_mean_drops_only_the_top_fiftieth() {
        assert_eq!(mean_without_top_2pct(&[]), 0.0);
        assert_eq!(mean_without_top_2pct(&[4.0, 2.0]), 3.0);
        let mut v = vec![10.0; 99];
        v.push(1e9);
        assert_eq!(mean_without_top_2pct(&v), 10.0);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).expect("ten samples");
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{share}");
        assert_eq!(iqr_share(&[1.0]), None);
    }

    #[test]
    fn proc_counters_read_something() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu_ms() > 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
