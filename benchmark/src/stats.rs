//! Order statistics for the benchmark's own samples. Deliberately
//! independent of `crates/bench/src/stats.rs`, so the measured repo can
//! reshape that crate without moving the scoreboard.

/// A sorted copy of `values` (total order; the benchmark never produces NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
/// On an empty slice: every caller has at least one sample by construction.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them, because that is the
/// rule the repeatability criterion is stated in. One sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's bounds are compared against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Nearest-rank percentile `p` in `(0, 1]` of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile ladder tail latencies are reported on, with each
/// rung's complement in per-mille so "samples beyond" is exact integer
/// arithmetic.
const LADDER: [(f64, usize); 6] = [
    (0.999, 1),
    (0.99, 10),
    (0.95, 50),
    (0.9, 100),
    (0.75, 250),
    (0.5, 500),
];

/// The highest ladder percentile that still has at least ten of `n`
/// samples beyond it, or `None` when even the median does not (n < 20).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|(_, beyond_permille)| n * beyond_permille / 1000 >= 10)
        .map(|(p, _)| p)
}

/// The percentile `job_p99_s` is read at for rounds of `n` jobs: p99 when
/// the sample supports it, else the highest percentile it does support,
/// else the median.
pub fn tail_percentile(n: usize) -> f64 {
    highest_supported_percentile(n).unwrap_or(0.5).min(0.99)
}

/// Each round's percentile `p`, in round order. Latency percentiles
/// are reported as the median of these: one scheduler hiccup poisons
/// one round's tail, not the reported figure — pooled p99 ranged 2x
/// across processes in the prototype where the median of rounds held ±4%.
pub fn round_percentiles(rounds: &[Vec<f64>], p: f64) -> Vec<f64> {
    rounds
        .iter()
        .map(|r| percentile_sorted(&sorted(r), p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 40.0, 20.0]), (10.0, 20.0, 40.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0, 3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0, 500.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[42.0], 0.99), 42.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        // 4 096 jobs per round leave 40 samples beyond p99 but only 4
        // beyond p99.9.
        assert_eq!(highest_supported_percentile(4_096), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn tail_percentile_caps_at_p99_and_falls_back_to_the_median() {
        assert_eq!(tail_percentile(1), 0.5);
        assert_eq!(tail_percentile(16), 0.5);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(4_096), 0.99);
        assert_eq!(tail_percentile(1_000_000), 0.99);
    }

    #[test]
    fn round_percentiles_shrug_off_one_bad_round() {
        let good: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut bad = good.clone();
        bad[99] = 10_000.0;
        bad[98] = 10_000.0;
        let rounds = vec![good.clone(), bad, good];
        assert_eq!(round_percentiles(&rounds, 0.99), [99.0, 10_000.0, 99.0]);
        assert_eq!(median(&round_percentiles(&rounds, 0.99)), 99.0);
        assert_eq!(median(&round_percentiles(&rounds, 0.5)), 50.0);
    }
}
