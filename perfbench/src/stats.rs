//! Summary statistics the benchmark reports: medians, tail percentiles
//! with their sample support, and failure shares.

/// The median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile of `xs` (`0 < p <= 100`): the
/// smallest sample with at least `p`% of the samples at or below it.
/// `0.0` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile and the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (50, 90, 99 or 99.9).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly above its rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest of the 50th, 90th, 99th and 99.9th percentiles that has
/// at least ten samples beyond its rank — a tail figure that is not one
/// lucky sample. `None` when even the median lacks ten samples beyond it
/// (fewer than 20 samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|pct| {
        let beyond = n - nearest_rank(n.max(1), pct).min(n);
        (n > 0 && beyond >= 10).then(|| Tail {
            pct,
            value: percentile(xs, pct),
            beyond,
            samples: n,
        })
    })
}

/// Failed operations as a share of attempted ones (an empty run divides
/// by one, so the share stays finite).
pub fn fail_share(failed: u64, attempted: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median has only 9 beyond it.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        // 20 samples: the median (rank 10) has exactly 10 beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (50.0, 10.0, 10, 20));
        // 100 samples: p90 (rank 90) has 10 beyond, p99 only 1.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000 samples: p99 (rank 990) has 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().pct, 99.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn fail_share_is_failed_over_attempted() {
        assert_eq!(fail_share(0, 30), 0.0);
        assert_eq!(fail_share(3, 30), 0.1);
        assert_eq!(fail_share(0, 0), 0.0);
    }
}
