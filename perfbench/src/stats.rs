//! Exact sample statistics over raw client-side measurements.
//!
//! Percentiles are computed from every recorded sample (nearest-rank on the
//! sorted samples), never from a bucketed histogram, so a reported p50 can
//! never exceed the largest sample below it or sit above the mean the way
//! decade-bucket interpolation does.

/// Percentiles the benchmark may report, lowest first.
pub const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Minimum samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of samples that are already
/// sorted ascending: the smallest sample with at least `p`% of the samples
/// at or below it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Integer arithmetic on tenths of a percent keeps e.g. p99 of 1000
    // samples at rank 990 exactly, with no float rounding drift.
    let tenths = (p * 10.0).round() as usize;
    (n * tenths).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond percentile `p` among `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest of [`PERCENTILES`] with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median lacks them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rfind(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted values (the lower middle for even counts, matching
/// the nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).unwrap_or(f64::NAN)
}

/// Raw latency samples, ready to summarize.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// Percentile `p` of the samples (0 when there are none).
    pub fn percentile(&self, p: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, p).unwrap_or(0.0)
    }

    /// `true` when percentile `p` has the required samples beyond it.
    pub fn supports(&self, p: f64) -> bool {
        beyond(self.len(), p) >= MIN_BEYOND
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook definition, written independently: sort, then take
    /// the first sample whose cumulative share reaches `p`.
    fn oracle(samples: &[f64], p: f64) -> f64 {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        for (i, &x) in v.iter().enumerate() {
            if (i + 1) as f64 / v.len() as f64 * 100.0 >= p - 1e-9 {
                return x;
            }
        }
        *v.last().unwrap()
    }

    #[test]
    fn matches_exact_sorted_sample_quantiles() {
        // A skewed, shuffled sample: p50 must be a real sample, below the
        // mean, not a bucket interpolation.
        let mut samples: Vec<f64> = (1..=1000).map(|i| (i * i) as f64).collect();
        samples.reverse();
        samples.swap(3, 700);
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(percentile(&sorted, p), Some(oracle(&samples, p)), "p{p}");
        }
        assert_eq!(percentile(&sorted, 50.0), Some(250_000.0));
        assert_eq!(percentile(&sorted, 99.0), Some(990.0 * 990.0));
        let s = Samples(samples);
        assert!(s.percentile(50.0) < s.mean());
    }

    #[test]
    fn small_and_degenerate_inputs() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 75.0), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        for n in 1..300 {
            let v: Vec<f64> = (0..n).map(f64::from).collect();
            for p in PERCENTILES {
                assert_eq!(percentile(&v, p), Some(oracle(&v, p)), "n={n} p{p}");
            }
        }
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p50 needs 20 samples (10 beyond rank 10), p90 needs 100, p99
        // needs 1000, p99.9 needs 10000.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1001, 99.0), 10);
        assert_eq!(beyond(0, 50.0), 0);
        assert!(Samples(vec![0.0; 100]).supports(90.0));
        assert!(!Samples(vec![0.0; 99]).supports(90.0));
    }
}
