//! Sample summaries: the median, the highest percentile that still has at
//! least ten samples beyond it, and the sample count.

/// Percentiles considered for the tail, in tenths of a percent, highest
/// first.
const TAIL_PER_MILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A timing summarised the way every metric of this benchmark is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it; `None` with too few samples.
    pub tail: Option<(f64, f64)>,
    /// Number of samples.
    pub n: usize,
}

/// Quantile `q` in `0..=1` of sorted samples, linearly interpolated
/// between the closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest percentile of [`TAIL_PER_MILLE`] that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PER_MILLE
        .iter()
        .find(|&&pm| n * (1000 - pm) >= TAIL_MIN_BEYOND * 1000)
        .map(|&pm| pm as f64 / 10.0)
}

/// Geometric mean of positive values (`None` when there are none or one
/// is not positive).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || !values.iter().all(|&v| v > 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Median of the samples (`None` when there are none).
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples).map(|s| s.median)
}

/// Summarise samples; `None` when there are none. NaNs are a bug in the
/// caller and panic.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let tail = tail_percentile(sorted.len()).map(|p| (p, quantile(&sorted, p / 100.0)));
    Some(Summary {
        median: quantile(&sorted, 0.5),
        tail,
        n: sorted.len(),
    })
}

impl Summary {
    /// `median 1.234 (p90 2.345, n=120)`-style rendering with `digits`
    /// decimals.
    pub fn render(&self, digits: usize) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "{:.digits$} (p{p} {:.digits$}, n={})",
                self.median, v, self.n
            ),
            None => format!(
                "{:.digits$} (n={}, under {} samples for a tail percentile)",
                self.median,
                self.n,
                2 * TAIL_MIN_BEYOND
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn median_and_tail_of_known_samples() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        let (p, v) = s.tail.unwrap();
        assert_eq!(p, 90.0);
        assert!((v - 90.1).abs() < 1e-9, "{v}");
        // Ten samples (91..=100) lie beyond the reported p90.
        assert_eq!(samples.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn small_samples_have_no_tail() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.0);
        assert_eq!(s.tail, None);
        assert_eq!(summarize(&[]), None);
        assert!(s.render(1).contains("n=3"));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sorted, 0.5), 2.5);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 1.0), 4.0);
    }
}
