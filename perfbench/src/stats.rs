//! Order statistics for latency series and repeated timings.
//!
//! Percentiles use the nearest-rank rule: the p-th percentile of `n`
//! sorted samples is the sample at rank `ceil(p * n)` (1-based). A high
//! percentile is only meaningful when enough samples lie beyond it, so
//! [`Series::percentile`] flags a series as too short when fewer than
//! [`MIN_BEYOND`] samples sit above the requested rank.

/// Samples that must lie strictly beyond a percentile's rank for the
/// percentile to be reported as measured (p99 therefore needs ≥ 1000).
pub const MIN_BEYOND: usize = 10;

/// A percentile read off a series, with whether the series was long
/// enough to support it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank sample.
    pub value: f64,
    /// Samples strictly beyond the rank.
    pub beyond: usize,
    /// True when `beyond < MIN_BEYOND`: the value is printed but the
    /// series is too short to trust it.
    pub too_short: bool,
}

/// A sorted sample series.
#[derive(Debug, Clone, Default)]
pub struct Series {
    sorted: Vec<f64>,
}

impl Series {
    /// Sort `samples` (NaNs are a caller bug and sort last).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.total_cmp(b));
        Self { sorted: samples }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// 1-based nearest rank of percentile `p` (in `0.0..=1.0`).
    pub fn rank(&self, p: f64) -> usize {
        let n = self.sorted.len();
        ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
    }

    /// Nearest-rank percentile `p`; `None` for an empty series.
    pub fn percentile(&self, p: f64) -> Option<Percentile> {
        if self.sorted.is_empty() {
            return None;
        }
        let rank = self.rank(p);
        let beyond = self.sorted.len() - rank;
        Some(Percentile {
            value: self.sorted[rank - 1],
            beyond,
            too_short: beyond < MIN_BEYOND,
        })
    }

    /// Nearest-rank median; `None` for an empty series.
    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5).map(|p| p.value)
    }
}

/// Median of a handful of repeated measurements (nearest rank, like
/// [`Series::median`]); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    Series::new(samples.to_vec()).median().unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s = Series::new((1..=10).map(f64::from).rev().collect());
        assert_eq!(s.percentile(0.5).unwrap().value, 5.0);
        assert_eq!(s.percentile(0.51).unwrap().value, 6.0);
        assert_eq!(s.percentile(0.9).unwrap().value, 9.0);
        assert_eq!(s.percentile(1.0).unwrap().value, 10.0);
        assert_eq!(s.percentile(0.0).unwrap().value, 1.0, "rank clamps to 1");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(Series::new(Vec::new()).percentile(0.5).is_none());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let short = Series::new((0..999).map(f64::from).collect());
        let p = short.percentile(0.99).unwrap();
        assert_eq!(p.beyond, 9);
        assert!(p.too_short, "999 samples leave only 9 beyond p99");

        let long = Series::new((0..1000).map(f64::from).collect());
        let p = long.percentile(0.99).unwrap();
        assert_eq!((p.value, p.beyond, p.too_short), (989.0, 10, false));

        let median = long.percentile(0.5).unwrap();
        assert!(!median.too_short);
        assert!(
            Series::new(vec![1.0; 15])
                .percentile(0.5)
                .unwrap()
                .too_short
        );
    }
}
