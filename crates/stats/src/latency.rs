//! One accumulation path for latency-style metrics: mean/CI from a Welford
//! accumulator and p50/p99 tails from a fixed-width histogram, fed by a
//! single `record` call.
//!
//! Before this type existed every consumer kept an [`Accumulator`] *and* a
//! [`Histogram`] side by side and had to remember to feed both; a missed
//! update desynchronised the mean from the tails. `LatencyStat` owns both
//! and keeps them consistent by construction.

use crate::{Accumulator, Histogram};
use serde::{Deserialize, Serialize};

/// A latency statistic with exact moments and binned tails.
///
/// # Examples
///
/// ```
/// use rcsim_stats::LatencyStat;
///
/// let mut lat = LatencyStat::new(5.0, 100);
/// for x in [10.0, 12.0, 14.0, 200.0] {
///     lat.record(x);
/// }
/// assert_eq!(lat.count(), 4);
/// assert!((lat.mean() - 59.0).abs() < 1e-12);
/// assert!(lat.p50().unwrap() <= 15.0);
/// assert!(lat.p99().unwrap() >= 200.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyStat {
    acc: Accumulator,
    hist: Histogram,
}

impl LatencyStat {
    /// A statistic whose histogram has `bins` bins of width `bin_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not strictly positive or `bins` is zero.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        Self {
            acc: Accumulator::new(),
            hist: Histogram::new(bin_width, bins),
        }
    }

    /// Records one observation into both the moments and the distribution.
    pub fn record(&mut self, x: f64) {
        self.acc.add(x);
        self.hist.record(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.acc.count()
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.acc.mean()
    }

    /// CI95 half-width of the mean.
    pub fn ci95_half_width(&self) -> f64 {
        self.acc.ci95_half_width()
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.acc.min()
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.acc.max()
    }

    /// Approximate quantile from the histogram (`None` when empty).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.hist.quantile(q)
    }

    /// Approximate median.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Approximate 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Approximate 99.9th percentile. Like every histogram quantile this
    /// saturates at the overflow-bin edge, so callers tracking deep tails
    /// should size the histogram range generously.
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }

    /// The underlying moments accumulator.
    pub fn accumulator(&self) -> &Accumulator {
        &self.acc
    }

    /// The underlying distribution.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_record_feeds_both_paths() {
        let mut s = LatencyStat::new(1.0, 10);
        for i in 0..10 {
            s.record(i as f64 + 0.5);
        }
        assert_eq!(s.count(), 10);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.p50(), Some(5.0));
        assert_eq!(s.histogram().count(), s.accumulator().count());
    }

    #[test]
    fn empty_stat_is_well_defined() {
        let s = LatencyStat::new(5.0, 10);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p50(), None);
        assert_eq!(s.p99(), None);
    }

    #[test]
    fn p999_sits_at_or_above_p99() {
        let mut s = LatencyStat::new(1.0, 2000);
        for i in 0..1000 {
            s.record(i as f64 + 0.5);
        }
        let (p99, p999) = (s.p99().unwrap(), s.p999().unwrap());
        assert!(p999 >= p99, "p999 {p999} < p99 {p99}");
        assert_eq!(p999, 999.0);
        assert!(LatencyStat::new(1.0, 10).p999().is_none());
    }
}
