//! Fixed-width binned histograms.

use serde::{Deserialize, Serialize};

/// A histogram with fixed-width bins over `[0, bin_width · bins)` plus an
/// overflow bin, used for latency distributions.
///
/// # Examples
///
/// ```
/// use rcsim_stats::Histogram;
///
/// let mut h = Histogram::new(10.0, 10);
/// h.record(5.0);
/// h.record(15.0);
/// h.record(1000.0); // overflow
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    bin_width: f64,
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of width `bin_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not strictly positive or `bins` is zero.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        assert!(bin_width > 0.0, "bin width must be positive");
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            bin_width,
            bins: vec![0; bins],
            overflow: 0,
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one observation. Negative values clamp into the first bin.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let idx = (x.max(0.0) / self.bin_width) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations beyond the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Arithmetic mean of all recorded values (exact, not binned).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Per-bin counts (excluding overflow).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Approximate value at quantile `q ∈ [0, 1]` (bin upper edge of the
    /// bin containing the quantile). Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some((i as f64 + 1.0) * self.bin_width);
            }
        }
        // Quantile lands in the overflow bin.
        Some(self.bins.len() as f64 * self.bin_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(5.0, 4);
        h.record(0.0);
        h.record(4.9);
        h.record(5.0);
        h.record(19.9);
        h.record(20.0);
        assert_eq!(h.bins(), &[2, 1, 0, 1]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn negative_clamps_to_first_bin() {
        let mut h = Histogram::new(1.0, 2);
        h.record(-3.0);
        assert_eq!(h.bins(), &[1, 0]);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new(100.0, 2);
        h.record(1.0);
        h.record(2.0);
        assert!((h.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let mut h = Histogram::new(1.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
        assert_eq!(Histogram::new(1.0, 1).quantile(0.5), None);
    }

    #[test]
    fn quantile_in_overflow() {
        let mut h = Histogram::new(1.0, 2);
        h.record(100.0);
        assert_eq!(h.quantile(0.5), Some(2.0));
    }
}
