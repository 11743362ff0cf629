//! Order statistics for host-time samples: median and quartiles (the
//! same quartile rule as Python's `statistics.quantiles(v, n=4)`, which is
//! what the acceptance driver computes spreads with), nearest-rank
//! percentiles, and the rule that picks which percentile a sample count
//! can support.

use serde::{Deserialize, Serialize};

/// Median, quartiles and sample count of one host-time metric.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median and quartiles. Quartiles follow Python's exclusive method; with
/// fewer than two samples all three collapse onto the only value.
pub fn summary(values: &[f64]) -> Summary {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return Summary {
            n,
            q1: x,
            median: x,
            q3: x,
        };
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        q1: quartile(1),
        median: median(&v),
        q3: quartile(3),
    }
}

/// Nearest-rank percentile `p` (0–100) of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a report may quote, lowest first, each with the share
/// of samples beyond it in units of 1/10 000 (integers, so the ten-sample
/// rule is exact at the boundaries).
pub const PERCENTILE_LADDER: [(f64, usize); 6] = [
    (50.0, 5_000),
    (90.0, 1_000),
    (95.0, 500),
    (99.0, 100),
    (99.9, 10),
    (99.99, 1),
];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it among `n` samples (`None` below twenty samples, where
/// not even the median qualifies). A tail figure resting on fewer samples
/// is one outlier away from meaningless.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rfind(|(_, beyond)| n * beyond >= 10 * 10_000)
        .map(|(p, _)| *p)
}

/// Percentile `p` of `values`, lowered to the highest percentile the
/// sample count supports (to the median below twenty samples): what a
/// metric named after `p` reports on a run too short to carry that tail.
pub fn supported_percentile(values: &[f64], p: f64) -> f64 {
    let cap = highest_supported_percentile(values.len()).unwrap_or(50.0);
    percentile(values, p.min(cap))
}
