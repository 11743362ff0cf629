//! The aggregate mean used when summarising per-application results.

/// Geometric mean of a sequence of strictly positive values; `None` when the
/// input is empty or contains a non-positive value.
///
/// Speedups across heterogeneous applications are conventionally aggregated
/// with the geometric mean.
///
/// # Examples
///
/// ```
/// let g = rcsim_stats::geometric_mean([1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean<I: IntoIterator<Item = f64>>(values: I) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0u64;
    for v in values {
        if v <= 0.0 {
            return None;
        }
        log_sum += v.ln();
        n += 1;
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_basic() {
        assert_eq!(geometric_mean([]), None);
        assert_eq!(geometric_mean([1.0, -1.0]), None);
        assert!((geometric_mean([2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn means_ordering_amgm() {
        // geometric <= arithmetic for positive values
        let vals = [1.0, 2.0, 3.0, 10.0];
        let g = geometric_mean(vals).unwrap();
        let a = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(g <= a);
    }
}
