//! Order statistics: median/quartiles and the percentile picker.

use rcsim_perf::stats::{
    highest_supported_percentile, median, percentile, summary, supported_percentile,
};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = summary(&v);
    assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
    // statistics.quantiles([7, 1, 4, 9, 2, 8, 3], n=4) == [2.0, 4.0, 8.0]
    let s = summary(&[7.0, 1.0, 4.0, 9.0, 2.0, 8.0, 3.0]);
    assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 8.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let s = summary(&[2.0, 1.0]);
    assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
}

#[test]
fn a_single_sample_is_its_own_quartiles() {
    let s = summary(&[5.0]);
    assert_eq!((s.n, s.q1, s.median, s.q3), (1, 5.0, 5.0, 5.0));
}

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 95.0), 95.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&[], 99.0), 0.0);
}

#[test]
fn picks_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(highest_supported_percentile(19), None);
    assert_eq!(highest_supported_percentile(20), Some(50.0));
    assert_eq!(highest_supported_percentile(99), Some(50.0));
    assert_eq!(highest_supported_percentile(100), Some(90.0));
    assert_eq!(highest_supported_percentile(199), Some(90.0));
    assert_eq!(highest_supported_percentile(200), Some(95.0));
    // 240 slices of 250 cycles: 12 samples beyond p95, 2.4 beyond p99.
    assert_eq!(highest_supported_percentile(240), Some(95.0));
    assert_eq!(highest_supported_percentile(999), Some(95.0));
    assert_eq!(highest_supported_percentile(1_000), Some(99.0));
    assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    assert_eq!(highest_supported_percentile(100_000), Some(99.99));
}

#[test]
fn a_named_percentile_is_lowered_to_what_the_samples_support() {
    let v: Vec<f64> = (1..=240).map(f64::from).collect();
    assert_eq!(supported_percentile(&v, 95.0), 228.0);
    assert_eq!(
        supported_percentile(&v, 99.0),
        228.0,
        "p99 needs 1 000 samples"
    );
    assert_eq!(supported_percentile(&v[..16], 95.0), 8.0, "the median");
    assert_eq!(supported_percentile(&[], 95.0), 0.0);
}
