//! The form of the checked-in golden rows and the comparison over it,
//! shared by `experiments_golden.rs` and the tier-1 `fig6` row of the root
//! package's `tests/cross_crate.rs` (which includes this file by path).

use rcsim_bench::BenchSummary;
use std::fmt::Write as _;

/// A summary's rows as text, a line per value under a `[cores] label`
/// line: the form of the checked-in golden rows, in which a key added to
/// a row is an added line and nothing else. Numbers are written as
/// `BENCH_<name>.json` writes them.
pub fn row_lines(summary: &BenchSummary) -> String {
    let number = |v: f64| serde_json::to_string(&v).unwrap_or_else(|_| v.to_string());
    let mut out = String::new();
    for row in &summary.rows {
        let _ = writeln!(out, "[{}] {}", row.cores, row.label);
        let _ = writeln!(out, "  topology = {}", row.topology);
        let fixed = [
            ("avg_latency", row.avg_latency),
            ("p99_latency", row.p99_latency),
            ("p999_latency", row.p999_latency),
            ("circuit_hit_rate", row.circuit_hit_rate),
        ];
        for (key, v) in fixed {
            let _ = writeln!(out, "  {key} = {}", number(v));
        }
        for (key, v) in &row.extra {
            let _ = writeln!(out, "  extra.{key} = {}", number(*v));
        }
    }
    out
}

/// Where two [`row_lines`] texts first disagree, as `row / key: old vs
/// new` — or `None` when they hold the same rows, in the same order,
/// with the same keys and values.
pub fn first_difference(old: &str, new: &str) -> Option<String> {
    /// `(row, key, value)` per line; a row is its position and `[cores] label`.
    fn parse(text: &str) -> Vec<(String, &str, &str)> {
        let (mut row, mut rows) = (String::new(), 0);
        let mut values = Vec::new();
        for line in text.lines() {
            let (key, value) = match line.strip_prefix("  ").and_then(|l| l.split_once(" = ")) {
                Some(value) => value,
                None => {
                    rows += 1;
                    row = format!("row {rows} {line}");
                    ("", "present")
                }
            };
            values.push((row.clone(), key, value));
        }
        values
    }
    let (old, new) = (parse(old), parse(new));
    let find = |side: &[(String, &str, &str)], row: &str, key: &str| {
        let at = side.iter().find(|v| v.0 == row && v.1 == key);
        at.map_or("nothing", |v| v.2).to_owned()
    };
    old.iter().chain(&new).find_map(|(row, key, _)| {
        let (was, is) = (find(&old, row, key), find(&new, row, key));
        (was != is).then(|| format!("{row} / {key}: {was} vs {is}"))
    })
}
