//! Machine-readable benchmark output: the `BENCH_<name>.json` summary
//! every experiment writes, and the validator the CI smoke step runs
//! against it.
//!
//! The schema is deliberately tiny and flat so downstream tooling (CI
//! diffing, plotting scripts) never needs to understand simulator
//! internals: one row per measured configuration with the three headline
//! numbers the paper reports everywhere — average packet latency, tail
//! latency, and how often traffic rode a circuit — plus a free-form
//! `extra` map for bench-specific values.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Version stamped into every summary; bump when a field changes meaning.
///
/// v2: sweep-execution telemetry (`wall_ms`, `busy_ms`, `jobs`,
/// `cached_points`) joined the top-level document.
///
/// v3: rows carry `p999_latency` (99.9th-percentile network latency) for
/// SLO-tail tracking in the overload benches.
///
/// v4: rows carry `topology` (the interconnect label, `mesh` or `torus`)
/// so topology sweeps stay diffable per shape.
///
/// v5: the checkpoint-cost sweep (`BENCH_checkpoint.json`) joins the
/// suite; its rows carry snapshot cost (`snapshot_ms`,
/// `snapshot_bytes`), resume cost (`resume_ms`) and the
/// checkpointed-run wall overhead per interval (`overhead_frac_*`) in
/// `extra`.
///
/// v6: `claims` — the paper's statements about the rows, as evaluated.
pub const BENCH_SCHEMA_VERSION: u32 = 6;

/// One measured configuration (one workload × mechanism × core-count
/// point) inside a bench summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRow {
    /// Human label for the point, e.g. `"canneal/complete"`.
    pub label: String,
    /// Core count the point ran with.
    pub cores: usize,
    /// Interconnect topology label (`mesh` unless the bench swept
    /// topologies).
    pub topology: String,
    /// Mean network latency over reply messages, in cycles.
    pub avg_latency: f64,
    /// 99th-percentile network latency, in cycles.
    pub p99_latency: f64,
    /// 99.9th-percentile network latency, in cycles.
    pub p999_latency: f64,
    /// Fraction of circuit-eligible replies that rode a complete circuit,
    /// in `[0, 1]`.
    pub circuit_hit_rate: f64,
    /// Bench-specific extra values (speedups, energy, hop counts, ...).
    pub extra: BTreeMap<String, f64>,
}

/// One statement of the paper about a bench's rows, as evaluated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClaimOutcome {
    /// Short stable name of the claim.
    pub name: String,
    /// The statement, with the paper's numbers.
    pub paper: String,
    /// `holds`, `fails`, or `deviates(<named deviation>)`.
    pub verdict: String,
    /// The measured numbers the verdict rests on.
    pub measured: String,
}

/// The document written to `BENCH_<name>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSummary {
    /// Bench bin name (`fig6`, `table5`, ...).
    pub bench: String,
    /// Schema version, [`BENCH_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Wall-clock milliseconds the bench's simulation sweeps took
    /// (0 for analytic benches that run no simulation).
    pub wall_ms: f64,
    /// Sum of per-point simulation times in milliseconds; `busy_ms /
    /// wall_ms` approximates the achieved parallel speedup.
    pub busy_ms: f64,
    /// Sweep worker threads used (`RC_JOBS`; 0 when no sweep ran).
    pub jobs: usize,
    /// Points served from the on-disk result cache instead of re-running.
    pub cached_points: usize,
    /// One row per measured configuration.
    pub rows: Vec<BenchRow>,
    /// The paper's claims about the rows (empty where it makes none).
    pub claims: Vec<ClaimOutcome>,
}

impl BenchSummary {
    /// An empty summary for bench `name` at the current schema version.
    pub fn new(name: &str) -> Self {
        Self {
            bench: name.to_owned(),
            schema_version: BENCH_SCHEMA_VERSION,
            wall_ms: 0.0,
            busy_ms: 0.0,
            jobs: 0,
            cached_points: 0,
            rows: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn push(&mut self, row: BenchRow) {
        self.rows.push(row);
    }

    /// Checks the summary against the schema's semantic constraints and
    /// returns every violation found (empty means valid). The JSON-level
    /// shape is already guaranteed by deserialization; this catches the
    /// constraints a type system can't: finite latencies, a hit rate
    /// inside `[0, 1]`, non-empty labels, a known schema version.
    pub fn validate(&self) -> Vec<String> {
        let mut errors = Vec::new();
        if self.bench.is_empty() {
            errors.push("bench name is empty".to_owned());
        }
        if self.schema_version != BENCH_SCHEMA_VERSION {
            errors.push(format!(
                "schema_version {} != supported {}",
                self.schema_version, BENCH_SCHEMA_VERSION
            ));
        }
        if self.rows.is_empty() {
            errors.push("summary has no rows".to_owned());
        }
        for (what, v) in [("wall_ms", self.wall_ms), ("busy_ms", self.busy_ms)] {
            if !v.is_finite() || v < 0.0 {
                errors.push(format!("{what} = {v} is invalid"));
            }
        }
        for (i, row) in self.rows.iter().enumerate() {
            if row.label.is_empty() {
                errors.push(format!("row {i}: empty label"));
            }
            if row.cores == 0 {
                errors.push(format!("row {i} ({}): cores is 0", row.label));
            }
            if row.topology.is_empty() {
                errors.push(format!("row {i} ({}): empty topology", row.label));
            }
            for (what, v) in [
                ("avg_latency", row.avg_latency),
                ("p99_latency", row.p99_latency),
                ("p999_latency", row.p999_latency),
            ] {
                if !v.is_finite() || v < 0.0 {
                    errors.push(format!("row {i} ({}): {what} = {v} is invalid", row.label));
                }
            }
            if !(0.0..=1.0).contains(&row.circuit_hit_rate) {
                errors.push(format!(
                    "row {i} ({}): circuit_hit_rate = {} outside [0, 1]",
                    row.label, row.circuit_hit_rate
                ));
            }
            for (k, v) in &row.extra {
                if !v.is_finite() {
                    errors.push(format!("row {i} ({}): extra.{k} is not finite", row.label));
                }
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(label: &str) -> BenchRow {
        BenchRow {
            label: label.to_owned(),
            cores: 16,
            topology: "mesh".to_owned(),
            avg_latency: 31.5,
            p99_latency: 88.0,
            p999_latency: 120.0,
            circuit_hit_rate: 0.42,
            extra: BTreeMap::new(),
        }
    }

    #[test]
    fn valid_summary_round_trips() {
        let mut s = BenchSummary::new("fig6");
        s.push(row("canneal/complete"));
        assert!(s.validate().is_empty(), "{:?}", s.validate());
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: BenchSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn violations_are_reported() {
        let mut s = BenchSummary::new("fig6");
        let mut bad = row("");
        bad.circuit_hit_rate = 1.5;
        bad.avg_latency = f64::NAN;
        s.push(bad);
        let errors = s.validate();
        assert!(errors.iter().any(|e| e.contains("empty label")));
        assert!(errors.iter().any(|e| e.contains("circuit_hit_rate")));
        assert!(errors.iter().any(|e| e.contains("avg_latency")));
    }

    #[test]
    fn empty_and_wrong_version_rejected() {
        let mut s = BenchSummary::new("x");
        assert!(s.validate().iter().any(|e| e.contains("no rows")));
        s.push(row("a"));
        s.schema_version = 99;
        assert!(s.validate().iter().any(|e| e.contains("schema_version")));
    }

    /// The typed summary is the schema: a summary missing a field, or
    /// holding a value of the wrong kind, does not decode.
    #[test]
    fn missing_fields_and_wrong_kinds_do_not_decode() {
        let mut s = BenchSummary::new("t");
        s.push(row("a"));
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<BenchSummary>(&json).unwrap(), s);
        for (what, edit) in [
            ("no topology", (r#""topology":"mesh","#, "")),
            ("no extra", (r#","extra":{}"#, "")),
            ("no wall_ms", (r#""wall_ms":0,"#, "")),
            ("no claims", (r#","claims":[]"#, "")),
            ("string cores", (r#""cores":16"#, r#""cores":"16""#)),
        ] {
            let broken = json.replacen(edit.0, edit.1, 1);
            assert_ne!(broken, json, "{what}: {json}");
            assert!(
                serde_json::from_str::<BenchSummary>(&broken).is_err(),
                "{what}"
            );
        }
    }

    #[test]
    fn sweep_telemetry_is_validated() {
        let mut s = BenchSummary::new("fig6");
        s.push(row("a"));
        s.wall_ms = f64::NAN;
        s.busy_ms = -1.0;
        let errors = s.validate();
        assert!(errors.iter().any(|e| e.contains("wall_ms")));
        assert!(errors.iter().any(|e| e.contains("busy_ms")));
        s.wall_ms = 120.5;
        s.busy_ms = 400.0;
        s.jobs = 4;
        s.cached_points = 3;
        assert!(s.validate().is_empty());
        let json = serde_json::to_string(&s).unwrap();
        let back: BenchSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
