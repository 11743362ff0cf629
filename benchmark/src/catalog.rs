//! The benchmark's declaration: `BENCHMARK.json` at the repo root, compiled
//! in, so the names, units and bounds the program prints are by
//! construction the ones the acceptance driver was told. A run refuses to
//! report a set of values that is not exactly one of the two metric lists.
//! (Why each bound is what it is: README.md, "Bounds".)

use serde::Deserialize;
use std::sync::OnceLock;

/// One metric's declaration.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is a regression (end-to-end metrics only; 0 otherwise).
    #[serde(default)]
    pub bound: f64,
}

/// One workload's declaration.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct WorkloadDef {
    /// The name `--workload` takes.
    pub name: String,
    /// Why the workload was chosen.
    pub why: String,
}

/// `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Catalog {
    /// The command the driver runs.
    pub command: Vec<String>,
    /// The directories that hold the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// The workloads, in report order.
    pub workloads: Vec<WorkloadDef>,
    /// Metrics of the end-to-end pass (`--trace 0`): defined, and never
    /// zero, on every workload.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of the traced pass (`--trace 1`). A metric whose layer a
    /// workload does not execute reads 0 there.
    pub per_layer: Vec<MetricDef>,
}

/// The parsed declaration.
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is a benchmark declaration")
    })
}
