//! `expected.json`: the simulated metrics, exact counts and result
//! fingerprint of every workload at the reference seed. A run at that seed
//! that differs prints `DRIFT …` lines and records them, but the
//! operation still counts as passed: a behaviour-changing change is made
//! visible, not blocked. (Speed-only changes must show no drift at all.)

use crate::run::Detail;
use crate::workloads::{Counts, SimMetrics};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// What one workload is expected to produce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpectedRow {
    /// Simulated metrics.
    pub sim: SimMetrics,
    /// Exact counts of the measured window.
    pub counts: Counts,
    /// Result fingerprint, hex.
    pub fingerprint: String,
}

/// The whole file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Expected {
    /// The seed the rows were taken at.
    pub seed: u64,
    /// One row per workload name.
    pub workloads: BTreeMap<String, ExpectedRow>,
}

impl Expected {
    /// `expected.json` beside the benchmark's manifest.
    pub fn path() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.json")
    }

    /// The checked-in file, if present and well-formed.
    pub fn load() -> Option<Self> {
        serde_json::from_str(&std::fs::read_to_string(Self::path()).ok()?).ok()
    }

    /// The rows of a set of full-size runs at one seed.
    pub fn from_details(details: &[Detail]) -> Self {
        Self {
            seed: details.first().map_or(0, |d| d.seed),
            workloads: details
                .iter()
                .map(|d| {
                    let row = ExpectedRow {
                        sim: d.sim,
                        counts: d.counts,
                        fingerprint: d.fingerprint.clone(),
                    };
                    (d.workload.clone(), row)
                })
                .collect(),
        }
    }

    /// One `DRIFT <workload> <field> old→new` line per field of `detail`
    /// that differs from its expected row. Empty for runs the file does
    /// not cover (another seed, smoke sizing, unknown workload).
    pub fn drift(&self, detail: &Detail) -> Vec<String> {
        let Some(row) = self.workloads.get(&detail.workload) else {
            return Vec::new();
        };
        if detail.seed != self.seed || detail.quick {
            return Vec::new();
        }
        let mut lines = Vec::new();
        let mut differ = |field: &str, old: String, new: String| {
            if old != new {
                lines.push(format!("DRIFT {} {field} {old}→{new}", detail.workload));
            }
        };
        let pairs = [
            (fields(&row.sim), fields(&detail.sim)),
            (fields(&row.counts), fields(&detail.counts)),
        ];
        for (old, new) in pairs {
            for (field, old_value) in old {
                let new_value = new.get(&field).copied().unwrap_or(f64::NAN);
                differ(&field, old_value.to_string(), new_value.to_string());
            }
        }
        differ(
            "fingerprint",
            row.fingerprint.clone(),
            detail.fingerprint.clone(),
        );
        lines
    }
}

/// A flat struct of numbers as a name → value map.
fn fields<T: Serialize>(value: &T) -> BTreeMap<String, f64> {
    serde_json::to_string(value)
        .ok()
        .and_then(|json| serde_json::from_str(&json).ok())
        .unwrap_or_default()
}
