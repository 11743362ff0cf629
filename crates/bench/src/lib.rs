//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper's evaluation (§5).
//!
//! Each binary (`table1`, `table5`, `table6`, `fig6`, `fig7`, `fig8`,
//! `fig9`, `fig10`) prints the paper's reported numbers next to the
//! values measured by this reproduction, and writes the raw rows as JSON
//! under `target/experiments/`.
//!
//! The `RC_*` knobs (defaults keep a full figure under a few minutes)
//! are the rows of [`KNOBS`], tabulated in README.md and parsed once into
//! the [`RunEnv`] that [`env`] returns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod env;
mod sweep;

use rcsim_core::MechanismConfig;
use rcsim_stats::Accumulator;
use rcsim_system::{RunResult, SimConfig, SimError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

pub use env::{env, Knob, RunEnv, KNOBS};
pub use rcsim_trace::{BenchRow, BenchSummary};
pub use sweep::{cache_key, SweepOutcome, SweepRunner, SweepStats, CACHE_FORMAT_VERSION};

/// One sweep point: workload × chip size × mechanism × seed, with the
/// harness-wide `RC_*` settings applied when lowered to a [`SimConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Core count.
    pub cores: u16,
    /// Mechanism configuration.
    pub mechanism: MechanismConfig,
    /// Workload name.
    pub app: String,
    /// Workload seed.
    pub seed: u64,
}

impl PointSpec {
    /// A point for `app` on a `cores`-core chip under `mechanism`.
    pub fn new(cores: u16, mechanism: MechanismConfig, app: &str, seed: u64) -> Self {
        Self {
            cores,
            mechanism,
            app: app.to_owned(),
            seed,
        }
    }

    /// The diagnostic label progress lines and failure reports use.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}c seed {}",
            self.app,
            self.mechanism.label(),
            self.cores,
            self.seed
        )
    }

    /// Lowers the point to a full [`SimConfig`] with the harness-wide
    /// settings applied: warm-up and measurement clamped to the
    /// `RC_MAX_CYCLES` budget, cache geometry per `RC_SMALL_CACHES`.
    pub fn config(&self) -> SimConfig {
        let env = env();
        let warmup = env.warmup.min(env.max_cycles - 1);
        SimConfig {
            cores: self.cores,
            mechanism: self.mechanism,
            workload: self.app.clone(),
            seed: self.seed,
            warmup_cycles: warmup,
            measure_cycles: env.cycles.clamp(1, env.max_cycles - warmup),
            small_caches: env.small_caches,
            ..SimConfig::quick(self.cores, self.mechanism, &self.app)
        }
    }
}

/// The (app × seed) point grid of one mechanism (`RC_APPS` × `RC_SEEDS`,
/// `seed` offsetting the seed sequence so paired comparisons stay paired);
/// experiment binaries concatenate several of these into one big job list
/// so the whole figure parallelizes, not just one mechanism at a time.
pub fn app_seed_points(cores: u16, mechanism: MechanismConfig, seed: u64) -> Vec<PointSpec> {
    let mut out = Vec::new();
    for app in &env().apps {
        for s in &env().seeds {
            out.push(PointSpec::new(cores, mechanism, app, seed + s - 1));
        }
    }
    out
}

/// Cross-sweep totals for the current process (`jobs`: the largest worker
/// count any sweep used), stamped into every bench summary by
/// [`save_bench_summary`].
static SWEEP_TOTALS: Mutex<SweepStats> = Mutex::new(SweepStats {
    points: 0,
    jobs: 0,
    cached: 0,
    failed: 0,
    wall_ms: 0.0,
    busy_ms: 0.0,
});

fn note_sweep(stats: &SweepStats) {
    let mut t = SWEEP_TOTALS.lock().expect("sweep totals poisoned");
    t.points += stats.points;
    t.jobs = t.jobs.max(stats.jobs);
    t.cached += stats.cached;
    t.failed += stats.failed;
    t.wall_ms += stats.wall_ms;
    t.busy_ms += stats.busy_ms;
}

/// Runs labelled configurations through the [`SweepRunner`] (parallel +
/// cached, see `RC_JOBS` / `RC_NO_CACHE`), or terminates the binary with
/// a diagnostic dump. Failures are aggregated: every failed point is
/// reported before the process exits, so one stalled configuration no
/// longer hides the rest of the sweep. A watchdog-declared stall prints
/// the [`rcsim_system::HealthReport`] (what wedged, the oldest in-flight
/// messages, suspected circuit-table leaks, and — when the wait-for
/// graph closes — the deadlock cycle itself, entry-capped like the other
/// inventories) to stderr and exits with status 2 — CI gets an
/// actionable log instead of a hung or garbage run. With `RC_CKPT_DIR`
/// set, the wedged chip state is also dumped as a checkpoint loadable by
/// `rcsim-replay`.
///
/// # Panics
///
/// Panics when a configuration is invalid (unknown workload etc.) —
/// experiment binaries fail loudly.
pub fn run_configs(jobs: Vec<(String, SimConfig)>) -> Vec<RunResult> {
    let outcome = SweepRunner::for_env(env()).run(&jobs);
    note_sweep(&outcome.stats);
    let mut results = Vec::with_capacity(jobs.len());
    let mut failures = Vec::new();
    let mut stalled = false;
    for ((label, _), res) in jobs.iter().zip(outcome.results) {
        match res {
            Ok(r) => results.push(r),
            Err(SimError::Stalled { report }) => {
                stalled = true;
                failures.push(format!("{label}: network stalled\n{report}"));
            }
            Err(e) => failures.push(format!("{label}: {e}")),
        }
    }
    if !failures.is_empty() {
        eprintln!("{} of {} sweep points failed:", failures.len(), jobs.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        if stalled {
            std::process::exit(2);
        }
        panic!("{} sweep points failed", failures.len());
    }
    results
}

/// [`run_configs`] over [`PointSpec`]s (the common case).
pub fn run_points(specs: &[PointSpec]) -> Vec<RunResult> {
    run_configs(specs.iter().map(|s| (s.label(), s.config())).collect())
}

/// Writes an experiment's raw rows to `target/experiments/<name>.json`.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("target/experiments");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(s) = serde_json::to_string_pretty(value) {
            let _ = std::fs::write(&path, s);
            eprintln!("(raw rows written to {})", path.display());
        }
    }
}

/// Condenses a batch of runs into one machine-readable summary row:
/// count-weighted mean network latency across the Figure 7 message
/// groups, the worst group p99 (a conservative tail envelope — p99s
/// cannot be averaged), and the mean fraction of replies that rode a
/// circuit.
pub fn bench_row(label: &str, cores: u16, results: &[RunResult]) -> BenchRow {
    let mut weighted = 0.0;
    let mut count = 0u64;
    let mut p99 = 0.0f64;
    let mut p999 = 0.0f64;
    for r in results {
        for row in r.latency.values() {
            weighted += row.network * row.count as f64;
            count += row.count;
            p99 = p99.max(row.p99);
            p999 = p999.max(row.p999);
        }
    }
    let hit: Accumulator = results
        .iter()
        .map(|r| r.outcomes.get("circuit").copied().unwrap_or(0.0))
        .collect();
    BenchRow {
        label: label.to_owned(),
        cores: cores as usize,
        topology: "mesh".to_owned(),
        avg_latency: if count == 0 {
            0.0
        } else {
            weighted / count as f64
        },
        p99_latency: p99,
        p999_latency: p999,
        circuit_hit_rate: hit.mean().clamp(0.0, 1.0),
        extra: BTreeMap::new(),
    }
}

/// Writes a bench summary to `target/experiments/BENCH_<name>.json` —
/// the machine-readable counterpart of the human-readable stdout tables,
/// consumed by `validate_bench` and external dashboards. The process's
/// accumulated sweep counters are stamped into the
/// summary's `wall_ms`/`busy_ms`/`jobs`/`cached_points` fields, so every
/// `BENCH_<name>.json` records how fast its sweep executed and how much
/// the result cache saved.
///
/// # Panics
///
/// Panics when the summary violates its own invariants (see
/// [`BenchSummary::validate`]) — a malformed summary must fail the run,
/// not poison downstream consumers.
pub fn save_bench_summary(summary: &mut BenchSummary) {
    let totals = SWEEP_TOTALS.lock().expect("sweep totals poisoned").clone();
    summary.wall_ms = totals.wall_ms;
    summary.busy_ms = totals.busy_ms;
    summary.jobs = totals.jobs;
    summary.cached_points = totals.cached;
    let problems = summary.validate();
    assert!(
        problems.is_empty(),
        "invalid bench summary '{}': {problems:?}",
        summary.bench
    );
    let dir = PathBuf::from("target/experiments");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("BENCH_{}.json", summary.bench));
        if let Ok(s) = serde_json::to_string_pretty(summary) {
            let _ = std::fs::write(&path, s);
            eprintln!("(bench summary written to {})", path.display());
        }
    }
}

/// Writes pre-rendered text (e.g. a Chrome trace) to
/// `target/experiments/<name>`.
pub fn save_text(name: &str, contents: &str) {
    let dir = PathBuf::from("target/experiments");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(name);
        let _ = std::fs::write(&path, contents);
        eprintln!("(written to {})", path.display());
    }
}

/// Pretty percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// A terminal bar for figure-style output: `value` rendered against
/// `max`, `width` characters wide.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let filled = ((value / max) * width as f64).round() as usize;
    "█".repeat(filled.min(width))
}

/// Aggregates outcome fractions across runs (weighted by replies).
pub fn mean_outcomes(results: &[RunResult]) -> BTreeMap<String, f64> {
    let mut sums: BTreeMap<String, Accumulator> = BTreeMap::new();
    for r in results {
        for (k, v) in &r.outcomes {
            sums.entry(k.clone()).or_default().add(*v);
        }
    }
    sums.into_iter().map(|(k, a)| (k, a.mean())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_row_weights_latency_by_count() {
        use rcsim_system::LatencyRow;
        let mut r = RunResult {
            workload: "x".into(),
            mechanism: "Baseline".into(),
            cores: 16,
            cycles: 1000,
            instructions: 1000,
            messages: BTreeMap::new(),
            latency: BTreeMap::new(),
            outcomes: BTreeMap::new(),
            reservations_at_index: vec![],
            reservations_failed: 0,
            reservation_failures: [0; 4],
            load: 0.0,
            energy: Default::default(),
            area_savings: 0.0,
            l1_miss_rate: 0.0,
            acks_elided: 0,
            l2_queued_on_busy: 0,
            health: Default::default(),
            external: Default::default(),
        };
        r.latency.insert(
            "Request".into(),
            LatencyRow {
                network: 10.0,
                queueing: 0.0,
                p99: 40.0,
                p999: 70.0,
                count: 3,
            },
        );
        r.latency.insert(
            "Circuit_Rep".into(),
            LatencyRow {
                network: 20.0,
                queueing: 0.0,
                p99: 25.0,
                p999: 90.0,
                count: 1,
            },
        );
        r.outcomes.insert("circuit".into(), 0.5);
        let row = bench_row("test", 16, &[r]);
        // (10*3 + 20*1) / 4 = 12.5; worst p99 wins; hit rate passes through.
        assert!((row.avg_latency - 12.5).abs() < 1e-12);
        assert!((row.p99_latency - 40.0).abs() < 1e-12);
        assert!((row.p999_latency - 90.0).abs() < 1e-12);
        assert!((row.circuit_hit_rate - 0.5).abs() < 1e-12);

        let mut summary = BenchSummary::new("unit");
        summary.push(row);
        assert!(summary.validate().is_empty());
    }
}
