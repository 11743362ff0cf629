//! The harness that regenerates every table and figure of the paper's
//! evaluation (§5), and the studies built around them.
//!
//! An experiment is an entry of [`EXPERIMENTS`] — a grid of rows, each
//! row's cells, the paper's claims (see [`Experiment`]) — and `rcsim-bench
//! <name>|all|list` is the one binary that runs them: it prints the
//! tables with the claim verdicts and writes `BENCH_<name>.json` and
//! `<name>.md` under `target/experiments/`.
//!
//! The `RC_*` knobs (defaults keep a full figure under a few minutes)
//! are the rows of [`KNOBS`], tabulated in README.md and parsed into the
//! [`RunEnv`] every function here takes: the binaries read the process
//! environment once, nothing below them does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod echo;
mod env;
mod experiments;
mod sweep;
mod table;

use rcsim_core::MechanismConfig;
use rcsim_system::SimConfig;

pub use env::{Knob, RunEnv, KNOBS};
pub use experiments::EXPERIMENTS;
pub use rcsim_trace::{BenchRow, BenchSummary};
pub use sweep::{cache_key, SweepOutcome, SweepRunner, SweepStats, CACHE_FORMAT_VERSION};
pub use table::{run_experiment, BenchError, Experiment, Report, Verdict};

/// The jobs of one row: `apps` × `RC_SEEDS` on a `cores`-core chip under
/// `mechanism`, apps outer and seeds inner (so every float sum over a row
/// keeps its order, and job `i` of two rows over the same apps is the same
/// app and seed — what keeps a comparison with a base row seed-paired).
/// Each configuration carries `env`'s harness-wide settings — warm-up and
/// measurement clamped to the `RC_MAX_CYCLES` budget, cache geometry per
/// `RC_SMALL_CACHES` — before `adjust` edits it; `tag` says how in the
/// label progress lines and failure reports use.
pub(crate) fn sim_jobs(
    env: &RunEnv,
    apps: &[String],
    cores: u16,
    mechanism: MechanismConfig,
    tag: &str,
    adjust: impl Fn(&mut SimConfig),
) -> Vec<(String, SimConfig)> {
    let warmup = env.warmup.min(env.max_cycles - 1);
    let mut jobs = Vec::with_capacity(apps.len() * env.seeds.len());
    for app in apps {
        for &seed in &env.seeds {
            let mut cfg = SimConfig {
                seed,
                warmup_cycles: warmup,
                measure_cycles: env.cycles.clamp(1, env.max_cycles - warmup),
                small_caches: env.small_caches,
                ..SimConfig::quick(cores, mechanism, app)
            };
            adjust(&mut cfg);
            let version = mechanism.label();
            jobs.push((format!("{app}/{version}/{cores}c seed {seed}{tag}"), cfg));
        }
    }
    jobs
}

#[cfg(test)]
mod testing {
    /// A run in which nothing happened, for tests to fill in.
    pub(crate) fn blank_run() -> rcsim_system::RunResult {
        rcsim_system::RunResult {
            workload: "x".into(),
            mechanism: "Baseline".into(),
            cores: 16,
            cycles: 1000,
            instructions: 1000,
            messages: Default::default(),
            latency: Default::default(),
            outcomes: Default::default(),
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
        }
    }
}
