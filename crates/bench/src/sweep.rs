//! Parallel sweep execution with an on-disk result cache.
//!
//! Every experiment is a sweep over independent, seed-deterministic
//! points. [`SweepRunner`] fans a job list across `std::thread::scope`
//! workers (`RC_JOBS`; one worker is the exact serial path — no threads
//! are spawned) and collects results **in submission order**, so tables
//! and `BENCH_<name>.json` rows are byte-identical regardless of worker
//! count. Per-point failures are collected, not fatal mid-sweep. A point
//! is a [`SimConfig`] ([`SweepRunner::run`]) or, for the network-only
//! harnesses, anything a closure can run (`run_uncached`): one pool, one
//! progress line, one set of counters under both.
//!
//! Completed points are cached under `target/experiments/cache/` (or
//! `RC_CACHE_DIR`) as [`Envelope`] files, the checkpoints' format: named
//! by the [`SimConfig`]'s content hash ([`cache_key`]), stamped with
//! [`CACHE_FORMAT_VERSION`]. A rerun after an unrelated edit skips
//! already-computed points; an empty `RC_CACHE_DIR` bypasses the cache
//! entirely. A corrupt, truncated or stale-format cache file is treated as
//! a miss and recomputed, never an error.

use crate::env::RunEnv;
use rcsim_system::{run_sim, run_sim_resumable, Envelope, RunResult, SimConfig, SimError};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

pub use rcsim_system::config_hash as cache_key;

/// Bumped whenever [`RunResult`] or the simulator's semantics change in a
/// way that invalidates previously cached results: a file of any other
/// version is a miss, and is overwritten by the recomputed point.
pub const CACHE_FORMAT_VERSION: u32 = 6;

const CACHE: Envelope = Envelope {
    magic: "rcsim-cache",
    version: CACHE_FORMAT_VERSION,
    extension: "json",
};

/// What a cache file holds. The full `config` rides along so a (vanishingly
/// unlikely) hash collision — or a hand-edited file — is detected by
/// field-for-field comparison instead of silently returning wrong results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheEntry {
    config: SimConfig,
    result: RunResult,
}

/// Aggregate counters for one [`SweepRunner::run`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Points submitted.
    pub points: usize,
    /// Worker threads used (1 = serial path).
    pub jobs: usize,
    /// Points served from the on-disk cache.
    pub cached: usize,
    /// Points whose simulation returned an error.
    pub failed: usize,
    /// Wall-clock milliseconds for the whole sweep.
    pub wall_ms: f64,
    /// Sum of per-point simulation times in milliseconds; `busy_ms /
    /// wall_ms` approximates the achieved parallel speedup.
    pub busy_ms: f64,
}

/// Results of a sweep, in submission order.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One entry per submitted job, index-aligned with the input order
    /// regardless of which worker ran it or when it finished.
    pub results: Vec<Result<RunResult, SimError>>,
    /// Execution counters for the sweep.
    pub stats: SweepStats,
}

/// Executes a list of labelled [`SimConfig`] jobs across worker threads,
/// with transparent result caching. See the module docs for the knobs.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    workers: usize,
    cache_dir: Option<PathBuf>,
    checkpoints: Option<(PathBuf, u64)>,
}

impl SweepRunner {
    /// A runner with an explicit worker count and cache directory
    /// (`None` disables caching), no checkpoints.
    pub fn new(workers: usize, cache_dir: Option<PathBuf>) -> Self {
        Self {
            workers: workers.max(1),
            cache_dir,
            checkpoints: None,
        }
    }

    /// The runner the experiment binaries use: everything as `env` says
    /// (`RC_JOBS`, `RC_CACHE_DIR`, empty for no cache). Under
    /// `RC_CKPT_DIR`/`RC_CKPT_INTERVAL` uncached points checkpoint to that
    /// directory every interval and resume from the latest valid
    /// checkpoint on a rerun, so a killed sweep re-does at most one
    /// interval per in-flight point; a finished point is served from the
    /// cache, a half-finished one from its checkpoint.
    pub fn for_env(env: &RunEnv) -> Self {
        Self {
            checkpoints: env.checkpoints.clone(),
            ..Self::new(env.jobs, env.cache_dir.clone())
        }
    }

    /// Worker threads this runner fans across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Where this runner caches results (`None` = caching disabled).
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// The checkpoint directory and interval, when crash resilience is
    /// enabled (`RC_CKPT_DIR`).
    pub fn checkpoints(&self) -> Option<(&Path, u64)> {
        self.checkpoints.as_ref().map(|(d, i)| (d.as_path(), *i))
    }

    /// The on-disk cache file a config maps to, if caching is enabled.
    pub fn cache_path(&self, cfg: &SimConfig) -> Option<PathBuf> {
        Some(CACHE.path(self.cache_dir.as_ref()?, cfg))
    }

    /// One full-system point: from the cache if it is there (`true`), else
    /// simulated — through checkpoints where configured — and stored, best
    /// effort: a failed write (read-only disk, races) costs a future
    /// recompute, never the current result.
    fn run_one(&self, cfg: &SimConfig) -> (Result<RunResult, SimError>, bool) {
        let cache = self.cache_dir.as_deref();
        if let Some(hit) = cache.and_then(|d| CACHE.lookup(d, cfg, |e: &CacheEntry| &e.config)) {
            return (Ok(hit.result), true);
        }
        let res = match &self.checkpoints {
            Some((dir, interval)) => run_sim_resumable(cfg, dir, *interval),
            None => run_sim(cfg),
        };
        if let (Some(path), Ok(result)) = (self.cache_path(cfg), &res) {
            let (config, result) = (cfg.clone(), result.clone());
            let _ = CACHE.save(&path, &CacheEntry { config, result });
        }
        (res, false)
    }

    /// Runs every `(label, config)` job and returns the results in
    /// submission order. Failures are collected per point — one stalled
    /// configuration does not abort the remaining points.
    ///
    /// # Panics
    ///
    /// Panics only if a worker thread itself panics (i.e. a bug in the
    /// simulator rather than a reported `SimError`).
    pub fn run(&self, jobs: &[(String, SimConfig)]) -> SweepOutcome {
        let (results, stats) = self.fan_out(jobs, |cfg| self.run_one(cfg));
        SweepOutcome { results, stats }
    }

    /// [`SweepRunner::run`] for points no [`SimConfig`] describes (the
    /// network-only harness): `point` in place of the simulator, and no
    /// cache — there is no configuration to key one on.
    pub(crate) fn run_uncached<T: Sync, R: Send>(
        &self,
        jobs: &[(String, T)],
        point: impl Fn(&T) -> Result<R, String> + Sync,
    ) -> (Vec<Result<R, String>>, SweepStats) {
        self.fan_out(jobs, |job| (point(job), false))
    }

    /// The pool under both entry points: applies `one` — which returns its
    /// result and whether the cache served it — to every job on scoped
    /// worker threads (one worker is the exact serial path: no thread is
    /// spawned), prints a progress line per point, and returns the results
    /// in submission order, whichever worker ran a job and whenever it
    /// finished, with the sweep's counters.
    fn fan_out<T: Sync, R: Send, E: Send + std::fmt::Display>(
        &self,
        jobs: &[(String, T)],
        one: impl Fn(&T) -> (Result<R, E>, bool) + Sync,
    ) -> (Vec<Result<R, E>>, SweepStats) {
        let started = Instant::now();
        let workers = self.workers.min(jobs.len().max(1));
        // Per job: its result, whether the cache served it, its busy ms.
        let slots: Vec<_> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let cursor = Mutex::new(0usize);
        let work = |worker: usize| loop {
            let i = {
                let mut c = cursor.lock().expect("sweep cursor poisoned");
                if *c >= jobs.len() {
                    break;
                }
                *c += 1;
                *c - 1
            };
            let (label, job) = &jobs[i];
            let began = Instant::now();
            let (res, cached) = one(job);
            let ms = began.elapsed().as_secs_f64() * 1e3;
            match &res {
                _ if cached => eprintln!("[sweep {worker}] {label}: cached"),
                Ok(_) => eprintln!("[sweep {worker}] {label}: ran in {ms:.0} ms"),
                Err(e) => eprintln!("[sweep {worker}] {label}: FAILED ({e})"),
            }
            let busy_ms = if cached { 0.0 } else { ms };
            *slots[i].lock().expect("sweep slot poisoned") = Some((res, cached, busy_ms));
        };
        if workers <= 1 {
            work(0);
        } else {
            std::thread::scope(|s| {
                let work = &work;
                for w in 0..workers {
                    s.spawn(move || work(w));
                }
            });
        }
        let mut stats = SweepStats {
            points: jobs.len(),
            jobs: workers,
            ..SweepStats::default()
        };
        let mut results = Vec::with_capacity(jobs.len());
        for slot in slots {
            let slot = slot.into_inner().expect("sweep slot poisoned");
            let (res, cached, busy_ms) = slot.expect("every submitted job produces a result");
            stats.cached += usize::from(cached);
            stats.busy_ms += busy_ms;
            stats.failed += usize::from(res.is_err());
            results.push(res);
        }
        stats.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::MechanismConfig;

    #[test]
    fn cache_key_tracks_every_field() {
        let base = SimConfig::quick(16, MechanismConfig::baseline(), "fft");
        let k0 = cache_key(&base);
        assert_eq!(cache_key(&base.clone()), k0, "deterministic");
        let mut seed = base.clone();
        seed.seed += 1;
        assert_ne!(cache_key(&seed), k0);
        let mut cycles = base.clone();
        cycles.measure_cycles += 1;
        assert_ne!(cache_key(&cycles), k0);
        let mech = SimConfig::quick(16, MechanismConfig::complete_noack(), "fft");
        assert_ne!(cache_key(&mech), k0);
    }

    /// The driver itself (resume from a planted checkpoint, stale and
    /// garbage files) is `rcsim-system`'s `checkpoint_diff`; this pins
    /// that a checkpointing runner hands its directory through.
    #[test]
    fn checkpointed_sweep_is_byte_identical_and_leaves_nothing_behind() {
        let cfg = SimConfig {
            warmup_cycles: 300,
            measure_cycles: 900,
            ..SimConfig::quick(16, MechanismConfig::complete_noack(), "fft")
        };
        let dir = std::env::temp_dir().join(format!("rcsim-sweep-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jobs = [("point".to_owned(), cfg)];
        let plain = SweepRunner::new(1, None).run(&jobs);
        let checkpointing = SweepRunner {
            checkpoints: Some((dir.clone(), 250)),
            ..SweepRunner::new(1, None)
        };
        assert_eq!(
            serde_json::to_string(plain.results[0].as_ref().unwrap()).unwrap(),
            serde_json::to_string(checkpointing.run(&jobs).results[0].as_ref().unwrap()).unwrap(),
            "checkpointed run diverged from the plain run"
        );
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn env_free_runner_clamps_workers() {
        let r = SweepRunner::new(0, None);
        assert_eq!(r.workers(), 1);
        assert!(r.cache_dir().is_none());
        assert!(r
            .cache_path(&SimConfig::quick(16, MechanismConfig::baseline(), "fft"))
            .is_none());
    }
}
