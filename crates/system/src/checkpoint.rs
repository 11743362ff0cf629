//! Checkpoint/restore: full simulation-state snapshots with byte-identical
//! resume, and the crash-resilient run driver built on them.
//!
//! A [`SimSession`] is [`run_sim`](crate::run_sim) opened up: the same
//! chip construction, warm-up boundary and result assembly, but advanced
//! explicitly with [`SimSession::run_until`] so a run can stop at any
//! cycle `k`, [`SimSession::checkpoint`] itself, and later be rebuilt with
//! [`SimSession::resume`] to continue from `k`. The contract — enforced by
//! the `checkpoint_diff` differential matrix — is byte identity:
//! `run(0..T)` and `run(0..k) + save + restore + run(k..T)` produce the
//! same [`RunResult`] and the same trace stream, for any `k`, under every
//! topology, fault plan and open-loop configuration.
//!
//! What a snapshot holds is each component's `State` — every field its
//! behaviour depends on from one tick to the next — and nothing else:
//! wiring (geometry, latencies, mechanism flags, trace sinks) is
//! rebuilt from the [`SimConfig`] by construction and scratch is rebuilt
//! from the state. DESIGN.md §13 has the rule and the table.
//!
//! On disk a checkpoint is an [`Envelope`] file (`rcsim-checkpoint v22`),
//! the format the sweep result cache shares: a corrupt, truncated or
//! stale-version file loads as `None` — a clean miss, never an error.

use crate::chip::{Chip, ChipSnapshot};
use crate::envelope::{config_hash, Envelope};
use crate::report::RunResult;
use crate::sim::{assemble_result, build_chip, SimConfig, SimError, TraceConfig, TraceReport};
use rcsim_core::{Cycle, KernelMode};
use rcsim_trace::{LatencyBreakdown, MetricsRegistry, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Bumped whenever the snapshot layout changes incompatibly. A checkpoint
/// carrying any other version is treated as a clean miss, never an error.
pub const CHECKPOINT_FORMAT_VERSION: u64 = 22;

const CHECKPOINT: Envelope = Envelope {
    magic: "rcsim-checkpoint",
    version: CHECKPOINT_FORMAT_VERSION,
    extension: "ckpt",
};

/// A saved simulation: the config that produced it (so a stale or
/// mismatched file is detected by comparison, not trusted), the cycle it
/// stopped at, and the complete dynamic state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSnapshot {
    config: SimConfig,
    trace: Option<TraceConfig>,
    pos: Cycle,
    chip: ChipSnapshot,
    trace_events: Vec<TraceEvent>,
    trace_dropped: u64,
}

impl SessionSnapshot {
    /// The cycle the saved run had reached.
    pub fn pos(&self) -> Cycle {
        self.pos
    }

    /// The configuration the saved run was started from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Writes the checkpoint atomically: a reader — or a rerun after a
    /// mid-write crash — either sees the complete file or no file.
    ///
    /// # Errors
    ///
    /// As [`Envelope::save`].
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        CHECKPOINT.save(path, self)
    }

    /// Reads a checkpoint back. Missing, truncated, corrupt or
    /// stale-version files all return `None` — a clean miss the caller
    /// handles by starting from cycle 0.
    pub fn load(path: &Path) -> Option<Self> {
        CHECKPOINT.load(path)
    }
}

/// An explicitly-stepped simulation run: [`run_sim`](crate::run_sim)
/// decomposed into construct / advance / finish so the driver can stop at
/// arbitrary cycles to checkpoint (and the replay tooling can inspect a
/// wedged chip). See the module docs for the byte-identity contract.
pub struct SimSession {
    cfg: SimConfig,
    trace_cfg: Option<TraceConfig>,
    chip: Chip,
    sink: TraceSink,
    pos: Cycle,
}

impl SimSession {
    /// Opens a fresh session at cycle 0. `kernel` is the benchmark's stub
    /// (see [`KernelMode`]); the workspace passes `KernelMode::Event`.
    /// `_shards` is ignored; the `[benchmark]` PR retiring `core.shard.*` drops it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for unknown workloads or invalid
    /// configurations, exactly like [`run_sim`](crate::run_sim).
    pub fn new(
        cfg: &SimConfig,
        trace: Option<&TraceConfig>,
        kernel: KernelMode,
        _shards: usize,
    ) -> Result<Self, SimError> {
        let mut chip = build_chip(cfg, kernel)?;
        let sink = match trace {
            Some(t) => {
                let sink = TraceSink::ring(t.capacity);
                chip.set_trace_sink(sink.clone());
                chip.set_trace_epoch(t.epoch);
                sink
            }
            None => TraceSink::Disabled,
        };
        Ok(Self {
            cfg: cfg.clone(),
            trace_cfg: trace.cloned(),
            chip,
            sink,
            pos: 0,
        })
    }

    /// Rebuilds a session from a [`SessionSnapshot`]: constructs the chip
    /// from the saved config by the same code path as a fresh run, then
    /// overwrites its dynamic state. `kernel` is as in [`SimSession::new`];
    /// no snapshot holds it.
    /// `_shards` is ignored; the `[benchmark]` PR retiring `core.shard.*` drops it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the saved config no longer builds (e.g. a
    /// workload renamed since the checkpoint was written).
    pub fn resume(
        snap: &SessionSnapshot,
        kernel: KernelMode,
        _shards: usize,
    ) -> Result<Self, SimError> {
        let mut session = Self::new(&snap.config, snap.trace.as_ref(), kernel, 1)?;
        session.chip.restore(&snap.chip);
        session
            .sink
            .restore(snap.trace_events.clone(), snap.trace_dropped);
        session.pos = snap.pos;
        Ok(session)
    }

    /// Cycles completed so far.
    pub fn pos(&self) -> Cycle {
        self.pos
    }

    /// Total cycles of the configured run (warm-up + measure).
    pub fn total(&self) -> Cycle {
        self.cfg.warmup_cycles + self.cfg.measure_cycles
    }

    /// The chip, for inspection (the replay tool's health dump).
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Captures the complete dynamic state at the current cycle.
    pub fn checkpoint(&self) -> SessionSnapshot {
        SessionSnapshot {
            config: self.cfg.clone(),
            trace: self.trace_cfg.clone(),
            pos: self.pos,
            chip: self.chip.snapshot(),
            trace_events: self.sink.snapshot(),
            trace_dropped: self.sink.dropped(),
        }
    }

    /// Advances to cycle `target` (`≤ total()`), applying the warm-up
    /// boundary (stats reset + trace drain) when crossing it — at the
    /// same cycle regardless of how the run is sliced, which is what
    /// makes resume byte-identical.
    ///
    /// On a watchdog stall the session is left at the stalled cycle for
    /// inspection or a [`Self::checkpoint`] (see [`run_sim_resumable`]).
    ///
    /// # Errors
    ///
    /// [`SimError::Stalled`] when the watchdog declares the network dead.
    pub fn run_until(&mut self, target: Cycle) -> Result<(), SimError> {
        assert!(target <= self.total(), "target beyond the configured run");
        while self.pos < target {
            if self.pos == self.cfg.warmup_cycles {
                self.chip.reset_stats();
                // Discard warm-up events so the trace covers the measure
                // window only (packets already in flight keep their
                // enqueue/inject events, which the breakdown post-pass
                // counts as unresolved).
                self.sink.drain();
            }
            self.chip.tick();
            self.pos += 1;
            if self.chip.stalled() {
                return Err(SimError::Stalled {
                    report: Box::new(self.chip.health()),
                });
            }
        }
        Ok(())
    }

    /// Gathers the final [`RunResult`] (and the [`TraceReport`] when the
    /// session traces). Call at `pos() == total()`.
    ///
    /// # Panics
    ///
    /// Panics if the run has not completed — finishing early would
    /// silently report a shorter measure window.
    pub fn finish(self) -> (RunResult, Option<TraceReport>) {
        assert_eq!(self.pos, self.total(), "finish() before the run completed");
        let trace_report = self.trace_cfg.as_ref().map(|_| {
            let dropped = self.sink.dropped();
            let events = self.sink.drain();
            let breakdown = LatencyBreakdown::from_events(&events);
            let mut metrics = MetricsRegistry::new();
            metrics.tally_events(&events);
            TraceReport {
                events,
                dropped,
                breakdown,
                metrics,
            }
        });
        (assemble_result(&self.cfg, &self.chip), trace_report)
    }
}

/// [`run_sim`](crate::run_sim) with crash resilience: the run checkpoints
/// to `dir` every `interval` cycles, resumes from the latest valid
/// checkpoint if one exists (a rerun after a kill picks up mid-run), and
/// removes the checkpoint on completion. Byte-identical to an
/// uninterrupted [`run_sim`](crate::run_sim) by the session contract.
///
/// The checkpoint file is keyed by the config's content hash, so
/// concurrent sweeps over different points never collide; a stale file
/// for a *changed* config misses on the embedded-config comparison.
///
/// On a watchdog stall the wedged state is dumped, best effort, as
/// `wedged-<confighash>.ckpt` in `dir` for post-mortem loading by
/// `rcsim-replay`; a failed write costs the dump, never the stall report.
///
/// # Errors
///
/// Returns [`SimError`] for unknown workloads, invalid configurations or
/// watchdog stalls, exactly like [`run_sim`](crate::run_sim).
pub fn run_sim_resumable(
    cfg: &SimConfig,
    dir: &Path,
    interval: u64,
) -> Result<RunResult, SimError> {
    let interval = interval.max(1);
    let path = CHECKPOINT.path(dir, cfg);
    let mut session = match CHECKPOINT.lookup(dir, cfg, SessionSnapshot::config) {
        Some(snap) => {
            eprintln!(
                "[checkpoint] resuming {} from cycle {} ({})",
                cfg.workload,
                snap.pos(),
                path.display()
            );
            SimSession::resume(&snap, KernelMode::Event, 1)?
        }
        None => SimSession::new(cfg, None, KernelMode::Event, 1)?,
    };
    let total = session.total();
    while session.pos() < total {
        let target = (session.pos() + interval).min(total);
        if let Err(stalled) = session.run_until(target) {
            let wedged = dir.join(format!("wedged-{:016x}.ckpt", config_hash(cfg)));
            if session.checkpoint().save(&wedged).is_ok() {
                eprintln!(
                    "[checkpoint] wedged state at cycle {} dumped to {} (inspect with rcsim-replay)",
                    session.pos(),
                    wedged.display()
                );
            }
            return Err(stalled);
        }
        if session.pos() < total {
            // Best effort: a failed write costs resumability, not the run.
            let _ = session.checkpoint().save(&path);
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok(session.finish().0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::MechanismConfig;

    fn cfg() -> SimConfig {
        SimConfig {
            warmup_cycles: 300,
            measure_cycles: 1_200,
            ..SimConfig::quick(16, MechanismConfig::complete_noack(), "fft")
        }
    }

    #[test]
    fn header_roundtrip_and_rejection() {
        let session = SimSession::new(&cfg(), None, KernelMode::Event, 1).unwrap();
        let text = CHECKPOINT.encode(&session.checkpoint());
        let decode = |text: &str| CHECKPOINT.decode::<SessionSnapshot>(text);
        assert!(decode(&text).is_some());
        // Flip a payload byte: checksum mismatch is a clean miss.
        let corrupt = text.replacen("\"pos\":0", "\"pos\":1", 1);
        assert!(decode(&corrupt).is_none());
        // Every earlier version: a clean miss, even though the checksum
        // still matches the payload.
        let current = format!("rcsim-checkpoint v{CHECKPOINT_FORMAT_VERSION} ");
        assert!(text.starts_with(&current));
        for old in 0..CHECKPOINT_FORMAT_VERSION {
            let stale = text.replacen(&current, &format!("rcsim-checkpoint v{old} "), 1);
            assert!(decode(&stale).is_none(), "v{old}");
        }
        // Another magic, truncated, empty: clean misses.
        assert!(decode(&text.replacen("rcsim-checkpoint", "rcsim-cache", 1)).is_none());
        assert!(decode(&text[..text.len() / 2]).is_none());
        assert!(decode("").is_none());
    }
}
