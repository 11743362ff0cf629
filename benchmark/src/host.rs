//! The host side of a run: the hermetic-environment check, where output
//! files go, what is stamped into them, and the memory probe that takes
//! the host's momentary speed so host-time metrics can be read steadily
//! on a shared machine.

use crate::workloads::SplitMix64;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// The first `RC_*` variable set in `vars`, if any. The simulator's bench
/// layer reads some thirty such knobs (kernel, shards, cache directory,
/// cycle counts…); the benchmark passes every one of them explicitly and
/// refuses to start under any, so a stray export cannot change what is
/// measured.
pub fn first_rc_variable(vars: impl IntoIterator<Item = String>) -> Option<String> {
    vars.into_iter().find(|k| k.starts_with("RC_"))
}

/// Where the benchmark writes its files: `out/` beside its manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The repo root (the manifest's parent directory).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(PathBuf::from)
        .unwrap_or_default()
}

/// Usable hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A fixed piece of memory-bound work, independent of the simulator: a
/// dependent pointer chase through one random cycle over an 8 MiB array
/// (last-level-cache resident on an idle host) and one over a 64 MiB array
/// (DRAM). On a shared host a neighbour that thrashes the cache slows the
/// simulator by 15–40 % for minutes at a time, and slows this chase by
/// about the same factor (measured over 30 minutes of interleaved probes
/// and reps, see README.md); compute-bound loops barely notice. The
/// end-to-end pass runs the probe before and after every rep and scales
/// the rep's host time by [`HostProbe::NOMINAL_S`] over the mean of the
/// two, which takes the neighbour out of the reading.
pub struct HostProbe {
    small: Vec<u32>,
    large: Vec<u32>,
    at: (u32, u32),
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    const SMALL_ENTRIES: usize = 1 << 21;
    const LARGE_ENTRIES: usize = 1 << 24;
    const SMALL_STEPS: u32 = 1 << 19;
    const LARGE_STEPS: u32 = 200_000;

    /// Memory the probe keeps resident, MiB (taken off `peak_rss_mb`).
    pub const RESIDENT_MB: f64 =
        ((Self::SMALL_ENTRIES + Self::LARGE_ENTRIES) * 4) as f64 / 1048576.0;

    /// What one [`HostProbe::run`] takes on the undisturbed reference host,
    /// seconds: the scale that keeps normalised times in seconds. A
    /// constant of the benchmark, so every commit is scaled alike.
    pub const NOMINAL_S: f64 = 0.060;

    /// Builds the two arrays (about half a second).
    pub fn new() -> Self {
        Self {
            small: random_cycle(Self::SMALL_ENTRIES, 0x5EED_0008),
            large: random_cycle(Self::LARGE_ENTRIES, 0x5EED_0064),
            at: (0, 0),
        }
    }

    /// One probe: a fixed number of chase steps through each array, each
    /// continuing where the last probe stopped. Returns the seconds taken.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        self.at.0 = chase(&self.small, self.at.0, Self::SMALL_STEPS);
        self.at.1 = chase(&self.large, self.at.1, Self::LARGE_STEPS);
        t.elapsed().as_secs_f64()
    }
}

/// `next[i]` of one cycle through all `n` entries in random order
/// (Sattolo's shuffle), so a chase never settles into a short loop and no
/// prefetcher can follow it.
pub fn random_cycle(n: usize, seed: u64) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut rng = SplitMix64(seed);
    for i in (1..n).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    next
}

fn chase(next: &[u32], from: u32, steps: u32) -> u32 {
    let mut at = from;
    for _ in 0..steps {
        at = next[at as usize];
    }
    black_box(at)
}

/// Peak resident set size of this process (`VmHWM`), MiB; 0 where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// What produced a results file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stamp {
    /// `git rev-parse HEAD` (`unknown` outside a git checkout).
    pub commit: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Usable hardware threads.
    pub nproc: usize,
    /// [`crate::layers::calibration_score`] on this host, Msteps/s.
    pub calibration_score: f64,
}

impl Stamp {
    /// Gathers the stamp (runs `git` and `rustc`, and the calibration
    /// loop for about a second).
    pub fn gather() -> Self {
        Self {
            commit: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
            nproc: nproc(),
            calibration_score: crate::layers::calibration_score(),
        }
    }
}
