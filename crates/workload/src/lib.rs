//! Deterministic synthetic workloads standing in for the paper's
//! PARSEC / SPLASH-2 parallel applications and SPEC CPU2006
//! multiprogrammed mixes (see DESIGN.md §2 for the substitution
//! rationale).
//!
//! Each application is an [`AppProfile`]: a small set of parameters that
//! shape the memory-reference stream the caches — and therefore the NoC —
//! actually see: memory-operation density, private working-set size,
//! shared-data fraction, write fraction and temporal locality. Per-core
//! streams are generated by [`CoreTrace`] from a seeded ChaCha RNG, so
//! every experiment is reproducible bit for bit.
//!
//! # Examples
//!
//! ```
//! use rcsim_workload::{CoreTrace, Workload};
//!
//! let wl = Workload::by_name("canneal", 16, 42).expect("known app");
//! let mut core0 = wl.core_trace(0);
//! let op = core0.next_op();
//! assert!(op.gap < 1000);
//! // Deterministic: the same seed yields the same stream.
//! let mut again = wl.core_trace(0);
//! assert_eq!(again.next_op(), op);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

mod arrival;

pub use arrival::{ArrivalProcess, ArrivalState, ArrivalStream, ExternalArrival};

/// A generator's RNG, serialized as its two state words.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(from = "(u64, u64)", into = "(u64, u64)")]
pub struct WorkloadRng(ChaCha8Rng);

impl From<WorkloadRng> for (u64, u64) {
    fn from(rng: WorkloadRng) -> Self {
        rng.0.state_words()
    }
}

impl From<(u64, u64)> for WorkloadRng {
    fn from((state, stream): (u64, u64)) -> Self {
        WorkloadRng(ChaCha8Rng::from_state_words(state, stream))
    }
}

/// One memory reference in a core's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceOp {
    /// Non-memory instructions executed before this reference (IPC-1
    /// cores spend one cycle each on them).
    pub gap: u32,
    /// Referenced cache line.
    pub block: u64,
    /// `true` for a store.
    pub write: bool,
}

/// Parameters shaping one application's memory behaviour.
///
/// The reference stream is a mixture of three regions: a per-core **hot**
/// set (L1-resident, the source of the high hit rates real codes show), a
/// per-core **cold** private set (capacity traffic), and — for parallel
/// applications — a **shared** set (coherence traffic: forwards,
/// invalidations, L1-to-L1 transfers).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AppProfile {
    /// Application name (paper Figure 10 labels).
    pub name: &'static str,
    /// Fraction of instructions that reference memory.
    pub mem_ratio: f64,
    /// Hot per-core working set, in cache lines (should fit the L1).
    pub hot_lines: u64,
    /// Probability a reference stays in the hot set (~= the L1 hit rate).
    pub hot_fraction: f64,
    /// Cold private working set, in cache lines per core.
    pub private_lines: u64,
    /// Shared working set, in cache lines (whole application).
    pub shared_lines: u64,
    /// Probability a *non-hot* reference targets the shared region.
    pub shared_fraction: f64,
    /// Probability a reference is a store.
    pub write_fraction: f64,
}

/// The catalogue of application profiles: ten PARSEC and eleven SPLASH-2
/// stand-ins with diverse densities, sharing degrees and footprints.
pub fn parallel_profiles() -> Vec<AppProfile> {
    #[allow(clippy::too_many_arguments)]
    fn p(
        name: &'static str,
        mem_ratio: f64,
        hot_lines: u64,
        hot_fraction: f64,
        private_lines: u64,
        shared_lines: u64,
        shared_fraction: f64,
        write_fraction: f64,
    ) -> AppProfile {
        AppProfile {
            name,
            mem_ratio,
            hot_lines,
            hot_fraction,
            private_lines,
            shared_lines,
            shared_fraction,
            write_fraction,
        }
    }
    vec![
        // PARSEC                 mem   hot   hot%   cold   shared  sh%   wr%
        p("blackscholes", 0.20, 200, 0.988, 480, 256, 0.20, 0.20),
        p("bodytrack", 0.26, 250, 0.980, 720, 900, 0.35, 0.22),
        p("canneal", 0.33, 300, 0.960, 1_500, 3_000, 0.55, 0.25),
        p("dedup", 0.30, 280, 0.972, 1_080, 1_500, 0.40, 0.30),
        p("ferret", 0.29, 260, 0.975, 960, 1_400, 0.38, 0.24),
        p("fluidanimate", 0.27, 240, 0.978, 840, 1_200, 0.40, 0.32),
        p("raytrace", 0.24, 220, 0.975, 780, 1_800, 0.45, 0.10),
        p("swaptions", 0.21, 180, 0.990, 420, 160, 0.15, 0.22),
        p("vips", 0.28, 260, 0.975, 900, 900, 0.30, 0.28),
        p("x264", 0.30, 280, 0.972, 1_020, 1_100, 0.32, 0.30),
        // SPLASH-2 (scaled inputs)
        p("barnes", 0.27, 240, 0.975, 720, 1_300, 0.45, 0.25),
        p("cholesky", 0.29, 260, 0.972, 960, 1_000, 0.35, 0.30),
        p("fft", 0.31, 300, 0.965, 1_200, 1_800, 0.45, 0.35),
        p("lu_cb", 0.28, 240, 0.978, 780, 800, 0.30, 0.32),
        p("lu_ncb", 0.30, 280, 0.968, 1_080, 1_300, 0.40, 0.32),
        p("ocean_cp", 0.32, 300, 0.963, 1_320, 2_200, 0.50, 0.34),
        p("ocean_ncp", 0.33, 320, 0.958, 1_560, 2_600, 0.52, 0.34),
        p("radiosity", 0.25, 230, 0.975, 720, 1_400, 0.45, 0.22),
        p("volrend", 0.23, 220, 0.978, 660, 1_000, 0.40, 0.12),
        p("water_nsquared", 0.24, 200, 0.982, 600, 700, 0.35, 0.24),
        p("water_spatial", 0.24, 210, 0.980, 660, 800, 0.32, 0.24),
    ]
}

/// SPEC-CPU-2006-like single-thread profiles for the multiprogrammed mix:
/// large private working sets and no sharing.
pub fn spec_profiles() -> Vec<AppProfile> {
    let names = [
        "perlbench",
        "bzip2",
        "gcc",
        "mcf",
        "gobmk",
        "hmmer",
        "sjeng",
        "libquantum",
        "h264ref",
        "omnetpp",
        "astar",
        "xalancbmk",
        "bwaves",
        "milc",
        "leslie3d",
        "lbm",
    ];
    names
        .iter()
        .enumerate()
        .map(|(i, name)| AppProfile {
            name,
            mem_ratio: 0.22 + 0.012 * (i % 8) as f64,
            hot_lines: 180 + 30 * (i as u64 % 5),
            hot_fraction: 0.96 + 0.006 * (i % 5) as f64,
            private_lines: 1_200 + 500 * (i as u64 % 5),
            shared_lines: 0,
            shared_fraction: 0.0,
            write_fraction: 0.18 + 0.02 * (i % 6) as f64,
        })
        .collect()
}

/// All workload names: the 21 parallel applications plus `"mix"`.
pub fn workload_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = parallel_profiles().iter().map(|p| p.name).collect();
    names.push("mix");
    names
}

/// A workload bound to a chip size: per-core profiles plus the address-map
/// seams (each core gets a disjoint private region; parallel apps share
/// one shared region).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Workload {
    /// Workload name (an application or `"mix"`).
    pub name: String,
    per_core: Vec<AppProfile>,
    seed: u64,
}

impl Workload {
    /// A parallel application (`name` from [`parallel_profiles`]) running
    /// one thread per core, or the multiprogrammed `"mix"` binding SPEC
    /// profiles round-robin to cores (the paper uses each application
    /// once at 16 cores, four times at 64).
    pub fn by_name(name: &str, cores: usize, seed: u64) -> Option<Workload> {
        if name == "mix" {
            let profiles = spec_profiles();
            let per_core = (0..cores).map(|c| profiles[c % profiles.len()]).collect();
            return Some(Workload {
                name: name.to_owned(),
                per_core,
                seed,
            });
        }
        let profile = parallel_profiles().into_iter().find(|p| p.name == name)?;
        Some(Workload {
            name: name.to_owned(),
            per_core: vec![profile; cores],
            seed,
        })
    }

    /// A partitioned chip (the paper's §5.5 future-usage model, after
    /// Tilera's Multicore Hardwall): the mesh is split into quadrants and
    /// each quadrant runs its own parallel application with a private
    /// shared region, so Reactive Circuits operate independently inside
    /// each partition.
    ///
    /// `cores` must be a square number divisible by 4; quadrant `q` runs
    /// `names[q % names.len()]`.
    pub fn partitioned(names: &[&str], cores: usize, seed: u64) -> Option<Workload> {
        if names.is_empty() || !cores.is_multiple_of(4) {
            return None;
        }
        let side = (cores as f64).sqrt() as usize;
        if side * side != cores {
            return None;
        }
        let catalogue = parallel_profiles();
        let mut per_core = Vec::with_capacity(cores);
        for c in 0..cores {
            let (x, y) = (c % side, c / side);
            let q = usize::from(x >= side / 2) + 2 * usize::from(y >= side / 2);
            let name = names[q % names.len()];
            per_core.push(*catalogue.iter().find(|p| p.name == name)?);
        }
        Some(Workload {
            name: format!("partitioned[{}]", names.join("+")),
            per_core,
            seed,
        })
    }

    /// The partition (quadrant) index of a core under
    /// [`Workload::partitioned`], assuming a square mesh.
    pub fn quadrant_of(core: usize, cores: usize) -> usize {
        let side = (cores as f64).sqrt() as usize;
        let (x, y) = (core % side, core / side);
        usize::from(x >= side / 2) + 2 * usize::from(y >= side / 2)
    }

    /// Number of cores this workload is bound to.
    pub fn cores(&self) -> usize {
        self.per_core.len()
    }

    /// The profile running on a core.
    pub fn profile(&self, core: usize) -> &AppProfile {
        &self.per_core[core]
    }

    /// The deterministic reference stream of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_trace(&self, core: usize) -> CoreTrace {
        let profile = self.per_core[core];
        // Private regions are disjoint per core; the shared region is
        // common to all cores of a parallel app ("mix" has none).
        // The per-core stride is deliberately *not* a multiple of any
        // power-of-two cache-set stride (hence the `64 * 311` stagger), so
        // different cores' regions do not alias onto the same L2 sets.
        let private_base = 0x1_0000_0000u64 + (core as u64) * (0x10_0000 + 64 * 311);
        // Partitioned workloads give each quadrant its own shared region
        // (partition isolation: no coherence traffic crosses partitions).
        let shared_base = if self.name.starts_with("partitioned") {
            let q = Self::quadrant_of(core, self.per_core.len()) as u64;
            0x2_0000_0000u64 + q * (0x100_0000 + 64 * 311)
        } else {
            0x2_0000_0000u64
        };
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&self.seed.to_le_bytes());
        seed_bytes[8..16].copy_from_slice(&(core as u64).to_le_bytes());
        seed_bytes[16..24].copy_from_slice(&(self.per_core.len() as u64).to_le_bytes());
        CoreTrace {
            state: WorkloadRng(ChaCha8Rng::from_seed(seed_bytes)),
            profile,
            private_base,
            shared_base,
        }
    }
}

/// Generator of one core's memory-reference stream. Its state (DESIGN.md
/// §13) is the RNG; the rest is rebuilt by [`Workload::core_trace`].
#[derive(Debug, Clone)]
pub struct CoreTrace {
    state: WorkloadRng,
    profile: AppProfile,
    private_base: u64,
    shared_base: u64,
}

rcsim_core::stateful!(CoreTrace => WorkloadRng);

impl CoreTrace {
    /// The next memory reference (with its preceding compute gap).
    pub fn next_op(&mut self) -> TraceOp {
        let p = &self.profile;
        // Geometric gap with mean 1/mem_ratio - 1 compute instructions.
        let mut gap = 0u32;
        while gap < 1000 && !self.state.0.gen_bool(p.mem_ratio) {
            gap += 1;
        }
        let (block, cold) = if self.state.0.gen_bool(p.hot_fraction) {
            // The L1-resident hot set: the head of the private region.
            (
                self.private_base + self.state.0.gen_range(0..p.hot_lines.max(1)),
                false,
            )
        } else if p.shared_lines > 0 && self.state.0.gen_bool(p.shared_fraction) {
            // Quadratic skew: popular shared lines are revisited often
            // (producer/consumer hotspots), the tail is touched rarely.
            let r: f64 = self.state.0.gen();
            (
                self.shared_base + ((r * r) * p.shared_lines as f64) as u64,
                true,
            )
        } else {
            // Cold private capacity traffic, beyond the hot set; same
            // skew, so compulsory misses decay instead of walking the
            // whole region forever.
            let r: f64 = self.state.0.gen();
            (
                self.private_base + p.hot_lines + ((r * r) * p.private_lines.max(1) as f64) as u64,
                true,
            )
        };
        // Non-hot traffic is read-mostly: cold data is streamed/scanned
        // and shared data is mostly consumed (heavy write sharing would
        // produce far more invalidation traffic than Table 1 reports).
        let wf = if cold {
            p.write_fraction * 0.2
        } else {
            p.write_fraction
        };
        TraceOp {
            gap,
            block,
            write: self.state.0.gen_bool(wf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_names_resolve() {
        for name in workload_names() {
            let wl = Workload::by_name(name, 16, 1).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(wl.cores(), 16);
        }
        assert!(Workload::by_name("nosuchapp", 16, 1).is_none());
    }

    #[test]
    fn catalogue_sizes_match_paper() {
        assert_eq!(parallel_profiles().len(), 21, "10 PARSEC + 11 SPLASH-2");
        assert_eq!(spec_profiles().len(), 16, "16 SPEC applications");
        assert_eq!(workload_names().len(), 22);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Workload::by_name("fft", 16, 7).unwrap();
        let b = Workload::by_name("fft", 16, 7).unwrap();
        let ops_a: Vec<_> = {
            let mut t = a.core_trace(3);
            (0..100).map(|_| t.next_op()).collect()
        };
        let ops_b: Vec<_> = {
            let mut t = b.core_trace(3);
            (0..100).map(|_| t.next_op()).collect()
        };
        assert_eq!(ops_a, ops_b);
        let mut other_seed = Workload::by_name("fft", 16, 8).unwrap().core_trace(3);
        let ops_c: Vec<_> = (0..100).map(|_| other_seed.next_op()).collect();
        assert_ne!(ops_a, ops_c);
    }

    #[test]
    fn cores_have_disjoint_private_regions() {
        let wl = Workload::by_name("swaptions", 4, 1).unwrap();
        let mut per_core_private: Vec<HashSet<u64>> = Vec::new();
        for c in 0..4 {
            let mut t = wl.core_trace(c);
            let blocks: HashSet<u64> = (0..2000)
                .map(|_| t.next_op().block)
                .filter(|b| *b < 0x2_0000_0000)
                .collect();
            per_core_private.push(blocks);
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(per_core_private[i].is_disjoint(&per_core_private[j]));
            }
        }
    }

    #[test]
    fn parallel_apps_share_data() {
        let wl = Workload::by_name("canneal", 4, 1).unwrap();
        let shared = |c: usize| -> HashSet<u64> {
            let mut t = wl.core_trace(c);
            (0..5000)
                .map(|_| t.next_op().block)
                .filter(|b| *b >= 0x2_0000_0000)
                .collect()
        };
        let s0 = shared(0);
        let s1 = shared(1);
        assert!(!s0.is_empty());
        assert!(s0.intersection(&s1).count() > 0, "cores touch common lines");
    }

    #[test]
    fn mix_never_shares() {
        let wl = Workload::by_name("mix", 16, 1).unwrap();
        for c in 0..16 {
            let mut t = wl.core_trace(c);
            for _ in 0..500 {
                assert!(t.next_op().block < 0x2_0000_0000);
            }
        }
        // 16 distinct SPEC profiles bound round-robin.
        let names: HashSet<_> = (0..16).map(|c| wl.profile(c).name).collect();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn partitioned_quadrants_run_their_apps() {
        let wl = Workload::partitioned(&["fft", "canneal", "swaptions", "barnes"], 16, 3).unwrap();
        assert_eq!(wl.cores(), 16);
        // 4x4: core 0 is quadrant 0 (fft), core 3 is quadrant 1 (canneal),
        // core 12 quadrant 2 (swaptions), core 15 quadrant 3 (barnes).
        assert_eq!(wl.profile(0).name, "fft");
        assert_eq!(wl.profile(3).name, "canneal");
        assert_eq!(wl.profile(12).name, "swaptions");
        assert_eq!(wl.profile(15).name, "barnes");
        assert!(Workload::partitioned(&[], 16, 3).is_none());
        assert!(Workload::partitioned(&["fft"], 15, 3).is_none());
        assert!(Workload::partitioned(&["nosuch"], 16, 3).is_none());
    }

    #[test]
    fn partitioned_shared_regions_are_disjoint() {
        let wl = Workload::partitioned(&["canneal"], 16, 3).unwrap();
        // Cores in different quadrants never touch the same shared line.
        let shared = |c: usize| -> HashSet<u64> {
            let mut t = wl.core_trace(c);
            (0..5000)
                .map(|_| t.next_op().block)
                .filter(|b| *b >= 0x2_0000_0000)
                .collect()
        };
        let q0 = shared(0);
        let q3 = shared(15);
        assert!(!q0.is_empty() && !q3.is_empty());
        assert!(q0.is_disjoint(&q3), "partitions must not share data");
        // Same quadrant still shares.
        let q0b = shared(1);
        assert!(q0.intersection(&q0b).count() > 0);
    }

    #[test]
    fn mem_ratio_shapes_gaps() {
        let wl = Workload::by_name("canneal", 1, 1).unwrap(); // dense
        let mut t = wl.core_trace(0);
        let dense: u32 = (0..2000).map(|_| t.next_op().gap).sum();
        let wl = Workload::by_name("blackscholes", 1, 1).unwrap(); // sparse
        let mut t = wl.core_trace(0);
        let sparse: u32 = (0..2000).map(|_| t.next_op().gap).sum();
        assert!(
            sparse > dense,
            "lower mem_ratio must produce longer compute gaps ({sparse} vs {dense})"
        );
    }

    #[test]
    fn write_fraction_is_respected() {
        let wl = Workload::by_name("raytrace", 1, 1).unwrap(); // 10% writes
        let mut t = wl.core_trace(0);
        let writes = (0..5000).filter(|_| t.next_op().write).count();
        let frac = writes as f64 / 5000.0;
        assert!((0.06..=0.14).contains(&frac), "write fraction {frac}");
    }
}
