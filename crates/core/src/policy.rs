//! Adaptive runtime policy: a deterministic controller that watches
//! per-region occupancy telemetry and, on a fixed decision epoch, flips
//! regions between *calm* and *hot*.
//!
//! The controller itself is a pure state machine: [`PolicyController::decide`]
//! is a function of `(controller state, now, samples)` only — no RNG, no
//! clocks, no host-dependent input — which is what keeps adaptive runs
//! bit-reproducible per seed and blind to the worklist (decisions are
//! taken densely, right before the network's tick; see DESIGN.md §14).
//! What a *hot* verdict means is up to the embedder (`rcsim-system`'s
//! `Adaptive` marks the region on the network's [`CongestionMap`], whose
//! NIs then suppress circuit construction and plan congestion-aware
//! detours); this module only decides *when* a region changes state:
//!
//! * **hysteresis** — a region enters `Hot` at `score >= hot_enter` and
//!   leaves it at `score <= hot_exit`, with `hot_exit <= hot_enter`, so a
//!   score dithering between the two thresholds cannot oscillate;
//! * **min-dwell** — after any switch, the region holds its state for at
//!   least `min_dwell` cycles, bounding the switch frequency outright.
//!
//! Regions are the contiguous router ranges of a [`RegionPlan`] — a pure
//! function of `(topology, regions)`, so the region map (and therefore
//! every decision) depends on nothing but the configuration.

use crate::config::ConfigError;
use crate::topology::Topology;
use crate::types::Cycle;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Fixed-point scale for [`RegionSample::score`]: scores are occupancy
/// per router times this constant, so integer thresholds can express
/// fractional per-router loads without floating point (which would
/// jeopardise cross-host determinism).
pub const SCORE_SCALE: u64 = 256;

fn default_decision_epoch() -> Cycle {
    50
}
fn default_regions() -> usize {
    16
}
fn default_hot_enter() -> u64 {
    4_096
}
fn default_hot_exit() -> u64 {
    2_048
}
fn default_min_dwell() -> Cycle {
    100
}

/// Knobs for the adaptive runtime policy. Absent from a `SimConfig` by
/// default (`Option<AdaptiveConfig>` with `skip_serializing_if`), so cache
/// keys and goldens are byte-identical when adaptation is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Cycles between controller decisions. Decisions happen at
    /// `t = decision_epoch, 2·decision_epoch, …` before the network's
    /// tick; must be non-zero.
    #[serde(default = "default_decision_epoch")]
    pub decision_epoch: Cycle,
    /// Number of contiguous router regions (clamped to the router
    /// count); must be non-zero.
    #[serde(default = "default_regions")]
    pub regions: usize,
    /// A calm region becomes hot when its score reaches this threshold
    /// (units of [`SCORE_SCALE`] per router — 4096 = sixteen occupied
    /// flit slots per router on average, well above the light-load band
    /// an 8×8 mesh idles in but reached within one epoch of a hotspot
    /// burst).
    #[serde(default = "default_hot_enter")]
    pub hot_enter: u64,
    /// A hot region becomes calm when its score drops to this threshold
    /// or below. Must not exceed `hot_enter` (hysteresis band).
    #[serde(default = "default_hot_exit")]
    pub hot_exit: u64,
    /// Minimum cycles between two switches of the same region.
    #[serde(default = "default_min_dwell")]
    pub min_dwell: Cycle,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            decision_epoch: default_decision_epoch(),
            regions: default_regions(),
            hot_enter: default_hot_enter(),
            hot_exit: default_hot_exit(),
            min_dwell: default_min_dwell(),
        }
    }
}

impl AdaptiveConfig {
    /// Checks the knob invariants; called when the policy is installed.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.decision_epoch == 0 {
            return Err(ConfigError::AdaptivePolicy("decision_epoch must be > 0"));
        }
        if self.regions == 0 {
            return Err(ConfigError::AdaptivePolicy("regions must be > 0"));
        }
        if self.hot_exit > self.hot_enter {
            return Err(ConfigError::AdaptivePolicy(
                "hot_exit must not exceed hot_enter",
            ));
        }
        Ok(())
    }
}

/// The adaptive layer's region map: a contiguous partition of a
/// topology's routers (and, via the concentration factor, its tiles) into
/// balanced regions.
///
/// Ranges are ascending and non-empty: region `g` owns routers
/// `g·R/K .. (g+1)·R/K` (integer division), so sizes differ by at most
/// one. Tiles are numbered `router * c + slot` (see
/// [`Topology::tile_of`]), so a contiguous router range induces a
/// contiguous tile range and an NI always lands in its router's region.
/// The plan is a pure function of `(routers, regions)`: no RNG, no
/// host-dependent input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPlan {
    /// Router-index boundaries; `bounds[g]..bounds[g + 1]` is region `g`.
    bounds: Vec<usize>,
    /// Tiles per router, cached from the topology.
    concentration: usize,
}

impl RegionPlan {
    /// Builds the plan for `topology` with the requested region count,
    /// clamped to `1..=routers` so every region is non-empty.
    pub fn new(topology: &Topology, regions: usize) -> Self {
        let routers = topology.routers();
        let regions = regions.clamp(1, routers.max(1));
        let bounds = (0..=regions).map(|g| g * routers / regions).collect();
        RegionPlan {
            bounds,
            concentration: topology.concentration(),
        }
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The contiguous router-index range owned by region `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g >= self.regions()`.
    pub fn router_range(&self, g: usize) -> Range<usize> {
        self.bounds[g]..self.bounds[g + 1]
    }

    /// The contiguous tile-index range owned by region `g` — the router
    /// range scaled by the concentration, so `router_of(tile)` of every
    /// tile in the range lies in [`RegionPlan::router_range`].
    ///
    /// # Panics
    ///
    /// Panics if `g >= self.regions()`.
    pub fn tile_range(&self, g: usize) -> Range<usize> {
        (self.bounds[g] * self.concentration)..(self.bounds[g + 1] * self.concentration)
    }

    /// The region owning router `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is outside the plan.
    pub fn region_of_router(&self, r: usize) -> usize {
        let routers = *self.bounds.last().expect("bounds are never empty");
        assert!(r < routers, "router {r} outside the plan");
        // First boundary strictly above r, minus one.
        self.bounds.partition_point(|&b| b <= r) - 1
    }
}

/// One region's occupancy telemetry for a single decision, summed over
/// the routers and NIs the region owns (same quantities as
/// `NetworkTelemetry`, but per region instead of chip-wide).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionSample {
    /// Flits buffered in the region's router input VCs.
    pub buffered_flits: u64,
    /// Messages queued or assembling in the region's NIs.
    pub ni_backlog: u64,
    /// Circuit-table entries held by the region's routers (reported in
    /// traces for diagnosis; not part of the score — entries are standing
    /// capacity, not queued work).
    pub circuit_entries: u64,
    /// Routers in the region (the score normaliser).
    pub routers: u64,
}

impl RegionSample {
    /// The congestion score: queued occupancy per router, fixed-point
    /// ×[`SCORE_SCALE`]. Empty regions score zero.
    pub fn score(&self) -> u64 {
        (self.buffered_flits + self.ni_backlog) * SCORE_SCALE / self.routers.max(1)
    }
}

/// A region's policy state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionMode {
    /// Normal operation: circuits build, DOR routing.
    Calm,
    /// Congested: circuits across the region are torn down and not built
    /// again, and traffic detours around the region's routers.
    Hot,
}

/// One region's verdict from a [`PolicyController::decide`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionDecision {
    /// Region index.
    pub region: usize,
    /// The region's mode *after* this decision.
    pub mode: RegionMode,
    /// `true` when this decision changed the mode.
    pub switched: bool,
    /// The score the decision was based on.
    pub score: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct RegionState {
    mode: RegionMode,
    last_switch: Option<Cycle>,
}

/// The [`PolicyController`]'s state (DESIGN.md §15): every region's mode
/// and last switch cycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyState {
    regions: Vec<RegionState>,
}

/// The deterministic per-region policy state machine (hysteresis +
/// min-dwell). Holds no telemetry itself — samples are handed in, so the
/// controller can be driven (and property-tested) in isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyController {
    cfg: AdaptiveConfig,
    state: PolicyState,
}

impl PolicyController {
    /// A controller for `regions` regions, all initially calm.
    pub fn new(cfg: AdaptiveConfig, regions: usize) -> Self {
        let calm = RegionState {
            mode: RegionMode::Calm,
            last_switch: None,
        };
        PolicyController {
            cfg,
            state: PolicyState {
                regions: vec![calm; regions],
            },
        }
    }

    /// The installed knobs.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.state.regions.len()
    }

    /// A region's current mode.
    pub fn mode(&self, region: usize) -> RegionMode {
        self.state.regions[region].mode
    }

    /// How many regions are currently hot.
    pub fn hot_regions(&self) -> u64 {
        self.state
            .regions
            .iter()
            .filter(|r| r.mode == RegionMode::Hot)
            .count() as u64
    }

    /// Runs one decision: applies hysteresis and min-dwell to every
    /// region's sample and returns the per-region verdicts (one per
    /// region, in region order — callers filter on `switched`).
    ///
    /// Pure in the functional sense: identical `(self, now, samples)`
    /// always produce identical verdicts and identical next state.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len()` differs from the region count.
    pub fn decide(&mut self, now: Cycle, samples: &[RegionSample]) -> Vec<RegionDecision> {
        assert_eq!(
            samples.len(),
            self.state.regions.len(),
            "one sample per region required"
        );
        let mut out = Vec::with_capacity(samples.len());
        for (region, (st, sample)) in self.state.regions.iter_mut().zip(samples).enumerate() {
            let score = sample.score();
            let want = match st.mode {
                RegionMode::Calm if score >= self.cfg.hot_enter => RegionMode::Hot,
                RegionMode::Hot if score <= self.cfg.hot_exit => RegionMode::Calm,
                unchanged => unchanged,
            };
            let dwell_ok = st
                .last_switch
                .is_none_or(|t| now.saturating_sub(t) >= self.cfg.min_dwell);
            let switched = want != st.mode && dwell_ok;
            if switched {
                st.mode = want;
                st.last_switch = Some(now);
            }
            out.push(RegionDecision {
                region,
                mode: st.mode,
                switched,
                score,
            });
        }
        out
    }
}

crate::stateful!(PolicyController => PolicyState);

/// Shared read-only view of which routers are congested, handed to every
/// NI tick (alongside `TopologyHealth`) so detour planning can weight
/// congestion as well as faults.
///
/// The `era` counter is the staleness fence for recorded reverse reply
/// paths: it bumps whenever a blocking condition clears (a link or router
/// heals, or a hot region cools), and the NI only rides a recorded path
/// whose era matches — post-heal traffic returns to DOR instead of
/// retracing a detour recorded under conditions that no longer hold.
///
/// While any router is hot, NIs plan congestion-aware detours around hot
/// routers and skip circuit construction for requests whose reply path
/// crosses one; only a policy marks routers hot, so without one the map
/// carries nothing but fault-heal era bumps. The hot count is scratch,
/// recounted by `rebuild_scratch`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CongestionMap {
    state: CongestionState,
    hot_count: usize,
}

/// The [`CongestionMap`]'s state (DESIGN.md §15).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CongestionState {
    /// Per-router hot flags.
    hot: Vec<bool>,
    /// Staleness era for recorded detour paths.
    era: u64,
}

impl CongestionMap {
    /// An all-calm map over `routers` routers.
    pub fn new(routers: usize) -> Self {
        CongestionMap {
            state: CongestionState {
                hot: vec![false; routers],
                era: 0,
            },
            ..CongestionMap::default()
        }
    }

    /// Marks router `r` hot or calm.
    pub fn set_hot(&mut self, r: usize, hot: bool) {
        if let Some(slot) = self.state.hot.get_mut(r) {
            if *slot != hot {
                *slot = hot;
                if hot {
                    self.hot_count += 1;
                } else {
                    self.hot_count -= 1;
                }
            }
        }
    }

    /// Is router `r` hot? Out-of-range routers are calm — the default
    /// (empty) map reports everything calm, which is what makes the
    /// adaptive-off path behave exactly like the seed.
    pub fn is_hot(&self, r: usize) -> bool {
        self.state.hot.get(r).copied().unwrap_or(false)
    }

    /// `true` when any router is hot (the NI's cheap entry check before
    /// it pays for per-path congestion inspection).
    pub fn any_hot(&self) -> bool {
        self.hot_count > 0
    }

    /// The current staleness era for recorded detour paths.
    pub fn era(&self) -> u64 {
        self.state.era
    }

    /// Advances the era: previously recorded reverse paths become stale.
    /// Called when a fault heals or a hot region cools.
    pub fn bump_era(&mut self) {
        self.state.era += 1;
    }

    /// The hot count `state` implies.
    fn rebuild_scratch(state: &CongestionState) -> usize {
        let CongestionState { hot, era: _ } = state;
        hot.iter().filter(|&&h| h).count()
    }
}

crate::stateful!(CongestionMap => CongestionState, hot_count = CongestionMap::rebuild_scratch);

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(score_units: u64) -> RegionSample {
        // routers = SCORE_SCALE makes score() == buffered_flits, so the
        // tests can speak threshold units directly.
        RegionSample {
            buffered_flits: score_units,
            ni_backlog: 0,
            circuit_entries: 0,
            routers: SCORE_SCALE,
        }
    }

    #[test]
    fn hysteresis_band_prevents_oscillation() {
        let cfg = AdaptiveConfig {
            hot_enter: 100,
            hot_exit: 50,
            min_dwell: 0,
            ..AdaptiveConfig::default()
        };
        let mut c = PolicyController::new(cfg, 1);
        assert!(c.decide(1, &[sample(100)])[0].switched);
        assert_eq!(c.mode(0), RegionMode::Hot);
        // Scores inside the band (50, 100) keep the current mode.
        assert!(!c.decide(2, &[sample(75)])[0].switched);
        assert_eq!(c.mode(0), RegionMode::Hot);
        assert!(c.decide(3, &[sample(50)])[0].switched);
        assert_eq!(c.mode(0), RegionMode::Calm);
        assert!(!c.decide(4, &[sample(75)])[0].switched);
        assert_eq!(c.mode(0), RegionMode::Calm);
    }

    #[test]
    fn min_dwell_blocks_the_second_switch() {
        let cfg = AdaptiveConfig {
            hot_enter: 100,
            hot_exit: 50,
            min_dwell: 10,
            ..AdaptiveConfig::default()
        };
        let mut c = PolicyController::new(cfg, 1);
        assert!(c.decide(100, &[sample(100)])[0].switched);
        assert!(!c.decide(105, &[sample(0)])[0].switched, "inside dwell");
        assert!(c.decide(110, &[sample(0)])[0].switched, "dwell expired");
    }

    #[test]
    fn validation_rejects_inverted_band() {
        let cfg = AdaptiveConfig {
            hot_enter: 10,
            hot_exit: 20,
            ..AdaptiveConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert!(AdaptiveConfig::default().validate().is_ok());
    }

    #[test]
    fn congestion_map_tracks_hot_count_and_era() {
        let mut m = CongestionMap::new(4);
        assert!(!m.any_hot());
        m.set_hot(2, true);
        m.set_hot(2, true); // idempotent
        assert!(m.any_hot() && m.is_hot(2) && !m.is_hot(0));
        assert!(!m.is_hot(99), "out of range is calm");
        m.set_hot(2, false);
        assert!(!m.any_hot());
        let e = m.era();
        m.bump_era();
        assert_eq!(m.era(), e + 1);
    }

    #[test]
    fn empty_region_scores_zero() {
        assert_eq!(RegionSample::default().score(), 0);
    }
}
