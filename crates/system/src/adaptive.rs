//! The adaptive runtime policy (DESIGN.md §14), a client of the network:
//! stepped right before each [`Network::tick`], it reads
//! [`Network::region_samples`] and acts through [`Network::set_congestion`]
//! and [`Network::teardown_origins`].

use rcsim_core::{
    AdaptiveConfig, ConfigError, PolicyController, PolicyState, RegionMode, RegionPlan, Stateful,
};
use rcsim_noc::{AdaptiveReport, Network};
use rcsim_trace::{EventKind, TraceEvent, TraceSink};

/// The region map (wiring), the controller (which holds the knobs) and
/// its counters.
#[derive(Debug)]
pub struct Adaptive {
    plan: RegionPlan,
    controller: PolicyController,
    /// `decisions`, the switches and `circuits_torn_on_switch` (state);
    /// the other fields stay zero, see [`Adaptive::report`].
    counters: AdaptiveReport,
}

impl Adaptive {
    /// Installs the policy on `net`. Decisions fall on
    /// `t = k · decision_epoch`, `k ≥ 1`, of `net`'s clock.
    ///
    /// # Errors
    ///
    /// [`ConfigError::AdaptivePolicy`] for knobs [`AdaptiveConfig::validate`] rejects.
    ///
    /// # Panics
    ///
    /// Panics if `net` has already ticked.
    pub fn new(cfg: AdaptiveConfig, net: &mut Network) -> Result<Self, ConfigError> {
        cfg.validate()?;
        assert_eq!(net.now(), 0, "the adaptive policy is installed at cycle 0");
        let plan = RegionPlan::new(&net.config().topology, cfg.regions);
        Ok(Adaptive {
            controller: PolicyController::new(cfg, plan.regions()),
            plan,
            counters: AdaptiveReport::default(),
        })
    }

    /// One cycle, right before [`Network::tick`] and after this cycle's
    /// injections: on a decision epoch, runs the controller on fresh
    /// samples and applies each switch — a trace event, the region's hot
    /// flags and, for one turning hot, the teardown of the circuits across
    /// it.
    pub fn step(&mut self, net: &mut Network, sink: &TraceSink) {
        let (now, cfg) = (net.now(), *self.controller.config());
        if now == 0 || !now.is_multiple_of(cfg.decision_epoch) {
            return;
        }
        let samples = net.region_samples(&self.plan);
        self.counters.decisions += 1;
        let mut newly_hot: Vec<usize> = Vec::new();
        let decisions = self.controller.decide(now, &samples);
        for d in decisions.iter().filter(|d| d.switched) {
            let hot = d.mode == RegionMode::Hot;
            sink.emit(|| TraceEvent {
                cycle: now,
                kind: EventKind::PolicySwitch {
                    region: d.region as u16,
                    hot,
                    score: d.score,
                },
            });
            if hot {
                self.counters.hot_switches += 1;
                newly_hot.push(d.region);
            } else {
                self.counters.calm_switches += 1;
            }
            net.set_congestion(self.plan.router_range(d.region), hot);
        }
        if !newly_hot.is_empty() {
            let plan = &self.plan;
            self.counters.circuits_torn_on_switch +=
                net.teardown_origins(|r| newly_hot.contains(&plan.region_of_router(r)));
        }
    }

    /// The controller's counters and hot regions over the NI-side fields of
    /// `ni`, the report [`Network::health`] filled.
    pub fn report(&self, ni: AdaptiveReport) -> AdaptiveReport {
        AdaptiveReport {
            hot_regions: self.controller.hot_regions(),
            circuits_suppressed: ni.circuits_suppressed,
            congestion_detours: ni.congestion_detours,
            ..self.counters
        }
    }
}

/// The counters paired with the controller's state.
impl Stateful for Adaptive {
    type State = (AdaptiveReport, PolicyState);
    fn snapshot(&self) -> Self::State {
        (self.counters, self.controller.snapshot())
    }

    fn restore(&mut self, (counters, controller): &Self::State) {
        self.counters = *counters;
        self.controller.restore(controller);
    }
}
