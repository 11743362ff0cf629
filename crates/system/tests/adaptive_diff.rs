//! Differential and edge-case layer for the adaptive runtime policies
//! (DESIGN.md §14).
//!
//! Two obligations, beside the `kernel_diff` matrix (whose two worklist
//! laws every debug run here checks too):
//!
//! * **Off-path**: with `adaptive: None` — the default — the policy
//!   hooks must be invisible. Serialized configs must not mention the
//!   field (cache keys and goldens predate it), full runs report no
//!   adaptive counter and trace no policy event on mesh and torus, and
//!   tracing them perturbs nothing.
//! * **On-path**: with the controller enabled the simulation is still a
//!   deterministic function of the config — bit-reproducible across
//!   repeated runs, trace streams included.
//!
//! Plus the epoch edge cases: decision epochs that do not divide the run
//! length, all-idle regions (sampling must not perturb), a fault onset
//! landing exactly on a decision tick, and decisions spanning the
//! warm-up/measure stats reset.

use rcsim_core::MechanismConfig;
use rcsim_system::{
    run_sim, run_sim_traced, AdaptiveConfig, DeadLinkEvent, SimConfig, TraceConfig,
};

fn quick(cores: u16, mechanism: MechanismConfig) -> SimConfig {
    SimConfig {
        seed: 0xADA9,
        warmup_cycles: 500,
        measure_cycles: 2_500,
        ..SimConfig::quick(cores, mechanism, "blackscholes")
    }
}

/// Aggressive knobs for the quick coherence workloads: thresholds low
/// enough that ordinary L1 miss traffic heats regions and dwell short
/// enough that they also cool, so detours, suppression and teardowns all
/// fire inside a 3 000-cycle run.
fn aggressive() -> AdaptiveConfig {
    AdaptiveConfig {
        decision_epoch: 40,
        regions: 4,
        hot_enter: 96,
        hot_exit: 48,
        min_dwell: 80,
    }
}

fn trace_cfg() -> TraceConfig {
    TraceConfig {
        capacity: 1 << 20,
        epoch: 0,
    }
}

/// Runs `cfg` traced and returns the report with its trace-event sequence.
fn traced(cfg: &SimConfig) -> (rcsim_system::RunResult, Vec<rcsim_trace::TraceEvent>) {
    let (run, tr) = run_sim_traced(cfg, &trace_cfg()).expect("traced run");
    (run, tr.events)
}

/// The `adaptive` field must be absent from serialized configs when off
/// (cache keys and goldens predate the field) and present when set.
#[test]
fn serialized_config_omits_adaptive_when_off() {
    let cfg = quick(16, MechanismConfig::complete());
    let json = serde_json::to_string(&cfg).expect("serialize config");
    assert!(
        !json.contains("adaptive"),
        "adaptive-off config leaks the field: {json}"
    );
    let round: SimConfig = serde_json::from_str(&json).expect("deserialize config");
    assert_eq!(round, cfg, "config round-trip changed the value");

    let mut on = cfg;
    on.adaptive = Some(AdaptiveConfig::default());
    let json = serde_json::to_string(&on).expect("serialize config");
    assert!(
        json.contains("adaptive"),
        "adaptive-on config lost the field"
    );
    let round: SimConfig = serde_json::from_str(&json).expect("deserialize config");
    assert_eq!(round, on, "adaptive config round-trip changed the value");
}

/// Adaptive absent, on mesh and torus: no adaptive counter moves, no
/// policy event is traced, and the traced report is the untraced one.
#[test]
fn adaptive_off_is_invisible() {
    use rcsim_core::TopologySpec;
    for spec in [TopologySpec::Mesh, TopologySpec::Torus] {
        let cfg = quick(16, MechanismConfig::complete()).with_topology(spec);
        let (run, events) = traced(&cfg);
        assert_eq!(
            serde_json::to_string(&run).unwrap(),
            serde_json::to_string(&run_sim(&cfg).expect("plain run")).unwrap(),
            "tracing perturbed the adaptive-off run on {}",
            spec.label()
        );
        assert_eq!(
            run.health.adaptive,
            Default::default(),
            "adaptive counters must stay zero when the policy is off"
        );
        assert!(
            !events.iter().any(|e| e.kind.name() == "policy_switch"),
            "policy events emitted with the policy off"
        );
    }
}

/// Adaptive on: the run is bit-reproducible, the controller actually
/// fires (decisions, switches in both directions, suppressed circuits),
/// and every switch appears in the trace stream.
#[test]
fn adaptive_on_is_reproducible() {
    use rcsim_core::TopologySpec;
    for spec in [TopologySpec::Mesh, TopologySpec::Torus] {
        let mut cfg = quick(16, MechanismConfig::complete()).with_topology(spec);
        // No warm-up: events before the stats reset are drained from the
        // trace, so the traced-switch count only matches the whole-run
        // counter when the whole run is the measure window.
        cfg.warmup_cycles = 0;
        cfg.adaptive = Some(aggressive());
        let label = format!("adaptive on, complete @ 16 cores on {}", spec.label());
        let (run, events) = traced(&cfg);
        let (again, again_events) = traced(&cfg);
        assert_eq!(
            serde_json::to_string(&run).unwrap(),
            serde_json::to_string(&again).unwrap(),
            "repeated adaptive run was not bit-reproducible on {label}"
        );
        assert_eq!(events, again_events, "repeated trace diverged on {label}");
        let ad = &run.health.adaptive;
        assert!(ad.decisions > 0, "controller never ran on {label}");
        assert!(ad.hot_switches > 0, "no region ever heated on {label}");
        let switch_events = events
            .iter()
            .filter(|e| e.kind.name() == "policy_switch")
            .count() as u64;
        assert_eq!(
            switch_events,
            ad.hot_switches + ad.calm_switches,
            "every switch must be traced on {label}"
        );
    }
}

/// A decision epoch that does not divide the warm-up or measure length:
/// the controller must still fire on every multiple inside the run.
/// 2 500 + 500 cycles with a 33-cycle epoch puts decisions at awkward
/// offsets relative to both boundaries.
#[test]
fn epoch_not_dividing_run_length_decides_on_every_multiple() {
    let mut cfg = quick(16, MechanismConfig::complete());
    cfg.adaptive = Some(AdaptiveConfig {
        decision_epoch: 33,
        ..aggressive()
    });
    let (run, _) = traced(&cfg);
    // Decisions start at the first epoch boundary and continue through
    // warm-up and measure: 3 000 / 33 = 90 full epochs.
    assert_eq!(run.health.adaptive.decisions, 3_000 / 33);
}

/// All-idle regions: with thresholds no sane run can reach, the
/// controller samples every epoch but never switches — and because
/// sampling is pure observation, the run's traffic statistics are
/// identical to the adaptive-off run bit for bit.
#[test]
fn all_idle_regions_never_switch_and_never_perturb() {
    let off = quick(16, MechanismConfig::complete());
    let mut on = off.clone();
    on.adaptive = Some(AdaptiveConfig {
        hot_enter: u64::MAX,
        hot_exit: u64::MAX / 2,
        ..aggressive()
    });
    let off_run = run_sim(&off).expect("off run");
    let on_run = run_sim(&on).expect("on run");
    let ad = &on_run.health.adaptive;
    assert!(ad.decisions > 0, "controller never sampled");
    assert_eq!(ad.hot_switches, 0);
    assert_eq!(ad.calm_switches, 0);
    assert_eq!(ad.circuits_suppressed, 0);
    assert_eq!(ad.congestion_detours, 0);
    // Everything measured about the traffic must match the off run; only
    // the adaptive decision counter itself may differ.
    assert_eq!(off_run.messages, on_run.messages);
    assert_eq!(off_run.latency, on_run.latency);
    assert_eq!(off_run.outcomes, on_run.outcomes);
    assert_eq!(off_run.energy, on_run.energy);
    assert_eq!(off_run.health.in_flight, on_run.health.in_flight);
}

/// A fault onset landing exactly on a decision tick: the fault pre-pass
/// (teardown, purge, reroute) and the policy decision run back to back
/// at the top of the same tick, and neither leaves work off the worklist.
#[test]
fn fault_onset_on_a_decision_tick_skips_only_no_ops() {
    let mut cfg = quick(16, MechanismConfig::complete());
    cfg.adaptive = Some(aggressive());
    // Epoch 40 ⇒ decisions at 40, 80, …, 2 000, … — the link dies at
    // t = 2 000, exactly a decision tick, inside the measure window.
    cfg.faults.dead_links = vec![DeadLinkEvent {
        a: rcsim_core::NodeId(5),
        b: rcsim_core::NodeId(6),
        at: 2_000,
    }];
    let (run, _) = traced(&cfg);
    assert!(run.health.adaptive.decisions > 0);
    assert_eq!(run.health.dead_links.len(), 1, "link never died");
}

/// Decisions spanning the warm-up/measure boundary: the stats reset at
/// the end of warm-up zeroes the traffic counters but must not disturb
/// the controller (mode, dwell clocks, decision phase) — the decision
/// count covers the whole run.
#[test]
fn warmup_drain_keeps_controller_state_across_stats_reset() {
    let mut cfg = quick(16, MechanismConfig::complete());
    cfg.warmup_cycles = 1_000;
    cfg.measure_cycles = 2_000;
    cfg.adaptive = Some(aggressive());
    let (run, _) = traced(&cfg);
    // Ticks cover t = 0 … 2 999, so decisions land at every multiple of
    // 40 up to 2 960: ⌊2 999 / 40⌋ = 74 in total, the first 24 during
    // warm-up — none lost to the reset.
    assert_eq!(run.health.adaptive.decisions, 74);
}
