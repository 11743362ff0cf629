//! Full-system permanent-fault acceptance layer (DESIGN.md §10): a chip
//! with permanently dead links must finish its run with every
//! coherence request answered — requests detour, replies retrace the
//! recorded reverse path, circuits over the dead region are torn down and
//! rebuilt elsewhere, and (when the NoC's own retransmissions are turned
//! off) the L1 reissue timeout re-drives lost requests. The degraded
//! chip must also stay deterministic: repeated runs are reproducible, and
//! in debug builds every run checks the two worklist laws (DESIGN.md §9)
//! through the onsets, detours and reissues.

use rcsim_core::{MechanismConfig, NodeId};
use rcsim_system::{run_sim, DeadLinkEvent, SimConfig};

/// A 4×4 `Complete` configuration long enough for circuits to form and
/// misses to recycle several times.
fn complete_4x4() -> SimConfig {
    SimConfig {
        seed: 0xFA17,
        warmup_cycles: 1_000,
        measure_cycles: 8_000,
        ..SimConfig::quick(16, MechanismConfig::complete(), "mix")
    }
}

/// One interior horizontal link of the 4×4 mesh, dead from `at` on.
fn dead_interior_link(at: u64) -> DeadLinkEvent {
    DeadLinkEvent {
        a: NodeId(5),
        b: NodeId(6),
        at,
    }
}

/// The ISSUE's acceptance criterion: a `Complete` run with one
/// permanently dead interior link completes without a stall, abandons
/// nothing, and actually reroutes traffic (the fault is on a used path).
#[test]
fn complete_run_survives_permanently_dead_interior_link() {
    let mut cfg = complete_4x4();
    cfg.faults.dead_links = vec![dead_interior_link(0)];
    let r = run_sim(&cfg).expect("run completes despite the dead link");
    assert!(!r.health.stalled, "degraded chip stalled");
    assert_eq!(
        r.health.faults.packets_abandoned, 0,
        "coherence requests were abandoned"
    );
    assert!(
        r.health.faults.packets_rerouted > 0,
        "no packet ever detoured — the dead link was not exercised"
    );
    assert_eq!(r.health.dead_links, vec![(NodeId(5), NodeId(6))]);
    assert!(r.instructions > 0, "cores made no progress");
}

/// Same chip, but the link dies mid-measure so live circuits cross it at
/// onset: the teardown machinery must fire and the run must still finish
/// with nothing abandoned.
#[test]
fn mid_run_onset_tears_circuits_and_recovers() {
    let mut cfg = complete_4x4();
    cfg.faults.dead_links = vec![dead_interior_link(5_000)];
    let r = run_sim(&cfg).expect("run completes despite mid-run onset");
    assert!(!r.health.stalled);
    assert_eq!(r.health.faults.packets_abandoned, 0);
    assert!(r.health.faults.packets_rerouted > 0);
    assert!(
        r.health.faults.circuits_torn > 0,
        "onset under live circuit traffic tore nothing down"
    );
}

/// With the NoC's end-to-end retransmissions disabled, lost packets stay
/// lost at the transport level — only the protocol's L1 reissue timeout
/// can complete the affected misses. Link drops guarantee losses happen
/// (a single dead link only eats what is in flight at onset, which can
/// be nothing); the run must still finish, the transport must actually
/// abandon packets, and the reissue counter must show the path fired.
#[test]
fn l1_reissue_recovers_when_noc_retries_are_disabled() {
    let mut cfg = complete_4x4();
    cfg.measure_cycles = 12_000;
    cfg.faults.seed = 0xFA17;
    cfg.faults.link_drop_rate = 0.02;
    cfg.faults.max_retries = 0;
    cfg.reissue_timeout = Some(1_000);
    let r = run_sim(&cfg).expect("run completes on the reissue path");
    assert!(!r.health.stalled);
    assert!(
        r.health.faults.packets_abandoned > 0,
        "no packet was ever lost — the reissue path was not exercised"
    );
    assert!(
        r.health.l1_reissues > 0,
        "reissue timeout never fired with transport recovery off"
    );
}

/// Every Figure 6 mechanism — circuits on or off, timed or not — must
/// complete with a dead interior link: detours, reservation refusal near
/// the degraded region and teardown are mechanism-independent safety
/// nets, and no configuration may abandon a request or stall.
#[test]
fn every_mechanism_survives_a_dead_link() {
    let mut all = vec![MechanismConfig::baseline()];
    all.extend(MechanismConfig::figure6_grid());
    for m in all {
        let cfg = SimConfig {
            seed: 0xD1FF,
            warmup_cycles: 500,
            measure_cycles: 2_500,
            faults: rcsim_system::FaultConfig {
                dead_links: vec![dead_interior_link(0)],
                ..rcsim_system::FaultConfig::none()
            },
            ..SimConfig::quick(16, m, "blackscholes")
        };
        let r =
            run_sim(&cfg).unwrap_or_else(|e| panic!("{} died with a dead link: {e}", m.label()));
        assert!(!r.health.stalled, "{} stalled", m.label());
        assert_eq!(
            r.health.faults.packets_abandoned,
            0,
            "{} abandoned requests",
            m.label()
        );
    }
}

/// Repeated runs of the same degraded point are byte-identical — the
/// resilience sweep's results cannot depend on scheduling order or
/// worker count (`RC_JOBS` hands whole points to workers, so per-point
/// reproducibility is exactly what parallel invariance needs).
#[test]
fn degraded_runs_are_reproducible() {
    let mut cfg = complete_4x4();
    cfg.faults.dead_links = vec![dead_interior_link(3_000)];
    cfg.faults.max_retries = 0;
    cfg.reissue_timeout = Some(1_000);
    let a = run_sim(&cfg).expect("first run");
    let b = run_sim(&cfg).expect("second run");
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "identical configs produced different results"
    );
}
