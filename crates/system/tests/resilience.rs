//! Full-system permanent-fault acceptance layer (DESIGN.md §10): a chip
//! with permanently dead links must finish its run with every
//! coherence request answered — a pair whose dimension-order path the dead
//! links break detours along the up*/down* table in both directions,
//! circuits over the dead region are torn down and rebuilt elsewhere, and
//! the NoC's end-to-end retransmission recovers what was in flight; a
//! loss past its retry budget is reported, never re-driven. The degraded
//! chip must also stay deterministic: repeated runs are reproducible, and
//! in debug builds every run checks the two worklist laws (DESIGN.md §9)
//! through the onsets and detours.

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

/// The transport's retransmission is the only recovery path: tile 5 loses
/// all four of its links, so no up*/down* path reaches it and every copy
/// of a packet to or from it is routed onto a dead link until its retry
/// budget is spent; nothing above re-sends it. The run still returns, and
/// the loss is reported, not hidden: the abandoned count is non-zero and
/// the health report says unhealthy.
#[test]
fn transport_loss_past_the_retry_budget_is_reported() {
    let mut cfg = complete_4x4();
    cfg.faults.dead_links = [1, 4, 6, 9]
        .map(|b| DeadLinkEvent {
            a: NodeId(5),
            b: NodeId(b),
            at: 2_000,
        })
        .to_vec();
    let r = run_sim(&cfg).expect("a run with an unreachable tile returns");
    assert!(
        r.health.faults.packets_abandoned > 0,
        "no packet was abandoned — the loss path was not exercised"
    );
    assert!(
        !r.health.healthy(),
        "abandoned packets left the run healthy"
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
    let a = run_sim(&cfg).expect("first run");
    let b = run_sim(&cfg).expect("second run");
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "identical configs produced different results"
    );
}

/// The dead-link wedge matrix at one seed: a 4×4 chip with link 5–6 dead
/// from cycle 0, no warm-up and 200 000 measured cycles, under
/// `Baseline`, `Complete` and `Complete_NoAck` on `canneal` and
/// `blackscholes`. Returns the runs that did not drain, with why. When
/// routers left dimension order for breadth-first detours and replies
/// retraced them reversed, the circuit mechanisms wedged here on a
/// six-router cycle of reply VCs (1, 2, 6, 10, 9, 5); every route on the
/// degraded chip is now up*/down*-legal.
fn wedge_matrix(seed: u64) -> Vec<String> {
    let mechanisms = [
        MechanismConfig::baseline(),
        MechanismConfig::complete(),
        MechanismConfig::complete_noack(),
    ];
    let runs = ["canneal", "blackscholes"].map(|app| mechanisms.map(|m| (app, m)));
    std::thread::scope(|scope| {
        let runs: Vec<_> = (runs.into_iter().flatten())
            .map(|(app, m)| scope.spawn(move || drains(seed, app, m)))
            .collect();
        let outcomes = runs
            .into_iter()
            .map(|run| run.join().expect("run panicked"));
        outcomes.filter_map(Result::err).collect()
    })
}

/// One run of [`wedge_matrix`]: `Err` with why when it does not drain.
fn drains(seed: u64, app: &str, m: MechanismConfig) -> Result<(), String> {
    let cfg = SimConfig {
        seed,
        warmup_cycles: 0,
        measure_cycles: 200_000,
        faults: rcsim_system::FaultConfig {
            dead_links: vec![dead_interior_link(0)],
        },
        ..SimConfig::quick(16, m, app)
    };
    let run = format!("seed {seed:#x}, {app}, {}", m.label());
    let r = run_sim(&cfg).map_err(|e| format!("{run}: {e}"))?;
    if r.health.stalled || r.health.faults.packets_abandoned > 0 {
        return Err(format!("{run}: {}", r.health));
    }
    assert!(r.health.faults.packets_rerouted > 0, "{run}: no detour");
    Ok(())
}

/// One seed of the wedge matrix drains: six runs.
#[test]
fn dead_link_wedge_matrix_drains() {
    let wedged = wedge_matrix(0xC1C0);
    assert!(wedged.is_empty(), "{wedged:#?}");
}

/// All three seeds of the wedge matrix drain: eighteen runs, on the
/// release build `scripts/ci.sh` runs.
#[test]
#[ignore = "eighteen 200k-cycle runs; scripts/ci.sh runs it in release"]
fn dead_link_wedge_matrix_drains_at_every_seed() {
    let wedged: Vec<String> = [0xC1C0, 0xC1C1, 0xC1C2]
        .into_iter()
        .flat_map(wedge_matrix)
        .collect();
    assert!(wedged.is_empty(), "{wedged:#?}");
}
