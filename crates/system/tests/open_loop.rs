//! Open-loop overload layer: determinism and conservation. Every external
//! arrival must be accounted for at every load point — below the admission
//! knee, past saturation, and with admission disabled — and in debug
//! builds every run checks the two worklist laws (DESIGN.md §9) with
//! open-loop traffic on.

use rcsim_core::MechanismConfig;
use rcsim_system::{
    run_sim, run_sim_traced, OpenLoopConfig, RunResult, SimConfig, SimError, TraceConfig, QUEUE_CAP,
};
use rcsim_trace::EventKind;

/// A quick overload config: Poisson arrivals at `rate`/cycle/edge with
/// the admission capacity pinned at 0.1/cycle/edge, so `rate` > 0.1 is
/// past saturation by construction.
fn overload_cfg(rate: f64, admission: bool) -> SimConfig {
    let mut ol = OpenLoopConfig::poisson(rate);
    ol.ingress.tokens_per_kilocycle = 103; // ~0.1/cycle/edge capacity
    ol.ingress.admission = admission;
    ol.ingress.shed_timeout = 800; // sheds fire inside the short window
    SimConfig {
        seed: 0x0BEE,
        warmup_cycles: 500,
        measure_cycles: 2_500,
        open_loop: Some(ol),
        ..SimConfig::quick(16, MechanismConfig::complete_noack(), "blackscholes")
    }
}

/// Conservation + bounded-queue checks every open-loop run must pass.
fn assert_conserved(r: &RunResult, label: &str) {
    let e = &r.external;
    assert!(!r.health.stalled, "{label}: stalled");
    assert!(e.offered > 0, "{label}: streams produced nothing");
    assert_eq!(
        e.unaccounted, 0,
        "{label}: conservation violated (offered {} completed {} shed {} \
         gave_up {} in_flight {})",
        e.offered, e.completed, e.shed, e.gave_up, e.in_flight
    );
    let cap = r.health.overload.depth_high_water as usize;
    assert!(
        cap <= QUEUE_CAP,
        "{label}: queue bound exceeded ({cap} > {QUEUE_CAP})"
    );
}

#[test]
fn conservation_holds_below_and_past_saturation() {
    for rate in [0.02, 0.1, 0.3, 0.6] {
        for admission in [true, false] {
            let cfg = overload_cfg(rate, admission);
            let r = run_sim(&cfg).expect("open-loop run");
            assert_conserved(&r, &format!("rate {rate} admission {admission}"));
        }
    }
}

#[test]
fn past_saturation_sheds_and_rejects_but_never_stalls() {
    // 6× the admission capacity: the bucket and the queue bound must both
    // engage, and the run must still terminate with the books balanced.
    let r = run_sim(&overload_cfg(0.6, true)).expect("past-saturation run");
    assert_conserved(&r, "6x overload");
    let e = &r.external;
    assert!(e.rejected > 0, "no rejections under 6x overload");
    assert!(e.completed > 0, "nothing completed under overload");
    assert!(
        r.health.overload.time_in_overload > 0,
        "overload time never accumulated"
    );
    // The retry budget is finite, so sustained overload forces give-ups.
    assert!(e.gave_up > 0, "no client ever exhausted its retry budget");
}

#[test]
fn overload_without_admission_exercises_the_shed_path() {
    // Arrivals at 0.8/cycle/edge with admission off keep the edge queues
    // full, and congestion holds their release to about one arrival per
    // five cycles: a full queue's tail waits well past a 100-cycle shed
    // timeout, so heads go stale and must leave through the explicit shed
    // path — never silently.
    let mut cfg = overload_cfg(0.8, false);
    cfg.open_loop.as_mut().unwrap().ingress.shed_timeout = 100;
    let r = run_sim(&cfg).expect("overload run");
    assert_conserved(&r, "admission off");
    assert!(
        r.external.shed > 0,
        "an overloaded drain must trip the shed timeout: {}",
        r.health.overload
    );
}

#[test]
fn same_seed_is_bit_identical_and_seeds_decorrelate() {
    let cfg = overload_cfg(0.3, true);
    let a = run_sim(&cfg).expect("run a");
    let b = run_sim(&cfg).expect("run b");
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "same seed must reproduce the run bit for bit"
    );
    let mut other = cfg.clone();
    other.seed ^= 0xDEAD;
    let c = run_sim(&other).expect("run c");
    assert_ne!(
        a.external.offered, 0,
        "sanity: the streams actually produced arrivals"
    );
    assert_ne!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&c).unwrap(),
        "different seeds must produce different arrival streams"
    );
}

#[test]
fn ingress_decisions_are_traced_never_silent() {
    let trace = TraceConfig {
        capacity: 1 << 20,
        epoch: 0,
    };
    let cfg = overload_cfg(0.6, true);
    let (r, tr) = run_sim_traced(&cfg, &trace).expect("traced run");
    assert_conserved(&r, "traced overload");
    let mut admits = 0u64;
    let mut rejects = 0u64;
    let mut sheds = 0u64;
    for e in &tr.events {
        match e.kind {
            EventKind::IngressAdmit { .. } => admits += 1,
            EventKind::IngressReject { .. } => rejects += 1,
            EventKind::IngressShed { .. } => sheds += 1,
            _ => {}
        }
    }
    assert!(admits > 0, "no admit events traced");
    assert!(rejects > 0, "no reject events traced under 6x overload");
    // The measure window's reject count must match the traced stream:
    // nothing is dropped without an event. (Counters are cumulative from
    // cycle 0; the trace covers the measure window, so compare deltas is
    // not possible here — instead require at least as many counted
    // rejections as traced ones.)
    assert!(
        r.external.rejected >= rejects,
        "traced more rejections than were counted"
    );
    let _ = sheds; // shed timing is load-dependent; presence not required here
}

#[test]
fn closed_loop_runs_report_zero_external_traffic() {
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_000,
        ..SimConfig::quick(16, MechanismConfig::complete_noack(), "blackscholes")
    };
    let r = run_sim(&cfg).expect("closed-loop run");
    let e = &r.external;
    assert_eq!(
        (e.offered, e.completed, e.rejected, e.shed, e.in_flight),
        (0, 0, 0, 0, 0),
        "closed-loop runs must carry no external traffic"
    );
    assert_eq!(r.health.overload.offered, 0);
}

#[test]
fn open_loop_works_on_rectangular_meshes() {
    // 32 cores → 8×4 mesh: the west edge is the x=0 column (4 nodes).
    let mut cfg = overload_cfg(0.2, true);
    cfg.cores = 32;
    cfg.measure_cycles = 1_500;
    let r = run_sim(&cfg).expect("rectangular-mesh run");
    assert_conserved(&r, "32-core mesh");
}

#[test]
fn open_loop_without_server_tiles_is_a_config_error() {
    // Every tile on the ingress edge leaves none to serve: one core.
    let one = SimConfig {
        open_loop: Some(OpenLoopConfig::poisson(0.05)),
        ..SimConfig::quick(1, MechanismConfig::complete_noack(), "blackscholes")
    };
    match run_sim(&one) {
        Err(SimError::Config(_)) => {}
        other => panic!("1 core: expected a configuration error, got {other:?}"),
    }
}
