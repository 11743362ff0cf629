//! Trace-layer integration tests at the full-system level: tracing is
//! purely observational (bit-identical results), the latency breakdown
//! post-pass reconstructs sensible phases, and the Chrome exporter
//! produces loadable JSON.

use rcsim_core::{MechanismConfig, NodeId};
use rcsim_system::{run_sim, run_sim_traced, DeadLinkEvent, SimConfig, TraceConfig};
use rcsim_trace::{chrome_trace_json, EventKind};
use serde_json::Value;

fn cfg() -> SimConfig {
    SimConfig {
        seed: 3,
        warmup_cycles: 800,
        measure_cycles: 3_000,
        ..SimConfig::quick(16, MechanismConfig::complete_noack(), "blackscholes")
    }
}

/// The tentpole guarantee: attaching the trace layer must not change a
/// single measured number. Every field of the two `RunResult`s — latency
/// histogram means, outcome fractions, energy, health — must match.
#[test]
fn traced_run_is_bit_identical() {
    let cfg = cfg();
    let plain = run_sim(&cfg).expect("untraced run");
    let (traced, report) = run_sim_traced(&cfg, &TraceConfig::default()).expect("traced run");
    assert_eq!(plain, traced, "tracing perturbed the simulation");
    assert!(!report.events.is_empty(), "traced run produced no events");
}

#[test]
fn breakdown_reconstructs_latency_phases() {
    let (result, report) = run_sim_traced(&cfg(), &TraceConfig::default()).expect("traced run");
    let b = &report.breakdown;
    assert!(b.delivered > 0, "no deliveries reconstructed");
    assert_eq!(b.dropped, 0, "no faults configured, nothing may drop");
    assert!(
        b.queueing.count() > 0 && b.queueing.mean() >= 0.0,
        "queueing phase missing"
    );
    // Packets already in flight at the warm-up cut eject without an
    // enqueue/inject record, so the categorized transits can undercount
    // `delivered` — never overcount.
    let transits =
        b.transit_circuit.count() + b.transit_packet.count() + b.transit_degraded.count();
    assert!(transits > 0 && transits <= b.delivered);
    // Complete_NoAck builds circuits on this workload, so some replies
    // must have ridden one — and the run itself must agree.
    assert!(b.circuit_ride_fraction() > 0.0, "no circuit rides seen");
    assert!(result.outcomes["circuit"] > 0.0);
    // The log holds the NI lifecycle events.
    let count = |name| {
        report
            .events
            .iter()
            .filter(|e| e.kind.name() == name)
            .count()
    };
    assert!(count("ni_enqueue") > 0);
    assert!(count("ni_eject") > 0);
}

#[test]
fn epoch_sampling_and_conservation_under_faults() {
    let mut cfg = cfg();
    // Link 5–6 dies mid-run, under load.
    cfg.faults.dead_links = vec![DeadLinkEvent {
        a: NodeId(5),
        b: NodeId(6),
        at: 1_500,
    }];
    let trace = TraceConfig {
        capacity: 1 << 20,
        epoch: 50,
    };
    let (result, report) = run_sim_traced(&cfg, &trace).expect("traced faulty run");
    assert!(
        result.health.faults.dead_flits_lost > 0,
        "faults never fired"
    );
    let samples = report
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::EpochSample { .. }))
        .count();
    assert!(samples > 10, "epoch sampler produced {samples} samples");
    // Conservation at the window edges: the breakdown's delivered+dropped
    // tally must equal the raw terminal-event count exactly (packets still
    // flying at the end show up as `unresolved`, not as phantom terminals).
    let terminals = report
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::NiEject { .. } | EventKind::PacketDropped { .. }
            )
        })
        .count() as u64;
    let b = &report.breakdown;
    assert_eq!(b.delivered + b.dropped, terminals);
}

/// The Chrome export must be real JSON with the trace-event envelope that
/// Perfetto / `chrome://tracing` expects.
#[test]
fn chrome_trace_round_trips_as_json() {
    let (_, report) = run_sim_traced(&cfg(), &TraceConfig::default()).expect("traced run");
    let json = chrome_trace_json(&report.events);
    let doc: Value = serde_json::from_str(&json).expect("exporter wrote invalid JSON");
    let slices = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!slices.is_empty());
    let complete = slices
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .count();
    assert!(complete > 0, "no complete (ph=X) packet slices");
    for e in slices {
        assert!(e.get("name").and_then(Value::as_str).is_some());
        assert!(e.get("ts").and_then(Value::as_u64).is_some());
    }
    assert!(doc.get("displayTimeUnit").is_some());
}
