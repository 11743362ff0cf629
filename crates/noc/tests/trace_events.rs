//! Event-conservation tests for the trace layer: every traced enqueue
//! reaches exactly one terminal event (ejected or dropped after
//! exhausting retries) — with and without fault injection — and a
//! disabled sink observes nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{DeadLinkEvent, FaultConfig, FaultStats, Network, NocConfig, PacketSpec};
use rcsim_trace::{EventKind, TraceSink};
use std::collections::BTreeMap;

/// Drives a request/reply workload until the network quiesces, then
/// checks the conservation invariant on the trace: one terminal event
/// (eject or drop) per enqueued packet, no terminals for unknown packets.
/// Returns the fault counters.
fn check_conservation(faults: FaultConfig, mechanism: MechanismConfig, seed: u64) -> FaultStats {
    let mesh = Topology::mesh(4, 4).expect("valid mesh");
    let cfg = NocConfig::paper_baseline(mesh, mechanism);
    let mut net = Network::with_faults(cfg, faults).expect("valid network");
    let sink = TraceSink::ring(1 << 16);
    net.set_trace_sink(sink.clone());

    let mut rng = StdRng::seed_from_u64(seed);
    let mut pending: Vec<PacketSpec> = (0..120u64)
        .map(|i| {
            let src = NodeId(rng.gen_range(0..16));
            let dst = loop {
                let d = NodeId(rng.gen_range(0..16));
                if d != src {
                    break d;
                }
            };
            PacketSpec::new(src, dst, MessageClass::L1Request).with_block((i + 1) * 64)
        })
        .collect();

    for _ in 0..60_000u64 {
        for _ in 0..2 {
            if let Some(spec) = pending.pop() {
                net.inject(spec);
            }
        }
        net.tick();
        for (node, d) in net.take_all_delivered() {
            if d.class == MessageClass::L1Request {
                let key = CircuitKey {
                    requestor: d.src,
                    block: d.block,
                };
                net.inject(
                    PacketSpec::new(node, d.src, MessageClass::L2Reply)
                        .with_block(d.block)
                        .with_circuit_key(key),
                );
            }
        }
        if pending.is_empty() && net.health().quiescent {
            break;
        }
    }
    assert!(
        net.health().quiescent,
        "network failed to drain within the cycle budget"
    );

    let events = sink.drain();
    assert_eq!(sink.dropped(), 0, "ring overflow would void the invariant");
    let mut terminals: BTreeMap<u64, u32> = BTreeMap::new();
    let mut enqueued: BTreeMap<u64, u32> = BTreeMap::new();
    for e in &events {
        match e.kind {
            EventKind::NiEnqueue { packet, .. } => *enqueued.entry(packet).or_insert(0) += 1,
            EventKind::NiEject { packet, .. } | EventKind::PacketDropped { packet, .. } => {
                *terminals.entry(packet).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    assert!(!enqueued.is_empty(), "workload produced no traced traffic");
    for (packet, n) in &enqueued {
        assert_eq!(*n, 1, "packet {packet} enqueued {n} times");
        assert_eq!(
            terminals.get(packet),
            Some(&1),
            "packet {packet} has {:?} terminal events, want exactly 1",
            terminals.get(packet).copied().unwrap_or(0)
        );
    }
    for packet in terminals.keys() {
        assert!(
            enqueued.contains_key(packet),
            "terminal event for never-enqueued packet {packet}"
        );
    }
    net.fault_stats()
}

#[test]
fn every_inject_terminates_exactly_once() {
    check_conservation(FaultConfig::none(), MechanismConfig::complete_noack(), 7);
    check_conservation(FaultConfig::none(), MechanismConfig::baseline(), 8);
}

#[test]
fn conservation_holds_under_fault_injection() {
    // A link dying under load forces NI retransmissions; each packet must
    // still end in exactly one eject or one post-retry drop. The run must
    // drain, so it is packet-switched: a link dying under a circuit stream
    // can strand its body (ROADMAP item 2, wedge entrance 1).
    let faults = FaultConfig {
        dead_links: vec![DeadLinkEvent {
            a: NodeId(5),
            b: NodeId(6),
            at: 30,
        }],
    };
    let lost = check_conservation(faults, MechanismConfig::baseline(), 21);
    assert!(
        lost.retransmissions > 0,
        "the dying link lost nothing: {lost:?}"
    );
}

#[test]
fn disabled_sink_observes_nothing() {
    let mesh = Topology::mesh(4, 4).expect("valid mesh");
    let cfg = NocConfig::paper_baseline(mesh, MechanismConfig::complete_noack());
    let mut net = Network::new(cfg).expect("valid network");
    let sink = TraceSink::Disabled;
    net.set_trace_sink(sink.clone());
    assert!(!sink.is_enabled());

    for i in 0..40u64 {
        net.inject(
            PacketSpec::new(NodeId((i % 16) as u16), NodeId(((i + 3) % 16) as u16), {
                MessageClass::L1Request
            })
            .with_block((i + 1) * 64),
        );
        for _ in 0..10 {
            net.tick();
        }
        net.take_all_delivered();
    }
    assert!(sink.snapshot().is_empty());
    assert_eq!(sink.dropped(), 0);
}
