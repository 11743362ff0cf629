//! Fault-injection and progress-watchdog integration tests: a wedged
//! network is declared dead within the stall window, the zero-fault
//! configuration perturbs nothing, and a circuit reply dropped on a dying
//! link limps home over the wormhole pipeline as `FaultDegraded`.

use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{
    CircuitOutcome, DeadLinkEvent, FaultConfig, Network, NocConfig, PacketSpec, STALL_WINDOW,
};
mod wedge;

fn cfg(mechanism: MechanismConfig) -> NocConfig {
    NocConfig::paper_baseline(Topology::mesh(4, 4).expect("valid"), mechanism)
}

/// `net` restored from its image with every router output VC's credit
/// count edited to zero.
fn starved(net: &Network) -> Network {
    let mut image = serde_json::to_value(&net.snapshot()).expect("image");
    wedge::starve_routers(&mut image);
    let mut edited = Network::new(*net.config()).expect("valid");
    edited.restore(&serde_json::from_value(image).expect("the edited image decodes"));
    edited
}

/// A network restored from an image whose router credit counts were
/// edited to zero wedges; the watchdog must declare the deadlock within
/// its stall window instead of letting the run spin forever, and the
/// credit law names the edit.
#[test]
fn zeroed_credits_deadlock_is_detected_within_window() {
    let mut net = starved(&Network::new(cfg(MechanismConfig::baseline())).expect("valid"));
    assert_eq!(
        net.check_index(),
        Err(
            "credits of n0/in1 vc0 at 0: 0 home + 0 on the wire + 0 flits is not the depth 5"
                .into()
        )
    );
    let window = STALL_WINDOW;

    // Multi-hop traffic that can never leave its first router.
    for round in 0..8u64 {
        for s in 0..16u16 {
            let d = (s + 5) % 16;
            net.inject(
                PacketSpec::new(NodeId(s), NodeId(d), MessageClass::L2Reply)
                    .with_block((round * 16 + u64::from(s)) * 64),
            );
        }
        for _ in 0..4 {
            net.tick();
        }
    }

    let mut stalled_at = None;
    for _ in 0..window * 20 {
        net.tick();
        if net.stalled() {
            stalled_at = Some(net.now());
            break;
        }
    }
    let stalled_at = stalled_at.expect("watchdog never declared the wedged network dead");

    let report = net.health();
    assert!(report.stalled);
    assert!(report.in_flight > 0, "stall must have traffic outstanding");
    assert!(!report.quiescent);
    assert!(!report.healthy());
    assert!(
        stalled_at <= report.last_progress + window + 1,
        "declared at {stalled_at}, last progress {}, window {window}",
        report.last_progress
    );
    assert!(
        !report.stuck_messages.is_empty(),
        "report must name the stuck messages"
    );
    let oldest = report.oldest_age.expect("oldest age of in-flight traffic");
    assert!(oldest >= window);
    // The report renders the evidence a human needs.
    let text = report.to_string();
    assert!(text.contains("STALLED"), "{text}");
}

/// `FaultConfig::none()` must be invisible: the fault RNG is never
/// consulted, so deliveries and statistics are bit-identical to a network
/// built without the fault layer.
#[test]
fn no_faults_is_bit_identical_to_baseline() {
    let mechanism = MechanismConfig::complete_noack();
    let mut plain = Network::new(cfg(mechanism)).expect("valid");
    let mut gated = Network::with_faults(cfg(mechanism), FaultConfig::none()).expect("valid");

    let mut plain_trace = Vec::new();
    let mut gated_trace = Vec::new();
    for step in 0..400u64 {
        if step < 200 && step % 3 == 0 {
            let s = (step * 7 % 16) as u16;
            let d = (s + 1 + (step % 11) as u16) % 16;
            if s != d {
                let spec = PacketSpec::new(NodeId(s), NodeId(d), MessageClass::L1Request)
                    .with_block(step * 64);
                plain.inject(spec);
                gated.inject(spec);
            }
        }
        plain.tick();
        gated.tick();
        plain_trace.extend(plain.take_all_delivered());
        gated_trace.extend(gated.take_all_delivered());
    }

    assert_eq!(plain_trace, gated_trace, "delivery traces diverged");
    assert_eq!(
        format!("{:?}", plain.stats()),
        format!("{:?}", gated.stats()),
        "statistics diverged"
    );
    assert_eq!(gated.fault_stats(), Default::default());
    assert!(gated.health().healthy());
}

/// A dropped circuit reply is retransmitted by the source NI, arrives
/// over the plain 5-cycle wormhole pipeline, and is accounted as
/// `FaultDegraded` — the circuit fault degrades latency, never loses the
/// message. The request 0 → 15 builds its circuit and is delivered at
/// cycle 36; its reply rides back along row 0 (YX: 15, 11, 7, 3, 2, 1,
/// 0), and link 1–2 dies at cycle 40, before the reply's head reaches it.
#[test]
fn dropped_reply_is_retransmitted_and_counted_fault_degraded() {
    let faults = FaultConfig {
        dead_links: vec![DeadLinkEvent {
            a: NodeId(1),
            b: NodeId(2),
            at: 40,
        }],
    };
    let mut net = Network::with_faults(cfg(MechanismConfig::complete()), faults).expect("valid");
    let (src, dst, block) = (NodeId(0), NodeId(15), 64);
    net.inject(PacketSpec::new(src, dst, MessageClass::L1Request).with_block(block));
    while net.take_delivered(dst).is_empty() {
        assert!(net.now() < 2_000, "request lost");
        net.tick();
    }
    assert!(net.now() < 40, "the circuit is built before the link dies");
    let key = CircuitKey {
        requestor: src,
        block,
    };
    net.inject(
        PacketSpec::new(dst, src, MessageClass::L2Reply)
            .with_block(block)
            .with_circuit_key(key),
    );
    while net.take_delivered(src).is_empty() {
        assert!(net.now() < 2_000, "reply lost despite retransmission");
        net.tick();
    }

    let fs = net.fault_stats();
    assert!(
        fs.dead_flits_lost > 0,
        "the reply's head must die on the link"
    );
    assert!(
        fs.retransmissions > 0,
        "the loss must trigger a retransmission"
    );
    assert_eq!(fs.packets_abandoned, 0, "retry budget must suffice here");

    let s = net.stats();
    assert!(
        s.outcome_fraction(CircuitOutcome::FaultDegraded) > 0.0,
        "a dropped committed reply must be reclassified FaultDegraded: {:?}",
        s.outcomes
    );
    // Conservation with faults on: everything injected was delivered
    // (nothing abandoned in this run).
    assert_eq!(s.total_injected(), s.total_delivered() + s.dropped_packets);
    assert_eq!(s.dropped_packets, 0);
}

/// The eventual quiescence check knows about retransmission: after
/// in-flight traffic drains (including retries), the network reports
/// quiescent and leak-free even with faults enabled. Link 5–6 dies at
/// cycle 23, while the packets are injected.
#[test]
fn faulty_network_quiesces_after_drain() {
    let faults = FaultConfig {
        dead_links: vec![DeadLinkEvent {
            a: NodeId(5),
            b: NodeId(6),
            at: 23,
        }],
    };
    let mut net = Network::with_faults(cfg(MechanismConfig::baseline()), faults).expect("valid");
    for i in 0..40u64 {
        let s = (i % 16) as u16;
        let d = (s + 3) % 16;
        net.inject(PacketSpec::new(NodeId(s), NodeId(d), MessageClass::WbData).with_block(i * 64));
        net.tick();
    }
    for _ in 0..20_000 {
        net.tick();
        if net.is_quiescent() {
            break;
        }
    }
    assert!(net.is_quiescent(), "faulty traffic must eventually drain");
    assert!(
        net.fault_stats().retransmissions > 0,
        "the link lost nothing"
    );
    let report = net.health();
    assert!(report.quiescent);
    assert!(!report.stalled);
    let s = net.stats();
    assert_eq!(s.total_injected(), s.total_delivered() + s.dropped_packets);
}
