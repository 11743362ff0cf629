//! Network-level tests of the permanent-fault machinery: dead links and
//! routers, detour routing, recorded reverse paths for replies, circuit
//! teardown at fault onset, healing, and graceful abandonment when a node
//! is fully cut off.

use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{
    CircuitOutcome, DeadLinkEvent, DeadRouterEvent, FaultConfig, Network, NocConfig, PacketSpec,
    MAX_REPORT_ENTRIES,
};

fn faulty_net(mechanism: MechanismConfig, faults: FaultConfig) -> Network {
    let mesh = Topology::mesh(4, 4).unwrap();
    Network::with_faults(NocConfig::paper_baseline(mesh, mechanism), faults).unwrap()
}

fn run(n: &mut Network, cycles: u64) {
    for _ in 0..cycles {
        n.tick();
    }
}

fn dead_link(a: u16, b: u16, at: u64, duration: Option<u64>) -> FaultConfig {
    let mut f = FaultConfig::none();
    f.dead_links.push(DeadLinkEvent {
        a: NodeId(a),
        b: NodeId(b),
        at,
        duration,
    });
    f
}

#[test]
fn dead_link_from_start_reroutes_and_delivers() {
    // 0 -> 3 normally rides the bottom row 0-1-2-3; link 1-2 is dead from
    // cycle 0, so the head must leave on a detour and still arrive.
    let mut n = faulty_net(MechanismConfig::baseline(), dead_link(1, 2, 0, None));
    n.inject(PacketSpec::new(
        NodeId(0),
        NodeId(3),
        MessageClass::L1Request,
    ));
    run(&mut n, 300);
    let d = n.take_delivered(NodeId(3));
    assert_eq!(d.len(), 1, "rerouted packet must still arrive");
    assert_eq!(d[0].src, NodeId(0));
    assert!(n.is_quiescent());
    let h = n.health();
    assert_eq!(h.faults.packets_rerouted, 1);
    assert_eq!(h.faults.packets_abandoned, 0);
    assert_eq!(h.dead_links, vec![(NodeId(1), NodeId(2))]);
    assert!(h.healthy(), "{h}");
}

#[test]
fn reply_detours_back_over_recorded_reverse_path() {
    // Round trip across a dead link: the request detours, the responder's
    // NI records the traversed path, and the reply walks it in reverse.
    // Both directions count as reroutes and both arrive.
    let mut n = faulty_net(MechanismConfig::complete(), dead_link(1, 2, 0, None));
    n.inject(PacketSpec::new(NodeId(0), NodeId(3), MessageClass::L1Request).with_block(0x40));
    run(&mut n, 300);
    assert_eq!(n.take_delivered(NodeId(3)).len(), 1);

    let key = CircuitKey {
        requestor: NodeId(0),
        block: 0x40,
    };
    // Detoured requests never reserve circuits.
    assert!(!n.has_circuit_origin(NodeId(3), key));
    n.inject(
        PacketSpec::new(NodeId(3), NodeId(0), MessageClass::L2Reply)
            .with_block(0x40)
            .with_circuit_key(key),
    );
    run(&mut n, 300);
    let d = n.take_delivered(NodeId(0));
    assert_eq!(d.len(), 1, "reply must arrive over the reverse detour");
    assert_eq!(d[0].class, MessageClass::L2Reply);
    assert!(!d[0].rode_circuit);
    let h = n.health();
    assert_eq!(h.faults.packets_rerouted, 2);
    assert_eq!(h.faults.packets_abandoned, 0);
    assert!(h.healthy(), "{h}");
}

#[test]
fn onset_tears_circuit_and_reply_records_torn_down() {
    // Build a complete circuit fault-free, then kill a link on its reply
    // path. The onset must tear every table entry for the circuit, purge
    // the responder-side origin, and the late reply must be reclassified
    // as TornDown while still arriving via a detour.
    let mut n = faulty_net(MechanismConfig::complete(), dead_link(1, 2, 300, None));
    n.inject(PacketSpec::new(NodeId(0), NodeId(15), MessageClass::L1Request).with_block(0x80));
    run(&mut n, 250);
    assert_eq!(n.take_delivered(NodeId(15)).len(), 1);
    let key = CircuitKey {
        requestor: NodeId(0),
        block: 0x80,
    };
    assert!(
        n.has_circuit_origin(NodeId(15), key),
        "circuit built fault-free"
    );

    run(&mut n, 100); // crosses the onset at cycle 300
    assert!(
        !n.has_circuit_origin(NodeId(15), key),
        "origin purged at onset"
    );
    let h = n.health();
    assert!(h.faults.circuits_torn >= 1, "{h}");

    n.inject(
        PacketSpec::new(NodeId(15), NodeId(0), MessageClass::L2Reply)
            .with_block(0x80)
            .with_circuit_key(key),
    );
    run(&mut n, 400);
    let d = n.take_delivered(NodeId(0));
    assert_eq!(d.len(), 1, "reply must survive the torn circuit");
    assert!(!d[0].rode_circuit);
    let stats = n.stats();
    assert_eq!(
        stats.outcomes.get(&CircuitOutcome::TornDown).copied(),
        Some(1),
        "late reply must be classified TornDown: {:?}",
        stats.outcomes
    );
    assert!(n.health().healthy());
}

#[test]
fn dead_router_routes_around() {
    // Node 5 dies at cycle 0; 1 -> 9 normally goes straight through it
    // (1-5-9). The packet must detour and arrive; health lists the router.
    let mut f = FaultConfig::none();
    f.dead_routers.push(DeadRouterEvent {
        node: NodeId(5),
        at: 0,
        duration: None,
    });
    let mut n = faulty_net(MechanismConfig::baseline(), f);
    n.inject(PacketSpec::new(
        NodeId(1),
        NodeId(9),
        MessageClass::L1Request,
    ));
    run(&mut n, 300);
    assert_eq!(n.take_delivered(NodeId(9)).len(), 1);
    let h = n.health();
    assert_eq!(h.faults.packets_rerouted, 1);
    assert_eq!(h.dead_routers, vec![NodeId(5)]);
    assert!(h.healthy(), "{h}");
}

#[test]
fn temporary_dead_link_heals_and_dor_resumes() {
    // The link is only dead for cycles 100..300. Traffic injected after
    // the heal must take the plain DOR path (no reroute counted).
    let mut n = faulty_net(MechanismConfig::baseline(), dead_link(1, 2, 100, Some(200)));
    run(&mut n, 150);
    assert_eq!(n.health().dead_links, vec![(NodeId(1), NodeId(2))]);
    run(&mut n, 250); // past the heal at cycle 300
    let h = n.health();
    assert!(h.dead_links.is_empty(), "{h}");

    n.inject(PacketSpec::new(
        NodeId(0),
        NodeId(3),
        MessageClass::L1Request,
    ));
    run(&mut n, 100);
    assert_eq!(n.take_delivered(NodeId(3)).len(), 1);
    assert_eq!(n.health().faults.packets_rerouted, 0);
}

#[test]
fn isolated_node_abandons_after_retries() {
    // Both of corner node 0's links die, cutting it off entirely. A packet
    // from 0 has no healthy path: every emission dies on the dead link and
    // the retry machinery must eventually abandon it instead of wedging.
    let mut f = dead_link(0, 1, 0, None);
    f.dead_links.push(DeadLinkEvent {
        a: NodeId(0),
        b: NodeId(4),
        at: 0,
        duration: None,
    });
    let mut n = faulty_net(MechanismConfig::baseline(), f);
    n.inject(PacketSpec::new(
        NodeId(0),
        NodeId(15),
        MessageClass::L1Request,
    ));
    run(&mut n, 20_000);
    assert!(n.take_delivered(NodeId(15)).is_empty());
    let h = n.health();
    assert_eq!(h.faults.packets_abandoned, 1, "{h}");
    assert!(h.faults.dead_flits_lost >= 1);
    assert!(!h.stalled, "abandonment must not read as a stall: {h}");
    assert!(!h.healthy());
}

#[test]
fn reply_after_heal_ignores_stale_recorded_path() {
    // Regression: recorded reverse paths are keyed (dst, block) and
    // era-stamped. A request detours around a dead link and its reversed
    // route is recorded at the responder — but the link heals before the
    // reply is sent, so the reply must ride plain DOR, not retrace the
    // now-pointless detour. Observable two ways: the reroute counter
    // stays at 1 (the request only), and the reply's in-network latency
    // equals that of a control reply that never had a recorded path.
    let mut n = faulty_net(MechanismConfig::complete(), dead_link(1, 2, 0, Some(400)));
    n.inject(PacketSpec::new(NodeId(0), NodeId(3), MessageClass::L1Request).with_block(0x40));
    run(&mut n, 300);
    assert_eq!(n.take_delivered(NodeId(3)).len(), 1);
    assert_eq!(n.health().faults.packets_rerouted, 1, "request detoured");

    run(&mut n, 200); // past the heal at cycle 400 (bumps the path era)
    assert!(n.health().dead_links.is_empty());

    // Control: a reply between the same endpoints with a block no request
    // ever recorded a path for — pure DOR by construction.
    let control_key = CircuitKey {
        requestor: NodeId(0),
        block: 0x999,
    };
    n.inject(
        PacketSpec::new(NodeId(3), NodeId(0), MessageClass::L2Reply)
            .with_block(0x999)
            .with_circuit_key(control_key),
    );
    run(&mut n, 100);
    let control = n.take_delivered(NodeId(0));
    assert_eq!(control.len(), 1);
    let dor_latency = control[0].delivered_at - control[0].injected_at;

    // The reply to the detoured request: its recorded path is stale.
    let key = CircuitKey {
        requestor: NodeId(0),
        block: 0x40,
    };
    n.inject(
        PacketSpec::new(NodeId(3), NodeId(0), MessageClass::L2Reply)
            .with_block(0x40)
            .with_circuit_key(key),
    );
    run(&mut n, 100);
    let d = n.take_delivered(NodeId(0));
    assert_eq!(d.len(), 1);
    assert_eq!(
        d[0].delivered_at - d[0].injected_at,
        dor_latency,
        "post-heal reply must match the control's DOR latency, \
         not retrace the recorded detour"
    );
    assert_eq!(
        n.health().faults.packets_rerouted,
        1,
        "no reroute may be charged to the post-heal reply"
    );
    assert!(n.health().healthy());
}

#[test]
fn reply_after_region_cools_ignores_stale_congestion_detour() {
    // The congestion twin of the heal test: a request detours around a
    // hot row and its reversed route is recorded — then the row cools,
    // which bumps the staleness era, before the reply is sent. The reply
    // must ride plain DOR: the congestion-detour counter stays at the
    // request's 1 and the reply's latency matches a control.
    let mesh = Topology::mesh(4, 4).unwrap();
    let mut n = Network::new(NocConfig::paper_baseline(mesh, MechanismConfig::baseline())).unwrap();
    // Row 0 (routers 0–3) hot, as a policy would mark it; no policy is
    // installed.
    n.set_congestion(0..4, true);

    // A request across the hot row detours around it (and node 3's NI
    // records the reversed route for the reply).
    n.inject(PacketSpec::new(NodeId(0), NodeId(3), MessageClass::L1Request).with_block(0x40));
    run(&mut n, 100);
    assert_eq!(n.take_delivered(NodeId(3)).len(), 1);
    let detours = n.health().adaptive.congestion_detours;
    assert_eq!(detours, 1, "request must detour: {}", n.health());

    // The row cools, staling the recorded path. Then rows 0 and 1 heat:
    // the reply's DOR path is congested again, so its NI looks the
    // recorded path (through row 1) up, and every fresh route from node 3
    // crosses a hot router, so only the era keeps the reply off the stale
    // detour.
    n.set_congestion(0..4, false);
    n.set_congestion(0..8, true);

    let control_key = CircuitKey {
        requestor: NodeId(0),
        block: 0x999,
    };
    n.inject(
        PacketSpec::new(NodeId(3), NodeId(0), MessageClass::L2Reply)
            .with_block(0x999)
            .with_circuit_key(control_key),
    );
    run(&mut n, 100);
    let control = n.take_delivered(NodeId(0));
    assert_eq!(control.len(), 1);
    let dor_latency = control[0].delivered_at - control[0].injected_at;

    let key = CircuitKey {
        requestor: NodeId(0),
        block: 0x40,
    };
    n.inject(
        PacketSpec::new(NodeId(3), NodeId(0), MessageClass::L2Reply)
            .with_block(0x40)
            .with_circuit_key(key),
    );
    run(&mut n, 100);
    let d = n.take_delivered(NodeId(0));
    assert_eq!(d.len(), 1);
    assert_eq!(
        d[0].delivered_at - d[0].injected_at,
        dor_latency,
        "post-cool reply must match the control's DOR latency, \
         not retrace the recorded congestion detour"
    );
    assert_eq!(
        n.health().adaptive.congestion_detours,
        detours,
        "no congestion detour may be charged to the post-cool reply"
    );
    assert!(n.health().healthy());
}

#[test]
fn dead_fault_config_survives_serde_round_trip() {
    let f = dead_link(1, 2, 100, Some(50));
    let json = serde_json::to_string(&f).unwrap();
    let back: FaultConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.dead_links.len(), 1);
    assert_eq!(back.dead_links[0].heals_at(), Some(150));
    // Configs serialised before the dead-resource fields existed (no
    // `dead_links` / `dead_routers` keys) still load via serde defaults.
    let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
    match &mut v {
        serde_json::Value::Map(entries) => {
            entries.retain(|(k, _)| k != "dead_links" && k != "dead_routers")
        }
        other => panic!("expected object, got {other:?}"),
    }
    let old: FaultConfig = serde_json::from_value(v).unwrap();
    assert!(old.dead_links.is_empty() && old.dead_routers.is_empty());
}

#[test]
fn retry_exhaustion_conserves_every_packet() {
    // A zero retry budget under an aggressive drop rate: every dropped
    // packet is abandoned on the spot, nothing is retransmitted, and the
    // packet ledger still balances — injected == delivered + abandoned.
    let faults = FaultConfig {
        seed: 0xABAD1,
        link_drop_rate: 0.20,
        max_retries: 0,
        ..FaultConfig::none()
    };
    let mut n = faulty_net(MechanismConfig::baseline(), faults);
    for i in 0..60u64 {
        let s = (i % 16) as u16;
        let d = (s + 5) % 16;
        n.inject(PacketSpec::new(NodeId(s), NodeId(d), MessageClass::WbData).with_block(i * 64));
        n.tick();
    }
    for _ in 0..10_000 {
        n.tick();
        if n.is_quiescent() {
            break;
        }
    }
    assert!(n.is_quiescent(), "exhausted traffic must drain, not linger");
    let h = n.health();
    assert!(h.faults.packets_abandoned > 0, "20% drop over 60 must hit");
    assert_eq!(h.faults.retransmissions, 0, "retry budget is zero");
    assert!(!h.healthy(), "abandonment must be visible in the report");
    let s = n.stats();
    assert!(s.total_delivered() > 0, "most packets still get through");
    assert_eq!(s.dropped_packets, h.faults.packets_abandoned);
    assert_eq!(
        s.total_injected(),
        s.total_delivered() + s.dropped_packets,
        "packet ledger out of balance: {h}"
    );
}

#[test]
fn health_report_caps_degraded_topology_lists() {
    // MAX_REPORT_ENTRIES caps every list in the report, including the
    // dead-link and dead-router inventories of a badly degraded chip:
    // ten of each on an 8×8 mesh, listed as their first eight.
    let mut f = FaultConfig::none();
    let links: Vec<(u16, u16)> = (1..6u16)
        .flat_map(|row| [(row * 8 + 1, row * 8 + 2), (row * 8 + 4, row * 8 + 5)])
        .collect();
    for &(a, b) in &links {
        f.dead_links.push(DeadLinkEvent {
            a: NodeId(a),
            b: NodeId(b),
            at: 0,
            duration: None,
        });
    }
    let routers: Vec<u16> = (54..64).collect();
    for &r in &routers {
        f.dead_routers.push(DeadRouterEvent {
            node: NodeId(r),
            at: 0,
            duration: None,
        });
    }
    let mesh = Topology::mesh(8, 8).unwrap();
    let mut n = Network::with_faults(
        NocConfig::paper_baseline(mesh, MechanismConfig::baseline()),
        f,
    )
    .unwrap();
    run(&mut n, 10);
    let h = n.health();
    assert!(links.len() > MAX_REPORT_ENTRIES && routers.len() > MAX_REPORT_ENTRIES);
    assert_eq!(
        h.dead_links.len(),
        MAX_REPORT_ENTRIES,
        "dead-link list must be capped"
    );
    assert_eq!(
        h.dead_routers.len(),
        MAX_REPORT_ENTRIES,
        "dead-router list must be capped"
    );
    // The caps are presentational only: the lists are the sorted heads.
    let first = |v: &[(u16, u16)]| -> Vec<(NodeId, NodeId)> {
        v.iter()
            .take(MAX_REPORT_ENTRIES)
            .map(|&(a, b)| (NodeId(a), NodeId(b)))
            .collect()
    };
    assert_eq!(h.dead_links, first(&links));
    assert_eq!(
        h.dead_routers,
        routers[..MAX_REPORT_ENTRIES]
            .iter()
            .map(|&r| NodeId(r))
            .collect::<Vec<_>>()
    );
}
