//! Network-level tests of the permanent-fault machinery: dead links,
//! detour routing, recorded reverse paths for replies, circuit
//! teardown at fault onset, and graceful abandonment when a node is fully
//! cut off.

use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{
    CircuitOutcome, DeadLinkEvent, FaultConfig, Network, NocConfig, PacketSpec, MAX_REPORT_ENTRIES,
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

fn dead_link(a: u16, b: u16, at: u64) -> FaultConfig {
    let mut f = FaultConfig::none();
    f.dead_links.push(DeadLinkEvent {
        a: NodeId(a),
        b: NodeId(b),
        at,
    });
    f
}

#[test]
fn dead_link_from_start_reroutes_and_delivers() {
    // 0 -> 3 normally rides the bottom row 0-1-2-3; link 1-2 is dead from
    // cycle 0, so the head must leave on a detour and still arrive.
    let mut n = faulty_net(MechanismConfig::baseline(), dead_link(1, 2, 0));
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
    let mut n = faulty_net(MechanismConfig::complete(), dead_link(1, 2, 0));
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

/// The field `name` of a serialized struct.
fn field<'a>(v: &'a serde_json::Value, name: &str) -> &'a serde_json::Value {
    match v {
        serde_json::Value::Map(entries) => &entries.iter().find(|(k, _)| k == name).unwrap().1,
        other => panic!("expected an object holding `{name}`, got {other:?}"),
    }
}

fn entries(v: &serde_json::Value) -> &[serde_json::Value] {
    match v {
        serde_json::Value::Seq(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

#[test]
fn recorded_reply_paths_stay_bounded_over_many_round_trips() {
    // 300 round trips 4 -> 7 across the dead link 5-6, ten at a time:
    // each request's path is recorded at 7 and consumed by its reply, so
    // every NI ends with no recorded path, and its eviction order holds
    // exactly the recorded paths' keys — never a slot per consumed path.
    let mut n = faulty_net(MechanismConfig::baseline(), dead_link(5, 6, 0));
    for batch in 0..30u64 {
        let blocks: Vec<u64> = (0..10).map(|i| 0x40 * (10 * batch + i + 1)).collect();
        for &block in &blocks {
            n.inject(
                PacketSpec::new(NodeId(4), NodeId(7), MessageClass::L1Request).with_block(block),
            );
        }
        run(&mut n, 200);
        assert_eq!(n.take_delivered(NodeId(7)).len(), blocks.len());
        for &block in &blocks {
            let key = CircuitKey {
                requestor: NodeId(4),
                block,
            };
            n.inject(
                PacketSpec::new(NodeId(7), NodeId(4), MessageClass::L2Reply)
                    .with_block(block)
                    .with_circuit_key(key),
            );
        }
        run(&mut n, 200);
        assert_eq!(n.take_delivered(NodeId(4)).len(), blocks.len());
    }
    assert!(n.is_quiescent());
    assert_eq!(n.health().faults.packets_rerouted, 600);
    let snap = serde_json::to_value(&n.snapshot()).unwrap();
    for (i, ni) in entries(field(&snap, "nis")).iter().enumerate() {
        let paths = entries(field(ni, "reply_paths")).len();
        let order = entries(field(ni, "reply_path_order")).len();
        assert_eq!((paths, order), (0, 0), "NI {i}: paths, order slots");
    }
}

#[test]
fn onset_tears_circuit_and_reply_records_torn_down() {
    // Build a complete circuit fault-free, then kill a link on its reply
    // path. The onset must tear every table entry for the circuit, purge
    // the responder-side origin, and the late reply must be reclassified
    // as TornDown while still arriving via a detour.
    let mut n = faulty_net(MechanismConfig::complete(), dead_link(1, 2, 300));
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
fn isolated_node_abandons_after_retries() {
    // Both of corner node 0's links die, cutting it off entirely. A packet
    // from 0 has no healthy path: every emission dies on the dead link and
    // the retry machinery must eventually abandon it instead of wedging.
    let mut f = dead_link(0, 1, 0);
    f.dead_links.push(DeadLinkEvent {
        a: NodeId(0),
        b: NodeId(4),
        at: 0,
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
fn dead_fault_config_survives_serde_round_trip() {
    let f = dead_link(1, 2, 100);
    let json = serde_json::to_string(&f).unwrap();
    let back: FaultConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, f);
    // Configs serialised before the dead-link field existed (no
    // `dead_links` key) still load via serde defaults.
    let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
    match &mut v {
        serde_json::Value::Map(entries) => entries.retain(|(k, _)| k != "dead_links"),
        other => panic!("expected object, got {other:?}"),
    }
    let old: FaultConfig = serde_json::from_value(v).unwrap();
    assert!(old.dead_links.is_empty());
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
    // dead-link inventory of a badly degraded chip: ten dead links on an
    // 8×8 mesh, listed as their first eight, and the summary line says
    // the chip may have more.
    let mut f = FaultConfig::none();
    let links: Vec<(u16, u16)> = (1..6u16)
        .flat_map(|row| [(row * 8 + 1, row * 8 + 2), (row * 8 + 4, row * 8 + 5)])
        .collect();
    for &(a, b) in &links {
        f.dead_links.push(DeadLinkEvent {
            a: NodeId(a),
            b: NodeId(b),
            at: 0,
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
    assert!(links.len() > MAX_REPORT_ENTRIES);
    assert_eq!(
        h.dead_links.len(),
        MAX_REPORT_ENTRIES,
        "dead-link list must be capped"
    );
    // The caps are presentational only: the list is the sorted head.
    let first: Vec<(NodeId, NodeId)> = links
        .iter()
        .take(MAX_REPORT_ENTRIES)
        .map(|&(a, b)| (NodeId(a), NodeId(b)))
        .collect();
    assert_eq!(h.dead_links, first);
    assert!(h.dead_routers.is_empty());
    let report = h.to_string();
    assert!(
        report.contains(&format!(
            "degraded topology: at least {MAX_REPORT_ENTRIES} dead links"
        )),
        "{report}"
    );
}
