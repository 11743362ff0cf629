//! Network-interface behaviours: circuit commitment serialization, timed
//! injection windows, flit-count overrides and outcome accounting.

use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{CircuitOutcome, Network, NocConfig, PacketSpec};

fn net(mechanism: MechanismConfig) -> Network {
    Network::new(NocConfig::paper_baseline(
        Topology::mesh(4, 4).unwrap(),
        mechanism,
    ))
    .unwrap()
}

fn run(n: &mut Network, cycles: u64) {
    for _ in 0..cycles {
        n.tick();
    }
}

fn build_circuit(n: &mut Network, src: u16, dst: u16, block: u64) -> CircuitKey {
    n.inject(PacketSpec::new(NodeId(src), NodeId(dst), MessageClass::L1Request).with_block(block));
    for _ in 0..200 {
        n.tick();
        if !n.take_delivered(NodeId(dst)).is_empty() {
            return CircuitKey {
                requestor: NodeId(src),
                block,
            };
        }
    }
    panic!("request never delivered");
}

#[test]
fn two_circuit_replies_from_one_ni_serialize() {
    // Two circuits from the same source NI (same-source circuits may share
    // input ports, §4.2); both replies committed back-to-back must both
    // arrive intact — the NI streams them one at a time.
    let mut n = net(MechanismConfig::complete());
    let k1 = build_circuit(&mut n, 0, 15, 0x40);
    let k2 = build_circuit(&mut n, 4, 15, 0x80);
    let (_, c1) = n.inject(
        PacketSpec::new(NodeId(15), NodeId(0), MessageClass::L2Reply)
            .with_block(0x40)
            .with_circuit_key(k1),
    );
    let (_, c2) = n.inject(
        PacketSpec::new(NodeId(15), NodeId(4), MessageClass::L2Reply)
            .with_block(0x80)
            .with_circuit_key(k2),
    );
    assert!(c1 && c2, "both replies commit");
    run(&mut n, 300);
    assert_eq!(n.take_delivered(NodeId(0)).len(), 1);
    assert_eq!(n.take_delivered(NodeId(4)).len(), 1);
    let s = n.stats();
    assert_eq!(s.outcomes.get(&CircuitOutcome::OnCircuit), Some(&2));
}

#[test]
fn flit_override_shrinks_a_data_class_message() {
    // The MEMORY ack of an L2 write-back is a single flit even though the
    // class usually carries a line; it must still ride its circuit.
    let mut n = net(MechanismConfig::complete());
    n.inject(
        PacketSpec::new(NodeId(0), NodeId(15), MessageClass::MemWbData)
            .with_block(0x40)
            .with_turnaround(20),
    );
    run(&mut n, 120);
    assert_eq!(n.take_delivered(NodeId(15)).len(), 1);
    let key = CircuitKey {
        requestor: NodeId(0),
        block: 0x40,
    };
    assert!(n.has_circuit_origin(NodeId(15), key));
    let (_, committed) = n.inject(
        PacketSpec::new(NodeId(15), NodeId(0), MessageClass::MemoryReply)
            .with_block(0x40)
            .with_circuit_key(key)
            .with_flits(1),
    );
    assert!(committed);
    run(&mut n, 120);
    let d = n.take_delivered(NodeId(0));
    assert_eq!(d.len(), 1);
    assert!(d[0].rode_circuit);
}

#[test]
fn without_outcome_suppresses_classification() {
    let mut n = net(MechanismConfig::complete());
    n.inject(
        PacketSpec::new(NodeId(3), NodeId(12), MessageClass::L1ToL1)
            .with_block(0x40)
            .without_outcome(),
    );
    run(&mut n, 200);
    assert_eq!(n.take_delivered(NodeId(12)).len(), 1);
    assert_eq!(n.stats().total_reply_outcomes(), 0);
}

#[test]
fn baseline_mode_never_commits_or_registers() {
    let mut n = net(MechanismConfig::baseline());
    n.inject(PacketSpec::new(NodeId(0), NodeId(15), MessageClass::L1Request).with_block(0x40));
    run(&mut n, 100);
    let d = n.take_delivered(NodeId(15));
    assert_eq!(d.len(), 1);
    assert!(d[0].circuit.is_none(), "baseline requests build nothing");
    let key = CircuitKey {
        requestor: NodeId(0),
        block: 0x40,
    };
    assert!(!n.has_circuit_origin(NodeId(15), key));
    let (_, committed) = n.inject(
        PacketSpec::new(NodeId(15), NodeId(0), MessageClass::L2Reply)
            .with_block(0x40)
            .with_circuit_key(key),
    );
    assert!(!committed);
}

#[test]
fn undo_of_unknown_circuit_reports_false() {
    let mut n = net(MechanismConfig::complete());
    let key = CircuitKey {
        requestor: NodeId(1),
        block: 0x999,
    };
    assert!(!n.undo_circuit(NodeId(5), key));
    // No outcome recorded for a no-op undo.
    assert_eq!(n.stats().total_reply_outcomes(), 0);
}

#[test]
fn timed_commit_respects_queue_occupancy() {
    // Two timed replies committed at once: the second must start after the
    // first's flits, and both still fit their windows when slack allows.
    let mut n = net(MechanismConfig::slack(4));
    // Build both circuits concurrently so neither window has expired by
    // the time the replies are ready.
    n.inject(PacketSpec::new(NodeId(0), NodeId(15), MessageClass::L1Request).with_block(0x40));
    n.inject(PacketSpec::new(NodeId(4), NodeId(15), MessageClass::L1Request).with_block(0x80));
    let mut got = 0;
    for _ in 0..200 {
        n.tick();
        got += n.take_delivered(NodeId(15)).len();
        if got == 2 {
            break;
        }
    }
    assert_eq!(got, 2);
    let k1 = CircuitKey {
        requestor: NodeId(0),
        block: 0x40,
    };
    let k2 = CircuitKey {
        requestor: NodeId(4),
        block: 0x80,
    };
    run(&mut n, 7);
    let (_, c1) = n.inject(
        PacketSpec::new(NodeId(15), NodeId(0), MessageClass::L2Reply)
            .with_block(0x40)
            .with_circuit_key(k1),
    );
    let (_, c2) = n.inject(
        PacketSpec::new(NodeId(15), NodeId(4), MessageClass::L2Reply)
            .with_block(0x80)
            .with_circuit_key(k2),
    );
    assert!(c1, "first reply commits inside its window");
    // The second may commit (slack absorbs the 5-flit wait) — and if it
    // does, it must actually arrive riding.
    run(&mut n, 400);
    assert_eq!(n.take_delivered(NodeId(0)).len(), 1);
    let d4 = n.take_delivered(NodeId(4));
    assert_eq!(d4.len(), 1);
    if c2 {
        assert!(d4[0].rode_circuit);
    }
    let s = n.stats();
    assert_eq!(s.total_injected(), s.total_delivered());
}

#[test]
fn queueing_latency_is_measured() {
    // Saturate one NI with packet-switched traffic so later packets queue.
    let mut n = net(MechanismConfig::baseline());
    for i in 0..8u64 {
        n.inject(
            PacketSpec::new(NodeId(0), NodeId(15), MessageClass::L2Reply).with_block((i + 1) * 64),
        );
    }
    run(&mut n, 1_500);
    let s = n.stats();
    let q = &s.queueing_latency[&rcsim_noc::MessageGroup::CircuitRep];
    assert_eq!(q.count(), 8);
    assert!(
        q.max().unwrap_or(0.0) > 0.0,
        "later packets must have queued"
    );
}
