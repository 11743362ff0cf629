//! End-to-end tests of the Reactive Circuits machinery at network level:
//! request→reserve, reply→bypass, undo, timed windows, fragmented partial
//! circuits, ideal mode and scrounger reuse.

use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{CircuitOutcome, MessageGroup, Network, NocConfig, PacketSpec};

fn net(mechanism: MechanismConfig) -> Network {
    let mesh = Topology::mesh(4, 4).unwrap();
    Network::new(NocConfig::paper_baseline(mesh, mechanism)).unwrap()
}

fn net8(mechanism: MechanismConfig) -> Network {
    let mesh = Topology::mesh(8, 8).unwrap();
    Network::new(NocConfig::paper_baseline(mesh, mechanism)).unwrap()
}

fn run(n: &mut Network, cycles: u64) {
    for _ in 0..cycles {
        n.tick();
    }
}

/// Sends a request, waits for delivery, returns the circuit key.
fn send_request(n: &mut Network, src: u16, dst: u16, block: u64) -> CircuitKey {
    n.inject(PacketSpec::new(NodeId(src), NodeId(dst), MessageClass::L1Request).with_block(block));
    for _ in 0..200 {
        n.tick();
        let d = n.take_delivered(NodeId(dst));
        if !d.is_empty() {
            assert_eq!(d[0].class, MessageClass::L1Request);
            return CircuitKey {
                requestor: NodeId(src),
                block,
            };
        }
    }
    panic!("request {src}->{dst} never delivered");
}

/// Sends the data reply over the (possibly) reserved circuit and returns
/// (network latency, rode_circuit, commit flag).
fn send_reply(n: &mut Network, src: u16, dst: u16, block: u64) -> (u64, bool, bool) {
    let key = CircuitKey {
        requestor: NodeId(dst),
        block,
    };
    let (_, committed) = n.inject(
        PacketSpec::new(NodeId(src), NodeId(dst), MessageClass::L2Reply)
            .with_block(block)
            .with_circuit_key(key),
    );
    for _ in 0..400 {
        n.tick();
        let d = n.take_delivered(NodeId(dst));
        if !d.is_empty() {
            assert_eq!(d[0].class, MessageClass::L2Reply);
            return (
                d[0].delivered_at - d[0].injected_at,
                d[0].rode_circuit,
                committed,
            );
        }
    }
    panic!("reply {src}->{dst} never delivered");
}

#[test]
fn complete_circuit_is_built_and_registered() {
    let mut n = net(MechanismConfig::complete());
    let key = send_request(&mut n, 0, 15, 0x40);
    assert!(n.has_circuit_origin(NodeId(15), key));
}

#[test]
fn reply_rides_complete_circuit_at_two_cycles_per_hop() {
    // 3-hop and 1-hop circuits: the latency difference must be exactly
    // 2 cycles per extra hop (§4.3).
    let mut n = net(MechanismConfig::complete());
    send_request(&mut n, 0, 3, 0x40);
    let (lat3, rode3, committed3) = send_reply(&mut n, 3, 0, 0x40);
    assert!(rode3 && committed3);

    let mut n = net(MechanismConfig::complete());
    send_request(&mut n, 0, 1, 0x40);
    let (lat1, rode1, _) = send_reply(&mut n, 1, 0, 0x40);
    assert!(rode1);
    assert_eq!(
        lat3 - lat1,
        4,
        "2 cycles per extra hop (1-hop {lat1}, 3-hop {lat3})"
    );
}

#[test]
fn circuit_reply_is_faster_than_baseline_reply() {
    let mut base = net(MechanismConfig::baseline());
    base.inject(PacketSpec::new(NodeId(15), NodeId(0), MessageClass::L2Reply).with_block(0x40));
    let mut base_lat = 0;
    for _ in 0..400 {
        base.tick();
        let d = base.take_delivered(NodeId(0));
        if !d.is_empty() {
            base_lat = d[0].delivered_at - d[0].injected_at;
            break;
        }
    }
    assert!(base_lat > 0);

    let mut n = net(MechanismConfig::complete());
    send_request(&mut n, 0, 15, 0x40);
    let (circ_lat, rode, _) = send_reply(&mut n, 15, 0, 0x40);
    assert!(rode);
    assert!(
        circ_lat * 2 < base_lat,
        "circuit reply ({circ_lat}) should be well under half the baseline ({base_lat})"
    );
}

#[test]
fn circuit_outcome_recorded() {
    let mut n = net(MechanismConfig::complete());
    send_request(&mut n, 0, 15, 0x40);
    send_reply(&mut n, 15, 0, 0x40);
    let s = n.stats();
    assert_eq!(s.outcomes.get(&CircuitOutcome::OnCircuit), Some(&1));
}

#[test]
fn undo_tears_down_circuit() {
    let mut n = net(MechanismConfig::complete());
    let key = send_request(&mut n, 0, 15, 0x40);
    assert!(n.undo_circuit(NodeId(15), key));
    assert!(!n.has_circuit_origin(NodeId(15), key));
    run(&mut n, 30); // undo propagates at 1 cycle/hop
    let s = n.stats();
    assert_eq!(s.outcomes.get(&CircuitOutcome::Undone), Some(&1));
    // A later reply for the same key goes packet-switched.
    let (_, rode, committed) = send_reply(&mut n, 15, 0, 0x40);
    assert!(!rode && !committed);
}

#[test]
fn conflicting_circuits_fail_and_are_undone() {
    // Two requests whose replies would need different inputs into the
    // same output at some router (the Figure 4b scenario). In a 4x4 mesh:
    // request A: 0 -> 15 (replies come back 15 -> 0, YX: through col 0? no:
    // reply YX from 15 to 0 goes north along column 3, then west along row 0).
    // request B: 12 -> 3 (reply 3 -> 12 goes south along column 3, then west).
    // Both replies use column 3 in opposite directions, then row boundary —
    // pick pairs that demonstrably conflict instead: two requests from
    // different sources to destinations whose replies share a router output.
    // Request A: 1 -> 15, reply YX 15->1: col 3 north to (3,0)? no.
    // Simplest deterministic conflict: A: 0 -> 3, B: 4 -> 3. Replies:
    // 3 -> 0 goes west along row 0; 3 -> 4: YX south to (3,1) then west.
    // No shared hop. Use A: 0 -> 3 and B: 8 -> 7: reply B 7->8 YX: (3,1)->
    // south (3,2)? dst 8=(0,2): south col3 to (3,2), then west row 2. Still
    // disjoint from row 0. Take A: 0->3 (reply west along row 0) and
    // B: 1->3 (reply 3->1 west along row 0): same direction, same output
    // ports, but B's reply path is a suffix of A's; at router 2, A's reply
    // enters East and exits West; B's reply enters East too — same input,
    // but different *source*? Both replies start at 3: same source, so
    // complete-mode rules allow them. Conflict needs different sources and
    // same output: A: 0->3 (reply from 3 heads west through router 2,
    // entering East, leaving West) and B: 2->14? reply 14->2: YX north
    // along column 2 to router 2, entering South, leaving Local — no.
    // B: 6->1? request 6=(2,1) -> 1=(1,0): XY west to (1,1) then north.
    // Reply 1->6: YX south (1,0)->(1,1), then east to (2,1). At router 5
    // (1,1), reply B enters North, exits East.
    // A: 4->6: request (0,1)->(2,1) east; reply 6->4 enters East at router 5
    // and exits West. Different inputs (N vs E), different outputs (E vs W).
    // Still no conflict!
    //
    // Deterministic conflict at router 5 output West: reply entering North
    // (circuit for request 4->... hmm). Request C: 5->6: reply 6->5 enters
    // router 5 via East, exits Local... Use replies exiting West at router 5:
    // any reply crossing row 1 westwards into router 4: from sources east of
    // x=1 with destination 4=(0,1): requests from 4 to 6 (reply 6->4: enters
    // 5 East, exits West) and from 4 to 9=(1,2): reply 9->4: YX north
    // (1,2)->(1,1)=router 5 entering South, exits West. Same requestor (4)!
    // Keys differ by block; sources differ (6 vs 9): at router 5, circuit 1
    // occupies (in E, out W), circuit 2 wants (in S, out W): output conflict.
    let mut n = net(MechanismConfig::complete());
    let k1 = send_request(&mut n, 4, 6, 0x40);
    assert!(n.has_circuit_origin(NodeId(6), k1));
    // Second request: its circuit must fail at router 5 and be undone.
    n.inject(PacketSpec::new(NodeId(4), NodeId(9), MessageClass::L1Request).with_block(0x80));
    run(&mut n, 100);
    let d = n.take_delivered(NodeId(9));
    assert_eq!(d.len(), 1);
    let h = d[0].circuit.expect("request carried a handle");
    assert!(h.failed, "second circuit must conflict at router 5");
    assert!(!n.has_circuit_origin(
        NodeId(9),
        CircuitKey {
            requestor: NodeId(4),
            block: 0x80
        }
    ));
    // The failed reply travels packet-switched and counts as failed.
    let (_, rode, committed) = send_reply(&mut n, 9, 4, 0x80);
    assert!(!rode && !committed);
    let s = n.stats();
    assert_eq!(s.outcomes.get(&CircuitOutcome::Failed), Some(&1));
    // Both requests come from node 4, so their replies share the final
    // input port at node 4's router: the same-source rule fires there
    // (§4.2), before the downstream output-port conflict is even reached.
    assert!(s.tables.total_failed() >= 1);
    assert!(s.tables.failed_source >= 1);
}

#[test]
fn fragmented_partial_circuit_still_delivers() {
    let mut n = net(MechanismConfig::fragmented());
    let k1 = send_request(&mut n, 4, 6, 0x40);
    let k2 = send_request(&mut n, 4, 9, 0x80);
    assert!(n.has_circuit_origin(NodeId(6), k1));
    assert!(
        n.has_circuit_origin(NodeId(9), k2),
        "fragmented keeps partial prefixes"
    );
    let (_, _, committed) = send_reply(&mut n, 9, 4, 0x80);
    assert!(
        !committed,
        "fragmented never commits (NoAck needs complete)"
    );
    let (lat, rode, _) = send_reply(&mut n, 6, 4, 0x40);
    assert!(rode, "fully reserved fragmented circuit rides");
    assert!(lat < 30);
}

#[test]
fn ideal_mode_builds_conflicting_circuits() {
    let mut n = net(MechanismConfig::ideal());
    let k1 = send_request(&mut n, 4, 6, 0x40);
    let k2 = send_request(&mut n, 4, 9, 0x80);
    assert!(n.has_circuit_origin(NodeId(6), k1));
    assert!(
        n.has_circuit_origin(NodeId(9), k2),
        "ideal never fails reservations"
    );
    let (_, rode1, _) = send_reply(&mut n, 6, 4, 0x40);
    let (_, rode2, _) = send_reply(&mut n, 9, 4, 0x80);
    assert!(rode1 && rode2);
}

#[test]
fn timed_circuit_rides_when_prompt() {
    let mut n = net(MechanismConfig::timed_noack());
    send_request(&mut n, 0, 15, 0x40);
    // Reply sent immediately after request delivery, with the default
    // 7-cycle turnaround the request advertised: the window is met.
    run(&mut n, 7);
    let (_, rode, committed) = send_reply(&mut n, 15, 0, 0x40);
    assert!(
        rode && committed,
        "prompt reply must meet the exact timed window"
    );
    let s = n.stats();
    assert_eq!(s.outcomes.get(&CircuitOutcome::OnCircuit), Some(&1));
}

#[test]
fn timed_circuit_missed_window_is_undone() {
    let mut n = net(MechanismConfig::timed_noack());
    send_request(&mut n, 0, 15, 0x40);
    run(&mut n, 300); // far beyond the reserved slot
    let (_, rode, committed) = send_reply(&mut n, 15, 0, 0x40);
    assert!(!rode && !committed);
    let s = n.stats();
    assert_eq!(s.outcomes.get(&CircuitOutcome::Undone), Some(&1));
}

#[test]
fn slack_tolerates_moderate_delay() {
    // 6-hop path with 4 cycles/hop slack: 24 cycles of tolerance.
    let mut n = net(MechanismConfig::slack(4));
    send_request(&mut n, 0, 15, 0x40);
    run(&mut n, 7 + 15);
    let (_, rode, committed) = send_reply(&mut n, 15, 0, 0x40);
    assert!(
        rode && committed,
        "slack must absorb a 15-cycle turnaround overrun"
    );
}

#[test]
fn timed_windows_free_table_capacity() {
    // After the window passes, the reservation expires and the tables are
    // reusable — one of the scalability arguments of §5.5.
    let mut n = net(MechanismConfig::timed_noack());
    send_request(&mut n, 0, 15, 0x40);
    run(&mut n, 400);
    // Five new circuits through the same column still succeed.
    for (i, block) in [
        (1u16, 0x100u64),
        (2, 0x140),
        (4, 0x180),
        (5, 0x1c0),
        (6, 0x200),
    ] {
        let key = send_request(&mut n, i, 15, block);
        let _ = key;
    }
    let s = n.stats();
    assert_eq!(s.tables.failed_storage, 0);
}

#[test]
fn scrounger_rides_foreign_circuit() {
    let mut n = net8(MechanismConfig::reuse_noack());
    // Build a circuit 63 -> 0 (14 hops).
    send_request(&mut n, 0, 63, 0x40);
    // Scroungers only take circuits that have sat idle for a while
    // (memory-latency transactions; see DESIGN.md §4b).
    run(&mut n, 150);
    // A non-eligible reply 63 -> 1 has no circuit; the circuit to 0 ends
    // 1 hop from node 1, much closer than 13 hops from 63.
    n.inject(PacketSpec::new(NodeId(63), NodeId(1), MessageClass::L1InvAck).with_block(0x999));
    let mut lat = None;
    for _ in 0..400 {
        n.tick();
        let d = n.take_delivered(NodeId(1));
        if !d.is_empty() {
            assert_eq!(d[0].class, MessageClass::L1InvAck);
            lat = Some(d[0].delivered_at - d[0].injected_at);
            break;
        }
    }
    let lat = lat.expect("scrounger must arrive");
    let s = n.stats();
    assert_eq!(s.outcomes.get(&CircuitOutcome::Scrounger), Some(&1));
    // 14 hops on circuit (2/hop) + re-injection + 1 hop packet-switched:
    // must beat the ~75-cycle packet-switched path comfortably.
    assert!(lat < 60, "scrounger latency {lat}");
    // The scrounged circuit was consumed.
    assert!(!n.has_circuit_origin(
        NodeId(63),
        CircuitKey {
            requestor: NodeId(0),
            block: 0x40
        }
    ));
}

#[test]
fn undo_leaves_unrelated_circuits_intact() {
    // Two circuits from the same source (same-source circuits coexist on
    // shared input ports, §4.2); undoing one must not damage the other.
    let mut n = net(MechanismConfig::complete());
    let k1 = send_request(&mut n, 0, 15, 0x40);
    let k2 = send_request(&mut n, 0, 15, 0x80);
    assert!(n.undo_circuit(NodeId(15), k1));
    run(&mut n, 30); // let the undo propagate the whole path
    assert!(!n.has_circuit_origin(NodeId(15), k1));
    assert!(n.has_circuit_origin(NodeId(15), k2));
    let (lat, rode, committed) = send_reply(&mut n, 15, 0, 0x80);
    assert!(rode && committed, "the surviving circuit still works");
    assert!(lat < 25);
}

#[test]
fn noack_elimination_is_counted() {
    let mut n = net(MechanismConfig::complete_noack());
    send_request(&mut n, 0, 15, 0x40);
    let (_, _, committed) = send_reply(&mut n, 15, 0, 0x40);
    assert!(committed);
    // The protocol would skip the L1_DATA_ACK and record it:
    n.record_eliminated_ack();
    let s = n.stats();
    assert_eq!(s.outcomes.get(&CircuitOutcome::Eliminated), Some(&1));
}

#[test]
fn latency_groups_are_tracked() {
    let mut n = net(MechanismConfig::complete());
    send_request(&mut n, 0, 15, 0x40);
    send_reply(&mut n, 15, 0, 0x40);
    n.inject(PacketSpec::new(
        NodeId(3),
        NodeId(12),
        MessageClass::L1InvAck,
    ));
    run(&mut n, 200);
    let s = n.stats();
    assert_eq!(s.network_latency[&MessageGroup::Request].count(), 1);
    assert_eq!(s.network_latency[&MessageGroup::CircuitRep].count(), 1);
    assert_eq!(s.network_latency[&MessageGroup::NoCircuitRep].count(), 1);
    assert!(
        s.network_latency[&MessageGroup::CircuitRep].mean()
            < s.network_latency[&MessageGroup::NoCircuitRep].mean() + 50.0
    );
}

#[test]
fn activity_counters_move() {
    let mut n = net(MechanismConfig::complete());
    send_request(&mut n, 0, 15, 0x40);
    send_reply(&mut n, 15, 0, 0x40);
    let s = n.stats();
    let a = &s.activity;
    assert!(a.buffer_writes > 0);
    assert!(a.xbar_traversals > 0);
    assert!(a.link_flits > 0);
    assert!(
        a.circuit_writes >= 7,
        "one reservation per router on a 6-hop path"
    );
    assert!(a.circuit_lookups > 0);
    assert!(a.vc_allocs > 0 && a.sw_allocs > 0 && a.credits > 0);
}

#[test]
fn borrowing_scrounger_leaves_circuit_for_its_reply() {
    let mut n = net8(MechanismConfig::reuse_borrow_noack());
    send_request(&mut n, 0, 63, 0x40);
    run(&mut n, 150); // pass the scrounge idle-age gate
                      // A scrounger borrows the 63 -> 0 circuit to get near node 1.
    n.inject(PacketSpec::new(NodeId(63), NodeId(1), MessageClass::L1InvAck).with_block(0x999));
    run(&mut n, 120);
    assert_eq!(n.take_delivered(NodeId(1)).len(), 1);
    // The circuit survived the borrow...
    let key = CircuitKey {
        requestor: NodeId(0),
        block: 0x40,
    };
    assert!(n.has_circuit_origin(NodeId(63), key));
    // ...and its own reply still rides it.
    let (lat, rode, committed) = send_reply(&mut n, 63, 0, 0x40);
    assert!(rode && committed, "borrowed circuit still serves its owner");
    assert!(lat < 40);
    let s = n.stats();
    assert_eq!(s.outcomes.get(&CircuitOutcome::Scrounger), Some(&1));
    assert_eq!(s.outcomes.get(&CircuitOutcome::OnCircuit), Some(&1));
}

#[test]
fn undo_racing_a_borrowing_scrounger_is_safe() {
    let mut n = net8(MechanismConfig::reuse_borrow_noack());
    let key = send_request(&mut n, 0, 63, 0x40);
    run(&mut n, 150);
    // Scrounger starts borrowing; the protocol undoes the circuit while
    // the scrounger is still in flight.
    n.inject(PacketSpec::new(NodeId(63), NodeId(1), MessageClass::L1InvAck).with_block(0x999));
    run(&mut n, 3); // a few flits under way
    assert!(n.undo_circuit(NodeId(63), key));
    run(&mut n, 400);
    // The scrounger still arrives, the circuit is gone, and nothing wedges.
    assert_eq!(n.take_delivered(NodeId(1)).len(), 1);
    assert!(!n.has_circuit_origin(NodeId(63), key));
    let (_, rode, committed) = send_reply(&mut n, 63, 0, 0x40);
    assert!(!rode && !committed, "the undone circuit is really gone");
    assert!(n.is_quiescent());
}
