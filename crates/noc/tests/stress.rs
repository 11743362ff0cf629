//! Conservation stress tests: under randomized request/reply load, every
//! configuration must deliver every packet exactly once and drain.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, TopologySpec};
use rcsim_noc::{Network, NocConfig, PacketSpec};
use std::collections::HashMap;

/// Drives a request/reply workload: requests 0-N fan out, each delivered
/// request triggers its data reply (with circuit key), each delivered data
/// reply triggers an ack unless the reply rode a circuit under NoAck.
fn drive(mechanism: MechanismConfig, cores: u16, requests: usize, seed: u64) {
    let mesh = TopologySpec::Mesh.build(cores).unwrap();
    let mut net = Network::new(NocConfig::paper_baseline(mesh, mechanism)).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let n = mesh.nodes() as u16;

    let mut to_send: Vec<PacketSpec> = (0..requests)
        .map(|i| {
            let src = NodeId(rng.gen_range(0..n));
            let dst = loop {
                let d = NodeId(rng.gen_range(0..n));
                if d != src {
                    break d;
                }
            };
            PacketSpec::new(src, dst, MessageClass::L1Request).with_block((i as u64 + 1) * 64)
        })
        .collect();

    let mut outstanding: HashMap<u64, ()> = HashMap::new();
    let mut completed = 0usize;
    let mut acks_expected = 0usize;
    let mut acks_done = 0usize;

    let mut cycle = 0u64;
    while (completed < requests || acks_done < acks_expected) && cycle < 200_000 {
        // Inject a couple of requests per cycle.
        for _ in 0..2 {
            if let Some(spec) = to_send.pop() {
                outstanding.insert(spec.block, ());
                net.inject(spec);
            }
        }
        net.tick();
        cycle += 1;
        for (node, d) in net.take_all_delivered() {
            match d.class {
                MessageClass::L1Request => {
                    // Respond with the data reply, riding the circuit when
                    // available.
                    let key = CircuitKey {
                        requestor: d.src,
                        block: d.block,
                    };
                    let (_, committed) = net.inject(
                        PacketSpec::new(node, d.src, MessageClass::L2Reply)
                            .with_block(d.block)
                            .with_circuit_key(key),
                    );
                    if committed && mechanism.eliminate_acks {
                        net.record_eliminated_ack();
                    } else {
                        acks_expected += 1;
                    }
                }
                MessageClass::L2Reply => {
                    assert!(
                        outstanding.remove(&d.block).is_some(),
                        "duplicate or unknown reply for block {:#x}",
                        d.block
                    );
                    completed += 1;
                    // The requestor acknowledges unless the ack was
                    // eliminated (decided at reply injection).
                    if !(mechanism.eliminate_acks && d.rode_circuit) {
                        net.inject(
                            PacketSpec::new(node, d.src, MessageClass::L1DataAck)
                                .with_block(d.block),
                        );
                    }
                }
                MessageClass::L1DataAck => {
                    acks_done += 1;
                }
                other => panic!("unexpected class {other}"),
            }
        }
    }

    assert_eq!(
        completed,
        requests,
        "{} lost replies after {cycle} cycles ({})",
        requests - completed,
        mechanism.label()
    );
    assert_eq!(acks_done, acks_expected, "{}", mechanism.label());

    // Let everything drain.
    for _ in 0..5_000 {
        net.tick();
    }
    let s = net.stats();
    assert_eq!(
        s.total_injected(),
        s.total_delivered(),
        "undelivered packets under {}",
        mechanism.label()
    );
    assert!(
        net.is_quiescent(),
        "network not quiescent under {}",
        mechanism.label()
    );
}

#[test]
fn baseline_conserves_packets() {
    drive(MechanismConfig::baseline(), 16, 300, 11);
}

#[test]
fn fragmented_conserves_packets() {
    drive(MechanismConfig::fragmented(), 16, 300, 12);
}

#[test]
fn complete_conserves_packets() {
    drive(MechanismConfig::complete(), 16, 300, 13);
}

#[test]
fn complete_noack_conserves_packets() {
    drive(MechanismConfig::complete_noack(), 16, 300, 14);
}

#[test]
fn reuse_noack_conserves_packets() {
    drive(MechanismConfig::reuse_noack(), 16, 300, 15);
}

#[test]
fn reuse_borrow_conserves_packets() {
    drive(MechanismConfig::reuse_borrow_noack(), 16, 300, 23);
}

#[test]
fn timed_noack_conserves_packets() {
    drive(MechanismConfig::timed_noack(), 16, 300, 16);
}

#[test]
fn slack_delay_conserves_packets() {
    drive(MechanismConfig::slack_delay(1), 16, 300, 17);
}

#[test]
fn postponed_conserves_packets() {
    drive(MechanismConfig::postponed(1), 16, 300, 18);
}

#[test]
fn ideal_conserves_packets() {
    drive(MechanismConfig::ideal(), 16, 300, 19);
}

#[test]
fn complete_noack_conserves_packets_64_cores() {
    drive(MechanismConfig::complete_noack(), 64, 500, 20);
}

#[test]
fn slack_delay_conserves_packets_64_cores() {
    drive(MechanismConfig::slack_delay(1), 64, 500, 21);
}
