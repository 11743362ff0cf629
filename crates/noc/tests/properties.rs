//! Property-based tests of the network: conservation, ordering and
//! latency lower bounds under randomized traffic, for every mechanism.

use proptest::prelude::*;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{DeadLinkEvent, FaultConfig, Network, NocConfig, PacketSpec};
use std::collections::HashMap;

fn any_mechanism() -> impl Strategy<Value = MechanismConfig> {
    prop_oneof![
        Just(MechanismConfig::baseline()),
        Just(MechanismConfig::fragmented()),
        Just(MechanismConfig::complete()),
        Just(MechanismConfig::complete_noack()),
        Just(MechanismConfig::reuse_noack()),
        Just(MechanismConfig::timed_noack()),
        Just(MechanismConfig::slack_delay(1)),
        Just(MechanismConfig::postponed(1)),
        Just(MechanismConfig::ideal()),
    ]
}

fn any_class() -> impl Strategy<Value = MessageClass> {
    prop_oneof![
        Just(MessageClass::L1Request),
        Just(MessageClass::WbData),
        Just(MessageClass::L2Reply),
        Just(MessageClass::L1DataAck),
        Just(MessageClass::L1InvAck),
        Just(MessageClass::MemoryReply),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every injected packet is delivered exactly once, to the right
    /// node, regardless of mechanism, class mix or injection pattern.
    #[test]
    fn packets_conserved(
        mechanism in any_mechanism(),
        packets in prop::collection::vec((0u16..16, 0u16..16, any_class(), 0u64..64), 1..80),
    ) {
        let mesh = Topology::mesh(4, 4).expect("valid");
        let mut net = Network::new(NocConfig::paper_baseline(mesh, mechanism)).expect("valid");
        let mut expected: HashMap<(u16, u64), u32> = HashMap::new();
        for (i, (src, dst, class, stagger)) in packets.iter().enumerate() {
            if src == dst {
                continue;
            }
            // Stagger injections across cycles.
            for _ in 0..(*stagger % 4) {
                net.tick();
            }
            net.inject(
                PacketSpec::new(NodeId(*src), NodeId(*dst), *class)
                    .with_block((i as u64 + 1) * 64)
                    .with_token(i as u64),
            );
            *expected.entry((*dst, i as u64)).or_insert(0) += 1;
        }
        for _ in 0..20_000 {
            net.tick();
            if net.is_quiescent() {
                break;
            }
        }
        prop_assert!(net.is_quiescent(), "network failed to drain under {}", mechanism.label());
        let mut got: HashMap<(u16, u64), u32> = HashMap::new();
        for d in 0..16u16 {
            for p in net.take_delivered(NodeId(d)) {
                *got.entry((d, p.token)).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(got, expected);
    }

    /// Conservation holds with the fault layer active — random drops and,
    /// maybe, one of the twelve horizontal links dead from the start:
    /// every injected packet is either delivered (possibly after
    /// retransmission or on a detour) or accounted as
    /// dropped-after-retries — nothing vanishes silently.
    #[test]
    fn packets_conserved_under_faults(
        mechanism in any_mechanism(),
        drop_rate in 0.0f64..0.15,
        dead_link in 0u16..16,
        fault_seed in 0u64..1_000,
        packets in prop::collection::vec((0u16..16, 0u16..16, any_class(), 0u64..64), 1..60),
    ) {
        let mesh = Topology::mesh(4, 4).expect("valid");
        // 12..16: no dead link.
        let a = (dead_link < 12).then_some(dead_link / 3 * 4 + dead_link % 3);
        let faults = FaultConfig {
            link_drop_rate: drop_rate,
            seed: fault_seed,
            dead_links: a.map(|a| DeadLinkEvent { a: NodeId(a), b: NodeId(a + 1), at: 0 })
                .into_iter()
                .collect(),
            ..FaultConfig::none()
        };
        let mut net = Network::with_faults(
            NocConfig::paper_baseline(mesh, mechanism), faults,
        ).expect("valid");
        let mut expected = 0u64;
        for (i, (src, dst, class, stagger)) in packets.iter().enumerate() {
            if src == dst {
                continue;
            }
            for _ in 0..(*stagger % 4) {
                net.tick();
            }
            net.inject(
                PacketSpec::new(NodeId(*src), NodeId(*dst), *class)
                    .with_block((i as u64 + 1) * 64)
                    .with_token(i as u64),
            );
            expected += 1;
        }
        for _ in 0..40_000 {
            net.tick();
            if net.is_quiescent() {
                break;
            }
        }
        prop_assert!(
            net.is_quiescent(),
            "faulty network failed to drain under {}", mechanism.label()
        );
        let s = net.stats();
        let delivered: u64 = (0..16u16)
            .map(|d| net.take_delivered(NodeId(d)).len() as u64)
            .sum();
        prop_assert_eq!(s.total_injected(), expected);
        prop_assert_eq!(
            s.total_injected(),
            delivered + s.dropped_packets,
            "injected must equal delivered + dropped-after-retries ({:?})",
            net.fault_stats()
        );
    }

    /// Network latency never beats the physical lower bound:
    /// 2 cycles/hop (circuit speed) plus injection+ejection.
    #[test]
    fn latency_at_least_circuit_speed(
        mechanism in any_mechanism(),
        src in 0u16..16,
        dst in 0u16..16,
    ) {
        prop_assume!(src != dst);
        let mesh = Topology::mesh(4, 4).expect("valid");
        let mut net = Network::new(NocConfig::paper_baseline(mesh, mechanism)).expect("valid");
        net.inject(
            PacketSpec::new(NodeId(src), NodeId(dst), MessageClass::L1Request).with_block(64),
        );
        let mut lat = None;
        for _ in 0..500 {
            net.tick();
            if let Some(d) = net.take_delivered(NodeId(dst)).pop() {
                lat = Some(d.delivered_at - d.injected_at);
                break;
            }
        }
        let lat = lat.expect("delivered");
        let hops = mesh.distance(NodeId(src), NodeId(dst)) as u64;
        prop_assert!(lat >= 2 * hops, "{lat} cycles over {hops} hops is faster than light");
    }

    /// Multi-flit packets arrive whole and in order (flit count checked by
    /// the NI assembly assertions; this exercises them broadly).
    #[test]
    fn wormhole_streams_survive_congestion(
        mechanism in any_mechanism(),
        senders in prop::collection::vec(0u16..16, 2..10),
    ) {
        let mesh = Topology::mesh(4, 4).expect("valid");
        let mut net = Network::new(NocConfig::paper_baseline(mesh, mechanism)).expect("valid");
        // Everyone streams a 5-flit message to node 0: head-of-line mess.
        let mut n = 0;
        for (i, s) in senders.iter().enumerate() {
            if *s != 0 {
                net.inject(
                    PacketSpec::new(NodeId(*s), NodeId(0), MessageClass::L2Reply)
                        .with_block((i as u64 + 1) * 64),
                );
                n += 1;
            }
        }
        for _ in 0..5_000 {
            net.tick();
        }
        prop_assert_eq!(net.take_delivered(NodeId(0)).len(), n);
    }
}
