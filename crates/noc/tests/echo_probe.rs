//! Sustained closed-loop request/reply echo under Complete circuits.
//!
//! These configurations wedge a VC allocator that considers only the
//! oldest waiting VC of the winning input port: under sustained
//! bidirectional load the oldest VC can be unallocatable (its VN's
//! output VCs all draining) and block younger VCs forever, closing a
//! request/reply credit cycle into a hard deadlock within a few hundred
//! cycles. `Router::stage_va` walks the port's waiting VCs in age order
//! instead; every configuration below must drain to quiescence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, TopologySpec};
use rcsim_noc::{Network, NocConfig, PacketSpec};

/// Closed-loop echo: every node keeps at most `window` requests
/// outstanding; delivered requests bounce back as circuit-riding replies.
fn drive(cores: u16, rate: f64, window: u32, cycles: u64, seed: u64) {
    let mesh = TopologySpec::Mesh.build(cores).unwrap();
    let cfg = NocConfig::paper_baseline(mesh, MechanismConfig::complete());
    let mut net = Network::new(cfg).unwrap();
    let n = mesh.nodes() as u16;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outstanding = vec![0u32; n as usize];
    let mut block = 0u64;
    let echo = |net: &mut Network, outstanding: &mut [u32]| {
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
            } else {
                outstanding[node.0 as usize] -= 1;
            }
        }
    };
    for _ in 0..cycles {
        for s in 0..n {
            if outstanding[s as usize] < window && rng.gen_bool(rate) {
                let dst = loop {
                    let d = NodeId(rng.gen_range(0..n));
                    if d != NodeId(s) {
                        break d;
                    }
                };
                block += 64;
                net.inject(
                    PacketSpec::new(NodeId(s), dst, MessageClass::L1Request).with_block(block),
                );
                outstanding[s as usize] += 1;
            }
        }
        net.tick();
        echo(&mut net, &mut outstanding);
    }
    let deadline = net.now() + 300_000;
    while !net.is_quiescent() && net.now() < deadline {
        net.tick();
        echo(&mut net, &mut outstanding);
    }
    assert!(
        net.is_quiescent(),
        "wedged: cores={cores} rate={rate} window={window} seed={seed}\n{}\n{}",
        net.health(),
        net.debug_dump()
    );
    assert!(outstanding.iter().all(|&o| o == 0), "lost replies");
}

#[test]
fn hol_relief_drains_sustained_complete_echo() {
    for (cores, rate, window) in [(16, 0.2, 8), (16, 0.4, 8), (16, 0.4, 2), (64, 0.2, 8)] {
        for seed in 0..4u64 {
            drive(cores, rate, window, 600, seed);
        }
    }
}
