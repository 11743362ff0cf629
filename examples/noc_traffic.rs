//! Network-only view: drive the NoC with synthetic request/reply traffic
//! at increasing injection rates and watch where complete circuits stop
//! helping (the congestion-threshold discussion of §5.5).
//!
//! ```text
//! cargo run --release --example noc_traffic
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reactive_circuits::core::circuit::CircuitKey;
use reactive_circuits::prelude::*;

/// Runs request→reply traffic at `rate` packets/node/cycle; returns the
/// mean network latency of the circuit-eligible replies.
fn reply_latency(mechanism: MechanismConfig, rate: f64, seed: u64) -> f64 {
    let mesh = Topology::mesh(8, 8).expect("valid mesh");
    let mut net = Network::new(NocConfig::paper_baseline(mesh, mechanism)).expect("valid config");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = mesh.nodes() as u16;
    let mut block = 0u64;
    for _ in 0..6_000 {
        for s in 0..n {
            if rng.gen_bool(rate) {
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
    }
    let stats = net.stats();
    stats
        .network_latency
        .get(&MessageGroup::CircuitRep)
        .map_or(0.0, |a| a.mean())
}

fn main() {
    println!("Reply latency vs injection rate — 8x8 mesh, request/reply traffic\n");
    println!(
        "{:>12} {:>12} {:>12} {:>10}",
        "rate", "Baseline", "Complete", "gain"
    );
    for rate in [0.002, 0.005, 0.01, 0.02, 0.04, 0.08] {
        let base = reply_latency(MechanismConfig::baseline(), rate, 42);
        let comp = reply_latency(MechanismConfig::complete(), rate, 42);
        println!(
            "{:>12.3} {:>12.1} {:>12.1} {:>9.1}%",
            rate,
            base,
            comp,
            100.0 * (base - comp) / base
        );
    }
    println!("\nAs the load rises, conflicts make complete circuits harder to");
    println!("build and the latency gain shrinks — the paper's §5.5 threshold.");
}
