//! Anatomy of one reactive circuit: follow a single request across a 4×4
//! mesh, watch the reservation build, then ride the reply back over it.
//!
//! ```text
//! cargo run --release --example circuit_anatomy
//! ```

use reactive_circuits::core::circuit::CircuitKey;
use reactive_circuits::core::routing::Routing;
use reactive_circuits::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mesh = Topology::mesh(4, 4)?;
    let mut net = Network::new(NocConfig::paper_baseline(mesh, MechanismConfig::complete()))?;
    let (src, dst, block) = (NodeId(0), NodeId(15), 0x40u64);

    println!("A request travels {src} → {dst} (XY) and reserves a circuit for its reply:\n");
    let fwd = mesh.route_path(src, dst, Routing::Xy);
    let back = mesh.route_path(dst, src, Routing::Yx);
    println!(
        "  request path (XY): {:?}",
        fwd.iter().map(|n| n.0).collect::<Vec<_>>()
    );
    println!(
        "  reply path   (YX): {:?}",
        back.iter().map(|n| n.0).collect::<Vec<_>>()
    );
    println!("  → same routers, opposite order: each hop of the request writes the");
    println!("    reply's (input port, output port) into that router's circuit table.\n");

    net.inject(PacketSpec::new(src, dst, MessageClass::L1Request).with_block(block));
    let mut delivered_at = 0;
    for _ in 0..200 {
        net.tick();
        if let Some(d) = net.take_delivered(dst).pop() {
            delivered_at = d.delivered_at;
            let handle = d.circuit.expect("request built a circuit");
            println!(
                "cycle {:>3}: request delivered; circuit reserved at {} routers ({}).",
                d.delivered_at,
                handle.built_hops,
                if handle.fully_built() {
                    "complete"
                } else {
                    "partial"
                }
            );
            break;
        }
    }

    let key = CircuitKey {
        requestor: src,
        block,
    };
    assert!(net.has_circuit_origin(dst, key));
    println!(
        "cycle {:>3}: {dst}'s network interface holds the circuit origin.",
        net.now()
    );

    // The L2 would take 7 cycles; then the 5-flit data reply rides.
    for _ in 0..7 {
        net.tick();
    }
    let (_, committed) = net.inject(
        PacketSpec::new(dst, src, MessageClass::L2Reply)
            .with_block(block)
            .with_circuit_key(key),
    );
    println!(
        "cycle {:>3}: reply injected; committed to its circuit: {committed}.",
        net.now()
    );
    for _ in 0..200 {
        net.tick();
        if let Some(d) = net.take_delivered(src).pop() {
            println!(
                "cycle {:>3}: reply delivered after {} cycles in the network",
                d.delivered_at,
                d.delivered_at - d.injected_at
            );
            println!(
                "           ({} hops × 2 cycles/hop + ejection — vs ~5 cycles/hop packet-switched).",
                mesh.distance(src, dst)
            );
            break;
        }
    }
    let _ = delivered_at;

    let stats = net.stats();
    println!(
        "\ncircuit-table writes: {}, lookups: {}, replies on circuit: {}",
        stats.activity.circuit_writes,
        stats.activity.circuit_lookups,
        stats.outcomes.get(&CircuitOutcome::OnCircuit).unwrap_or(&0)
    );
    Ok(())
}
