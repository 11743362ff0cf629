//! The link registers (DESIGN.md §9) and the state/scratch split around
//! them (§15), seen from outside the crate: a snapshot holds state only,
//! so the same mid-run network serializes to the same bytes whichever
//! kernel produced it, and a network restored from it — parked flits,
//! full registers, packet table and all — continues exactly like the
//! original. Derived indices, wake slots and the packet table's laws are
//! re-checked after every cycle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{KernelMode, MechanismConfig, MessageClass, NodeId, Topology, PORT_WEST};
use rcsim_noc::{FaultConfig, Network, NocConfig, PacketSpec, StuckPortEvent};

/// A 16-core mesh whose router 5 has its west input stuck over cycles
/// 300..420, so flits are parked on a link while the snapshots are taken.
fn network(mechanism: MechanismConfig, kernel: KernelMode) -> Network {
    let mut faults = FaultConfig::none();
    faults.stuck_ports.push(StuckPortEvent {
        node: NodeId(5),
        port: PORT_WEST,
        at: 300,
        duration: 120,
    });
    let cfg = NocConfig::paper_baseline(Topology::mesh(4, 4).expect("valid"), mechanism);
    let mut net = Network::with_faults(cfg, faults).expect("valid configuration");
    net.set_kernel(kernel);
    net
}

/// One cycle of request→reply echo traffic (replies ride their circuits),
/// light enough that the event kernel skips most router ticks.
fn step(net: &mut Network, rng: &mut StdRng, block: &mut u64) {
    if net.now() < 1_500 {
        for src in 0..16u16 {
            if rng.gen_bool(0.02) {
                let dst = (src + rng.gen_range(1..16u16)) % 16;
                *block += 64;
                net.inject(
                    PacketSpec::new(NodeId(src), NodeId(dst), MessageClass::L1Request)
                        .with_block(*block),
                );
            }
        }
    }
    net.tick();
    net.check_index()
        .unwrap_or_else(|e| panic!("cycle {}: {e}", net.now()));
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

fn snapshot_json(net: &Network) -> String {
    serde_json::to_string(&net.snapshot()).expect("snapshot serializes")
}

/// Runs the traffic under `kernel`, returning the snapshot JSON at each
/// of `at` and the final statistics.
fn run(mechanism: MechanismConfig, kernel: KernelMode, at: &[u64]) -> Vec<String> {
    let mut net = network(mechanism, kernel);
    let mut rng = StdRng::seed_from_u64(0xCA1E_17DA);
    let mut block = 0;
    let mut out = Vec::new();
    while net.now() < 1_500 || !net.is_quiescent() {
        assert!(net.now() < 20_000, "did not drain\n{}", net.health());
        if at.contains(&net.now()) {
            assert!(!net.is_quiescent(), "snapshot points must be mid-traffic");
            out.push(snapshot_json(&net));
        }
        step(&mut net, &mut rng, &mut block);
    }
    out.push(serde_json::to_string(&net.stats()).expect("stats serialize"));
    out
}

/// Mid-traffic, inside the stuck-port window (flits parked) and after it.
const SNAPSHOT_AT: [u64; 3] = [250, 380, 900];

#[test]
fn dense_and_event_snapshots_are_byte_identical() {
    for mechanism in [
        MechanismConfig::baseline(),
        MechanismConfig::complete(),
        MechanismConfig::slack_delay(1),
    ] {
        let dense = run(mechanism, KernelMode::Dense, &SNAPSHOT_AT);
        let event = run(mechanism, KernelMode::Event, &SNAPSHOT_AT);
        assert_eq!(dense.len(), SNAPSHOT_AT.len() + 1);
        for (i, at) in SNAPSHOT_AT.iter().enumerate() {
            let label = mechanism.label();
            assert!(dense[i] == event[i], "{label}: dense vs event at {at}");
        }
        assert_eq!(dense.last(), event.last());
    }
}

#[test]
fn restore_with_flits_parked_on_a_link_continues_identically() {
    let mechanism = MechanismConfig::complete();
    let mut original = network(mechanism, KernelMode::Event);
    let mut rng = StdRng::seed_from_u64(0xCA1E_17DA);
    let mut block = 0;
    while original.now() < 380 {
        step(&mut original, &mut rng, &mut block);
    }
    let json = snapshot_json(&original);
    assert!(
        json.contains("\"held\":[["),
        "the stuck port must have parked a flit by cycle 380"
    );
    let snap = serde_json::from_str(&json).expect("snapshot parses");
    let mut restored = network(mechanism, KernelMode::Event);
    restored.restore(&snap);
    assert_eq!(snapshot_json(&restored), json);
    let (mut rng_b, mut block_b) = (rng.clone(), block);
    while original.now() < 1_500 || !original.is_quiescent() {
        assert!(original.now() < 20_000, "did not drain");
        step(&mut original, &mut rng, &mut block);
        step(&mut restored, &mut rng_b, &mut block_b);
        if original.now().is_multiple_of(50) {
            assert_eq!(snapshot_json(&original), snapshot_json(&restored));
        }
    }
    assert!(restored.is_quiescent());
    assert_eq!(snapshot_json(&original), snapshot_json(&restored));
}
