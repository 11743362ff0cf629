//! The link registers (DESIGN.md §9) and the state/scratch split around
//! them (§13), seen from outside the crate: a snapshot holds state only,
//! so a network restored from one taken mid-traffic — full registers,
//! packet table and all — continues exactly like the original,
//! its rebuilt worklist keeping the two laws in debug builds. Derived
//! indices, wake slots and the packet table's laws are re-checked after
//! every cycle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{Network, NocConfig, PacketSpec};

/// A 16-core mesh.
fn network(mechanism: MechanismConfig) -> Network {
    let cfg = NocConfig::paper_baseline(Topology::mesh(4, 4).expect("valid"), mechanism);
    Network::new(cfg).expect("valid configuration")
}

/// One cycle of request→reply echo traffic (replies ride their circuits),
/// light enough that the worklist skips most router ticks.
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

/// `true` when a calendar cell of the snapshot `json` holds a message: one
/// of its `masks` words is not zero.
fn registers_full(json: &str) -> bool {
    let masks = json.split("\"masks\":[").skip(1);
    masks
        .flat_map(|m| m.split(']').next())
        .any(|m| m.split(',').any(|w| w != "0"))
}

#[test]
fn restore_with_flits_on_the_links_continues_identically() {
    for mechanism in [
        MechanismConfig::baseline(),
        MechanismConfig::complete(),
        MechanismConfig::slack_delay(1),
    ] {
        let label = mechanism.label();
        let mut original = network(mechanism);
        let mut rng = StdRng::seed_from_u64(0xCA1E_17DA);
        let mut block = 0;
        let mut json = snapshot_json(&original);
        while original.now() < 380 || !registers_full(&json) {
            assert!(original.now() < 1_500, "{label}: the links stayed empty");
            step(&mut original, &mut rng, &mut block);
            json = snapshot_json(&original);
        }
        let snap = serde_json::from_str(&json).expect("snapshot parses");
        let mut restored = network(mechanism);
        restored.restore(&snap);
        assert_eq!(snapshot_json(&restored), json);
        let (mut rng_b, mut block_b) = (rng.clone(), block);
        while original.now() < 1_500 || !original.is_quiescent() {
            assert!(original.now() < 20_000, "{label}: did not drain");
            step(&mut original, &mut rng, &mut block);
            step(&mut restored, &mut rng_b, &mut block_b);
            if original.now().is_multiple_of(50) {
                assert!(
                    snapshot_json(&original) == snapshot_json(&restored),
                    "{label}"
                );
            }
        }
        assert!(restored.is_quiescent());
        assert!(
            snapshot_json(&original) == snapshot_json(&restored),
            "{label}"
        );
    }
}
