//! The router's occupancy index (DESIGN.md §13) is maintained
//! incrementally at the VC state transitions and retry-queue push/pop
//! sites; these runs recompute it from scratch after *every* cycle —
//! also in release builds, where the per-tick `debug_assert!` is compiled
//! out — across mechanisms and fault schedules, including one
//! restore from the network's own snapshot mid-run (the rebuild path).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{DeadLinkEvent, FaultConfig, Network, NocConfig, PacketSpec};

const LOAD_CYCLES: u64 = 3_000;
const RESTORE_AT: u64 = 1_111;
const DRAIN_LIMIT: u64 = 30_000;

/// Request/reply echo at a load that keeps several VCs per router busy
/// (so arbitration, credit stalls and bypass retries all occur), with the
/// index checked after every tick.
///
/// A link dying under this load can cut a circuit stream in two and wedge
/// the fabric (SlackDelay on the mesh — so does the pre-index router,
/// cycle for cycle; ROADMAP item 2, wedge entrance 1); the index must
/// track a wedged fabric too, so those runs stop at the watchdog instead
/// of draining. A fault-free run must drain.
fn drive(topology: Topology, mechanism: MechanismConfig, faults: FaultConfig, label: &str) {
    let must_drain = faults.dead_links.is_empty();
    let cfg = NocConfig::paper_baseline(topology, mechanism);
    let mut net = Network::with_faults(cfg, faults).expect("valid configuration");
    let tiles = topology.nodes() as u16;
    let mut rng = StdRng::seed_from_u64(0x0CC0_1DE5);
    let mut block = 0u64;
    let mut cycle = 0u64;
    while cycle < LOAD_CYCLES || !(net.is_quiescent() || net.stalled() || cycle == DRAIN_LIMIT) {
        if cycle < LOAD_CYCLES {
            for src in 0..tiles {
                if rng.gen_bool(0.04) {
                    let dst = (src + rng.gen_range(1..tiles)) % tiles;
                    block += 64;
                    net.inject(
                        PacketSpec::new(NodeId(src), NodeId(dst), MessageClass::L1Request)
                            .with_block(block),
                    );
                }
            }
        }
        if cycle == RESTORE_AT {
            let snap = net.snapshot();
            net.restore(&snap);
            net.check_index()
                .unwrap_or_else(|e| panic!("{label}: after restore: {e}"));
        }
        net.tick();
        cycle += 1;
        net.check_index()
            .unwrap_or_else(|e| panic!("{label}: cycle {cycle}: {e}"));
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
    assert!(
        net.is_quiescent() || !must_drain,
        "{label}: did not drain\n{}{}",
        net.health(),
        net.debug_dump()
    );
}

fn fault_schedules() -> [(&'static str, FaultConfig); 2] {
    // Router 1 sits east of router 0.
    let mut dead = FaultConfig::none();
    dead.dead_links.push(DeadLinkEvent {
        a: NodeId(0),
        b: NodeId(1),
        at: 900,
    });
    [("no faults", FaultConfig::none()), ("dead link", dead)]
}

fn sweep(topology: Topology, fabric: &str) {
    for mechanism in [
        MechanismConfig::baseline(),
        MechanismConfig::fragmented(),
        MechanismConfig::complete(),
        MechanismConfig::ideal(),
        MechanismConfig::slack_delay(1),
    ] {
        for (schedule, faults) in fault_schedules() {
            let label = format!("{fabric} / {} / {schedule}", mechanism.label());
            drive(topology, mechanism, faults, &label);
        }
    }
}

#[test]
fn index_tracks_vc_states_on_a_mesh() {
    sweep(Topology::mesh(4, 4).expect("valid"), "mesh 4x4");
}

#[test]
fn index_tracks_vc_states_on_a_torus() {
    sweep(Topology::torus(4, 4).expect("valid"), "torus 4x4");
}
