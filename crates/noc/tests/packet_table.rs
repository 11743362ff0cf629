//! The packet table (DESIGN.md §9 "One record per packet"): every flit is
//! a handle into it, a record is closed when its packet is delivered or
//! abandoned and recycled once none of its flits is left in the fabric.
//! These runs abandon packets *while their body flits are still in
//! flight* — tile 5 has every link dead, so each copy of a packet to or
//! from it is routed onto a dead link until its retry budget is spent —
//! and check, after every
//! cycle, the table's laws (`Network::check_index`: every handle anywhere
//! names a held record, each record's in-fabric count is a recount) and
//! that the open records are exactly the packets injected and not yet
//! delivered or abandoned. At quiescence the table is empty and its
//! high-water mark is far below the packets injected (slots are reused);
//! in debug builds every skipped router and NI is held to the two
//! worklist laws (DESIGN.md §9) all the while. Every row runs
//! a second time with a link dying under load on top: a link dying under
//! a circuit stream can strand its body (ROADMAP item 2, wedge entrance
//! 1), so those runs have a fixed length instead of a drain.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{DeadLinkEvent, FaultConfig, FaultStats, Network, NocConfig, PacketSpec};
use rcsim_trace::TraceSink;

const LOAD_CYCLES: u64 = 1_500;
const DRAIN_LIMIT: u64 = 40_000;
/// Length of the runs with every fault class on.
const RUN_CYCLES: u64 = 2_400;

/// Tile 5 cut off from cycle 0 (its four links dead, so nothing streams
/// across them when they die) and, with `all` fault classes on, the 0–1
/// link (router 1 sits east of router 0) dead from cycle 480, under load.
fn faults(all: bool) -> FaultConfig {
    let mut f = FaultConfig::none();
    for b in [1, 4, 6, 9] {
        f.dead_links.push(DeadLinkEvent {
            a: NodeId(5),
            b: NodeId(b),
            at: 0,
        });
    }
    if all {
        f.dead_links.push(DeadLinkEvent {
            a: NodeId(0),
            b: NodeId(1),
            at: 480,
        });
    }
    f
}

/// What one run leaves behind.
struct Outcome {
    faults: FaultStats,
    injected: u64,
    abandoned: u64,
    high_water: usize,
    /// Cycles at which a closed record was still held for its flits.
    draining_cycles: u64,
}

/// Request→reply echo with whole cache lines both ways (five-flit
/// packets, so a lost head leaves a body behind) for [`LOAD_CYCLES`],
/// then a drain to quiescence — or, with `all` fault classes on, whatever
/// still moves until [`RUN_CYCLES`].
fn run(topology: Topology, mechanism: MechanismConfig, all: bool, label: &str) -> Outcome {
    let cfg = NocConfig::paper_baseline(topology, mechanism);
    let mut net = Network::with_faults(cfg, faults(all)).expect("valid configuration");
    let sink = TraceSink::ring(1 << 21);
    net.set_trace_sink(sink.clone());
    let tiles = topology.nodes() as u16;
    let mut rng = StdRng::seed_from_u64(0x7AB1_E011);
    let (mut block, mut injected, mut delivered) = (0u64, 0u64, 0u64);
    let mut draining_cycles = 0;
    while net.now() < LOAD_CYCLES || !(net.is_quiescent() || all) || net.now() < RUN_CYCLES {
        assert!(
            all || (net.now() < DRAIN_LIMIT && !net.stalled()),
            "{label}: did not drain\n{}{}",
            net.health(),
            net.debug_dump()
        );
        if net.now() < LOAD_CYCLES {
            for src in 0..tiles {
                if rng.gen_bool(0.02) {
                    let dst = (src + rng.gen_range(1..tiles)) % tiles;
                    block += 64;
                    injected += 1;
                    net.inject(
                        PacketSpec::new(NodeId(src), NodeId(dst), MessageClass::WbData)
                            .with_block(block),
                    );
                }
            }
        }
        net.tick();
        for (node, d) in net.take_all_delivered() {
            delivered += 1;
            if d.class == MessageClass::WbData {
                let key = CircuitKey {
                    requestor: d.src,
                    block: d.block,
                };
                injected += 1;
                net.inject(
                    PacketSpec::new(node, d.src, MessageClass::L2Reply)
                        .with_block(d.block)
                        .with_circuit_key(key),
                );
            }
        }
        net.check_index()
            .unwrap_or_else(|e| panic!("{label}: cycle {}: {e}", net.now()));
        let (open, held, _) = net.packet_records();
        let abandoned = net.fault_stats().packets_abandoned;
        assert_eq!(
            open as u64,
            injected - delivered - abandoned,
            "{label}: cycle {}: open records",
            net.now()
        );
        draining_cycles += u64::from(held > open);
    }
    assert_eq!(sink.dropped(), 0, "ring overflow would hide trace events");
    let (open, held, high_water) = net.packet_records();
    assert!(
        all || (open, held) == (0, 0),
        "{label}: {open} open of {held} records left at quiescence"
    );
    Outcome {
        faults: net.fault_stats(),
        injected,
        abandoned: net.fault_stats().packets_abandoned,
        high_water,
        draining_cycles,
    }
}

fn sweep(topology: Topology, fabric: &str) {
    for mechanism in [
        MechanismConfig::baseline(),
        MechanismConfig::complete(),
        MechanismConfig::fragmented(),
    ] {
        for all in [false, true] {
            let label = format!("{fabric} / {} / all faults {all}", mechanism.label());
            let row = run(topology, mechanism, all, &label);
            assert!(
                row.abandoned > 0 && row.draining_cycles > 0,
                "{label}: packets must be abandoned with flits still in flight: {:?}",
                row.faults
            );
            let f = &row.faults;
            assert!(
                f.dead_flits_lost > 0 && f.retransmissions > 0 && f.packets_rerouted > 0,
                "{label}: every fault class must fire: {f:?}"
            );
            assert!(
                // (A wedged fabric piles packets up: only drained rows count.)
                row.injected > 400 && (all || (row.high_water as u64) < row.injected / 4),
                "{label}: {} packets in {} slots: slots must be reused",
                row.injected,
                row.high_water
            );
        }
    }
}

#[test]
fn records_recycle_under_faults_on_a_mesh() {
    sweep(Topology::mesh(4, 4).expect("valid"), "mesh 4x4");
}
