//! The packet table (DESIGN.md §9 "One record per packet"): every flit is
//! a handle into it, a record is closed when its packet is delivered or
//! abandoned and recycled once none of its flits is left in the fabric.
//! These runs abandon packets *while their body flits are still in
//! flight* — random link drops with a retry budget of one — and check,
//! after every
//! cycle, the table's laws (`Network::check_index`: every handle anywhere
//! names a held record, each record's in-fabric count is a recount) and
//! that the open records are exactly the packets injected and not yet
//! delivered or abandoned. At quiescence the table is empty and its
//! high-water mark is far below the packets injected (slots are reused);
//! in debug builds every skipped router and NI is held to the two
//! worklist laws (DESIGN.md §9) all the while. Every row runs
//! a second time with credit loss and a dead link on top: a lost
//! credit can leave a VC short for good and a link dying under a circuit
//! stream can strand its body (ROADMAP item 2, wedge entrance 1), so
//! those runs have a fixed length instead of a drain. A last run drops
//! long packets retransmitted after a backoff shorter than they are, and
//! must drain.

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

/// Random link drops and, with `all` fault classes on, lost credits and
/// the 0–1 link (router 1 sits east of router 0 on both fabrics) dead
/// from cycle 480. One retransmission per packet: when its head is lost
/// too, the packet is abandoned with that copy's body still streaming
/// towards the link.
fn faults(all: bool) -> FaultConfig {
    let mut f = FaultConfig::none();
    f.seed = 0x7AB1E;
    f.link_drop_rate = 0.06;
    f.max_retries = 1;
    if all {
        f.credit_loss_rate = 0.003;
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
                f.packets_dropped > 0
                    && (f.credits_lost > 0) == all
                    && (f.packets_rerouted > 0) == all,
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

#[test]
fn records_recycle_under_faults_on_a_concentrated_mesh() {
    sweep(Topology::cmesh(2, 2, 4).expect("valid"), "cmesh 2x2x4");
}

/// A retransmission shorter in backoff than its packet reaches the link
/// that dropped its first copy while that copy's body is still being
/// eaten there. The link keys its loss on the output VC's last head, not
/// on the packet, so the new head is rolled fresh instead of being eaten
/// as the old copy's body (which left its body headless in a VC and
/// wedged the fabric). Long packets at a load past saturation and a high
/// drop rate make the overlap common; every run must drain whole.
#[test]
fn a_retransmission_is_never_eaten_as_the_lost_copys_body() {
    let topology = Topology::mesh(4, 4).expect("valid");
    let tiles = topology.nodes() as u16;
    for backoff in [1, 2] {
        for seed in 0..5u64 {
            let label = format!("backoff {backoff} / seed {seed}");
            let cfg = NocConfig::paper_baseline(topology, MechanismConfig::baseline());
            let mut f = FaultConfig::none();
            f.seed = seed;
            f.link_drop_rate = 0.2;
            f.max_retries = 6;
            f.retry_backoff = backoff;
            let mut net = Network::with_faults(cfg, f).expect("valid configuration");
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut injected, mut delivered) = (0u64, 0u64);
            while net.now() < 600 || !net.is_quiescent() {
                assert!(
                    net.now() < 20_000 && !net.stalled(),
                    "{label}: did not drain\n{}",
                    net.health()
                );
                if net.now() < 600 {
                    for src in 0..tiles {
                        if rng.gen_bool(0.15) {
                            let dst = (src + rng.gen_range(1..tiles)) % tiles;
                            injected += 1;
                            net.inject(
                                PacketSpec::new(NodeId(src), NodeId(dst), MessageClass::WbData)
                                    .with_flits(16),
                            );
                        }
                    }
                }
                net.tick();
                delivered += net.take_all_delivered().len() as u64;
                net.check_index()
                    .unwrap_or_else(|e| panic!("{label}: cycle {}: {e}", net.now()));
            }
            let abandoned = net.fault_stats().packets_abandoned;
            assert_eq!(delivered + abandoned, injected, "{label}");
        }
    }
}
