//! The packet table (DESIGN.md §9 "One record per packet"): every flit is
//! a handle into it, a record is closed when its packet is delivered or
//! abandoned and recycled once none of its flits is left in the fabric.
//! These runs abandon packets *while their body flits are still in
//! flight* — random link drops and corruption with a retry budget of one
//! and a stuck-port window — and check, after every
//! cycle, the table's laws (`Network::check_index`: every handle anywhere
//! names a held record, each record's in-fabric count is a recount) and
//! that the open records are exactly the packets injected and not yet
//! delivered or abandoned. At quiescence the table is empty, its
//! high-water mark is far below the packets injected (slots are reused),
//! and the event kernel leaves the same statistics, trace and mid-run
//! snapshot bytes — free list included — as the dense one. Every row runs
//! a second time with credit loss and a dead-link window on top: a lost
//! credit can leave a VC short for good and a link dying under a circuit
//! stream can strand its body (ROADMAP item 3a), so those runs have a
//! fixed length instead of a drain.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{KernelMode, MechanismConfig, MessageClass, NodeId, Topology, PORT_WEST};
use rcsim_noc::{DeadLinkEvent, FaultConfig, Network, NocConfig, PacketSpec, StuckPortEvent};
use rcsim_trace::TraceSink;

const LOAD_CYCLES: u64 = 1_500;
const DRAIN_LIMIT: u64 = 40_000;
/// Length of the runs with every fault class on.
const RUN_CYCLES: u64 = 2_400;
/// Before the scheduled faults, inside both windows, and after them.
const SNAPSHOT_AT: [u64; 3] = [250, 520, 1_200];

/// Router 1 sits east of router 0 on both fabrics: its west input sticks
/// over cycles 400..560 and, with `all` fault classes on, the 0–1 link is
/// dead over 480..700 and credits get lost. One retransmission per
/// packet: when its head is lost too, the packet is abandoned with that
/// copy's body still streaming towards the link.
fn faults(all: bool) -> FaultConfig {
    let mut f = FaultConfig::none();
    f.seed = 0x7AB1E;
    f.link_drop_rate = 0.04;
    f.link_corrupt_rate = 0.02;
    f.max_retries = 1;
    f.stuck_ports.push(StuckPortEvent {
        node: NodeId(1),
        port: PORT_WEST,
        at: 400,
        duration: 160,
    });
    if all {
        f.credit_loss_rate = 0.003;
        f.dead_links.push(DeadLinkEvent {
            a: NodeId(0),
            b: NodeId(1),
            at: 480,
            duration: Some(220),
        });
    }
    f
}

/// What one run leaves behind.
#[derive(PartialEq)]
struct Outcome {
    snapshots: Vec<String>,
    stats: String,
    faults: String,
    trace: String,
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
fn run(
    topology: Topology,
    mechanism: MechanismConfig,
    kernel: KernelMode,
    all: bool,
    label: &str,
) -> Outcome {
    let cfg = NocConfig::paper_baseline(topology, mechanism);
    let mut net = Network::with_faults(cfg, faults(all)).expect("valid configuration");
    net.set_kernel(kernel);
    let sink = TraceSink::ring(1 << 21);
    net.set_trace_sink(sink.clone());
    let tiles = topology.nodes() as u16;
    let mut rng = StdRng::seed_from_u64(0x7AB1_E011);
    let (mut block, mut injected, mut delivered) = (0u64, 0u64, 0u64);
    let (mut snapshots, mut draining_cycles) = (Vec::new(), 0);
    while net.now() < LOAD_CYCLES || !(net.is_quiescent() || all) || net.now() < RUN_CYCLES {
        assert!(
            all || (net.now() < DRAIN_LIMIT && !net.stalled()),
            "{label}: did not drain\n{}{}",
            net.health(),
            net.debug_dump()
        );
        if SNAPSHOT_AT.contains(&net.now()) {
            snapshots.push(serde_json::to_string(&net.snapshot()).expect("snapshot serializes"));
        }
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
        snapshots,
        stats: serde_json::to_string(&net.stats()).expect("stats serialize"),
        faults: serde_json::to_string(&net.fault_stats()).expect("fault stats serialize"),
        trace: format!("{:?}", sink.drain()),
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
            let event = run(topology, mechanism, KernelMode::Event, all, &label);
            assert_eq!(event.snapshots.len(), SNAPSHOT_AT.len());
            assert!(
                event.abandoned > 0 && event.draining_cycles > 0,
                "{label}: packets must be abandoned with flits still in flight: {}",
                event.faults
            );
            assert!(
                !event.faults.contains("\"dead_flits_lost\":0,")
                    && event.faults.contains("\"credits_lost\":0,") != all
                    && !event.faults.contains("\"stuck_port_cycles\":0,"),
                "{label}: every fault class must fire: {}",
                event.faults
            );
            assert!(
                // (A wedged fabric piles packets up: only drained rows count.)
                event.injected > 400 && (all || (event.high_water as u64) < event.injected / 4),
                "{label}: {} packets in {} slots: slots must be reused",
                event.injected,
                event.high_water
            );
            let dense = run(topology, mechanism, KernelMode::Dense, all, &label);
            assert_eq!(event.stats, dense.stats, "{label}: stats");
            assert_eq!(event.faults, dense.faults, "{label}: faults");
            assert!(event.trace == dense.trace, "{label}: trace");
            for (i, at) in SNAPSHOT_AT.iter().enumerate() {
                assert!(
                    event.snapshots[i] == dense.snapshots[i],
                    "{label}: snapshot at {at}"
                );
            }
            assert!(event == dense, "{label}: counts");
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
