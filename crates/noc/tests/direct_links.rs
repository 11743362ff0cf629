//! Direct emission (DESIGN.md §9 "One sink per producer"): routers and
//! NIs write their flits, credits and undos straight onto the
//! links, and the link-fault layer acts on each message as it is emitted.
//! The fault RNG is drawn per message, so the draw order *is* the emission
//! order — these runs pin it. Every row (fabric × mechanism, all with
//! random link drops, corruption and credit loss, one dead-link window and
//! one stuck-port window) must give the same statistics, fault counters,
//! trace-event sequence and mid-run snapshot bytes under the event kernel
//! as under the dense one, and the same [`PINS`] as the two-pass
//! transport this replaced.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{KernelMode, MechanismConfig, MessageClass, NodeId, Topology, PORT_WEST};
use rcsim_noc::{DeadLinkEvent, FaultConfig, Network, NocConfig, PacketSpec, StuckPortEvent};
use rcsim_trace::TraceSink;

const LOAD_CYCLES: u64 = 1_200;
const RUN_CYCLES: u64 = 2_400;
/// Before the faults' windows, inside both, and after both.
const SNAPSHOT_AT: [u64; 3] = [250, 520, 1_000];

/// Router 1 sits east of router 0 on both fabrics: its west input sticks
/// over cycles 400..560 and the 0–1 link is dead over 480..700, on top of
/// the random per-message faults.
fn faults() -> FaultConfig {
    let mut f = FaultConfig::none();
    f.seed = 0xD1EC7;
    f.link_drop_rate = 0.01;
    f.link_corrupt_rate = 0.01;
    f.credit_loss_rate = 0.003;
    f.stuck_ports.push(StuckPortEvent {
        node: NodeId(1),
        port: PORT_WEST,
        at: 400,
        duration: 160,
    });
    f.dead_links.push(DeadLinkEvent {
        a: NodeId(0),
        b: NodeId(1),
        at: 480,
        duration: Some(220),
    });
    f
}

fn fnv1a(parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in parts.iter().flat_map(|p| p.bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// What one run leaves behind: the snapshot JSON at each of
/// [`SNAPSHOT_AT`], then statistics, fault counters and the trace.
struct Outcome {
    snapshots: Vec<String>,
    stats: String,
    faults: String,
    trace: String,
}

/// Request→reply echo (replies ride their circuits) for [`LOAD_CYCLES`],
/// then whatever the fabric still drains until [`RUN_CYCLES`]: lost
/// credits may leave a VC short for good, so the run length is fixed
/// rather than waiting for quiescence. Derived indices and wake times are
/// re-checked after every cycle.
fn run(topology: Topology, mechanism: MechanismConfig, kernel: KernelMode) -> Outcome {
    let cfg = NocConfig::paper_baseline(topology, mechanism);
    let mut net = Network::with_faults(cfg, faults()).expect("valid configuration");
    net.set_kernel(kernel);
    let sink = TraceSink::ring(1 << 20);
    net.set_trace_sink(sink.clone());
    let tiles = topology.nodes() as u16;
    let mut rng = StdRng::seed_from_u64(0xD1EC_7011);
    let mut block = 0u64;
    let mut snapshots = Vec::new();
    while net.now() < RUN_CYCLES {
        if SNAPSHOT_AT.contains(&net.now()) {
            assert!(!net.is_quiescent(), "snapshot points must be mid-traffic");
            snapshots.push(serde_json::to_string(&net.snapshot()).expect("snapshot serializes"));
        }
        if net.now() < LOAD_CYCLES {
            for src in 0..tiles {
                if rng.gen_bool(0.03) {
                    let dst = (src + rng.gen_range(1..tiles)) % tiles;
                    block += 64;
                    net.inject(
                        PacketSpec::new(NodeId(src), NodeId(dst), MessageClass::L1Request)
                            .with_block(block),
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
    assert_eq!(sink.dropped(), 0, "ring overflow would hide trace events");
    Outcome {
        snapshots,
        stats: serde_json::to_string(&net.stats()).expect("stats serialize"),
        faults: serde_json::to_string(&net.fault_stats()).expect("fault stats serialize"),
        trace: format!("{:?}", sink.drain()),
    }
}

/// `fnv1a(stats, fault counters, trace)` of every row, recorded with the
/// staged two-pass transport (every message into a per-router vector,
/// then a second pass drawing its fate and writing it to a calendar).
/// A row changes only if the fault layer sees the messages in another
/// order or decides before/after something it used not to.
const PINS: [(&str, u64); 6] = [
    ("mesh 4x4 / Baseline", 0xd9f5_6a84_a6a6_ca50),
    ("mesh 4x4 / Complete", 0x832a_8f9c_14c0_7ee9),
    ("mesh 4x4 / Fragmented", 0xe304_6ada_4497_e4cd),
    ("cmesh 2x2x4 / Baseline", 0x9377_c7a0_7d29_e770),
    ("cmesh 2x2x4 / Complete", 0xfa08_2bdc_0797_5999),
    ("cmesh 2x2x4 / Fragmented", 0xeaed_8fd8_3034_d89d),
];

fn sweep(topology: Topology, fabric: &str) {
    let mut moved = Vec::new();
    for mechanism in [
        MechanismConfig::baseline(),
        MechanismConfig::complete(),
        MechanismConfig::fragmented(),
    ] {
        let label = format!("{fabric} / {}", mechanism.label());
        let event = run(topology, mechanism, KernelMode::Event);
        assert_eq!(event.snapshots.len(), SNAPSHOT_AT.len());
        assert!(
            !event.faults.contains("\"packets_dropped\":0,")
                && !event.faults.contains("\"packets_corrupted\":0,")
                && !event.faults.contains("\"credits_lost\":0,")
                && !event.faults.contains("\"packets_rerouted\":0,"),
            "{label}: every link-fault class must fire: {}",
            event.faults
        );
        let dense = run(topology, mechanism, KernelMode::Dense);
        assert_eq!(event.stats, dense.stats, "{label}: stats");
        assert_eq!(event.faults, dense.faults, "{label}: faults");
        assert!(event.trace == dense.trace, "{label}: trace");
        for (i, at) in SNAPSHOT_AT.iter().enumerate() {
            assert!(
                event.snapshots[i] == dense.snapshots[i],
                "{label}: snapshot at {at}"
            );
        }
        let pin = fnv1a(&[&event.stats, &event.faults, &event.trace]);
        let want = PINS
            .iter()
            .find(|(row, _)| *row == label)
            .unwrap_or_else(|| panic!("no pin for {label}"))
            .1;
        if pin != want {
            moved.push(format!("{label}: {pin:#018x}, counters {}", event.faults));
        }
    }
    assert!(moved.is_empty(), "fault order moved:\n{}", moved.join("\n"));
}

#[test]
fn event_and_dense_agree_under_link_faults_on_a_mesh() {
    sweep(Topology::mesh(4, 4).expect("valid"), "mesh 4x4");
}

#[test]
fn event_and_dense_agree_under_link_faults_on_a_concentrated_mesh() {
    sweep(Topology::cmesh(2, 2, 4).expect("valid"), "cmesh 2x2x4");
}
