//! Direct emission (DESIGN.md §9 "One sink per producer"): routers and
//! NIs write their flits, credits and undos straight onto the
//! links, and the link-fault layer acts on each message as it is emitted,
//! so which flits a dying link loses depends on the emission order —
//! these runs pin it. Every row (one mechanism on the 4×4 mesh, with one
//! link dying under load) must
//! give the same statistics, fault counters and trace-event sequence —
//! hashed into [`PINS`]; in debug builds every skipped router and NI is
//! also held to the two worklist laws (DESIGN.md §9), in release builds
//! the worklist alone runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{DeadLinkEvent, FaultConfig, Network, NocConfig, PacketSpec};
use rcsim_trace::TraceSink;

const LOAD_CYCLES: u64 = 1_200;
const RUN_CYCLES: u64 = 2_400;

/// Router 5 sits south of router 1: the 1–5 link dies for good at cycle
/// 600, under load, with a packet in flight towards it on every row.
fn faults() -> FaultConfig {
    let mut f = FaultConfig::none();
    f.dead_links.push(DeadLinkEvent {
        a: NodeId(1),
        b: NodeId(5),
        at: 600,
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

/// What one run leaves behind: statistics, fault counters and the trace.
struct Outcome {
    stats: String,
    faults: String,
    trace: String,
}

/// Request→reply echo (replies ride their circuits) for [`LOAD_CYCLES`],
/// then whatever the fabric still drains until [`RUN_CYCLES`]: a link
/// dying under a circuit stream can strand its body (ROADMAP item 2,
/// wedge entrance 1), so the run length is fixed rather than waiting for
/// quiescence. Derived indices and wake times are
/// re-checked after every cycle.
fn run(topology: Topology, mechanism: MechanismConfig) -> Outcome {
    let cfg = NocConfig::paper_baseline(topology, mechanism);
    let mut net = Network::with_faults(cfg, faults()).expect("valid configuration");
    let sink = TraceSink::ring(1 << 20);
    net.set_trace_sink(sink.clone());
    let tiles = topology.nodes() as u16;
    let mut rng = StdRng::seed_from_u64(0xD1EC_7011);
    let mut block = 0u64;
    while net.now() < RUN_CYCLES {
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
        stats: serde_json::to_string(&net.stats()).expect("stats serialize"),
        faults: serde_json::to_string(&net.fault_stats()).expect("fault stats serialize"),
        trace: format!("{:?}", sink.drain()),
    }
}

/// `fnv1a(stats, fault counters, trace)` of every row, recorded with this
/// configuration while the fault layer still carried stuck ports, link
/// corruption, table corruption and healing windows: deleting them moved
/// nothing. The mesh rows were re-pinned when the up*/down* table
/// replaced source-routed breadth-first detours around the dead link, and
/// every row once more when credit loss left the configuration. The
/// `Complete` row moved once more when routers stopped returning credits
/// for the uncredited circuit VC: after the dead link, five flits of
/// fallen-back streams leave it through the pipeline, and
/// `activity.credits` went from 9 953 to 9 948, every other statistic, the
/// fault counters and the trace unchanged. Every row was re-pinned once
/// more when random link drops left the fault model: the configuration
/// lost its drop rate, and its dead link moved from 0–1 at cycle 480,
/// which no longer lost a packet on any row, to 1–5 at cycle 600. A row
/// changes only if the fault layer sees the messages in another order or
/// decides before/after something it used not to, or a statistic moves.
const PINS: [(&str, u64); 3] = [
    ("mesh 4x4 / Baseline", 0x661e_25a6_d377_850e),
    ("mesh 4x4 / Complete", 0x5085_095a_89d3_7ca7),
    ("mesh 4x4 / Fragmented", 0x9229_6074_c281_e78b),
];

fn sweep(topology: Topology, fabric: &str) {
    let mut moved = Vec::new();
    for mechanism in [
        MechanismConfig::baseline(),
        MechanismConfig::complete(),
        MechanismConfig::fragmented(),
    ] {
        let label = format!("{fabric} / {}", mechanism.label());
        let row = run(topology, mechanism);
        assert!(
            !row.faults.contains("\"retransmissions\":0,")
                && !row.faults.contains("\"packets_rerouted\":0,"),
            "{label}: the dying link must lose packets and reroute others: {}",
            row.faults
        );
        let pin = fnv1a(&[&row.stats, &row.faults, &row.trace]);
        let want = PINS
            .iter()
            .find(|(row, _)| *row == label)
            .unwrap_or_else(|| panic!("no pin for {label}"))
            .1;
        if pin != want {
            moved.push(format!("{label}: {pin:#018x}, counters {}", row.faults));
        }
    }
    assert!(moved.is_empty(), "fault order moved:\n{}", moved.join("\n"));
}

#[test]
fn emission_order_is_pinned_under_link_faults_on_a_mesh() {
    sweep(Topology::mesh(4, 4).expect("valid"), "mesh 4x4");
}
