//! Direct emission (DESIGN.md §9 "One sink per producer"): routers and
//! NIs write their flits, credits and undos straight onto the
//! links, and the link-fault layer acts on each message as it is emitted.
//! The fault RNG is drawn per message, so the draw order *is* the emission
//! order — these runs pin it. Every row (fabric × mechanism, all with
//! random link drops and credit loss and one permanent dead link) must
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

/// Router 1 sits east of router 0 on both fabrics: the 0–1 link dies for
/// good at cycle 480, on top of the random per-message faults.
fn faults() -> FaultConfig {
    let mut f = FaultConfig::none();
    f.seed = 0xD1EC7;
    f.link_drop_rate = 0.01;
    f.credit_loss_rate = 0.003;
    f.dead_links.push(DeadLinkEvent {
        a: NodeId(0),
        b: NodeId(1),
        at: 480,
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
/// then whatever the fabric still drains until [`RUN_CYCLES`]: lost
/// credits may leave a VC short for good, so the run length is fixed
/// rather than waiting for quiescence. Derived indices and wake times are
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
/// nothing. A row changes only if the fault layer sees the messages in
/// another order or decides before/after something it used not to.
const PINS: [(&str, u64); 6] = [
    ("mesh 4x4 / Baseline", 0xff36_a777_984c_7fb1),
    ("mesh 4x4 / Complete", 0xd0cd_5dc4_1c54_303e),
    ("mesh 4x4 / Fragmented", 0x3486_42b4_c62e_b284),
    ("cmesh 2x2x4 / Baseline", 0x805f_e793_afb8_b82c),
    ("cmesh 2x2x4 / Complete", 0xee7d_f5af_34be_1540),
    ("cmesh 2x2x4 / Fragmented", 0x535e_61b7_9919_be1f),
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
            !row.faults.contains("\"packets_dropped\":0,")
                && !row.faults.contains("\"credits_lost\":0,")
                && !row.faults.contains("\"packets_rerouted\":0,"),
            "{label}: every link-fault class must fire: {}",
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

#[test]
fn emission_order_is_pinned_under_link_faults_on_a_concentrated_mesh() {
    sweep(Topology::cmesh(2, 2, 4).expect("valid"), "cmesh 2x2x4");
}
