//! Topology sweep: reactive circuits across mesh, torus, concentrated
//! mesh and ring interconnects at 64–1024 cores.
//!
//! The coherence protocol's sharer bitmask caps full-chip runs at 64
//! tiles, so this sweep drives the [`Network`] directly with a
//! request/reply echo: uniform random single-flit requests whose
//! deliveries bounce back as circuit-eligible data replies. Traffic is
//! **closed-loop** — each node holds at most `RC_TOPO_WINDOW`
//! outstanding requests, like an L1's MSHR file — because that is both
//! the shape of the paper's reactive coherence traffic and the regime
//! the NoC is proven to drain under (open-loop sustained injection
//! without admission control can wedge Complete-style reservations on
//! the seed simulator, mesh included; the overload bench handles that
//! regime with its ingress layer). Each {mechanism × topology × size}
//! point reports the circuit hit rate and circuit-reply latency
//! (mean/p99) at light reactive load, plus the credit-limited
//! saturation throughput with every node injecting whenever it has a
//! free slot. Every run — light and saturated — must drain to
//! quiescence with zero abandoned packets: the deadlock-freedom check
//! for the wraparound topologies' dateline rule.
//!
//! Knobs: `RC_TOPO_CYCLES`, `RC_TOPO_CORES`, `RC_TOPO_WINDOW` (README.md).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_bench::{env, save_bench_summary, save_json, BenchRow, BenchSummary};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology, TopologySpec};
use rcsim_noc::{CircuitOutcome, MessageGroup, Network, NocConfig, PacketSpec};
use std::collections::BTreeMap;

/// Rough per-node saturation estimate for uniform random traffic, in
/// *transactions* per node per cycle: bisection bandwidth over half the
/// nodes, divided by the ~6 flits a request+data-reply pair carries.
/// Only used to scale offered load — the bench reports measured numbers.
fn capacity_estimate(t: &Topology) -> f64 {
    let (w, h) = t.dims();
    let nodes = t.nodes() as f64;
    let wrap = if t.has_wrap() { 2.0 } else { 1.0 };
    let cut_links = if h == 1 { 1.0 } else { f64::from(w.min(h)) };
    let flits_per_txn = 6.0;
    (4.0 * cut_links * wrap) / (nodes * flits_per_txn)
}

struct Measured {
    hit_rate: f64,
    avg_latency: f64,
    p99_latency: f64,
    p999_latency: f64,
    delivered_per_node_cycle: f64,
}

/// Consumes deliveries: requests bounce back as circuit-riding data
/// replies; delivered replies release their requestor's window slot.
fn echo(net: &mut Network, outstanding: &mut [u32]) {
    for (node, d) in net.take_all_delivered() {
        match d.class {
            MessageClass::L1Request => {
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
            MessageClass::L2Reply => outstanding[node.0 as usize] -= 1,
            other => panic!("unexpected class {other}"),
        }
    }
}

/// Drives one point: `window` cycles of closed-loop uniform request
/// injection (per-node Bernoulli at `rate`, gated on a free window
/// slot), replies echoed back over the reserved circuits, then runs to
/// quiescence and asserts nothing deadlocked or was abandoned.
fn run_point(topology: Topology, mechanism: MechanismConfig, rate: f64, window: u64) -> Measured {
    let cfg = NocConfig::paper_baseline(topology, mechanism);
    let mut net = Network::new(cfg).expect("valid config");
    net.set_kernel(env().kernel);
    let mut rng = StdRng::seed_from_u64(0xC1C0);
    let n = topology.nodes() as u16;
    let max_outstanding = env().topo_window;
    let mut outstanding = vec![0u32; n as usize];
    let mut block = 0u64;
    let rate = rate.clamp(0.0, 1.0);
    for _ in 0..window {
        for s in 0..n {
            if outstanding[s as usize] < max_outstanding && rng.gen_bool(rate) {
                let src = NodeId(s);
                let dst = loop {
                    let d = NodeId(rng.gen_range(0..n));
                    if d != src {
                        break d;
                    }
                };
                block += 64;
                net.inject(PacketSpec::new(src, dst, MessageClass::L1Request).with_block(block));
                outstanding[s as usize] += 1;
            }
        }
        net.tick();
        echo(&mut net, &mut outstanding);
    }
    // Throughput is measured over the injection window only; the drain
    // tail below would otherwise dilute it.
    let window_delivered = net.stats().total_delivered();
    let window_cycles = net.now();
    // Deadlock-freedom acceptance: everything injected must get out.
    // Closed-loop traffic bounds the in-flight population, so even the
    // saturation point must drain once injection stops.
    let deadline = net.now() + 200 * window + 2_000_000;
    while !net.is_quiescent() && net.now() < deadline {
        net.tick();
        echo(&mut net, &mut outstanding);
    }
    let health = net.health();
    assert!(
        net.is_quiescent(),
        "{}/{}: not quiescent after drain\n{health}",
        topology.label(),
        mechanism.label()
    );
    assert_eq!(
        health.faults.packets_abandoned,
        0,
        "{}/{}: abandoned packets",
        topology.label(),
        mechanism.label()
    );
    assert!(
        outstanding.iter().all(|&o| o == 0),
        "{}/{}: lost replies",
        topology.label(),
        mechanism.label()
    );
    let stats = net.stats();
    let lat = stats.network_latency.get(&MessageGroup::CircuitRep);
    Measured {
        hit_rate: stats.outcome_fraction(CircuitOutcome::OnCircuit),
        avg_latency: lat.map_or(0.0, |l| l.mean()),
        p99_latency: lat.and_then(|l| l.p99()).unwrap_or(0.0),
        p999_latency: lat.and_then(|l| l.p999()).unwrap_or(0.0),
        delivered_per_node_cycle: window_delivered as f64
            / (topology.nodes() as f64 * window_cycles as f64),
    }
}

fn main() {
    let window = env().topo_cycles;
    let mechanisms = [
        ("baseline", MechanismConfig::baseline()),
        ("fragmented", MechanismConfig::fragmented()),
        ("complete", MechanismConfig::complete()),
        ("complete_noack", MechanismConfig::complete_noack()),
    ];
    let specs = [
        TopologySpec::Mesh,
        TopologySpec::Torus,
        TopologySpec::CMesh { concentration: 4 },
        TopologySpec::Ring,
    ];
    println!("Topology sweep (RC_TOPO_CYCLES={window})\n");
    println!(
        "{:<10} {:>6} {:<15} {:>9} {:>9} {:>9} {:>11}",
        "topology", "cores", "mechanism", "circuit%", "avg lat", "p99 lat", "sat thpt"
    );
    let mut summary = BenchSummary::new("topology");
    let mut raw = Vec::new();
    for spec in specs {
        for &cores in &env().topo_cores {
            let topology = spec.build(cores).expect("sweep sizes fit every shape");
            let cap = capacity_estimate(&topology);
            for (name, mechanism) in mechanisms {
                let light = run_point(topology, mechanism, 0.3 * cap, window);
                let sat = run_point(topology, mechanism, 1.0, window);
                println!(
                    "{:<10} {:>6} {:<15} {:>8.1}% {:>9.1} {:>9.1} {:>11.4}",
                    topology.label(),
                    cores,
                    name,
                    100.0 * light.hit_rate,
                    light.avg_latency,
                    light.p99_latency,
                    sat.delivered_per_node_cycle,
                );
                summary.push(BenchRow {
                    label: format!("{}/{}/c{}", topology.label(), name, cores),
                    cores: cores as usize,
                    topology: topology.label(),
                    avg_latency: light.avg_latency,
                    p99_latency: light.p99_latency,
                    p999_latency: light.p999_latency,
                    circuit_hit_rate: light.hit_rate.clamp(0.0, 1.0),
                    extra: BTreeMap::from([
                        ("offered_rate".to_owned(), 0.3 * cap),
                        (
                            "saturation_throughput".to_owned(),
                            sat.delivered_per_node_cycle,
                        ),
                    ]),
                });
                raw.push((
                    topology.label(),
                    cores,
                    name,
                    light.hit_rate,
                    light.avg_latency,
                    sat.delivered_per_node_cycle,
                ));
            }
        }
    }
    println!("\n(wraparound topologies refuse circuits across the dateline, so their");
    println!(" hit rates dip below the mesh's; cmesh trades hops for local-port sharing)");
    save_json("topology_sweep", &raw);
    save_bench_summary(&mut summary);
}
