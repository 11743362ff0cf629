//! The sweep that drives the network directly ([`crate::echo`]): circuits
//! across interconnect shapes up to 1 024 tiles (DESIGN.md §12).

use super::PLAIN;
use crate::echo::{EchoResult, EchoSpec};
use crate::table::{cell, Cell, Experiment, Fmt, Row};
use crate::RunEnv;
use rcsim_core::{MechanismConfig, Topology, TopologySpec};

/// The row's fixed fields from its one network-only result: the hit rate
/// and the average, p99 and p99.9 of the latency called `what`.
fn fixed(m: &EchoResult, what: &str, [avg, p99, p999]: [f64; 3]) -> Vec<Cell> {
    let latency = |key: &str, tail: &str, v| cell(key, &format!("{what} {tail}"), Fmt::Num(1), v);
    vec![
        cell("circuit_hit_rate", "circuit", Fmt::Pct(1), m.hit_rate),
        latency("avg_latency", "avg", avg),
        latency("p99_latency", "p99", p99),
        latency("p999_latency", "p99.9", p999),
    ]
}

// --------------------------------------------------------------- topology

/// Rough per-node saturation estimate for uniform random traffic, in
/// *transactions* per node per cycle: bisection bandwidth over half the
/// nodes, divided by the ~6 flits a request + data-reply pair carries.
/// Only scales the offered load — the rows report measured numbers.
fn capacity_estimate(t: &Topology) -> f64 {
    let (w, h) = t.dims();
    let wrap = if t.has_wrap() { 2.0 } else { 1.0 };
    let cut_links = if h == 1 { 1.0 } else { f64::from(w.min(h)) };
    let flits_per_txn = 6.0;
    (4.0 * cut_links * wrap) / (t.nodes() as f64 * flits_per_txn)
}

/// Outstanding requests per node, like an L1's MSHR file.
const TOPO_WINDOW: u32 = 8;

/// Every {shape × `RC_TOPO_CORES` size × mechanism} twice: at a light
/// reactive load (30 % of the capacity estimate) for the hit rate and
/// the circuit-reply latency the row reports, and — the hidden base —
/// with every node injecting whenever its [`TOPO_WINDOW`] has a free
/// slot, for the credit-limited saturation throughput. Both must drain.
fn topology_grid(env: &RunEnv) -> Result<Vec<Row>, String> {
    let shapes = [
        TopologySpec::Mesh,
        TopologySpec::Torus,
        TopologySpec::CMesh { concentration: 4 },
        TopologySpec::Ring,
    ];
    let mechanisms = [
        ("baseline", MechanismConfig::baseline()),
        ("fragmented", MechanismConfig::fragmented()),
        ("complete", MechanismConfig::complete()),
        ("complete_noack", MechanismConfig::complete_noack()),
    ];
    let mut rows = Vec::new();
    for shape in shapes {
        for &cores in &env.topo_cores {
            let built = shape.build(cores);
            let built = built.map_err(|e| format!("{} at {cores}: {e}", shape.label()))?;
            let light = 0.3 * capacity_estimate(&built);
            for (name, mechanism) in mechanisms {
                let point = |rate| EchoSpec {
                    topology: shape,
                    cores,
                    mechanism,
                    seed: 0xC1C0,
                    rate,
                    window: TOPO_WINDOW,
                    turnaround: 0,
                    cycles: env.topo_cycles,
                    drain: true,
                };
                let label = format!("{}/{name}/c{cores}", shape.label());
                let saturated = format!("{label}/saturated");
                rows.push(Row::new("", cores, &saturated).net(point(1.0)).hidden());
                let row = Row::new("", cores, label).net(point(light)).base(saturated);
                rows.push(row.param("offered_rate", "offered", Fmt::Num(4), light));
            }
        }
    }
    Ok(rows)
}

pub const TOPOLOGY: Experiment = Experiment {
    name: "topology",
    title: "Topology sweep — closed-loop request/reply echo at a light reactive load; \
            saturation throughput in packets/node/cycle",
    grid: topology_grid,
    cells: |d| {
        let (light, saturated) = (&d.nets[0], &d.base_nets[0]);
        let mut cells = fixed(light, "lat", [light.net_avg, light.net_p99, light.net_p999]);
        let throughput = saturated.delivered_per_node_cycle;
        cells.push(cell(
            "saturation_throughput",
            "sat thpt",
            Fmt::Num(4),
            throughput,
        ));
        cells
    },
    ..PLAIN
};
