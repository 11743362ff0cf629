//! Sweeps that drive the network directly ([`crate::echo`]): circuits
//! across interconnect shapes up to 1 024 tiles (DESIGN.md §12), and the
//! adaptive controller against the static mechanisms (DESIGN.md §14).

use super::PLAIN;
use crate::echo::{EchoResult, EchoSpec};
use crate::table::{cell, Cell, Experiment, Fmt, Row, RowData};
use crate::RunEnv;
use rcsim_core::{AdaptiveConfig, MechanismConfig, Topology, TopologySpec};

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
                    adaptive: None,
                    seed: 0xC1C0,
                    rate,
                    window: TOPO_WINDOW,
                    turnaround: 0,
                    phases: vec![(env.topo_cycles, false)],
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

// --------------------------------------------------------------- adaptive

/// One traffic mix: the lengths of the calm and the burst phase of a pair.
const MIXES: [(&str, u64, u64); 2] = [("calm_heavy", 1_500, 300), ("burst_heavy", 300, 700)];
/// Calm/burst phase pairs per run.
const ADAPT_PHASES: usize = 6;
/// Outstanding foreground requests per node.
const ADAPT_WINDOW: u32 = 4;

/// The controller only pays for itself when no single static choice is
/// right for the whole run, so each mix alternates [`ADAPT_PHASES`]
/// pairs of a calm phase — `Fragmented` circuits win: an extra buffered
/// reply VC plus circuit hits — and a burst phase, where hotspot salvos
/// make the circuit machinery around the hot column pure overhead and
/// the detour and suppression policies pay off on the foreground's
/// request leg. Per mix: both statics, then the second one's hardware
/// with the controller on at its default knobs.
fn adaptive_grid(_: &RunEnv) -> Result<Vec<Row>, String> {
    let fragmented = MechanismConfig::fragmented();
    let versions = [
        ("static/baseline", MechanismConfig::baseline(), None),
        ("static/fragmented", fragmented, None),
        (
            "adaptive/fragmented",
            fragmented,
            Some(AdaptiveConfig::default()),
        ),
    ];
    let mut rows = Vec::new();
    for (mix, calm, burst) in MIXES {
        for (version, mechanism, adaptive) in versions {
            let spec = EchoSpec {
                topology: TopologySpec::Mesh,
                cores: 64,
                mechanism,
                adaptive,
                seed: 0xADA7,
                rate: 0.02,
                window: ADAPT_WINDOW,
                turnaround: 7,
                phases: [(calm, false), (burst, true)].repeat(ADAPT_PHASES),
                drain: true,
            };
            rows.push(Row::new(mix, 64, format!("{mix}/{version}")).net(spec));
        }
    }
    Ok(rows)
}

/// Latencies are the foreground's round trips; the controller's counters
/// stay zero on the static rows.
fn adaptive_cells(d: &RowData) -> Vec<Cell> {
    let m = &d.nets[0];
    let count = |key: &str, header: &str, n: u64| cell(key, header, Fmt::Num(0), n as f64);
    let mut cells = fixed(m, "rtt", [m.rtt_avg, m.rtt_p99, m.rtt_p999]);
    cells.extend([
        cell("goodput", "goodput", Fmt::Num(5), m.goodput),
        cell("net_avg_latency", "net avg", Fmt::Num(1), m.net_avg),
        cell("net_p99_latency", "net p99", Fmt::Num(1), m.net_p99),
        count("switches", "switches", m.switches),
        count("congestion_detours", "detours", m.congestion_detours),
        count("circuits_suppressed", "suppressed", m.circuits_suppressed),
        count("circuits_torn_on_switch", "torn", m.circuits_torn_on_switch),
    ]);
    cells
}

/// The controller must actually switch, and must beat both statics on
/// p99 round trip or on goodput in one mix or more — what it is for.
fn adaptive_asserts(rows: &[RowData]) -> Result<(), String> {
    let is_adaptive = |d: &&RowData| d.row.label.contains("/adaptive/");
    let mut won = false;
    for adaptive in rows.iter().filter(is_adaptive) {
        let (m, mix) = (&adaptive.nets[0], adaptive.row.section);
        if m.switches == 0 {
            return Err(format!(
                "{mix}: controller never switched — the mix is not adversarial enough"
            ));
        }
        let statics = || {
            rows.iter()
                .filter(|d| d.row.section == mix && !is_adaptive(d))
        };
        let best_p99 = statics()
            .map(|s| s.nets[0].rtt_p99)
            .fold(f64::INFINITY, f64::min);
        let best_goodput = statics().map(|s| s.nets[0].goodput).fold(0.0, f64::max);
        won |= m.rtt_p99 < best_p99 || m.goodput > best_goodput;
    }
    match won {
        true => Ok(()),
        false => Err(
            "adaptive beat neither static row on p99 round trip nor goodput at any mix".to_owned(),
        ),
    }
}

pub const ADAPTIVE: Experiment = Experiment {
    name: "adaptive",
    title: "Adaptive-policy sweep — static mechanisms vs the runtime controller under phased \
            hotspot salvos; latencies are foreground request-to-reply round trips",
    grid: adaptive_grid,
    cells: adaptive_cells,
    asserts: adaptive_asserts,
    ..PLAIN
};
