//! Integration coverage for the area and energy models: monotonicity in
//! mesh size and injection rate (driven by real simulated traffic), and
//! pinned Table 6 goldens in `tests/power_golden.json`. Regenerate the
//! goldens after an intentional model change with
//!
//! ```text
//! RC_UPDATE_GOLDEN=1 cargo test -p rcsim-power --test power_model
//! ```
//!
//! and review the diff like any other code change.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rcsim_core::{MechanismConfig, Topology};
use rcsim_noc::traffic::Generator;
use rcsim_noc::{Network, NocConfig, NocStats};
use rcsim_power::{area_savings, EnergyBreakdown, EnergyModel, RouterArea};
use serde::{Deserialize, Serialize};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/power_golden.json");

/// Drives a `w`×`h` network with uniform-random traffic at
/// `injection_rate` flits/node/cycle for a fixed window and returns the
/// activity counters.
fn run_traffic(w: u16, h: u16, injection_rate: f64, cycles: u64) -> NocStats {
    let mesh = Topology::mesh(w, h).expect("valid mesh");
    let mut net = Network::new(NocConfig::paper_baseline(mesh, MechanismConfig::baseline()))
        .expect("valid network");
    let gen = Generator::uniform(injection_rate);
    let mut rng = ChaCha8Rng::seed_from_u64(0x70E4);
    let mut next_block = 1u64;
    for _ in 0..cycles {
        gen.step(&mut net, &mut rng, &mut next_block);
        net.tick();
    }
    // Drain so late deliveries don't depend on the injection window edge.
    for _ in 0..5_000 {
        if net.is_quiescent() {
            break;
        }
        net.tick();
    }
    net.stats()
}

/// More offered traffic must never cost less energy: every dynamic
/// component and the total are non-decreasing in the injection rate
/// (strictly increasing at the extremes).
#[test]
fn energy_monotonic_in_injection_rate() {
    let model = EnergyModel::default_32nm();
    let m = MechanismConfig::baseline();
    let rates = [0.01, 0.02, 0.05, 0.10];
    let energies: Vec<EnergyBreakdown> = rates
        .iter()
        .map(|&r| model.network_energy(&run_traffic(4, 4, r, 3_000), &m, 4, 4))
        .collect();
    for (pair, rate) in energies.windows(2).zip(rates.windows(2)) {
        assert!(
            pair[1].router_dynamic_pj >= pair[0].router_dynamic_pj,
            "router dynamic energy fell from rate {} to {}",
            rate[0],
            rate[1]
        );
        assert!(
            pair[1].link_dynamic_pj >= pair[0].link_dynamic_pj,
            "link dynamic energy fell from rate {} to {}",
            rate[0],
            rate[1]
        );
    }
    let first = energies.first().expect("nonempty");
    let last = energies.last().expect("nonempty");
    assert!(
        last.router_dynamic_pj > first.router_dynamic_pj * 2.0,
        "10x the offered load should far more than double the dynamic energy"
    );
    assert!(last.total_pj() > first.total_pj());
}

/// A bigger mesh has more routers and links: with traffic scaled the same
/// way, both static components and the total must grow strictly.
#[test]
fn energy_monotonic_in_mesh_size() {
    let model = EnergyModel::default_32nm();
    let m = MechanismConfig::baseline();
    let sizes = [(2u16, 2u16), (4, 4), (8, 8)];
    let energies: Vec<EnergyBreakdown> = sizes
        .iter()
        .map(|&(w, h)| {
            model.network_energy(&run_traffic(w, h, 0.03, 2_000), &m, w as usize, h as usize)
        })
        .collect();
    for (pair, size) in energies.windows(2).zip(sizes.windows(2)) {
        assert!(
            pair[1].router_static_pj > pair[0].router_static_pj,
            "router static energy fell from {:?} to {:?}",
            size[0],
            size[1]
        );
        assert!(
            pair[1].link_static_pj > pair[0].link_static_pj,
            "link static energy fell from {:?} to {:?}",
            size[0],
            size[1]
        );
        assert!(pair[1].total_pj() > pair[0].total_pj());
    }
}

/// Area monotonicity across the mechanism axis of Table 6:
/// removing the circuit-VC buffer shrinks the router, adding circuit
/// storage (more entries, timed counters, wider destination ids) grows
/// it back predictably.
#[test]
fn area_monotonicity_across_mechanisms_and_cores() {
    let base = RouterArea::for_mechanism(&MechanismConfig::baseline(), 16).total();
    let fragmented = RouterArea::for_mechanism(&MechanismConfig::fragmented(), 16).total();
    let complete = RouterArea::for_mechanism(&MechanismConfig::complete(), 16).total();
    let timed = RouterArea::for_mechanism(&MechanismConfig::timed_noack(), 16).total();
    // Fragmented adds a buffered reply VC on top of the baseline.
    assert!(fragmented > base, "fragmented {fragmented} <= base {base}");
    // Complete removes the circuit VC's buffers: net shrink (Table 6).
    assert!(complete < base, "complete {complete} >= base {base}");
    // Timed entries carry countdown counters: wider tables, more area.
    assert!(timed > complete, "timed {timed} <= complete {complete}");

    // Wider destination ids at 64 cores can only grow circuit tables.
    for m in MechanismConfig::figure6_grid() {
        let a16 = RouterArea::for_mechanism(&m, 16);
        let a64 = RouterArea::for_mechanism(&m, 64);
        assert!(
            a64.circuit_tables >= a16.circuit_tables,
            "{}: circuit-table area fell with core count",
            m.label()
        );
        assert!(a64.total() >= a16.total());
        // And therefore the relative saving over the baseline shrinks.
        assert!(
            area_savings(&m, 64) <= area_savings(&m, 16) + 1e-12,
            "{}: area savings grew with core count",
            m.label()
        );
    }
}

/// The pinned slice of the area/energy models for goldens: Table 6's
/// per-mechanism router area and savings at both paper chip sizes, plus
/// an energy breakdown over a fixed synthetic activity vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenEntry {
    mechanism: String,
    cores: usize,
    buffers: f64,
    crossbar: f64,
    allocators: f64,
    circuit_tables: f64,
    other: f64,
    total: f64,
    savings_pct: f64,
    energy_total_pj: f64,
    energy_static_share: f64,
}

/// A fixed, synthetic activity vector (no simulation): the golden pins
/// the model itself, independent of simulator behaviour drift.
fn synthetic_stats() -> NocStats {
    let mut s = NocStats {
        cycles: 10_000,
        ..Default::default()
    };
    s.activity.buffer_writes = 40_000;
    s.activity.buffer_reads = 38_000;
    s.activity.xbar_traversals = 45_000;
    s.activity.link_flits = 52_000;
    s.activity.vc_allocs = 9_000;
    s.activity.sw_allocs = 44_000;
    s.activity.credits = 39_000;
    s.activity.circuit_writes = 1_500;
    s.activity.circuit_lookups = 6_000;
    s
}

fn measure_goldens() -> Vec<GoldenEntry> {
    let model = EnergyModel::default_32nm();
    let stats = synthetic_stats();
    let mut all = vec![MechanismConfig::baseline()];
    all.extend(MechanismConfig::figure6_grid());
    let mut out = Vec::new();
    for cores in [16usize, 64] {
        let (w, h) = if cores == 16 { (4, 4) } else { (8, 8) };
        for m in &all {
            let a = RouterArea::for_mechanism(m, cores);
            let e = model.network_energy(&stats, m, w, h);
            out.push(GoldenEntry {
                mechanism: m.label(),
                cores,
                buffers: a.buffers,
                crossbar: a.crossbar,
                allocators: a.allocators,
                circuit_tables: a.circuit_tables,
                other: a.other,
                total: a.total(),
                savings_pct: area_savings(m, cores),
                energy_total_pj: e.total_pj(),
                energy_static_share: e.static_share(),
            });
        }
    }
    out
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(1.0)
}

#[test]
fn table6_quick_goldens_match() {
    let measured = measure_goldens();
    if std::env::var("RC_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        let json = serde_json::to_string_pretty(&measured).unwrap();
        std::fs::write(GOLDEN_PATH, json + "\n").unwrap();
        eprintln!("golden file regenerated: {GOLDEN_PATH}");
        return;
    }
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file present (regenerate with RC_UPDATE_GOLDEN=1)");
    let golden: Vec<GoldenEntry> = serde_json::from_str(&text).expect("golden file parses");
    assert_eq!(golden.len(), measured.len(), "golden entry count");
    for (g, m) in golden.iter().zip(&measured) {
        assert_eq!(
            (g.mechanism.as_str(), g.cores),
            (m.mechanism.as_str(), m.cores)
        );
        for (what, gv, mv) in [
            ("buffers", g.buffers, m.buffers),
            ("crossbar", g.crossbar, m.crossbar),
            ("allocators", g.allocators, m.allocators),
            ("circuit_tables", g.circuit_tables, m.circuit_tables),
            ("other", g.other, m.other),
            ("total", g.total, m.total),
            ("savings_pct", g.savings_pct, m.savings_pct),
            ("energy_total_pj", g.energy_total_pj, m.energy_total_pj),
            (
                "energy_static_share",
                g.energy_static_share,
                m.energy_static_share,
            ),
        ] {
            assert!(
                close(gv, mv),
                "[{}/{}c] {what} drifted: golden {gv} vs measured {mv} \
                 (RC_UPDATE_GOLDEN=1 if intended)",
                g.mechanism,
                g.cores
            );
        }
    }
}

#[test]
fn goldens_are_distinct_per_mechanism() {
    if std::env::var("RC_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        // The sibling test is rewriting the file; don't race its writes.
        return;
    }
    let text = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    let golden: Vec<GoldenEntry> = serde_json::from_str(&text).expect("golden file parses");
    // The baseline must differ in total area from every circuit mechanism
    // (a copy-paste golden would hide model bugs).
    let base = golden
        .iter()
        .find(|g| g.mechanism == "Baseline" && g.cores == 16)
        .expect("baseline entry");
    for g in golden.iter().filter(|g| g.cores == 16) {
        if g.mechanism != "Baseline" {
            assert!(
                !close(base.total, g.total),
                "{} has the same total area as the baseline",
                g.mechanism
            );
        }
    }
}
