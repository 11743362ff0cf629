//! Adaptive-policy sweep: static mechanisms versus the runtime
//! controller under reactive foreground traffic with hotspot
//! interference.
//!
//! The adaptive controller (DESIGN.md §14) only pays for itself when no
//! single static choice is right for the whole run, so this bench drives
//! the [`Network`] with exactly that shape: a **continuous light
//! foreground** of uniform-random request/reply pairs — the reactive
//! traffic circuits are built for, measured end to end as a round-trip
//! time — against **phased hotspot salvos** of one-way `FwdRequest`
//! background traffic (a bounded budget per node per burst phase) that
//! jam the request virtual network around a mid-mesh node. In the calm phases `Fragmented` circuits win (extra
//! buffered reply VC plus circuit hits); during the bursts the circuit
//! machinery around the hot column becomes pure overhead and the
//! detour/suppression policies pay off on the foreground's request leg.
//!
//! Each mix runs three rows: `static/baseline`, `static/fragmented` and
//! `adaptive/fragmented` (the same hardware as the second row with the
//! controller switched on, default knobs). The decision metrics are the
//! **foreground round-trip time** (request injection to reply delivery,
//! harness-timed — network reply-latency alone misses the jam damage on
//! the request leg) and **foreground goodput** over the driven window.
//! The bench asserts the adaptive row beats **both** statics on p99
//! round-trip or on goodput at one or more mixes — the tentpole
//! acceptance criterion.
//!
//! Knobs: `RC_ADAPT_PHASES`, `RC_ADAPT_WINDOW` (README.md).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_bench::{env, save_bench_summary, save_json, BenchRow, BenchSummary};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{AdaptiveConfig, MechanismConfig, MessageClass, NodeId, TopologySpec};
use rcsim_noc::traffic::{Generator, Pattern};
use rcsim_noc::{MessageGroup, Network, NocConfig, PacketSpec};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Modeled L2 turnaround: cycles between a request's delivery and the
/// injection of its reply.
const TURNAROUND: u64 = 7;

/// One traffic mix: the calm/burst phase lengths (background bursts run
/// only during the burst phases; the foreground never stops).
struct Mix {
    name: &'static str,
    calm_cycles: u64,
    burst_cycles: u64,
}

const MIXES: [Mix; 2] = [
    Mix {
        name: "calm_heavy",
        calm_cycles: 1_500,
        burst_cycles: 300,
    },
    Mix {
        name: "burst_heavy",
        calm_cycles: 300,
        burst_cycles: 700,
    },
];

struct Measured {
    rtt_avg: f64,
    rtt_p99: f64,
    rtt_p999: f64,
    net_avg: f64,
    net_p99: f64,
    hit_rate: f64,
    goodput: f64,
    switches: u64,
    congestion_detours: u64,
    circuits_suppressed: u64,
    circuits_torn: u64,
}

/// Closed-loop harness state: per-node outstanding windows, the modeled
/// L2 reply queue, and the foreground round-trip ledger.
struct Harness {
    fg_out: Vec<u32>,
    bg_out: Vec<u32>,
    replies: VecDeque<(u64, NodeId, NodeId, u64)>,
    fg_done: u64,
    born: HashMap<u64, u64>,
    rtt: Vec<u64>,
}

impl Harness {
    fn new(nodes: usize) -> Self {
        Harness {
            fg_out: vec![0; nodes],
            bg_out: vec![0; nodes],
            replies: VecDeque::new(),
            fg_done: 0,
            born: HashMap::new(),
            rtt: Vec::new(),
        }
    }

    /// Consumes deliveries: foreground requests queue a circuit-riding
    /// reply after the modeled turnaround, delivered replies close the
    /// round trip, background deliveries just release their window slot.
    fn echo(&mut self, net: &mut Network) {
        let now = net.now();
        for (node, d) in net.take_all_delivered() {
            match d.class {
                MessageClass::L1Request => {
                    self.replies
                        .push_back((now + TURNAROUND, node, d.src, d.block));
                }
                MessageClass::L2Reply => {
                    self.fg_out[node.0 as usize] -= 1;
                    self.fg_done += 1;
                    if let Some(b) = self.born.remove(&d.block) {
                        self.rtt.push(now - b);
                    }
                }
                MessageClass::FwdRequest => self.bg_out[d.src.0 as usize] -= 1,
                other => panic!("unexpected class {other}"),
            }
        }
        while self.replies.front().is_some_and(|&(at, ..)| at <= now) {
            let (_, node, dst, block) = self.replies.pop_front().unwrap();
            let key = CircuitKey {
                requestor: dst,
                block,
            };
            net.inject(
                PacketSpec::new(node, dst, MessageClass::L2Reply)
                    .with_block(block)
                    .with_circuit_key(key),
            );
        }
    }
}

/// Sorted-slice percentile (nearest-rank on the driven-window samples).
fn percentile(sorted: &[u64], pct: usize) -> f64 {
    sorted
        .get(sorted.len().saturating_sub(1) * pct / 1_000)
        .copied()
        .unwrap_or(0) as f64
}

/// Drives one row over the phased mix, then drains to quiescence with
/// the usual deadlock-freedom asserts. `adaptive` switches the
/// controller on (same hardware otherwise).
fn run_row(mechanism: MechanismConfig, mix: &Mix, adaptive: Option<AdaptiveConfig>) -> Measured {
    let topology = TopologySpec::Mesh.build(64).expect("8x8 mesh");
    let cfg = NocConfig::paper_baseline(topology, mechanism);
    let mut net = Network::new(cfg).expect("valid config");
    net.set_kernel(env().kernel);
    if let Some(ad) = adaptive {
        net.enable_adaptive(ad).expect("valid adaptive config");
    }
    let mut rng = StdRng::seed_from_u64(0xADA7);
    let n = topology.nodes() as u16;
    let fg_win = env().adapt_window;
    // Each node fires a bounded salvo of background requests per burst
    // phase: enough to jam the hotspot column for a while, small enough
    // that the jam drains before the next phase.
    let bg_salvo = 16u32;
    let mut bg_budget = vec![0u32; n as usize];
    let mut h = Harness::new(n as usize);
    let mut block = 0u64;
    // The hot node sits mid-mesh so burst traffic crosses the interior.
    let hotspot = NodeId(n / 2 + 4);
    let fg = Generator {
        pattern: Pattern::UniformRandom,
        injection_rate: 0.02,
        class: MessageClass::L1Request,
    };
    let bg = Generator {
        pattern: Pattern::Hotspot {
            target: hotspot,
            percent: 80,
        },
        injection_rate: 0.5,
        class: MessageClass::FwdRequest,
    };
    for _ in 0..env().adapt_phases {
        for (bursting, cycles) in [(false, mix.calm_cycles), (true, mix.burst_cycles)] {
            if bursting {
                bg_budget.iter_mut().for_each(|b| *b = bg_salvo);
            }
            for _ in 0..cycles {
                for s in 0..n {
                    let src = NodeId(s);
                    if h.fg_out[s as usize] < fg_win && rng.gen_bool(fg.injection_rate) {
                        let dst = fg.destination(&net, src, &mut rng);
                        if dst != src {
                            block += 64;
                            net.inject(
                                PacketSpec::new(src, dst, MessageClass::L1Request)
                                    .with_block(block)
                                    .with_turnaround(TURNAROUND as u32),
                            );
                            h.fg_out[s as usize] += 1;
                            h.born.insert(block, net.now());
                        }
                    }
                    if bursting && bg_budget[s as usize] > 0 && rng.gen_bool(bg.injection_rate) {
                        let dst = bg.destination(&net, src, &mut rng);
                        if dst != src {
                            net.inject(PacketSpec::new(src, dst, MessageClass::FwdRequest));
                            bg_budget[s as usize] -= 1;
                            h.bg_out[s as usize] += 1;
                        }
                    }
                }
                net.tick();
                h.echo(&mut net);
            }
        }
    }
    // Goodput and round trips count the driven window only; the drain
    // tail below exists for the deadlock-freedom assert, not the
    // measurement.
    let drive_cycles = net.now();
    let fg_done_driven = h.fg_done;
    let rtt_driven = h.rtt.len();
    let deadline = net.now() + 2_000_000;
    while (!net.is_quiescent() || !h.replies.is_empty()) && net.now() < deadline {
        net.tick();
        h.echo(&mut net);
    }
    let health = net.health();
    assert!(
        net.is_quiescent(),
        "{}/{}: not quiescent after drain\n{health}",
        mix.name,
        mechanism.label()
    );
    assert_eq!(
        health.faults.packets_abandoned,
        0,
        "{}/{}: abandoned packets",
        mix.name,
        mechanism.label()
    );
    assert!(
        h.fg_out.iter().all(|&o| o == 0) && h.bg_out.iter().all(|&o| o == 0),
        "{}/{}: lost deliveries",
        mix.name,
        mechanism.label()
    );
    let stats = net.stats();
    let lat = stats.network_latency.get(&MessageGroup::CircuitRep);
    h.rtt.truncate(rtt_driven);
    h.rtt.sort_unstable();
    Measured {
        rtt_avg: h.rtt.iter().sum::<u64>() as f64 / h.rtt.len().max(1) as f64,
        rtt_p99: percentile(&h.rtt, 990),
        rtt_p999: percentile(&h.rtt, 999),
        net_avg: lat.map_or(0.0, |l| l.mean()),
        net_p99: lat.and_then(|l| l.p99()).unwrap_or(0.0),
        hit_rate: stats.outcome_fraction(rcsim_noc::CircuitOutcome::OnCircuit),
        goodput: fg_done_driven as f64 / (topology.nodes() as f64 * drive_cycles as f64),
        switches: health.adaptive.hot_switches + health.adaptive.calm_switches,
        congestion_detours: health.adaptive.congestion_detours,
        circuits_suppressed: health.adaptive.circuits_suppressed,
        circuits_torn: health.adaptive.circuits_torn_on_switch,
    }
}

fn main() {
    let pairs = env().adapt_phases;
    println!("Adaptive-policy sweep (RC_ADAPT_PHASES={pairs})\n");
    println!(
        "{:<12} {:<22} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "mix", "row", "circuit%", "rtt avg", "rtt p99", "goodput", "switches"
    );
    let mut summary = BenchSummary::new("adaptive");
    let mut raw = Vec::new();
    let mut adaptive_won = false;
    for mix in &MIXES {
        let rows = [
            ("static/baseline", MechanismConfig::baseline(), None),
            ("static/fragmented", MechanismConfig::fragmented(), None),
            (
                "adaptive/fragmented",
                MechanismConfig::fragmented(),
                Some(AdaptiveConfig::default()),
            ),
        ];
        let mut static_best_p99 = f64::INFINITY;
        let mut static_best_goodput = 0.0f64;
        for (name, mechanism, adaptive) in rows {
            let is_adaptive = adaptive.is_some();
            let m = run_row(mechanism, mix, adaptive);
            println!(
                "{:<12} {:<22} {:>8.1}% {:>9.1} {:>9.1} {:>9.5} {:>9}",
                mix.name,
                name,
                100.0 * m.hit_rate,
                m.rtt_avg,
                m.rtt_p99,
                m.goodput,
                m.switches
            );
            if is_adaptive {
                if m.rtt_p99 < static_best_p99 || m.goodput > static_best_goodput {
                    adaptive_won = true;
                }
                assert!(
                    m.switches > 0,
                    "{}: controller never switched — the mix is not adversarial enough",
                    mix.name
                );
            } else {
                static_best_p99 = static_best_p99.min(m.rtt_p99);
                static_best_goodput = static_best_goodput.max(m.goodput);
            }
            summary.push(BenchRow {
                label: format!("{}/{}", mix.name, name),
                cores: 64,
                topology: "mesh".to_owned(),
                avg_latency: m.rtt_avg,
                p99_latency: m.rtt_p99,
                p999_latency: m.rtt_p999,
                circuit_hit_rate: m.hit_rate.clamp(0.0, 1.0),
                extra: BTreeMap::from([
                    ("goodput".to_owned(), m.goodput),
                    ("net_avg_latency".to_owned(), m.net_avg),
                    ("net_p99_latency".to_owned(), m.net_p99),
                    ("switches".to_owned(), m.switches as f64),
                    ("congestion_detours".to_owned(), m.congestion_detours as f64),
                    (
                        "circuits_suppressed".to_owned(),
                        m.circuits_suppressed as f64,
                    ),
                    ("circuits_torn_on_switch".to_owned(), m.circuits_torn as f64),
                ]),
            });
            raw.push((
                mix.name,
                name,
                m.rtt_p99,
                m.goodput,
                m.switches,
                m.congestion_detours,
            ));
        }
    }
    assert!(
        adaptive_won,
        "adaptive beat neither static row on p99 round-trip nor goodput at any mix"
    );
    println!("\n(adaptive = fragmented hardware + runtime controller: circuit hits in the");
    println!(" calm phases, suppression + detours around the hotspot during the bursts;");
    println!(" latencies are foreground request->reply round trips, harness-timed)");
    save_json("adaptive_sweep", &raw);
    save_bench_summary(&mut summary);
}
