//! The network-only harness: a request/reply echo driven straight into a
//! [`Network`], for points no [`rcsim_system::SimConfig`] can describe —
//! the coherence protocol's sharer bitmask caps full-chip runs at 64
//! tiles, and the adaptive policies need interference no workload
//! produces on demand.
//!
//! Every node flips a Bernoulli coin per cycle for a single-flit
//! **foreground** request to a uniform-random destination, gated on a free
//! slot of its outstanding-request window (an L1's MSHR file: the shape
//! of the paper's reactive traffic, and the regime the NoC is proven to
//! drain under — sustained open-loop injection can wedge `Complete`-style
//! reservations, which is the overload experiment's subject, not this
//! one's). A delivered request bounces back, after the modelled L2
//! turnaround, as a circuit-eligible data reply; a delivered reply closes
//! the round trip. During a **bursting** phase every node also fires a
//! bounded salvo of one-way `FwdRequest`s, most of them at one mid-fabric
//! node, jamming the request network around it. After the driven phases
//! a draining point runs to quiescence and fails unless everything
//! injected got out with nothing abandoned — the deadlock-freedom check
//! for the wraparound topologies' dateline rule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{AdaptiveConfig, KernelMode, MechanismConfig, MessageClass, NodeId, TopologySpec};
use rcsim_noc::traffic::{Generator, Pattern};
use rcsim_noc::{CircuitOutcome, MessageGroup, Network, NocConfig, PacketSpec};
use rcsim_system::Adaptive;
use rcsim_trace::TraceSink;
use std::collections::VecDeque;

/// Background requests each node may fire per bursting phase: enough to
/// jam the hotspot's column for a while, few enough that the jam drains
/// before the next phase.
const SALVO: u32 = 16;

/// One network-only point.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EchoSpec {
    pub topology: TopologySpec,
    pub cores: u16,
    pub mechanism: MechanismConfig,
    /// The runtime controller, on the same hardware (`None`: static).
    pub adaptive: Option<AdaptiveConfig>,
    /// Seed of the point's own traffic RNG.
    pub seed: u64,
    /// Foreground requests per node per cycle (clamped to `[0, 1]`).
    pub rate: f64,
    /// Outstanding foreground requests per node (`u32::MAX`: open loop).
    pub window: u32,
    /// Modelled L2 turnaround: cycles from a request's delivery to the
    /// injection of its reply.
    pub turnaround: u64,
    /// The driven phases in order: `(cycles, bursting)`.
    pub phases: Vec<(u64, bool)>,
    /// Run to quiescence after the driven phases and check the drain.
    pub drain: bool,
}

/// What one point measured. Latencies are in cycles; everything but the
/// network latencies and the hit rate counts the driven phases only (the
/// drain tail exists for the deadlock-freedom check, not the measurement).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EchoResult {
    /// Fraction of replies that rode their circuit.
    pub hit_rate: f64,
    /// Network latency of circuit-eligible replies.
    pub net_avg: f64,
    pub net_p99: f64,
    pub net_p999: f64,
    /// Foreground round trip, request injection to reply delivery —
    /// harness-timed, so it sees a jam on the request leg too.
    pub rtt_avg: f64,
    pub rtt_p99: f64,
    pub rtt_p999: f64,
    /// Foreground round trips closed per node per cycle.
    pub goodput: f64,
    /// Packets of any class delivered per node per cycle.
    pub delivered_per_node_cycle: f64,
    /// Controller mode switches, hot and calm.
    pub switches: u64,
    pub congestion_detours: u64,
    pub circuits_suppressed: u64,
    pub circuits_torn_on_switch: u64,
}

/// Sorted-slice percentile (nearest rank), `per_mille` in `0..=1000`.
fn percentile(sorted: &[u64], per_mille: usize) -> f64 {
    let rank = sorted.len().saturating_sub(1) * per_mille / 1_000;
    sorted.get(rank).copied().unwrap_or(0) as f64
}

/// Per-node windows, the modelled L2's reply queue and the round-trip
/// ledger (request `k` carries block `64 k`, so `born` is indexed by it).
struct Ledger {
    turnaround: u64,
    fg_out: Vec<u32>,
    bg_out: Vec<u32>,
    replies: VecDeque<(u64, NodeId, NodeId, u64)>,
    born: Vec<u64>,
    rtt: Vec<u64>,
}

impl Ledger {
    /// Consumes this cycle's deliveries, then injects every reply whose
    /// turnaround has elapsed, in delivery order.
    fn echo(&mut self, net: &mut Network) {
        let now = net.now();
        for (node, d) in net.take_all_delivered() {
            match d.class {
                MessageClass::L1Request => {
                    let due = now + self.turnaround;
                    self.replies.push_back((due, node, d.src, d.block));
                }
                MessageClass::L2Reply => {
                    self.fg_out[node.0 as usize] -= 1;
                    self.rtt.push(now - self.born[(d.block / 64) as usize]);
                }
                MessageClass::FwdRequest => self.bg_out[d.src.0 as usize] -= 1,
                other => panic!("the echo harness injects no {other}"),
            }
        }
        while let Some(&(_, node, dst, block)) = self.replies.front().filter(|r| r.0 <= now) {
            self.replies.pop_front();
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

/// Drives one point under `kernel`.
///
/// # Errors
///
/// A message naming what failed: a shape `cores` does not fit, an
/// invalid adaptive configuration, or a draining point that did not
/// reach quiescence, abandoned a packet or lost a delivery (with the
/// network's health report).
pub(crate) fn run_echo(spec: &EchoSpec, kernel: KernelMode) -> Result<EchoResult, String> {
    let topology = spec.topology.build(spec.cores).map_err(|e| e.to_string())?;
    let cfg = NocConfig::paper_baseline(topology, spec.mechanism);
    let mut net = Network::new(cfg).map_err(|e| e.to_string())?;
    net.set_kernel(kernel);
    let mut policy = match spec.adaptive {
        Some(cfg) => Some(Adaptive::new(cfg, &mut net).map_err(|e| e.to_string())?),
        None => None,
    };
    // Steps the policy, if any, right before the network moves.
    let mut tick = |net: &mut Network| {
        if let Some(p) = policy.as_mut() {
            p.step(net, &TraceSink::Disabled);
        }
        net.tick();
    };
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let n = topology.nodes() as u16;
    let fg = Generator::uniform(spec.rate.clamp(0.0, 1.0));
    // The hot node sits mid-fabric so burst traffic crosses the interior.
    let bg = Generator {
        pattern: Pattern::Hotspot {
            target: NodeId(n / 2 + 4),
            percent: 80,
        },
        injection_rate: 0.5,
        class: MessageClass::FwdRequest,
    };
    let mut bg_budget = vec![0u32; n as usize];
    let mut ledger = Ledger {
        turnaround: spec.turnaround,
        fg_out: vec![0; n as usize],
        bg_out: vec![0; n as usize],
        replies: VecDeque::new(),
        born: vec![0],
        rtt: Vec::new(),
    };
    for &(cycles, bursting) in &spec.phases {
        if bursting {
            bg_budget.fill(SALVO);
        }
        for _ in 0..cycles {
            for src in (0..n).map(NodeId) {
                let s = src.0 as usize;
                if ledger.fg_out[s] < spec.window && rng.gen_bool(fg.injection_rate) {
                    let dst = fg.destination(&net, src, &mut rng);
                    if dst != src {
                        let block = 64 * ledger.born.len() as u64;
                        net.inject(PacketSpec::new(src, dst, fg.class).with_block(block));
                        ledger.fg_out[s] += 1;
                        ledger.born.push(net.now());
                    }
                }
                if bursting && bg_budget[s] > 0 && rng.gen_bool(bg.injection_rate) {
                    let dst = bg.destination(&net, src, &mut rng);
                    if dst != src {
                        net.inject(PacketSpec::new(src, dst, bg.class));
                        bg_budget[s] -= 1;
                        ledger.bg_out[s] += 1;
                    }
                }
            }
            tick(&mut net);
            ledger.echo(&mut net);
        }
    }
    let driven = net.now();
    let node_cycles = topology.nodes() as f64 * driven as f64;
    let delivered = net.stats().total_delivered();
    let closed = ledger.rtt.len();
    if spec.drain {
        // Closed-loop traffic bounds the in-flight population, so even a
        // saturated point must drain once injection stops.
        let deadline = driven + 200 * driven + 2_000_000;
        while !(net.is_quiescent() && ledger.replies.is_empty()) && net.now() < deadline {
            tick(&mut net);
            ledger.echo(&mut net);
        }
        let health = net.health();
        if !net.is_quiescent() {
            return Err(format!("not quiescent after drain\n{health}"));
        }
        if health.faults.packets_abandoned != 0 {
            return Err(format!(
                "{} abandoned packets",
                health.faults.packets_abandoned
            ));
        }
        if ledger.fg_out.iter().chain(&ledger.bg_out).any(|&o| o != 0) {
            return Err("lost deliveries".to_owned());
        }
    }
    let (stats, ni) = (net.stats(), net.health().adaptive);
    let adaptive = policy.map_or(ni, |p| p.report(ni));
    let lat = stats.network_latency.get(&MessageGroup::CircuitRep);
    let mut rtt = ledger.rtt;
    rtt.truncate(closed);
    rtt.sort_unstable();
    Ok(EchoResult {
        hit_rate: stats.outcome_fraction(CircuitOutcome::OnCircuit),
        net_avg: lat.map_or(0.0, |l| l.mean()),
        net_p99: lat.and_then(|l| l.p99()).unwrap_or(0.0),
        net_p999: lat.and_then(|l| l.p999()).unwrap_or(0.0),
        rtt_avg: rtt.iter().sum::<u64>() as f64 / rtt.len().max(1) as f64,
        rtt_p99: percentile(&rtt, 990),
        rtt_p999: percentile(&rtt, 999),
        goodput: rtt.len() as f64 / node_cycles,
        delivered_per_node_cycle: delivered as f64 / node_cycles,
        switches: adaptive.hot_switches + adaptive.calm_switches,
        congestion_detours: adaptive.congestion_detours,
        circuits_suppressed: adaptive.circuits_suppressed,
        circuits_torn_on_switch: adaptive.circuits_torn_on_switch,
    })
}
