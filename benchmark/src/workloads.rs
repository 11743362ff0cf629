//! The four canonical workloads and the drive loops that run one
//! repetition ("rep") of each. A rep is one complete deterministic
//! simulation from the run's seed: construct, warm up, run the measured
//! window, check the outputs. Host-time metrics are medians over reps;
//! simulated metrics must be identical on every rep.
//!
//! Two workloads run the whole chip through [`SimSession`] (cores, L1/L2,
//! NoC); two drive a bare [`Network`] with a request→reply echo so that
//! only the `noc` and `core` layers execute — a protocol or core-model
//! change must leave those two flat.

use crate::span::Probe;
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{KernelMode, MechanismConfig, MessageClass, NodeId, Topology, TopologySpec};
use rcsim_noc::{CircuitOutcome, MessageGroup, Network, NocConfig, NocStats, PacketSpec};
use rcsim_protocol::{L1Stats, L2Stats};
use rcsim_stats::LatencyStat;
use rcsim_system::{ExternalSummary, OpenLoopConfig, RunResult, SimConfig, SimSession};
use rcsim_trace::TraceSink;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Outstanding requests each echo node may have (an L1's MSHR file).
pub const ECHO_WINDOW: u32 = 8;
/// Echo request probability per node per cycle.
pub const ECHO_RATE: f64 = 0.005;
/// Open-loop offered load of `overload64`, arrivals per cycle per edge.
pub const OVERLOAD_OFFERED: f64 = 0.1;
/// Admission capacity of `overload64`, admits per cycle per edge.
pub const OVERLOAD_CAPACITY: f64 = 0.05;

/// One canonical workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64-core full system at the paper's load.
    Fullsys64,
    /// 256-node mesh echo, complete circuits.
    Net256Circuit,
    /// 256-node torus echo, packet switching only.
    Net256Packet,
    /// 64-core full system plus open-loop arrivals past the knee.
    Overload64,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Fullsys64,
        Workload::Net256Circuit,
        Workload::Net256Packet,
        Workload::Overload64,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fullsys64 => "fullsys64",
            Workload::Net256Circuit => "net256_circuit",
            Workload::Net256Packet => "net256_packet",
            Workload::Overload64 => "overload64",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Position in [`Workload::ALL`] (the trace's thread id).
    pub fn id(self) -> u32 {
        Workload::ALL.iter().position(|w| *w == self).unwrap_or(0) as u32
    }

    /// `true` for the two bare-network echo workloads.
    pub fn is_echo(self) -> bool {
        matches!(self, Workload::Net256Circuit | Workload::Net256Packet)
    }

    /// Warm-up and measured cycles of one rep (`quick` divides both by
    /// ten for smoke runs).
    pub fn cycles(self, quick: bool) -> (u64, u64) {
        let (warmup, measure) = match self {
            Workload::Fullsys64 => (40_000, 40_000),
            Workload::Net256Circuit | Workload::Net256Packet => (4_000, 16_000),
            Workload::Overload64 => (15_000, 30_000),
        };
        if quick {
            (warmup / 10, measure / 10)
        } else {
            (warmup, measure)
        }
    }

    /// The topology and mechanism the workload's network runs.
    pub fn fabric(self) -> (Topology, MechanismConfig) {
        let (spec, cores, mechanism) = match self {
            Workload::Fullsys64 | Workload::Overload64 => {
                (TopologySpec::Mesh, 64, MechanismConfig::complete_noack())
            }
            Workload::Net256Circuit => (TopologySpec::Mesh, 256, MechanismConfig::complete()),
            Workload::Net256Packet => (TopologySpec::Torus, 256, MechanismConfig::baseline()),
        };
        let topology = spec.build(cores).expect("canonical sizes fit their shape");
        (topology, mechanism)
    }

    /// The full-system configuration (`None` for the echo workloads).
    pub fn sim_config(self, seed: u64, quick: bool) -> Option<SimConfig> {
        let (warmup_cycles, measure_cycles) = self.cycles(quick);
        let open_loop = match self {
            Workload::Fullsys64 => None,
            Workload::Overload64 => {
                let mut ol = OpenLoopConfig::poisson(OVERLOAD_OFFERED);
                ol.ingress.tokens_per_kilocycle = (OVERLOAD_CAPACITY * 1024.0).ceil() as u64;
                Some(ol)
            }
            Workload::Net256Circuit | Workload::Net256Packet => return None,
        };
        Some(SimConfig {
            seed,
            warmup_cycles,
            measure_cycles,
            small_caches: false,
            open_loop,
            ..SimConfig::quick(64, MechanismConfig::complete_noack(), "canneal")
        })
    }
}

/// Simulated (modelled-chip) metrics of one rep. Exactly repeatable for a
/// fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Instructions per cycle per core (0 without cores).
    pub ipc: f64,
    /// Count-weighted mean network latency over the Figure 7 groups.
    pub net_latency_cycles: f64,
    /// p99 of `Circuit_Rep` network latency, interpolated inside its
    /// 5-cycle histogram bin.
    pub reply_p99_cycles: f64,
    /// Fraction of replies that rode their own circuit.
    pub circuit_hit_rate: f64,
    /// External round trips completed in the window per kilocycle.
    pub ext_goodput: f64,
    /// External end-to-end p99 latency, cycles.
    pub ext_p99_cycles: f64,
}

/// Exact event counts of one rep's measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Counts {
    /// Flit-hops over inter-router links.
    pub flit_hops: u64,
    /// Flits written into VC buffers.
    pub buffer_writes: u64,
    /// VC-allocator grants.
    pub vc_allocs: u64,
    /// Switch-allocator grants.
    pub sw_allocs: u64,
    /// Circuit-table lookups.
    pub circuit_lookups: u64,
    /// Circuit-table reservations written.
    pub circuit_writes: u64,
    /// Packets injected.
    pub packets: u64,
    /// Circuit reservations that succeeded.
    pub reserved: u64,
    /// Circuit reservations that failed.
    pub reserve_failed: u64,
    /// L1 accesses (one per workload trace op).
    pub l1_accesses: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 requests queued behind a busy line.
    pub l2_queued_on_busy: u64,
    /// Protocol messages sent.
    pub messages: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// External offers (first-time and retries) made to the ingress.
    pub ext_offers: u64,
    /// External offers the ingress rejected.
    pub ext_rejected: u64,
}

/// Everything one rep produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Construction plus warm-up, seconds: what a sweep point pays before
    /// its measured window.
    pub setup_s: f64,
    /// The measured window, seconds.
    pub window_s: f64,
    /// Simulated cycles in the measured window.
    pub window_cycles: u64,
    /// Simulated metrics.
    pub sim: SimMetrics,
    /// Exact counts.
    pub counts: Counts,
    /// FNV-1a of the serialized results.
    pub fingerprint: u64,
    /// Why the rep counts as a failed operation, if it does.
    pub failure: Option<String>,
    /// Simulator trace events captured (echo reps with a sink installed).
    pub trace_events: Vec<rcsim_trace::TraceEvent>,
}

/// Stable 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: the benchmark's own input generator, so the schedule does
/// not change when the simulator's RNG stand-ins do.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The echo workloads' injection schedule: for every cycle, the
/// (source, destination) pairs that want to send a request. Generated from
/// the seed before any timing starts; at run time a pair is injected only
/// if its source has a free window slot (the closed loop).
#[derive(Debug, Clone)]
pub struct Schedule {
    starts: Vec<u32>,
    pairs: Vec<(u16, u16)>,
}

impl Schedule {
    /// `cycles` cycles of per-node Bernoulli([`ECHO_RATE`]) requests to
    /// uniform random other nodes.
    pub fn generate(seed: u64, nodes: u16, cycles: u64) -> Self {
        let mut rng = SplitMix64(seed ^ 0xEC40_5EED);
        let mut starts = Vec::with_capacity(cycles as usize + 1);
        let mut pairs = Vec::new();
        for _ in 0..cycles {
            starts.push(pairs.len() as u32);
            for src in 0..nodes {
                if rng.next_f64() < ECHO_RATE {
                    let mut dst = rng.below(u64::from(nodes) - 1) as u16;
                    if dst >= src {
                        dst += 1;
                    }
                    pairs.push((src, dst));
                }
            }
        }
        starts.push(pairs.len() as u32);
        Self { starts, pairs }
    }

    /// Cycles covered.
    pub fn cycles(&self) -> u64 {
        self.starts.len() as u64 - 1
    }

    /// The pairs wanting to send at `cycle`.
    pub fn at(&self, cycle: u64) -> &[(u16, u16)] {
        let c = cycle as usize;
        &self.pairs[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// Every pair of the schedule.
    pub fn pairs(&self) -> &[(u16, u16)] {
        &self.pairs
    }
}

/// p99 of a latency statistic, interpolated linearly inside the histogram
/// bin that holds it (the simulator's own `p99()` reports the bin's upper
/// edge, which moves in 5-cycle steps).
pub fn interpolated_p99(stat: &LatencyStat) -> f64 {
    let hist = stat.histogram();
    let total = hist.count();
    if total == 0 {
        return 0.0;
    }
    let target = 0.99 * total as f64;
    let bins = hist.bins();
    // The bin width is not public; quantile(0) is the upper edge of the
    // first occupied bin, which gives it away. With every sample in the
    // overflow bin there is nothing to interpolate.
    let Some(first) = bins.iter().position(|c| *c > 0) else {
        return stat.quantile(0.99).unwrap_or(0.0);
    };
    let bin_width = stat.quantile(0.0).unwrap_or(0.0) / (first as f64 + 1.0);
    let mut seen = 0.0;
    for (i, &c) in bins.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= target {
            return (i as f64 + (target - seen) / c) * bin_width;
        }
        seen += c;
    }
    bins.len() as f64 * bin_width
}

/// The network-side simulated metrics and counts, from window statistics.
fn network_figures(stats: &NocStats, sim: &mut SimMetrics, counts: &mut Counts) {
    let mut weighted = 0.0;
    let mut messages = 0u64;
    for stat in stats.network_latency.values() {
        weighted += stat.mean() * stat.count() as f64;
        messages += stat.count();
    }
    sim.net_latency_cycles = if messages == 0 {
        0.0
    } else {
        weighted / messages as f64
    };
    sim.reply_p99_cycles = stats
        .network_latency
        .get(&MessageGroup::CircuitRep)
        .map_or(0.0, interpolated_p99);
    sim.circuit_hit_rate = stats.outcome_fraction(CircuitOutcome::OnCircuit);
    counts.flit_hops = stats.activity.link_flits;
    counts.buffer_writes = stats.activity.buffer_writes;
    counts.vc_allocs = stats.activity.vc_allocs;
    counts.sw_allocs = stats.activity.sw_allocs;
    counts.circuit_lookups = stats.activity.circuit_lookups;
    counts.circuit_writes = stats.activity.circuit_writes;
    counts.packets = stats.total_injected();
    counts.reserved = stats.tables.total_reserved();
    counts.reserve_failed = stats.tables.total_failed();
}

/// Host costs of the checkpoint layer, measured at mid-window of a rep.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotCosts {
    /// `SimSession::checkpoint` / `Network::snapshot`, ms.
    pub snapshot_ms: f64,
    /// `SessionSnapshot::save`, ms (sessions only).
    pub save_ms: f64,
    /// Size of the saved file, bytes (sessions only).
    pub bytes: u64,
    /// `SessionSnapshot::load` + `SimSession::resume` / `Network::restore`, ms.
    pub restore_ms: f64,
    /// `Network::health`, µs (echo only).
    pub health_us: f64,
}

/// What a rep is asked to do beyond the plain run.
pub struct RepOptions<'a> {
    /// Simulation kernel.
    pub kernel: KernelMode,
    /// In-tick shard count.
    pub shards: usize,
    /// Measure the checkpoint layer at mid-window (time excluded from the
    /// window), writing any file under this directory.
    pub snapshot: Option<(&'a std::path::Path, &'a mut SnapshotCosts)>,
    /// Install the simulator's own event tracing with this ring capacity.
    pub sim_trace: Option<usize>,
}

impl RepOptions<'_> {
    /// The configuration every end-to-end rep uses: event kernel, one
    /// shard, nothing extra.
    pub fn plain() -> Self {
        Self {
            kernel: KernelMode::Event,
            shards: 1,
            snapshot: None,
            sim_trace: None,
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Advances a session to `target`, one `run_until` per `P::SLICE` cycles.
fn run_sliced<P: Probe>(session: &mut SimSession, target: u64, p: &mut P) -> Result<(), String> {
    while session.pos() < target {
        let next = session.pos().saturating_add(P::SLICE).min(target);
        let mut result = Ok(());
        p.span_n("system.run_until.slice", |_| {
            let from = session.pos();
            result = session.run_until(next).map_err(|e| e.to_string());
            (session.pos() - from) as u32
        });
        result?;
    }
    Ok(())
}

fn session_snapshot_costs(session: &SimSession, dir: &std::path::Path) -> SnapshotCosts {
    let t = Instant::now();
    let snap = session.checkpoint();
    let snapshot_ms = ms_since(t);
    let path = dir.join("perf.ckpt");
    let t = Instant::now();
    let saved = snap.save(&path);
    let save_ms = ms_since(t);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let t = Instant::now();
    let resumed = rcsim_system::SessionSnapshot::load(&path)
        .and_then(|s| SimSession::resume(&s, KernelMode::Event, 1).ok());
    let restore_ms = ms_since(t);
    let _ = std::fs::remove_file(&path);
    assert!(
        saved.is_ok() && resumed.is_some_and(|r| r.pos() == session.pos()),
        "checkpoint did not round-trip through {}",
        path.display()
    );
    SnapshotCosts {
        snapshot_ms,
        save_ms,
        bytes,
        restore_ms,
        health_us: 0.0,
    }
}

/// One full-system rep.
pub fn session_rep<P: Probe>(cfg: &SimConfig, mut opts: RepOptions<'_>, p: &mut P) -> Rep {
    let mut rep = Rep::default();
    if let Err(why) = session_rep_inner(cfg, &mut opts, p, &mut rep) {
        rep.failure = Some(why);
    }
    rep
}

fn session_rep_inner<P: Probe>(
    cfg: &SimConfig,
    opts: &mut RepOptions<'_>,
    p: &mut P,
    rep: &mut Rep,
) -> Result<(), String> {
    let trace_cfg = opts.sim_trace.map(|capacity| rcsim_system::TraceConfig {
        capacity,
        epoch: 100,
    });
    let total = cfg.warmup_cycles + cfg.measure_cycles;
    let t0 = Instant::now();
    let mut session = p
        .span("system.session_new", |_| {
            SimSession::new(cfg, trace_cfg.as_ref(), opts.kernel, opts.shards)
        })
        .map_err(|e| e.to_string())?;
    p.span("system.warmup", |_| {
        session
            .run_until(cfg.warmup_cycles)
            .map_err(|e| e.to_string())
    })?;
    rep.setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    match opts.snapshot.take() {
        None => p.span("window", |p| run_sliced(&mut session, total, p))?,
        Some((dir, costs)) => {
            let half = cfg.warmup_cycles + cfg.measure_cycles / 2;
            p.span("window", |p| run_sliced(&mut session, half, p))?;
            let paused = Instant::now();
            *costs = p.span("system.checkpoint", |_| {
                session_snapshot_costs(&session, dir)
            });
            let pause = paused.elapsed();
            p.span("window", |p| run_sliced(&mut session, total, p))?;
            rep.window_s -= pause.as_secs_f64();
        }
    }
    rep.window_s += t1.elapsed().as_secs_f64();
    rep.window_cycles = cfg.measure_cycles;

    let violations = session.chip().coherence_violations();
    let stats = p.span("noc.stats", |_| session.chip().noc_stats());
    let l1: L1Stats = session.chip().l1_totals();
    let l2: L2Stats = session.chip().l2_totals();
    let (result, trace): (RunResult, _) = p.span("system.finish", |_| session.finish());
    let json = p
        .span("stats.result_serialize", |_| serde_json::to_string(&result))
        .map_err(|e| e.to_string())?;
    let (w, h) = cfg
        .topology
        .build(cfg.cores)
        .map_err(|e| e.to_string())?
        .dims();
    p.span("power.network_energy", |_| {
        rcsim_power::EnergyModel::default_32nm().network_energy(
            &stats,
            &cfg.mechanism,
            w as usize,
            h as usize,
        )
    });
    rep.fingerprint = fnv1a(json.as_bytes());
    if let Some(t) = trace {
        rep.trace_events = t.events;
    }

    network_figures(&stats, &mut rep.sim, &mut rep.counts);
    let ext: ExternalSummary = result.external;
    rep.sim.ipc = result.ipc_per_core();
    rep.sim.ext_goodput = ext.completed_measured as f64 * 1e3 / cfg.measure_cycles as f64;
    rep.sim.ext_p99_cycles = ext.latency_p99;
    rep.counts.l1_accesses = l1.hits + l1.misses;
    rep.counts.l1_misses = l1.misses;
    rep.counts.l2_queued_on_busy = l2.queued_on_busy;
    rep.counts.messages = result.messages.values().sum();
    rep.counts.instructions = result.instructions;
    rep.counts.ext_offers = ext.offered + ext.reoffers;
    rep.counts.ext_rejected = ext.rejected;

    if result.health.stalled {
        return Err("health.stalled at the end of the run".to_owned());
    }
    if ext.unaccounted != 0 {
        return Err(format!(
            "external.unaccounted = {} (lost arrivals)",
            ext.unaccounted
        ));
    }
    if let Some(first) = violations.first() {
        return Err(format!(
            "{} coherence violations, first: {first}",
            violations.len()
        ));
    }
    Ok(())
}

/// The closed loop's state: per-node window occupancy and the block
/// address counter that keeps circuit keys unique.
struct EchoLoop {
    outstanding: Vec<u32>,
    pending: u64,
    block: u64,
}

impl EchoLoop {
    fn new(nodes: usize) -> Self {
        Self {
            outstanding: vec![0; nodes],
            pending: 0,
            block: 0,
        }
    }

    /// One cycle: window-checked injections, the network tick, then the
    /// deliveries — a delivered request bounces back as a circuit-eligible
    /// data reply, a delivered reply frees its requestor's window slot.
    fn cycle<P: Probe>(&mut self, net: &mut Network, pairs: &[(u16, u16)], p: &mut P) {
        if !pairs.is_empty() {
            p.span_n("noc.inject", |_| {
                let mut sent = 0;
                for &(src, dst) in pairs {
                    if self.outstanding[src as usize] < ECHO_WINDOW {
                        self.block += 64;
                        net.inject(
                            PacketSpec::new(NodeId(src), NodeId(dst), MessageClass::L1Request)
                                .with_block(self.block),
                        );
                        self.outstanding[src as usize] += 1;
                        sent += 1;
                    }
                }
                self.pending += u64::from(sent);
                sent
            });
        }
        p.span("noc.tick", |_| net.tick());
        let delivered = p.span("noc.take_delivered", |_| net.take_all_delivered());
        if delivered.is_empty() {
            return;
        }
        p.span_n("noc.inject", |_| {
            let mut replies = 0;
            for (node, d) in delivered {
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
                        replies += 1;
                    }
                    MessageClass::L2Reply => {
                        self.outstanding[node.index()] -= 1;
                        self.pending -= 1;
                    }
                    other => panic!("echo network delivered an unexpected {other}"),
                }
            }
            replies
        });
    }
}

fn network_snapshot_costs(net: &mut Network) -> SnapshotCosts {
    let t = Instant::now();
    let snap = net.snapshot();
    let snapshot_ms = ms_since(t);
    let t = Instant::now();
    net.restore(&snap);
    let restore_ms = ms_since(t);
    let t = Instant::now();
    let health = net.health();
    let health_us = ms_since(t) * 1e3;
    assert!(!health.stalled, "echo network stalled at mid-window");
    SnapshotCosts {
        snapshot_ms,
        restore_ms,
        health_us,
        ..SnapshotCosts::default()
    }
}

/// One bare-network echo rep on `workload`'s fabric: `warmup` cycles,
/// statistics reset, `measure` timed cycles, then an untimed drain to
/// quiescence that doubles as the correctness check.
pub fn echo_rep<P: Probe>(
    fabric: (Topology, MechanismConfig),
    schedule: &Schedule,
    warmup: u64,
    mut opts: RepOptions<'_>,
    p: &mut P,
) -> Rep {
    let mut rep = Rep::default();
    let (topology, mechanism) = fabric;
    let measure = schedule.cycles() - warmup;
    let sink = opts.sim_trace.map(TraceSink::ring);

    let t0 = Instant::now();
    let built = p.span("noc.new", |_| {
        Network::new(NocConfig::paper_baseline(topology, mechanism))
    });
    let mut net = match built {
        Ok(net) => net,
        Err(e) => {
            rep.failure = Some(e.to_string());
            return rep;
        }
    };
    net.set_kernel(opts.kernel);
    net.set_shards(opts.shards);
    if let Some(sink) = &sink {
        net.set_trace_sink(sink.clone());
    }
    let mut echo = EchoLoop::new(topology.nodes());
    p.span("noc.warmup", |p| {
        for cycle in 0..warmup {
            echo.cycle(&mut net, schedule.at(cycle), p);
        }
    });
    net.reset_stats();
    if let Some(sink) = &sink {
        sink.drain();
    }
    rep.setup_s = t0.elapsed().as_secs_f64();

    let half = warmup + measure / 2;
    let t1 = Instant::now();
    p.span("window", |p| {
        for cycle in warmup..half {
            echo.cycle(&mut net, schedule.at(cycle), p);
        }
    });
    if let Some((_, costs)) = opts.snapshot.take() {
        let paused = Instant::now();
        *costs = p.span("noc.snapshot", |_| network_snapshot_costs(&mut net));
        rep.window_s -= paused.elapsed().as_secs_f64();
    }
    p.span("window", |p| {
        for cycle in half..warmup + measure {
            echo.cycle(&mut net, schedule.at(cycle), p);
        }
    });
    rep.window_s += t1.elapsed().as_secs_f64();
    rep.window_cycles = measure;

    let window_stats = p.span("noc.stats", |_| net.stats());
    network_figures(&window_stats, &mut rep.sim, &mut rep.counts);

    let deadline = net.now() + 200 * schedule.cycles() + 100_000;
    p.span("drain", |p| {
        while echo.pending > 0 && net.now() < deadline {
            echo.cycle(&mut net, &[], p);
        }
    });
    let health = net.health();
    let fingerprint_text = format!(
        "{}|{}",
        serde_json::to_string(&net.stats()).unwrap_or_default(),
        serde_json::to_string(&net.fault_stats()).unwrap_or_default(),
    );
    rep.fingerprint = fnv1a(fingerprint_text.as_bytes());
    if let Some(sink) = &sink {
        rep.trace_events = sink.drain();
    }
    // (`Network::is_quiescent` compares injected with delivered counts
    // and so cannot be used after a statistics reset.)
    if let Some(node) = echo.outstanding.iter().position(|o| *o != 0) {
        rep.failure = Some(format!(
            "node {node} still has {} requests outstanding after the drain\n{health}",
            echo.outstanding[node]
        ));
    } else if health.in_flight != 0 || health.ni_backlog != 0 || health.stalled {
        rep.failure = Some(format!(
            "echo network not quiescent after the drain\n{health}"
        ));
    } else if health.faults.packets_abandoned != 0 {
        rep.failure = Some(format!(
            "{} packets abandoned",
            health.faults.packets_abandoned
        ));
    }
    rep
}
