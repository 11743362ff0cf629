//! Stand-alone drivers that time single layers through their public
//! functions: unit costs the traced pass multiplies by exact event counts.
//! Every unit cost is the median of timed batches after one untimed
//! warm-up batch; each driver runs inside one span of the traced pass.

use crate::stats::median;
use crate::workloads::{Schedule, SplitMix64};
use rcsim_core::circuit::timing::TimeWindow;
use rcsim_core::circuit::{CircuitKey, ReserveRequest, RouterCircuits};
use rcsim_core::routing::Routing;
use rcsim_core::{CircuitMode, Cycle, KernelMode, MessageClass, NodeId, Topology, TopologySpec};
use rcsim_noc::{IngressConfig, Network, NocConfig};
use rcsim_protocol::{
    Access, CacheArray, CacheConfig, L1Cache, L2Bank, MemoryController, Msg, Port, ProtocolConfig,
};
use rcsim_stats::LatencyStat;
use rcsim_system::Core;
use rcsim_workload::{ArrivalProcess, ArrivalStream, Workload as AppWorkload};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Named per-layer figures.
pub type Metrics = BTreeMap<String, f64>;

/// Timed batches per unit cost (after the warm-up batch).
const BATCHES: usize = 7;

/// Median nanoseconds per operation: `batch(n)` performs `n` operations;
/// one warm-up batch, then [`BATCHES`] timed ones.
pub fn unit_cost_ns(ops_per_batch: u64, mut batch: impl FnMut(u64)) -> f64 {
    batch(ops_per_batch);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch(ops_per_batch);
            t.elapsed().as_nanos() as f64 / ops_per_batch as f64
        })
        .collect();
    median(&samples)
}

/// Median milliseconds of `f` over five calls after one warm-up call.
pub fn call_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// A fixed integer loop (xorshift over 2^24 steps): millions of steps per
/// second. Rows from different hosts are comparable as ratios to it.
pub fn calibration_score() -> f64 {
    const STEPS: u64 = 1 << 24;
    let ns = unit_cost_ns(STEPS, |n| {
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
    });
    1e3 / ns
}

/// `workload`: building the application's traces, drawing trace ops, and
/// polling an arrival stream.
pub fn workload_layer(m: &mut Metrics, seed: u64) {
    m.insert(
        "workload.build_ms".into(),
        call_ms(|| {
            let w = AppWorkload::by_name("canneal", 64, seed).expect("canneal exists");
            (0..64).map(|c| w.core_trace(c)).collect::<Vec<_>>()
        }),
    );
    let app = AppWorkload::by_name("canneal", 64, seed).expect("canneal exists");
    let mut trace = app.core_trace(0);
    m.insert(
        "workload.next_op_ns".into(),
        unit_cost_ns(20_000, |n| {
            for _ in 0..n {
                black_box(trace.next_op());
            }
        }),
    );
    let mut stream = ArrivalStream::new(ArrivalProcess::Poisson { rate: 0.1 }, seed, 0, 8);
    let mut now = 0u64;
    m.insert(
        "workload.arrival_poll_ns".into(),
        unit_cost_ns(50_000, |n| {
            for _ in 0..n {
                black_box(stream.poll(now, 56));
                now += 1;
            }
        }),
    );
}

/// `system.core_model`: one in-order core driven stand-alone against an
/// always-hit memory (two polls per trace op: fetch, then issue).
pub fn core_model_layer(m: &mut Metrics, seed: u64) {
    let app = AppWorkload::by_name("canneal", 64, seed).expect("canneal exists");
    let mut core = Core::new(0, app.core_trace(0));
    let mut now: Cycle = 0;
    m.insert(
        "system.core_poll_ns".into(),
        unit_cost_ns(20_000, |n| {
            for _ in 0..n / 2 {
                black_box(core.poll(now, 2));
                now = core.ready_at();
                black_box(core.poll(now, 2));
                core.access_hit(now);
            }
        }),
    );
}

/// A latency wire: every send arrives `delay` cycles later (the loopback
/// `Port` shape of `crates/protocol/tests/races.rs`).
struct Wire {
    now: Cycle,
    delay: Cycle,
    in_flight: VecDeque<(Cycle, Msg)>,
}

impl Port for Wire {
    fn now(&self) -> Cycle {
        self.now
    }
    fn send(&mut self, msg: Msg, _turnaround: u32) -> bool {
        self.in_flight.push_back((self.now + self.delay, msg));
        false
    }
    fn undo_circuit(&mut self, _key: CircuitKey) {}
    fn record_eliminated_ack(&mut self) {}
}

/// One L1, its home L2 bank and a memory controller on a [`Wire`]. Every
/// block used is a multiple of 16, so bank 0 of the 4×4 mesh is always
/// home; latencies are 1 cycle so that host time goes to the protocol
/// state machines, not to idle loopback cycles.
struct Cluster {
    l1: L1Cache,
    l2: L2Bank,
    mc: MemoryController,
    wire: Wire,
    l2_tick_ns: u64,
    l2_ticks: u64,
}

impl Cluster {
    fn new() -> Self {
        let mesh: Topology = TopologySpec::Mesh.build(16).expect("4x4 mesh");
        let mut cfg = ProtocolConfig::paper_defaults(&mesh);
        cfg.l2_hit_latency = 1;
        cfg.mem_latency = 1;
        Self {
            l1: L1Cache::new(NodeId(1), mesh, cfg.clone()),
            l2: L2Bank::new(NodeId(0), mesh, cfg.clone()),
            mc: MemoryController::new(cfg.mc_tiles[0], cfg.mem_latency),
            wire: Wire {
                now: 0,
                delay: 1,
                in_flight: VecDeque::new(),
            },
            l2_tick_ns: 0,
            l2_ticks: 0,
        }
    }

    fn step(&mut self) {
        self.wire.now += 1;
        let now = self.wire.now;
        while self.wire.in_flight.front().is_some_and(|(t, _)| *t <= now) {
            let (_, msg) = self.wire.in_flight.pop_front().expect("checked");
            match msg.class {
                MessageClass::L1Request
                | MessageClass::WbData
                | MessageClass::L1DataAck
                | MessageClass::L1InvAck
                | MessageClass::MemoryReply => self.l2.receive(msg, now),
                MessageClass::MemRequest | MessageClass::MemWbData => self.mc.receive(msg, now),
                _ => {
                    self.l1.handle(&msg, false, &mut self.wire);
                }
            }
        }
        if self.l2.has_due_work(now) {
            let t = Instant::now();
            self.l2.tick(now, &mut self.wire);
            self.l2_tick_ns += t.elapsed().as_nanos() as u64;
            self.l2_ticks += 1;
        }
        if self.mc.has_due_work(now) {
            self.mc.tick(now, &mut self.wire);
        }
    }

    /// A blocking access; returns `true` on a hit.
    fn access(&mut self, block: u64, write: bool) -> bool {
        match self
            .l1
            .access(block, write, write.then_some(block), &mut self.wire)
        {
            Access::Hit { .. } => true,
            Access::Miss => {
                for _ in 0..10_000 {
                    if !self.l1.miss_pending() {
                        return false;
                    }
                    self.step();
                }
                panic!("loopback miss on block {block:#x} never completed");
            }
        }
    }
}

/// `protocol`: L1 hits, whole misses (L1 → L2 → memory → fill, with the
/// evictions and write-backs a streaming footprint causes) and due L2
/// ticks on the loopback cluster, plus the bare cache array.
pub fn protocol_layer(m: &mut Metrics) {
    let mut c = Cluster::new();
    let mut next = 0u64;
    let miss_ns = unit_cost_ns(4_000, |n| {
        for _ in 0..n {
            next += 16;
            let hit = c.access(next, next.is_multiple_of(32));
            debug_assert!(!hit, "fresh blocks always miss");
        }
    });
    m.insert("protocol.miss_roundtrip_ns".into(), miss_ns);
    m.insert(
        "protocol.l2_tick_ns".into(),
        c.l2_tick_ns as f64 / c.l2_ticks.max(1) as f64,
    );
    // The eight most recent blocks are resident: re-reading them hits.
    let resident: Vec<u64> = (0..8).map(|i| next - 16 * i).collect();
    m.insert(
        "protocol.l1_hit_ns".into(),
        unit_cost_ns(50_000, |n| {
            for i in 0..n {
                let hit = c.access(resident[(i % 8) as usize], false);
                debug_assert!(hit);
            }
        }),
    );
    let mut array: CacheArray<u64> = CacheArray::new(CacheConfig::from_capacity(32 * 1024, 4));
    let mut block = 0u64;
    m.insert(
        "protocol.cache_get_insert_ns".into(),
        unit_cost_ns(50_000, |n| {
            for _ in 0..n {
                block = block.wrapping_add(0x9e37_79b9) & 0xf_ffff;
                if array.get(block).is_none() {
                    black_box(array.insert(block, block));
                }
            }
        }),
    );
}

/// A quiescent network's `tick`: the fixed per-cycle cost (prologue,
/// shard plan, disabled adaptive and fault paths, wake-time scans).
fn idle_tick_ns(cores: u16) -> f64 {
    let topology = TopologySpec::Mesh.build(cores).expect("square mesh");
    let cfg = NocConfig::paper_baseline(topology, rcsim_core::MechanismConfig::complete());
    let mut net = Network::new(cfg).expect("valid config");
    net.set_kernel(KernelMode::Event);
    net.set_shards(1);
    unit_cost_ns(20_000, |n| {
        for _ in 0..n {
            net.tick();
        }
    })
}

/// `noc` pieces no workload isolates: idle ticks at both sizes and the
/// ingress admission path under a 20× oversubscribed offer stream.
pub fn noc_layer(m: &mut Metrics) {
    m.insert("noc.idle_tick_ns_64".into(), idle_tick_ns(64));
    m.insert("noc.idle_tick_ns_256".into(), idle_tick_ns(256));

    let topology = TopologySpec::Mesh.build(64).expect("8x8 mesh");
    let cfg = NocConfig::paper_baseline(topology, rcsim_core::MechanismConfig::complete());
    let mut net = Network::new(cfg).expect("valid config");
    net.set_kernel(KernelMode::Event);
    net.set_shards(1);
    let edges = topology.edge_nodes();
    let ingress = IngressConfig {
        tokens_per_kilocycle: 52,
        ..IngressConfig::default()
    };
    net.configure_ingress(ingress, edges.clone());
    let mut released = Vec::new();
    let mut block = 0u64;
    let mut spent_ns = 0u64;
    let mut offers = 0u64;
    for cycle in 0..22_000u64 {
        let t = Instant::now();
        for edge in &edges {
            block += 1;
            black_box(net.offer_external(*edge, NodeId(63), block));
        }
        released.clear();
        net.drain_ingress(&mut released);
        // The first 2 000 cycles warm the path up.
        if cycle >= 2_000 {
            spent_ns += t.elapsed().as_nanos() as u64;
            offers += edges.len() as u64;
        }
        net.tick();
    }
    m.insert(
        "noc.ingress_offer_ns".into(),
        spent_ns as f64 / offers as f64,
    );
}

/// `core.circuit`: one router's circuit table.
pub fn circuit_layer(m: &mut Metrics) {
    let key = |i: u64| CircuitKey {
        requestor: NodeId((i % 64) as u16),
        block: i * 64,
    };
    let request = |i: u64, window: Option<TimeWindow>| ReserveRequest {
        key: key(i),
        source: NodeId(7),
        in_port: (i % 4) as usize,
        out_port: 4,
        window,
        max_extra_shift: 0,
    };
    let mut table = RouterCircuits::new(CircuitMode::Complete, 5, 1);
    let mut i = 0u64;
    m.insert(
        "core.circuit.reserve_release_ns".into(),
        unit_cost_ns(50_000, |n| {
            for _ in 0..n {
                i += 1;
                let req = request(i, None);
                if table.try_reserve(&req).is_ok() {
                    table.begin_use(req.in_port, req.key);
                    table.end_use(req.in_port, req.key);
                    black_box(table.release(req.in_port, req.key));
                }
            }
        }),
    );
    // A port holding its full five circuits: lookups walk the whole list.
    let mut full = RouterCircuits::new(CircuitMode::Complete, 5, 1);
    for j in 0..5 {
        let mut req = request(4 * j, None);
        req.in_port = 0;
        full.try_reserve(&req).expect("five circuits fit one port");
    }
    m.insert(
        "core.circuit.lookup_ns".into(),
        unit_cost_ns(100_000, |n| {
            for j in 0..n {
                black_box(full.lookup(0, key(4 * (j % 6))));
            }
        }),
    );
    // Timed entries, reserved then expired one cycle after their window.
    let mut timed = RouterCircuits::new(CircuitMode::Complete, 5, 1);
    let mut now: Cycle = 0;
    m.insert(
        "core.circuit.expire_ns".into(),
        unit_cost_ns(50_000, |n| {
            for _ in 0..n {
                i += 1;
                now += 10;
                let _ = timed.try_reserve(&request(i, Some(TimeWindow::new(now, now + 5))));
                black_box(timed.expire(now + 6));
            }
        }),
    );
}

/// `core.routing`: dimension-order paths over the echo schedule's pairs.
pub fn routing_layer(m: &mut Metrics, seed: u64) {
    let schedule = Schedule::generate(seed, 256, 2_000);
    let pairs = schedule.pairs();
    for (name, spec) in [
        ("core.routing.route_path_ns_mesh", TopologySpec::Mesh),
        ("core.routing.route_path_ns_torus", TopologySpec::Torus),
    ] {
        let topology = spec.build(256).expect("16x16");
        m.insert(
            name.into(),
            unit_cost_ns(pairs.len() as u64, |n| {
                for &(s, d) in &pairs[..n as usize] {
                    black_box(topology.route_path(NodeId(s), NodeId(d), Routing::Xy));
                }
            }),
        );
    }
}

/// `stats`: one latency observation into moments plus histogram.
pub fn stats_layer(m: &mut Metrics) {
    let mut stat = LatencyStat::new(5.0, 100);
    let mut rng = SplitMix64(7);
    m.insert(
        "stats.latency_record_ns".into(),
        unit_cost_ns(100_000, |n| {
            for _ in 0..n {
                stat.record(rng.below(400) as f64);
            }
        }),
    );
    black_box(stat.mean());
}
