//! One benchmark run of one workload: the end-to-end pass (tracing off)
//! or the traced pass (spans around every layer call, layer drivers, and
//! the reference reps that explain the end-to-end numbers).

use crate::catalog::{catalog, MetricDef};
use crate::expected::Expected;
use crate::host::{self, HostProbe};
use crate::layers::{self, Metrics};
use crate::span::{
    chrome_trace_json, self_times, totals_by_name, NameTotal, Off, Probe, Recorder, Span,
};
use crate::stats::{median, percentile, summary, supported_percentile, Summary};
use crate::workloads::{
    echo_rep, session_rep, Counts, Rep, RepOptions, Schedule, SimMetrics, SnapshotCosts, Workload,
};
use rcsim_bench::SweepRunner;
use rcsim_core::{KernelMode, MechanismConfig};
use rcsim_system::SimConfig;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest reps a full run's medians may rest on.
pub const MIN_REPS: usize = 5;
/// Reps of a `--quick` smoke run.
pub const QUICK_REPS: usize = 2;
/// Ring capacity for the simulator's own tracing in the `trace.*` rep:
/// the newest 131 072 events are kept, breakdown and export are timed on
/// those.
const SIM_TRACE_CAPACITY: usize = 1 << 17;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to keep starting reps for.
    pub seconds: f64,
    /// Traced pass instead of the end-to-end pass.
    pub trace: bool,
    /// Smoke sizing: cycles ÷ 10, [`QUICK_REPS`] reps.
    pub quick: bool,
}

/// Everything a run learned, written beside the one-line result so the
/// multi-workload commands (`perf`, `perf layers`, `perf check`) can merge
/// and compare runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Detail {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Smoke sizing.
    pub quick: bool,
    /// Traced pass.
    pub traced: bool,
    /// Warm-up cycles per rep.
    pub warmup_cycles: u64,
    /// Measured cycles per rep.
    pub measure_cycles: u64,
    /// Operations (reps) attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// Median, quartiles and sample count of each host-time metric; in the
    /// end-to-end pass also of the unscaled times (`raw.setup_s`,
    /// `raw.sim_cycles_per_s`).
    pub host: BTreeMap<String, Summary>,
    /// `(setup_s, window_s)` of every untraced rep, unscaled, in run order.
    pub rep_seconds: Vec<(f64, f64)>,
    /// End-to-end pass: seconds each host probe took; probe `i` ran before
    /// rep `i`, the last one after the last rep.
    pub probe_seconds: Vec<f64>,
    /// Traced pass: calls, work items, total and self time of the exported
    /// spans, by span name.
    pub span_totals: BTreeMap<String, NameTotal>,
    /// Every reported metric by name.
    pub metrics: Metrics,
    /// Simulated metrics of the first rep (identical on every rep).
    pub sim: SimMetrics,
    /// Exact counts of the first rep's measured window.
    pub counts: Counts,
    /// Fingerprint of the first rep's serialized results, hex.
    pub fingerprint: String,
    /// Differences from `expected.json` (see [`crate::expected`]).
    pub drift: Vec<String>,
}

/// A workload bound to a seed and a sizing, ready to run reps.
struct Bench {
    workload: Workload,
    warmup: u64,
    config: Option<SimConfig>,
    schedule: Option<Schedule>,
}

impl Bench {
    fn new(args: &RunArgs) -> Self {
        let workload = args.workload;
        let (warmup, measure) = workload.cycles(args.quick);
        let config = workload.sim_config(args.seed, args.quick);
        let schedule = config.is_none().then(|| {
            let nodes = workload.fabric().0.nodes() as u16;
            Schedule::generate(args.seed, nodes, warmup + measure)
        });
        Self {
            workload,
            warmup,
            config,
            schedule,
        }
    }

    fn rep<P: Probe>(&self, opts: RepOptions<'_>, p: &mut P) -> Rep {
        match (&self.config, &self.schedule) {
            (Some(cfg), _) => session_rep(cfg, opts, p),
            (None, Some(schedule)) => {
                echo_rep(self.workload.fabric(), schedule, self.warmup, opts, p)
            }
            (None, None) => unreachable!("a workload is a session or an echo"),
        }
    }
}

/// Operation accounting: every rep is one operation; it fails on its own
/// checks or when its results differ from the first rep's.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failures: Vec<String>,
    reference: Option<u64>,
}

impl Ops {
    fn check(&mut self, label: &str, rep: &Rep) {
        self.attempted += 1;
        if let Some(why) = &rep.failure {
            self.failures.push(format!("{label}: {why}"));
            return;
        }
        match self.reference {
            None => self.reference = Some(rep.fingerprint),
            Some(first) if first != rep.fingerprint => self.failures.push(format!(
                "{label}: results differ from the first rep \
                 (fingerprint {:016x}, first {first:016x})",
                rep.fingerprint
            )),
            Some(_) => {}
        }
    }
}

fn total_s(rep: &Rep) -> f64 {
    rep.setup_s + rep.window_s
}

fn cycles_per_s(rep: &Rep) -> f64 {
    rep.window_cycles as f64 / rep.window_s
}

/// Runs reps until `seconds` have passed, and at least the floor.
fn keep_going(started: Instant, args: &RunArgs, done: usize) -> bool {
    if args.quick {
        return done < QUICK_REPS;
    }
    done < MIN_REPS || started.elapsed() < Duration::from_secs_f64(args.seconds)
}

/// The end-to-end pass. Each rep is bracketed by two runs of the host
/// probe, and its host times are scaled by the probe's nominal time over
/// the mean of the two (see [`HostProbe`]): the reported `setup_s` and
/// `sim_cycles_per_s` are medians of the scaled values, the unscaled
/// medians are kept beside them under `raw.*`.
fn end_to_end(bench: &Bench, args: &RunArgs, detail: &mut Detail) {
    let mut ops = Ops::default();
    let mut reps = Vec::new();
    let mut probe = HostProbe::new();
    let mut probes = vec![probe.run()];
    let started = Instant::now();
    while keep_going(started, args, reps.len()) {
        let rep = bench.rep(RepOptions::plain(), &mut Off);
        probes.push(probe.run());
        ops.check(&format!("rep {}", reps.len() + 1), &rep);
        reps.push(rep);
    }
    let scale: Vec<f64> = probes
        .windows(2)
        .map(|p| HostProbe::NOMINAL_S / ((p[0] + p[1]) / 2.0))
        .collect();
    let scaled = |f: fn(&Rep, f64) -> f64| {
        let values: Vec<f64> = reps.iter().zip(&scale).map(|(r, s)| f(r, *s)).collect();
        summary(&values)
    };
    let setup = scaled(|r, s| r.setup_s * s);
    let speed = scaled(|r, s| cycles_per_s(r) / s);
    let first = &reps[0];
    let m = &mut detail.metrics;
    m.insert("setup_s".into(), setup.median);
    m.insert("sim_cycles_per_s".into(), speed.median);
    m.insert(
        "peak_rss_mb".into(),
        host::peak_rss_mb() - HostProbe::RESIDENT_MB,
    );
    m.insert(
        "sim_net_latency_cycles".into(),
        first.sim.net_latency_cycles,
    );
    m.insert("sim_reply_p99_cycles".into(), first.sim.reply_p99_cycles);
    detail.host.insert("setup_s".into(), setup);
    detail.host.insert("sim_cycles_per_s".into(), speed);
    detail
        .host
        .insert("raw.setup_s".into(), scaled(|r, _| r.setup_s));
    detail.host.insert(
        "raw.sim_cycles_per_s".into(),
        scaled(|r, _| cycles_per_s(r)),
    );
    detail.probe_seconds = probes;
    finish(detail, ops, &reps);
}

/// Fills in what both passes report from the untraced reps.
fn finish(detail: &mut Detail, ops: Ops, plain: &[Rep]) {
    let first = &plain[0];
    detail.rep_seconds = plain.iter().map(|r| (r.setup_s, r.window_s)).collect();
    detail.attempted = ops.attempted;
    detail.failed = ops.failures.len() as u64;
    detail.failures = ops.failures;
    detail.sim = first.sim;
    detail.counts = first.counts;
    detail.fingerprint = format!("{:016x}", first.fingerprint);
}

/// What the traced reps' spans add up to.
#[derive(Default)]
struct Harvest {
    reps: u64,
    /// Durations, ms, of the spans that occur once per rep, by name.
    once_ms: BTreeMap<&'static str, Vec<f64>>,
    slice_ns_per_cycle: Vec<f64>,
    tick_ns: Vec<f64>,
    inject_ns: u64,
    injected: u64,
    take_ns: u64,
    takes: u64,
    window_ns: u64,
    window_self_ns: u64,
}

impl Harvest {
    /// Adds the spans recorded from index `from` on (parents are absolute
    /// indices into `spans`). Only calls made inside a measured window
    /// count towards the per-call figures.
    fn take(&mut self, spans: &[Span], from: usize) {
        self.reps += 1;
        let own = self_times(spans);
        for (span, own_ns) in spans.iter().zip(own).skip(from) {
            let ns = span.duration_ns();
            let in_window = span
                .parent
                .is_some_and(|p| spans[p as usize].name == "window");
            match span.name {
                "window" => {
                    self.window_ns += ns;
                    self.window_self_ns += own_ns;
                }
                "system.run_until.slice" if in_window && span.count > 0 => self
                    .slice_ns_per_cycle
                    .push(ns as f64 / f64::from(span.count)),
                "noc.tick" if in_window => self.tick_ns.push(ns as f64),
                "noc.inject" if in_window => {
                    self.inject_ns += ns;
                    self.injected += u64::from(span.count);
                }
                "noc.take_delivered" if in_window => {
                    self.take_ns += ns;
                    self.takes += 1;
                }
                "system.session_new"
                | "system.warmup"
                | "system.finish"
                | "noc.new"
                | "noc.stats"
                | "stats.result_serialize"
                | "power.network_energy" => {
                    self.once_ms
                        .entry(span.name)
                        .or_default()
                        .push(ns as f64 / 1e6);
                }
                _ => {}
            }
        }
    }

    fn once_median_ms(&self, name: &str) -> f64 {
        self.once_ms.get(name).map_or(0.0, |v| median(v))
    }

    fn tick_total_ns(&self) -> f64 {
        self.tick_ns.iter().sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `bench.sweep_*`: eight quick 16-core points through the sweep engine,
/// cold then warm cache, on at most two workers.
fn sweep_layer(m: &mut Metrics, scratch: &Path) -> Result<(), String> {
    let dir = scratch.join("sweep-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let jobs: Vec<(String, SimConfig)> = ["fft", "barnes", "dedup", "canneal"]
        .iter()
        .flat_map(|app| {
            [
                MechanismConfig::baseline(),
                MechanismConfig::complete_noack(),
            ]
            .into_iter()
            .map(move |mech| {
                let cfg = SimConfig {
                    warmup_cycles: 1_000,
                    measure_cycles: 4_000,
                    ..SimConfig::quick(16, mech, app)
                };
                (format!("{app}/{}", mech.label()), cfg)
            })
        })
        .collect();
    let runner = SweepRunner::new(host::nproc().min(2), Some(dir.clone()));
    let cold = runner.run(&jobs);
    let warm = runner.run(&jobs);
    let _ = std::fs::remove_dir_all(&dir);
    let points = jobs.len() as f64;
    m.insert(
        "bench.sweep_points_per_s".into(),
        ratio(points * 1e3, cold.stats.wall_ms),
    );
    m.insert(
        "bench.sweep_parallel_eff".into(),
        ratio(
            cold.stats.busy_ms,
            cold.stats.wall_ms * cold.stats.jobs as f64,
        ),
    );
    m.insert("bench.cache_hit_ms".into(), warm.stats.wall_ms / points);
    if cold.stats.failed != 0 || cold.stats.cached != 0 || warm.stats.cached != jobs.len() {
        return Err(format!(
            "sweep: cold {:?}, warm {:?}",
            cold.stats, warm.stats
        ));
    }
    Ok(())
}

/// The traced pass.
fn traced(bench: &Bench, args: &RunArgs, detail: &mut Detail) -> Recorder {
    let w = bench.workload;
    let out = host::out_dir();
    let mut ops = Ops::default();
    let mut rec = Recorder::new();
    let mut own = Harvest::default();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut kept = None;

    // Untraced and traced reps alternate, so drift in the host's speed
    // hits both sides of `bench.span_overhead_ratio` alike. Only the first
    // traced rep's spans are kept for export; the rest are aggregated.
    let started = Instant::now();
    while keep_going(started, args, 2 * traced.len()) {
        let rep = bench.rep(RepOptions::plain(), &mut Off);
        ops.check(&format!("untraced rep {}", plain.len() + 1), &rep);
        plain.push(rep);
        let from = rec.spans().len();
        let rep = rec.span("rep", |rec| bench.rep(RepOptions::plain(), rec));
        own.take(rec.spans(), from);
        match kept {
            None => kept = Some(rec.spans().len()),
            Some(len) => rec.truncate(len),
        }
        ops.check(&format!("traced rep {}", traced.len() + 1), &rep);
        traced.push(rep);
    }
    let plain_total = median(&plain.iter().map(total_s).collect::<Vec<_>>());
    let plain_window = median(&plain.iter().map(|r| r.window_s).collect::<Vec<_>>());
    let plain_speed = median(&plain.iter().map(cycles_per_s).collect::<Vec<_>>());
    let traced_speed = median(&traced.iter().map(cycles_per_s).collect::<Vec<_>>());
    let first = &plain[0];
    let counts = first.counts;
    let mut m = Metrics::new();

    // Reference reps: same inputs under the dense kernel, on several
    // shards, and with the simulator's own tracing; each must reproduce
    // the first rep's results before its time is used.
    let mut rep_snap = SnapshotCosts::default();
    let dense = rec.span("rep.dense", |rec| {
        let opts = RepOptions {
            kernel: KernelMode::Dense,
            snapshot: Some((&out, &mut rep_snap)),
            ..RepOptions::plain()
        };
        bench.rep(opts, rec)
    });
    ops.check("dense-kernel rep", &dense);
    m.insert(
        "core.sched.event_over_dense".into(),
        ratio(total_s(&dense), plain_total),
    );
    let shards = host::nproc().min(4);
    m.insert("core.shard.shards".into(), shards as f64);
    // On one hardware thread a shard count above 1 only measures thread
    // hand-offs; no parallel speed-up is claimed there.
    let speedup = if shards < 2 {
        1.0
    } else {
        let sharded = rec.span("rep.sharded", |rec| {
            let opts = RepOptions {
                shards,
                ..RepOptions::plain()
            };
            bench.rep(opts, rec)
        });
        ops.check("sharded rep", &sharded);
        ratio(plain_total, total_s(&sharded))
    };
    m.insert("core.shard.speedup".into(), speedup);
    let sim_traced = rec.span("rep.sim_traced", |rec| {
        let opts = RepOptions {
            sim_trace: Some(SIM_TRACE_CAPACITY),
            ..RepOptions::plain()
        };
        bench.rep(opts, rec)
    });
    ops.check("simulator-traced rep", &sim_traced);
    m.insert(
        "trace.on_over_off".into(),
        ratio(total_s(&sim_traced), plain_total),
    );
    let events = &sim_traced.trace_events;
    m.insert("trace.events".into(), events.len() as f64);
    rec.span("trace.breakdown", |_| {
        let t = Instant::now();
        std::hint::black_box(rcsim_trace::LatencyBreakdown::from_events(events));
        m.insert("trace.breakdown_ms".into(), t.elapsed().as_secs_f64() * 1e3);
    });
    rec.span("trace.chrome_export", |_| {
        let t = Instant::now();
        std::hint::black_box(rcsim_trace::chrome_trace_json(events));
        m.insert(
            "trace.chrome_export_ms".into(),
            t.elapsed().as_secs_f64() * 1e3,
        );
    });

    // Layer drivers: unit costs, independent of the workload.
    rec.span("driver.sweep", |_| {
        if let Err(why) = sweep_layer(&mut m, &out) {
            ops.attempted += 1;
            ops.failures.push(why);
        }
    });
    rec.span("driver.workload", |_| {
        layers::workload_layer(&mut m, args.seed)
    });
    rec.span("driver.core_model", |_| {
        layers::core_model_layer(&mut m, args.seed);
    });
    rec.span("driver.protocol", |_| layers::protocol_layer(&mut m));
    rec.span("driver.noc", |_| layers::noc_layer(&mut m));
    rec.span("driver.circuit", |_| layers::circuit_layer(&mut m));
    rec.span("driver.routing", |_| {
        layers::routing_layer(&mut m, args.seed)
    });
    rec.span("driver.stats", |_| layers::stats_layer(&mut m));
    rec.span("driver.calibration", |_| {
        m.insert(
            "bench.calibration_score".into(),
            layers::calibration_score(),
        );
    });

    // The network's per-call figures. The echo workloads time their own
    // network; a full-system run owns its network, so there the same calls
    // are timed on a bare network of the workload's size and mechanism
    // under the echo load.
    let mut driver = Harvest::default();
    let mut driver_rep = None;
    let mut driver_snap = SnapshotCosts::default();
    if !w.is_echo() {
        let fabric = w.fabric();
        let (warmup, measure) = Workload::Net256Circuit.cycles(args.quick);
        let schedule = Schedule::generate(args.seed, fabric.0.nodes() as u16, warmup + measure);
        let from = rec.spans().len();
        let rep = rec.span("driver.noc_echo", |rec| {
            let opts = RepOptions {
                snapshot: Some((&out, &mut driver_snap)),
                ..RepOptions::plain()
            };
            echo_rep(fabric, &schedule, warmup, opts, rec)
        });
        driver.take(rec.spans(), from);
        if let Some(why) = &rep.failure {
            ops.attempted += 1;
            ops.failures.push(format!("noc driver: {why}"));
        }
        driver_rep = Some(rep);
    }
    // Checkpoint costs were taken at mid-window of the dense rep: of the
    // whole session on a full-system workload (its network's share comes
    // from the driver network), of the network on an echo workload.
    let (noc, noc_counts, noc_cycles, session_snap, net_snap) = match &driver_rep {
        Some(rep) => (
            &driver,
            rep.counts,
            rep.window_cycles,
            rep_snap,
            driver_snap,
        ),
        None => (
            &own,
            counts,
            first.window_cycles,
            SnapshotCosts::default(),
            rep_snap,
        ),
    };
    let routers = w.fabric().0.routers() as f64;
    let tick_total = noc.tick_total_ns();
    let noc_hops = (noc_counts.flit_hops * noc.reps) as f64;
    m.insert("noc.new_ms".into(), noc.once_median_ms("noc.new"));
    m.insert("noc.tick_ns_p50".into(), percentile(&noc.tick_ns, 50.0));
    m.insert(
        "noc.tick_ns_p99".into(),
        supported_percentile(&noc.tick_ns, 99.0),
    );
    m.insert("bench.tick_samples".into(), noc.tick_ns.len() as f64);
    m.insert(
        "noc.inject_ns".into(),
        ratio(noc.inject_ns as f64, noc.injected as f64),
    );
    m.insert(
        "noc.take_delivered_ns".into(),
        ratio(noc.take_ns as f64, noc.takes as f64),
    );
    m.insert("noc.ns_per_flit_hop".into(), ratio(tick_total, noc_hops));
    m.insert(
        "noc.ns_per_router_tick".into(),
        ratio(tick_total, noc.tick_ns.len() as f64 * routers),
    );
    m.insert("noc.snapshot_ms".into(), net_snap.snapshot_ms);
    m.insert("noc.restore_ms".into(), net_snap.restore_ms);
    m.insert("noc.health_us".into(), net_snap.health_us);

    // Exact counts of the workload's own measured window.
    for (name, value) in [
        ("noc.flit_hops", counts.flit_hops),
        ("noc.buffer_writes", counts.buffer_writes),
        ("noc.vc_allocs", counts.vc_allocs),
        ("noc.sw_allocs", counts.sw_allocs),
        ("noc.circuit_lookups", counts.circuit_lookups),
        ("noc.circuit_writes", counts.circuit_writes),
        ("noc.packets", counts.packets),
        ("protocol.l1_accesses", counts.l1_accesses),
        ("protocol.l1_misses", counts.l1_misses),
        ("protocol.l2_queued_on_busy", counts.l2_queued_on_busy),
        ("protocol.messages", counts.messages),
        ("workload.ops", counts.l1_accesses),
        ("system.instructions", counts.instructions),
        ("bench.window_cycles", first.window_cycles),
        ("bench.traced_reps", own.reps),
    ] {
        m.insert(name.into(), value as f64);
    }
    m.insert("bench.window_ms".into(), plain_window * 1e3);
    m.insert(
        "noc.flit_hops_per_s".into(),
        ratio(counts.flit_hops as f64, plain_window),
    );
    m.insert(
        "core.circuit.reserve_ok_ratio".into(),
        ratio(
            counts.reserved as f64,
            (counts.reserved + counts.reserve_failed) as f64,
        ),
    );
    m.insert(
        "noc.ingress_admit_ratio".into(),
        ratio(
            counts.ext_offers.saturating_sub(counts.ext_rejected) as f64,
            counts.ext_offers as f64,
        ),
    );
    m.insert("sim_ipc".into(), first.sim.ipc);
    m.insert("sim_circuit_hit_rate".into(), first.sim.circuit_hit_rate);
    m.insert("sim_ext_goodput".into(), first.sim.ext_goodput);
    m.insert("sim_ext_p99_cycles".into(), first.sim.ext_p99_cycles);

    // The session layer's calls (all zero on the echo workloads, which
    // never build a session).
    m.insert(
        "system.session_new_ms".into(),
        own.once_median_ms("system.session_new"),
    );
    m.insert(
        "system.warmup_s".into(),
        own.once_median_ms("system.warmup") / 1e3,
    );
    m.insert(
        "system.slice_ns_per_cycle_p50".into(),
        percentile(&own.slice_ns_per_cycle, 50.0),
    );
    m.insert(
        "system.slice_ns_per_cycle_p95".into(),
        supported_percentile(&own.slice_ns_per_cycle, 95.0),
    );
    m.insert(
        "system.finish_ms".into(),
        own.once_median_ms("system.finish"),
    );
    m.insert("noc.stats_ms".into(), own.once_median_ms("noc.stats"));
    m.insert(
        "stats.result_serialize_ms".into(),
        own.once_median_ms("stats.result_serialize"),
    );
    m.insert(
        "power.network_energy_us".into(),
        own.once_median_ms("power.network_energy") * 1e3,
    );
    m.insert("system.checkpoint_ms".into(), session_snap.snapshot_ms);
    m.insert("system.save_ms".into(), session_snap.save_ms);
    m.insert("system.checkpoint_bytes".into(), session_snap.bytes as f64);
    m.insert("system.resume_ms".into(), session_snap.restore_ms);

    // The cost model: unit cost × exact count ÷ measured window time. On
    // an echo workload the network's share is measured directly (tick
    // time ÷ window time); the remainder is reported, never hidden.
    let window_ns = plain_window * 1e9;
    let shares = if w.is_echo() {
        [
            0.0,
            0.0,
            0.0,
            ratio(own.tick_total_ns(), own.window_ns as f64),
        ]
    } else {
        let ops_n = counts.l1_accesses as f64;
        let hits = (counts.l1_accesses - counts.l1_misses) as f64;
        let next_op = m["workload.next_op_ns"];
        let idle = m["noc.idle_tick_ns_64"];
        let per_hop = ratio(
            (tick_total - idle * (noc_cycles * noc.reps) as f64).max(0.0),
            noc_hops,
        );
        [
            next_op * ops_n / window_ns,
            (2.0 * m["system.core_poll_ns"] - next_op).max(0.0) * ops_n / window_ns,
            (m["protocol.l1_hit_ns"] * hits
                + m["protocol.miss_roundtrip_ns"] * counts.l1_misses as f64)
                / window_ns,
            (idle * first.window_cycles as f64 + per_hop * counts.flit_hops as f64) / window_ns,
        ]
    };
    for (name, share) in [
        "system.share_workload",
        "system.share_core_model",
        "system.share_protocol",
        "system.share_noc",
    ]
    .into_iter()
    .zip(shares)
    {
        m.insert(name.into(), share);
    }
    m.insert(
        "system.unattributed_share".into(),
        1.0 - shares.iter().sum::<f64>(),
    );
    m.insert(
        "bench.span_overhead_ratio".into(),
        ratio(traced_speed, plain_speed),
    );
    m.insert(
        "bench.harness_self_share".into(),
        ratio(own.window_self_ns as f64, own.window_ns as f64),
    );

    detail.metrics = m;
    detail.host.insert(
        "sim_cycles_per_s".into(),
        summary(&plain.iter().map(cycles_per_s).collect::<Vec<_>>()),
    );
    detail.span_totals = totals_by_name(rec.spans())
        .into_iter()
        .map(|(name, total)| (name.to_owned(), total))
        .collect();
    finish(detail, ops, &plain);
    rec
}

/// Checks that `metrics` holds exactly the names of `defs`.
fn check_names(metrics: &Metrics, defs: &[MetricDef]) -> Result<(), String> {
    let missing: Vec<&str> = defs
        .iter()
        .map(|d| d.name.as_str())
        .filter(|n| !metrics.contains_key(*n))
        .collect();
    let extra: Vec<&String> = metrics
        .keys()
        .filter(|k| !defs.iter().any(|d| d.name == **k))
        .collect();
    if missing.is_empty() && extra.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "metric names: missing {missing:?}, extra {extra:?}"
        ))
    }
}

/// The one-line result the benchmark contract asks for.
pub fn result_line(detail: &Detail, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let value = detail.metrics.get(&d.name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        detail.failed == 0,
        detail.attempted,
        detail.failed,
        metrics.join(", ")
    )
}

/// The file a run's [`Detail`] is written to.
pub fn detail_path(workload: Workload, trace: bool) -> std::path::PathBuf {
    let pass = if trace { "layers" } else { "e2e" };
    host::out_dir().join(format!("{pass}_{}.json", workload.name()))
}

/// Runs one workload and returns what it learned (also written to
/// [`detail_path`]; the traced pass adds `trace_<workload>.json`).
///
/// # Errors
///
/// When the output directory cannot be written, or the metric set is not
/// the catalog's (a bug in this benchmark).
pub fn run(args: &RunArgs) -> Result<Detail, String> {
    let io = |e: std::io::Error| format!("{}: {e}", host::out_dir().display());
    std::fs::create_dir_all(host::out_dir()).map_err(io)?;
    let bench = Bench::new(args);
    let (warmup_cycles, measure_cycles) = args.workload.cycles(args.quick);
    let mut detail = Detail {
        workload: args.workload.name().to_owned(),
        seed: args.seed,
        quick: args.quick,
        traced: args.trace,
        warmup_cycles,
        measure_cycles,
        ..Detail::default()
    };
    if args.trace {
        let rec = traced(&bench, args, &mut detail);
        check_names(&detail.metrics, &catalog().per_layer)?;
        let path = host::out_dir().join(format!("trace_{}.json", args.workload.name()));
        let json = chrome_trace_json(rec.spans(), args.workload.name(), args.workload.id());
        std::fs::write(path, json).map_err(io)?;
    } else {
        end_to_end(&bench, args, &mut detail);
        check_names(&detail.metrics, &catalog().end_to_end)?;
    }
    if let Some(expected) = Expected::load() {
        detail.drift = expected.drift(&detail);
    }
    let json = serde_json::to_string_pretty(&detail).map_err(|e| e.to_string())?;
    std::fs::write(detail_path(args.workload, args.trace), json).map_err(io)?;
    Ok(detail)
}
