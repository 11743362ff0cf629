//! Sweeps around the paper's grid: chip size, warm-up length, and the
//! ablations of DESIGN.md §8. Each runs one workload — the first
//! `RC_APPS` entry, canneal when unset — over `RC_SEEDS`.

use super::paper::{share, REPLIES};
use super::{hit_rate, load, outcome, speedup, PLAIN};
use crate::echo::EchoSpec;
use crate::table::{cell, Cell, Experiment, Fmt, Row, RowData};
use crate::{sim_jobs, RunEnv};
use rcsim_core::{MechanismConfig, TopologySpec};
use rcsim_system::SimConfig;

/// The study workload's jobs for one row.
fn jobs(
    env: &RunEnv,
    cores: u16,
    mechanism: MechanismConfig,
    tag: &str,
    adjust: impl Fn(&mut SimConfig),
) -> Vec<(String, SimConfig)> {
    let app = std::slice::from_ref(&env.first_app);
    sim_jobs(env, app, cores, mechanism, tag, adjust)
}

/// A hidden baseline row for the rows of `section` at `cores` to name.
fn baseline(env: &RunEnv, section: &'static str, cores: u16) -> Row {
    let jobs = jobs(env, cores, MechanismConfig::baseline(), "", |_| {});
    Row::new(section, cores, "Baseline").sim(jobs).hidden()
}

// ---------------------------------------------------------------- scaling

/// §5.5: how circuit usage and speed-up evolve with chip size. Longer
/// paths and more concurrent traffic make complete circuits harder to
/// build — the reason the paper argues for timed circuits and partitioned
/// usage (`examples/partitioned.rs`) at larger scales.
fn scaling_grid(env: &RunEnv) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for cores in [16u16, 32, 64] {
        rows.push(baseline(env, "", cores));
        for mechanism in [
            MechanismConfig::complete_noack(),
            MechanismConfig::slack_delay(1),
        ] {
            let row = Row::new("", cores, mechanism.label());
            rows.push(
                row.sim(jobs(env, cores, mechanism, "", |_| {}))
                    .base("Baseline"),
            );
        }
    }
    Ok(rows)
}

pub const SCALING: Experiment = Experiment {
    name: "scaling",
    title: "Scalability sweep: circuits get harder to build as chips grow",
    grid: scaling_grid,
    cells: |d| speedup(d, [hit_rate(d), outcome(d, "failed_frac", "failed")]),
    ..PLAIN
};

// ------------------------------------------------------------ convergence

/// How the Table 1 message mix approaches its steady state as the
/// warm-up window grows (the paper warms for 200 M cycles): where the
/// synthetic workloads converge, and which shares are still settling at
/// the harness default. Paper-size caches whatever `RC_SMALL_CACHES`
/// says; warm-ups `RC_MAX_CYCLES` clamps to the same length run once.
fn convergence_grid(env: &RunEnv) -> Result<Vec<Row>, String> {
    let clamp = |w: u64| w.min(env.max_cycles - 1);
    let mut warmups = [5_000, 20_000, 60_000, 150_000, 400_000]
        .map(clamp)
        .to_vec();
    warmups.dedup();
    let row = |warmup: u64| {
        let adjust = |cfg: &mut SimConfig| {
            cfg.warmup_cycles = warmup;
            cfg.measure_cycles = 30_000.min(env.max_cycles - warmup);
            cfg.small_caches = false;
        };
        let tag = format!(" warm-up {warmup}");
        let jobs = jobs(env, 64, MechanismConfig::baseline(), &tag, adjust);
        Row::new("", 64, format!("warmup_{warmup}")).sim(jobs)
    };
    Ok(warmups.into_iter().map(row).collect())
}

pub const CONVERGENCE: Experiment = Experiment {
    name: "convergence",
    title: "Message-mix convergence vs warm-up (64 cores, baseline; paper steady state above)",
    grid: convergence_grid,
    cells: |d| {
        let settling = REPLIES[..5].iter();
        let shares = settling.map(|&(class, paper)| share(d, class, class, &[class], paper));
        shares.chain([load(d)]).collect()
    },
    ..PLAIN
};

// -------------------------------------------------------------- ablations

const ENTRIES: &str = "circuits per input port (Complete_NoAck; the paper settles on 5, §4.2)";
const L2_MISS: &str = "keep vs undo circuits on an L2 miss (§4.4: keeping performs better)";
const SCROUNGER: &str = "scrounger semantics (the paper leaves borrow-vs-consume open)";
const SLACK: &str =
    "slack sweep, timed circuits (§5.2: small slack loses to delays, large re-creates conflicts)";
const LOAD: &str =
    "congestion threshold, synthetic request/reply on 8x8 (§5.5: gains shrink as conflicts grow)";

/// One open-loop point of the load study: 4 000 cycles of uniform
/// requests at `rate`, every reply eligible for its circuit, latencies
/// read where injection stops.
fn load_point(mechanism: MechanismConfig, rate: f64) -> EchoSpec {
    EchoSpec {
        topology: TopologySpec::Mesh,
        cores: 64,
        mechanism,
        seed: 7,
        rate,
        window: u32::MAX,
        turnaround: 0,
        cycles: 4_000,
        drain: false,
    }
}

fn ablations_grid(env: &RunEnv) -> Result<Vec<Row>, String> {
    let noack = MechanismConfig::complete_noack();
    let sim = |section, label: String, mechanism| {
        Row::new(section, 64, label).sim(jobs(env, 64, mechanism, "", |_| {}))
    };
    let mut rows = Vec::new();
    for entries in [1u8, 2, 3, 5, 8] {
        let mechanism = MechanismConfig {
            max_circuits_per_input: entries,
            ..noack
        };
        rows.push(sim(ENTRIES, format!("entries_{entries}"), mechanism));
    }
    let undo = MechanismConfig {
        undo_on_l2_miss: true,
        ..noack
    };
    rows.push(baseline(env, L2_MISS, 64));
    for (label, mechanism) in [("l2miss_keep", noack), ("l2miss_undo", undo)] {
        rows.push(sim(L2_MISS, label.to_owned(), mechanism).base("Baseline"));
    }
    let modes = [
        ("no_reuse", noack),
        ("consume", MechanismConfig::reuse_noack()),
        ("borrow", MechanismConfig::reuse_borrow_noack()),
    ];
    rows.push(baseline(env, SCROUNGER, 64));
    for (mode, mechanism) in modes {
        rows.push(sim(SCROUNGER, format!("scrounger_{mode}"), mechanism).base("Baseline"));
    }
    for slack in [0u32, 1, 2, 4, 8] {
        let mechanism = match slack {
            0 => MechanismConfig::timed_noack(),
            k => MechanismConfig::slack(k),
        };
        rows.push(sim(SLACK, format!("slack_{slack}"), mechanism));
    }
    for rate in [0.005, 0.01, 0.02, 0.05, 0.1] {
        let (label, base) = (format!("load_{rate}"), format!("load_{rate}/baseline"));
        let packet_switched = load_point(MechanismConfig::baseline(), rate);
        rows.push(Row::new(LOAD, 64, &base).net(packet_switched).hidden());
        let circuits = Row::new(LOAD, 64, label).net(load_point(MechanismConfig::complete(), rate));
        let circuits = circuits.base(base);
        rows.push(circuits.param("rate", "packets/node/cycle", Fmt::Num(3), rate));
    }
    Ok(rows)
}

/// Each study shows what it varies. The load study's rows carry the
/// circuit-reply latency under `Complete` and its hidden packet-switched
/// base: no full-system run stands behind them.
fn ablations_cells(d: &RowData) -> Vec<Cell> {
    let failed = || outcome(d, "failed_frac", "failed");
    let undone = || outcome(d, "undone_frac", "undone");
    match d.row.section {
        ENTRIES => {
            let storage = d.total(|r| r.reservation_failures[0]) as f64;
            let storage = cell("storage_failures", "storage-fail", Fmt::Num(0), storage);
            vec![hit_rate(d), failed(), storage]
        }
        L2_MISS => speedup(d, [hit_rate(d), undone()]),
        SCROUNGER => {
            let scrounger = outcome(d, "scrounger_frac", "scrounger");
            speedup(d, [hit_rate(d), scrounger, failed()])
        }
        SLACK => vec![hit_rate(d), failed(), undone()],
        _ => {
            let (baseline, complete) = (d.base_nets[0].net_avg, d.nets[0].net_avg);
            let gain = (baseline - complete) / baseline;
            vec![
                cell("baseline_latency", "baseline", Fmt::Num(1), baseline),
                cell("avg_latency", "complete", Fmt::Num(1), complete),
                cell("latency_gain", "gain", Fmt::Pct(1), gain),
            ]
        }
    }
}

pub const ABLATIONS: Experiment = Experiment {
    name: "ablations",
    title: "Ablations beyond the paper's main grid (DESIGN.md §8; 64 cores)",
    grid: ablations_grid,
    cells: ablations_cells,
    ..PLAIN
};
