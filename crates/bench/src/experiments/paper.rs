//! The paper's own evaluation: Tables 1, 5 and 6 and Figures 6–10, each
//! with the statements §5 makes about it as claims.

use super::{both, hit_rate, load, outcome, ratio, speedup, PLAIN};
use crate::table::{cell, Cell, Check, Claim, Experiment, Fmt, Row, RowData, Table};
use crate::{sim_jobs, RunEnv};
use rcsim_core::MechanismConfig;
use rcsim_power::area_savings;
use rcsim_stats::geometric_mean;
use rcsim_system::{run_sim_traced, RunResult, SimConfig, TraceConfig};

/// One row per (`RC_CORES` size × mechanism) over `RC_APPS` × `RC_SEEDS`;
/// `paired` makes `Baseline` every other row's base.
fn mechanism_rows(env: &RunEnv, mechanisms: &[MechanismConfig], paired: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for &cores in &env.cores {
        for &mechanism in mechanisms {
            let jobs = sim_jobs(env, &env.apps, cores, mechanism, "", |_| {});
            let row = Row::new("", cores, mechanism.label()).sim(jobs);
            let is_base = mechanism == MechanismConfig::baseline();
            rows.push(match paired && !is_base {
                true => row.base("Baseline"),
                false => row,
            });
        }
    }
    rows
}

/// The one row of Tables 1 and 5: every `RC_APPS` workload together at 64
/// cores under `mechanism`.
fn all_apps_row(env: &RunEnv, mechanism: MechanismConfig) -> Result<Vec<Row>, String> {
    let jobs = sim_jobs(env, &env.apps, 64, mechanism, "", |_| {});
    Ok(vec![Row::new("", 64, mechanism.label()).sim(jobs)])
}

/// Whether a row is one of the paper's versions rather than a bound.
fn is_version(label: &str) -> bool {
    !["Baseline", "Ideal"].contains(&label)
}

// ---------------------------------------------------------------- Table 1

/// The message classes Table 1 counts as requests.
const REQUESTS: &[&str] = &[
    "Request",
    "FwdRequest",
    "Invalidation",
    "WbData",
    "MemRequest",
    "MemWbData",
];

/// Table 1's reply classes with the paper's share of all messages.
pub(super) const REPLIES: &[(&str, f64)] = &[
    ("L2_Reply", 22.6),
    ("L1_DATA_ACK", 23.0),
    ("L2_WB_ACK", 4.7),
    ("L1_INV_ACK", 1.1),
    ("MEMORY", 0.9),
    ("L1_TO_L1", 0.7),
];

/// Messages of every class over the row's runs.
fn messages(d: &RowData) -> u64 {
    d.total(|r| r.messages.values().sum())
}

/// The percentage of the row's messages that belong to `classes`, as the
/// cell `share.<key>` with the paper's value.
pub(super) fn share(d: &RowData, key: &str, header: &str, classes: &[&str], paper: f64) -> Cell {
    let of = |class: &&str| d.total(|r| r.messages.get(*class).copied().unwrap_or(0));
    let percent = classes.iter().map(of).sum::<u64>() as f64 * 100.0 / messages(d).max(1) as f64;
    let header = format!("{header} %");
    cell(&format!("share.{key}"), &header, Fmt::Num(1), percent).paper(paper)
}

fn table1_cells(d: &RowData) -> Vec<Cell> {
    let mut cells = vec![share(d, "Requests (total)", "requests", REQUESTS, 47.0)];
    let replies = REPLIES.iter();
    cells.extend(replies.map(|&(class, paper)| share(d, class, class, &[class], paper)));
    let replies: f64 = cells[1..].iter().map(|c| c.value).sum();
    let replies = cell("share.Replies (total)", "replies %", Fmt::Num(1), replies);
    cells.push(replies.paper(53.0));
    cells.push(cell(
        "messages",
        "messages",
        Fmt::Num(0),
        messages(d) as f64,
    ));
    cells
}

pub const TABLE1: Experiment = Experiment {
    name: "table1",
    title: "Table 1 — message mix (64 cores, baseline, all apps together)",
    grid: |env| all_apps_row(env, MechanismConfig::baseline()),
    cells: table1_cells,
    claims: &[
        Claim {
            name: "request-reply-split",
            paper: "Requests are 47 % of all messages and replies 53 %.",
            deviation: Some("cold-window"),
            check: |t| t.near(64, "Baseline", "share.Requests (total)", 47.0, 5.0),
        },
        Claim {
            name: "dominant-replies",
            paper: "L2_Reply (22.6 %) and L1_DATA_ACK (23.0 %) dominate the replies.",
            deviation: None,
            check: |t| {
                let reply = t.near(64, "Baseline", "share.L2_Reply", 22.6, 3.0);
                both(
                    reply,
                    t.near(64, "Baseline", "share.L1_DATA_ACK", 23.0, 3.0),
                )
            },
        },
        Claim {
            name: "memory-share",
            paper: "MEMORY traffic is 0.9 % of all messages.",
            deviation: Some("cold-window"),
            check: |t| t.near(64, "Baseline", "share.MEMORY", 0.9, 1.5),
        },
    ],
    ..PLAIN
};

// ---------------------------------------------------------------- Table 5

/// Shares of the reservation attempts: those that landed in each of the
/// first five entries of an input port's circuit table, and the failed.
fn table5_cells(d: &RowData) -> Vec<Cell> {
    let mut at_index = [0u64; 5];
    let mut attempts = d.total(|r| r.reservations_failed);
    for (i, n) in d
        .runs
        .iter()
        .flat_map(|r| r.reservations_at_index.iter().enumerate())
    {
        attempts += n;
        if let Some(entry) = at_index.get_mut(i) {
            *entry += n;
        }
    }
    let pct = |n: u64| 100.0 * n as f64 / attempts.max(1) as f64;
    let entries = ["1st %", "2nd %", "3rd %", "4th %", "5th %"];
    let paper = [48.0, 24.0, 7.0, 6.0, 6.0];
    let mut cells: Vec<Cell> = (0..5)
        .map(|i| {
            let key = format!("entry_{}_pct", i + 1);
            cell(&key, entries[i], Fmt::Num(1), pct(at_index[i])).paper(paper[i])
        })
        .collect();
    let failed = pct(d.total(|r| r.reservations_failed));
    cells.push(cell("failed_pct", "failed %", Fmt::Num(1), failed).paper(9.0));
    cells.push(cell("attempts", "attempts", Fmt::Num(0), attempts as f64));
    cells
}

pub const TABLE5: Experiment = Experiment {
    name: "table5",
    title: "Table 5 — circuit reservations per input-port entry (Complete_NoAck, 64 cores)",
    grid: |env| all_apps_row(env, MechanismConfig::complete_noack()),
    cells: table5_cells,
    claims: &[
        Claim {
            name: "first-entry-dominates",
            paper: "The first entry takes 48 % of the reservations and each later one fewer.",
            deviation: None,
            check: |t| {
                let entry = |i: usize| t.get(64, "Complete_NoAck", &format!("entry_{i}_pct"));
                let shares = (1..=5).map(entry).collect::<Option<Vec<&Cell>>>()?;
                let shares: Vec<f64> = shares.iter().map(|c| c.value).collect();
                let falling = shares.windows(2).all(|w| w[0] >= w[1]);
                let measured = format!("{shares:.1?} % (first: paper 48 ± 10)");
                Some(((shares[0] - 48.0).abs() <= 10.0 && falling, measured))
            },
        },
        Claim {
            name: "failed-share",
            paper: "9 % of the reservation attempts fail.",
            deviation: Some("dense-circuits"),
            check: |t| t.near(64, "Complete_NoAck", "failed_pct", 9.0, 4.0),
        },
    ],
    ..PLAIN
};

// ---------------------------------------------------------------- Table 6

/// Table 6's versions with the paper's saving at 16 and 64 cores.
fn table6_grid(_: &RunEnv) -> Result<Vec<Row>, String> {
    let versions = [
        (
            "Fragmented",
            MechanismConfig::fragmented(),
            [-19.28, -18.96],
        ),
        ("Complete", MechanismConfig::complete(), [6.21, 5.77]),
        (
            "Complete Timed",
            MechanismConfig::timed_noack(),
            [3.38, 1.09],
        ),
    ];
    let mut rows = Vec::new();
    for (version, mechanism, paper) in versions {
        for (cores, paper) in [16u16, 64].into_iter().zip(paper) {
            let modelled = 100.0 * area_savings(&mechanism, cores as usize);
            let row =
                Row::new("", cores, version).param("paper_pct", "paper %", Fmt::Num(2), paper);
            rows.push(row.param("area_savings_pct", "model %", Fmt::Num(2), modelled));
        }
    }
    Ok(rows)
}

pub const TABLE6: Experiment = Experiment {
    name: "table6",
    title: "Table 6 — router area savings vs the baseline 4-VC router (analytical model)",
    grid: table6_grid,
    claims: &[
        Claim {
            name: "area-ordering",
            paper: "Fragmented grows the router, Complete saves most, timed circuits save less.",
            deviation: None,
            check: |t| {
                t.each_size(|c| {
                    let of = |version| t.get(c, version, "area_savings_pct");
                    let (f, k, timed) = (of("Fragmented")?, of("Complete")?, of("Complete Timed")?);
                    let ok = f.value < 0.0 && timed.value > 0.0 && k.value > timed.value;
                    let measured = format!("{} / {} / {} %", f.shown(), k.shown(), timed.shown());
                    Some((ok, measured))
                })
            },
        },
        Claim {
            name: "area-magnitudes",
            paper: "Savings are -19.28 / +6.21 / +3.38 % at 16 cores and -18.96 / +5.77 / +1.09 % \
                    at 64.",
            deviation: Some("flat-timestamp-cost"),
            check: |t| {
                let (model, paper) = (t.column("area_savings_pct"), t.column("paper_pct"));
                let gaps = model.iter().zip(paper);
                let gaps = gaps.map(|(m, p)| (m.1.value - p.1.value).abs());
                let worst = gaps.fold(0.0, f64::max);
                let measured = format!("largest gap to the paper {worst:.2} points");
                Some((worst <= 1.5, measured + " (accepted: 1.5)"))
            },
        },
    ],
    ..PLAIN
};

// --------------------------------------------------------------- Figure 6

/// A Chrome trace of one small traced run (first `RC_APPS` workload):
/// enough cycles to show circuit construction and reply slices without
/// bloating the JSON. EXPERIMENTS.md walks through loading it.
fn fig6_trace(env: &RunEnv) -> Result<String, String> {
    let cfg = SimConfig {
        seed: 1,
        warmup_cycles: 1_000,
        measure_cycles: 3_000,
        ..SimConfig::quick(16, MechanismConfig::complete_noack(), &env.apps[0])
    };
    let (_, report) = run_sim_traced(&cfg, &TraceConfig::default())
        .map_err(|e| format!("fig6 trace run: {e}"))?;
    Ok(rcsim_trace::chrome_trace_json(&report.events))
}

const FIG6_OUTCOMES: [&str; 8] = [
    "circuit",
    "failed",
    "undone",
    "scrounger",
    "not_eligible",
    "eliminated",
    "fault_degraded",
    "torn_down",
];

pub const FIG6: Experiment = Experiment {
    name: "fig6",
    title: "Figure 6 — reply outcome breakdown per configuration (mean share of replies)",
    grid: |env| Ok(mechanism_rows(env, &MechanismConfig::figure6_grid(), false)),
    cells: |d| {
        let outcomes = FIG6_OUTCOMES.iter();
        outcomes
            .map(|o| outcome(d, &format!("outcome.{o}"), o))
            .collect()
    },
    claims: &[
        Claim {
            name: "complete-beats-fragmented",
            paper: "Complete builds more circuits than Fragmented.",
            deviation: None,
            check: |t| t.above("outcome.circuit", "Complete", "Fragmented"),
        },
        Claim {
            name: "noack-eliminates",
            paper: "NoAck eliminates 20-30 % of replies.",
            deviation: Some("dense-circuits"),
            check: |t| t.within("outcome.eliminated", "Complete_NoAck", 0.15, 0.35),
        },
        Claim {
            name: "slack-recovers",
            paper: "Timed circuits without slack fail more; slack recovers them.",
            deviation: None,
            check: |t| t.above("outcome.circuit", "Slack_1_NoAck", "Timed_NoAck"),
        },
        Claim {
            name: "large-slack-conflicts",
            paper: "Large slack re-creates conflicts.",
            deviation: None,
            check: |t| t.above("outcome.failed", "Slack_4_NoAck", "Slack_1_NoAck"),
        },
        Claim {
            name: "ideal-upper-bound",
            paper: "Ideal is the upper bound on replies riding circuits.",
            deviation: None,
            check: |t| {
                t.each_size(|c| {
                    let ideal = t.get(c, "Ideal", "outcome.circuit")?;
                    let (_, best) = t.extreme(c, "outcome.circuit", 1.0, |l| l != "Ideal")?;
                    let measured = format!("{} vs at most {}", ideal.shown(), best.shown());
                    Some((ideal.value >= best.value, measured))
                })
            },
        },
        Claim {
            name: "never-eligible",
            paper: "About 40 % of replies are never eligible for a circuit.",
            deviation: None,
            check: |t| t.within("outcome.not_eligible", "Complete", 0.30, 0.50),
        },
        Claim {
            name: "timed-undone",
            paper: "Timed circuits are undone for 10-15 % of replies.",
            deviation: Some("timed-undone"),
            check: |t| t.within("outcome.undone", "Timed_NoAck", 0.05, 0.20),
        },
    ],
    trace: Some(fig6_trace),
    ..PLAIN
};

// --------------------------------------------------------------- Figure 7

fn fig7_cells(d: &RowData) -> Vec<Cell> {
    let groups = [
        ("Request", "request"),
        ("Circuit_Rep", "circuit_rep"),
        ("NoCircuit_Rep", "nocircuit_rep"),
    ];
    let mut cells = Vec::new();
    for (group, key) in groups {
        let net = d.mean(|r| r.latency[group].network);
        let queue = d.mean(|r| r.latency[group].queueing);
        let header = format!("{group} net");
        cells.push(cell(&format!("{key}_net"), &header, Fmt::Num(1), net));
        cells.push(cell(&format!("{key}_queue"), "queue", Fmt::Num(1), queue));
    }
    cells.push(load(d));
    cells
}

pub const FIG7: Experiment = Experiment {
    name: "fig7",
    title: "Figure 7 — message latency by type (network + queueing, cycles)",
    grid: |env| Ok(mechanism_rows(env, &MechanismConfig::key_configs(), false)),
    cells: fig7_cells,
    claims: &[
        Claim {
            name: "requests-unchanged",
            paper: "Request latency is the baseline's under every version.",
            deviation: None,
            check: |t| {
                t.each_size(|c| {
                    let base = t.get(c, "Baseline", "request_net")?.value;
                    let (_, slowest) = t.extreme(c, "request_net", 1.0, |_| true)?;
                    let (_, fastest) = t.extreme(c, "request_net", -1.0, |_| true)?;
                    let worst = (slowest.value - base).max(base - fastest.value);
                    let measured = format!("largest gap {worst:.2} cycles (accepted: 1)");
                    Some((worst <= 1.0, measured))
                })
            },
        },
        Claim {
            name: "circuits-cut-reply-latency",
            paper: "Circuits cut Circuit_Rep latency sharply.",
            deviation: None,
            check: |t| {
                let sharply = |circuits: f64, baseline: f64| circuits < 0.95 * baseline;
                t.compare("circuit_rep_net", "Complete_NoAck", "Baseline", sharply)
            },
        },
        Claim {
            name: "noack-relieves-other-replies",
            paper: "NoAck drops NoCircuit_Rep latency: the acks vanish and the VC is relieved.",
            deviation: Some("acks-excluded"),
            check: |t| t.above("nocircuit_rep_net", "Complete", "Complete_NoAck"),
        },
        Claim {
            name: "postponed-waits",
            paper: "Postponed circuits force replies to wait.",
            deviation: None,
            check: |t| t.above("circuit_rep_queue", "Postponed_1_NoAck", "Complete_NoAck"),
        },
        Claim {
            name: "lightly-loaded",
            paper: "Nodes inject fewer than 4 flits per 100 cycles.",
            deviation: None,
            check: |t| {
                t.each_size(|c| {
                    let (_, busiest) = t.extreme(c, "load", 1.0, |_| true)?;
                    Some((busiest.value < 4.0, format!("at most {}", busiest.shown())))
                })
            },
        },
    ],
    ..PLAIN
};

// --------------------------------------------------------- Figures 8 and 9

/// Figures 7–9's versions without Ideal, which the paper leaves out of
/// Figure 8: unbounded circuit storage has no meaningful energy model.
fn fig8_grid(env: &RunEnv) -> Result<Vec<Row>, String> {
    let mut versions = MechanismConfig::key_configs();
    versions.retain(|m| *m != MechanismConfig::ideal());
    Ok(mechanism_rows(env, &versions, true))
}

pub const FIG8: Experiment = Experiment {
    name: "fig8",
    title: "Figure 8 — network energy per unit of work, normalized to the baseline (± stderr \
            over apps and seeds)",
    grid: fig8_grid,
    cells: |d| ratio(d, "energy_ratio", RunResult::energy_ratio_over),
    claims: &[
        Claim {
            name: "fragmented-costs-energy",
            paper: "Fragmented increases energy: its extra VC costs more than circuits save.",
            deviation: Some("short-windows"),
            check: |t| t.above("energy_ratio", "Fragmented", "Baseline"),
        },
        Claim {
            name: "noack-energy-16",
            paper: "Complete_NoAck spends 0.848 of the baseline's network energy at 16 cores.",
            deviation: None,
            check: |t| t.near(16, "Complete_NoAck", "energy_ratio", 0.848, 0.03),
        },
        Claim {
            name: "noack-energy-64",
            paper: "Complete_NoAck spends 0.792 of the baseline's network energy at 64 cores.",
            deviation: Some("energy-64c"),
            check: |t| t.near(64, "Complete_NoAck", "energy_ratio", 0.792, 0.03),
        },
        Claim {
            name: "noack-saves-most",
            paper: "Complete_NoAck achieves the largest savings.",
            deviation: None,
            check: |t| {
                t.each_size(|c| {
                    let noack = t.get(c, "Complete_NoAck", "energy_ratio")?;
                    let (_, least) = t.extreme(c, "energy_ratio", -1.0, is_version)?;
                    let measured = format!("{} vs a minimum of {}", noack.shown(), least.shown());
                    Some((noack.value <= least.value + 0.005, measured))
                })
            },
        },
        Claim {
            name: "timed-save-less",
            paper:
                "Timed variants save slightly less: timestamps cancel part of the buffer removal.",
            deviation: None,
            check: |t| {
                let timed = t.above("energy_ratio", "Timed_NoAck", "Complete_NoAck");
                both(
                    timed,
                    t.above("energy_ratio", "SlackDelay_1_NoAck", "Complete_NoAck"),
                )
            },
        },
    ],
    ..PLAIN
};

pub const FIG9: Experiment = Experiment {
    name: "fig9",
    title: "Figure 9 — system speed-up over the baseline (± stderr over apps and seeds)",
    grid: |env| Ok(mechanism_rows(env, &MechanismConfig::key_configs(), true)),
    cells: |d| speedup(d, []),
    claims: &[
        Claim {
            name: "noack-beats-ack",
            paper: "NoAck versions beat their ack-ful counterparts.",
            deviation: None,
            check: |t| t.compare("speedup", "Complete_NoAck", "Complete", |a, b| a >= b),
        },
        Claim {
            name: "slackdelay-best",
            paper: "SlackDelay_1 is the best version (+4.4 % at 16 cores, +6.0 % at 64).",
            deviation: Some("timed-undone"),
            check: |t| {
                t.each_size(|c| {
                    let (best, speedup) = t.extreme(c, "speedup", 1.0, is_version)?;
                    let measured = format!("best is {} at {}", best.label, speedup.shown());
                    Some((best.label == "SlackDelay_1_NoAck", measured))
                })
            },
        },
        Claim {
            name: "noack-speedup-16",
            paper: "Complete_NoAck gains 3.8 % at 16 cores.",
            deviation: Some("short-windows"),
            check: |t| t.near(16, "Complete_NoAck", "speedup", 1.038, 0.02),
        },
        Claim {
            name: "noack-speedup-64",
            paper: "Complete_NoAck gains 4.8 % at 64 cores.",
            deviation: None,
            check: |t| t.near(64, "Complete_NoAck", "speedup", 1.048, 0.02),
        },
        Claim {
            name: "close-to-ideal",
            paper: "Gains are small but consistent, and everything sits close to Ideal.",
            deviation: Some("short-windows"),
            check: |t| {
                t.each_size(|c| {
                    let ideal = t.get(c, "Ideal", "speedup")?;
                    let (_, best) = t.extreme(c, "speedup", 1.0, is_version)?;
                    let measured = format!("Ideal {} vs {}", ideal.shown(), best.shown());
                    let close = ideal.value - best.value <= 0.03;
                    Some((close, measured + " (accepted: 0.03 apart)"))
                })
            },
        },
    ],
    ..PLAIN
};

// -------------------------------------------------------------- Figure 10

/// One row per `RC_APPS` workload (`RC_APPS=all` for the paper's 21 and
/// the mix), each paired with its own hidden baseline.
fn fig10_grid(env: &RunEnv) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for app in &env.apps {
        let jobs = |mechanism| sim_jobs(env, std::slice::from_ref(app), 64, mechanism, "", |_| {});
        let base = format!("{app}/Baseline");
        let baseline = Row::new("", 64, &base).sim(jobs(MechanismConfig::baseline()));
        rows.push(baseline.hidden());
        let row = Row::new("", 64, app).sim(jobs(MechanismConfig::slack_delay(1)));
        rows.push(row.base(base));
    }
    Ok(rows)
}

/// A claim about how many applications' speed-ups lie in `range`:
/// `enough(that many, all)`.
fn apps_in(
    t: &Table,
    range: std::ops::Range<f64>,
    enough: fn(usize, usize) -> bool,
) -> Option<Check> {
    let speedups = t.column("speedup");
    let inside = speedups.iter().filter(|(_, s)| range.contains(&s.value));
    let (inside, all) = (inside.count(), speedups.len());
    let measured = format!("{inside} of {all} in [{}, {})", range.start, range.end);
    Some((enough(inside, all), measured))
}

pub const FIG10: Experiment = Experiment {
    name: "fig10",
    title: "Figure 10 — per-application speed-up (SlackDelay_1_NoAck, 64 cores)",
    grid: fig10_grid,
    cells: |d| speedup(d, [hit_rate(d), load(d)]),
    claims: &[
        Claim {
            name: "half-above-4.5",
            paper: "Half the applications gain over 4.5 %.",
            deviation: Some("timed-undone"),
            check: |t| apps_in(t, 1.045..f64::INFINITY, |above, of| 2 * above >= of),
        },
        Claim {
            name: "few-above-10",
            paper: "A few applications gain more than 10 %.",
            deviation: Some("timed-undone"),
            check: |t| apps_in(t, 1.10..f64::INFINITY, |above, _| above >= 1),
        },
        Claim {
            name: "slowdowns-rare",
            paper: "At most two applications slow down, by less than 2 %.",
            deviation: None,
            check: |t| {
                let slower = apps_in(t, 0.0..1.0, |slower, _| slower <= 2);
                both(slower, apps_in(t, 0.0..0.98, |collapsed, _| collapsed == 0))
            },
        },
        Claim {
            name: "mean-speedup",
            paper: "The average speed-up is 6.0 %.",
            deviation: Some("timed-undone"),
            check: |t| {
                let mean = geometric_mean(t.column("speedup").iter().map(|s| s.1.value))?;
                let measured = format!("geometric mean {mean:.3} (paper 1.06 ± 0.02)");
                Some(((mean - 1.060).abs() <= 0.02, measured))
            },
        },
    ],
    ..PLAIN
};
