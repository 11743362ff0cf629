//! Curves past the paper's operating point, at the first `RC_CORES`
//! size: degradation under permanently dead links (DESIGN.md §10) and
//! open-loop load driven past saturation (DESIGN.md §11). Both assert
//! what must hold at every point — the numbers mean nothing otherwise.

use super::PLAIN;
use crate::table::{cell, Cell, Experiment, Fmt, Headline, Row, RowData};
use crate::{sim_jobs, RunEnv};
use rcsim_core::{MechanismConfig, NodeId, TopologySpec};
use rcsim_noc::{DeadLinkEvent, QUEUE_CAP};
use rcsim_system::{OpenLoopConfig, RunResult, SimConfig};

/// The sum over the row's runs of a counter.
fn counter(d: &RowData, key: &str, header: &str, count: fn(&RunResult) -> u64) -> Cell {
    cell(key, header, Fmt::Num(0), d.total(count) as f64)
}

// ------------------------------------------------------------- resilience

const DEGRADATION: &str = "degradation: interior links dead from cycle 0";
const RECOVERY: &str = "recovery: one link dies mid-run (Complete)";

/// The first `count` of a deterministic list of interior horizontal
/// links (never touching the mesh edge), pairwise disjoint and row-major
/// over interior rows — one dead link sits mid-chip, the second in the
/// next interior row — permanently dead from cycle `at`.
fn interior_dead_links(cores: u16, count: usize, at: u64) -> Result<Vec<DeadLinkEvent>, String> {
    let grid = TopologySpec::Mesh.build(cores).map_err(|e| e.to_string())?;
    let (w, h) = grid.dims();
    if w < 4 || h < 4 {
        return Err(format!(
            "resilience needs a 4x4 mesh or larger, not {w}x{h}"
        ));
    }
    let interior = (1..h - 1).flat_map(|y| (1..w - 2).map(move |x| y * w + x));
    let dead = |a: u16| DeadLinkEvent {
        a: NodeId(a),
        b: NodeId(a + 1),
        at,
    };
    Ok(interior.take(count).map(dead).collect())
}

/// Every mechanism fault-free and with one and two dead links; then the
/// recovery machinery itself. A link dying halfway through the measure
/// window of a Complete run has circuits crossing it (teardown) and
/// packets in flight on it (loss), which the default end-to-end
/// retransmissions recover.
fn resilience_grid(env: &RunEnv) -> Result<Vec<Row>, String> {
    let cores = env.cores[0];
    let mechanisms = [
        MechanismConfig::baseline(),
        MechanismConfig::fragmented(),
        MechanismConfig::complete(),
        MechanismConfig::complete_noack(),
        MechanismConfig::timed_noack(),
        MechanismConfig::slack(2),
        MechanismConfig::ideal(),
    ];
    let mut rows = Vec::new();
    for mechanism in mechanisms {
        for dead in 0..=2usize {
            let links = interior_dead_links(cores, dead, 0)?;
            let tag = format!(" dead={dead}");
            let jobs = sim_jobs(env, &env.apps, cores, mechanism, &tag, |cfg| {
                cfg.faults.dead_links = links.clone();
            });
            let label = format!("{}/dead{dead}", mechanism.label());
            let row = Row::new(DEGRADATION, cores, label).sim(jobs);
            let row = row.param("dead_links", "dead", Fmt::Num(0), dead as f64);
            rows.push(match dead {
                0 => row,
                _ => row.base(format!("{}/dead0", mechanism.label())),
            });
        }
    }
    let link = interior_dead_links(cores, 1, 0)?;
    let adjust = |cfg: &mut SimConfig| {
        cfg.faults.dead_links = link.clone();
        cfg.faults.dead_links[0].at = cfg.warmup_cycles + cfg.measure_cycles / 2;
    };
    let complete = MechanismConfig::complete();
    let jobs = sim_jobs(env, &env.apps, cores, complete, " noc_retry", adjust);
    rows.push(Row::new(RECOVERY, cores, "recovery/noc_retry").sim(jobs));
    Ok(rows)
}

fn resilience_cells(d: &RowData) -> Vec<Cell> {
    let own = Headline::of(d.runs);
    let degradation = d.row.section == DEGRADATION;
    let faults = match degradation {
        true => counter(d, "reroutes", "reroutes", |r| {
            r.health.faults.packets_rerouted
        }),
        false => counter(d, "retransmissions", "retransmissions", |r| {
            r.health.faults.retransmissions
        }),
    };
    let mut cells = vec![
        cell("avg_latency", "avg_lat", Fmt::Num(2), own.avg_latency),
        cell("p99_latency", "p99_lat", Fmt::Num(2), own.p99_latency),
        faults,
        counter(d, "circuits_torn", "torn", |r| {
            r.health.faults.circuits_torn
        }),
        counter(d, "abandoned", "abandoned", |r| {
            r.health.faults.packets_abandoned
        }),
    ];
    if degradation {
        let fault_free = match d.row.base {
            Some(_) => Headline::of(d.base_runs).avg_latency,
            None => own.avg_latency,
        };
        let ratio = match fault_free > 0.0 {
            true => own.avg_latency / fault_free,
            false => 1.0,
        };
        cells.push(cell(
            "latency_degradation",
            "vs fault-free",
            Fmt::Num(3),
            ratio,
        ));
    }
    cells
}

/// No point may stall, no request may ever be abandoned, and a dead link
/// must actually be exercised.
fn resilience_asserts(rows: &[RowData]) -> Result<(), String> {
    for d in rows {
        let label = &d.row.label;
        if d.runs.iter().any(|r| r.health.stalled) {
            return Err(format!("{label}: stalled"));
        }
        let abandoned = d.total(|r| r.health.faults.packets_abandoned);
        if abandoned != 0 {
            return Err(format!("{label}: abandoned {abandoned} coherence requests"));
        }
        let rerouted = d.total(|r| r.health.faults.packets_rerouted);
        if d.param("dead_links").is_some_and(|dead| dead > 0.0) && rerouted == 0 {
            return Err(format!(
                "{label}: never rerouted — the dead links were not exercised"
            ));
        }
        let retransmitted = d.total(|r| r.health.faults.retransmissions);
        if d.row.section == RECOVERY && retransmitted == 0 {
            return Err(format!(
                "{label}: never retransmitted — the transport was not exercised"
            ));
        }
    }
    Ok(())
}

pub const RESILIENCE: Experiment = Experiment {
    name: "resilience",
    title: "Resilience — degradation under permanently dead links: pairs whose DOR path breaks \
            take the up*/down* table both ways, crossing circuits are torn down, lost messages \
            are retransmitted",
    grid: resilience_grid,
    cells: resilience_cells,
    asserts: resilience_asserts,
    ..PLAIN
};

// --------------------------------------------------------------- overload

const ADMISSION_ON: &str = "admission on";
const ADMISSION_OFF: &str =
    "admission off: only the queue bound and the shed timeout protect the fabric";

/// Offered load per west-edge node, arrivals/cycle; the top half of the
/// sweep is past [`ADMIT_RATE`].
const RATES: [f64; 6] = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5];

/// Token-bucket refill rate, arrivals/cycle/edge — the admission
/// capacity. Loads above it are past saturation by construction.
const ADMIT_RATE: f64 = 0.1;

/// Poisson arrivals at `rate` with the admission capacity pinned to
/// [`ADMIT_RATE`] — not matched to the offered rate: the knee must stay
/// put while the load sweeps past it.
fn open_loop(rate: f64, admission: bool) -> OpenLoopConfig {
    let mut open_loop = OpenLoopConfig::poisson(rate);
    open_loop.ingress.tokens_per_kilocycle = (ADMIT_RATE * 1024.0).ceil() as u64;
    open_loop.ingress.admission = admission;
    open_loop
}

/// Every mechanism across the load sweep with admission on, then
/// `Complete_NoAck` over the same loads with it off.
fn overload_grid(env: &RunEnv) -> Result<Vec<Row>, String> {
    let cores = env.cores[0];
    let row = |mechanism: MechanismConfig, rate: f64, admission: bool| {
        let name = mechanism.label();
        let (section, label, tag) = match admission {
            true => (ADMISSION_ON, format!("{name}/load{rate}"), ""),
            false => (
                ADMISSION_OFF,
                format!("{name}/noadmit/load{rate}"),
                " noadmit",
            ),
        };
        let tag = format!("{tag} load={rate}");
        let jobs = sim_jobs(env, &env.apps, cores, mechanism, &tag, |cfg| {
            cfg.open_loop = Some(open_loop(rate, admission));
        });
        let row = Row::new(section, cores, label).sim(jobs);
        let row = row.param("offered_load", "load", Fmt::Num(2), rate);
        row.param(
            "admission",
            "admit",
            Fmt::Num(0),
            f64::from(u8::from(admission)),
        )
    };
    let mechanisms = [
        MechanismConfig::baseline(),
        MechanismConfig::fragmented(),
        MechanismConfig::complete(),
        MechanismConfig::complete_noack(),
    ];
    let on = mechanisms
        .into_iter()
        .flat_map(|m| RATES.map(|rate| row(m, rate, true)));
    let off = RATES.map(|rate| row(MechanismConfig::complete_noack(), rate, false));
    Ok(on.chain(off).collect())
}

/// Chip-level completions per measured cycle, averaged over the row's
/// runs: each run is normalized by the window its own configuration
/// measures, which `RC_MAX_CYCLES` may have clamped below `RC_CYCLES`.
fn goodput(d: &RowData) -> f64 {
    d.total(|r| r.external.completed_measured) as f64 / d.row.measured_cycles() as f64
}

fn overload_cells(d: &RowData) -> Vec<Cell> {
    // Tail latencies cannot be averaged; keep the worst-run envelope.
    let worst = |key: &str, pick: fn(&RunResult) -> f64| {
        let envelope = d.runs.iter().map(pick).fold(0.0, f64::max);
        cell(key, key, Fmt::Num(0), envelope)
    };
    let measured = d.total(|r| r.external.completed_measured);
    let in_slo = match measured {
        0 => 0.0,
        _ => d.total(|r| r.external.completed_in_slo) as f64 / measured as f64,
    };
    let deepest = d
        .runs
        .iter()
        .map(|r| r.health.overload.depth_high_water)
        .max();
    let deepest = f64::from(deepest.unwrap_or(0));
    vec![
        cell("goodput", "goodput", Fmt::Num(4), goodput(d)),
        worst("ext_p99", |r| r.external.latency_p99),
        worst("ext_p999", |r| r.external.latency_p999),
        cell("slo_fraction", "in_slo", Fmt::Pct(1), in_slo),
        counter(d, "ext_offered", "offered", |r| r.external.offered),
        counter(d, "ext_completed", "completed", |r| r.external.completed),
        counter(d, "ext_rejected", "rejected", |r| r.external.rejected),
        counter(d, "ext_shed", "shed", |r| r.external.shed),
        counter(d, "ext_gave_up", "gave_up", |r| r.external.gave_up),
        counter(d, "time_in_overload", "overloaded", |r| {
            r.health.overload.time_in_overload
        }),
        cell("depth_high_water", "hiwater", Fmt::Num(0), deepest),
    ]
}

/// Whether a row's windows are long enough for the plateau test: short
/// smoke windows are too noisy for a ratio of goodputs.
fn plateau_is_testable(row: &Row) -> bool {
    row.measured_cycles() >= 20_000 * row.sims.len().max(1) as u64
}

/// At every load point: the run terminates (a stall already failed the
/// sweep), conservation closes exactly, the ingress queues stay within
/// their bound and the arrival streams produce something. With admission
/// on, goodput past the knee must plateau, not collapse.
fn overload_asserts(rows: &[RowData]) -> Result<(), String> {
    for d in rows {
        let label = &d.row.label;
        for r in d.runs {
            if r.health.stalled {
                return Err(format!("{label}: stalled under overload"));
            }
            if r.external.unaccounted != 0 {
                let lost = r.external.unaccounted;
                return Err(format!(
                    "{label}: conservation violated ({lost} arrivals unaccounted)"
                ));
            }
            let deepest = r.health.overload.depth_high_water as usize;
            if deepest > QUEUE_CAP {
                return Err(format!(
                    "{label}: ingress queue exceeded its bound ({deepest} > {QUEUE_CAP})"
                ));
            }
            if r.external.offered == 0 {
                return Err(format!("{label}: arrival streams produced nothing"));
            }
        }
    }
    let past_knee = |d: &&RowData| {
        d.row.section == ADMISSION_ON
            && d.param("offered_load") > Some(ADMIT_RATE)
            && plateau_is_testable(d.row)
    };
    let mechanism = |d: &RowData| d.row.label.split('/').next().map(str::to_owned);
    for d in rows.iter().filter(past_knee) {
        let peers = rows
            .iter()
            .filter(|p| past_knee(p) && mechanism(p) == mechanism(d));
        let peak = peers.map(goodput).fold(0.0, f64::max);
        if goodput(d) < 0.5 * peak {
            return Err(format!(
                "{}: goodput collapsed past saturation ({:.4} vs post-knee peak {peak:.4})",
                d.row.label,
                goodput(d)
            ));
        }
    }
    Ok(())
}

pub const OVERLOAD: Experiment = Experiment {
    name: "overload",
    title: "Overload — Poisson arrivals at the west edge swept past the admission capacity \
            (0.1/cycle/edge): every point terminates, conserves every arrival and keeps its \
            ingress queues within bound",
    grid: overload_grid,
    cells: overload_cells,
    asserts: overload_asserts,
    ..PLAIN
};

#[cfg(test)]
mod tests {
    use super::*;

    /// `RC_MAX_CYCLES` clamps the measured window below `RC_CYCLES`:
    /// goodput divides by what the configurations measure, and the
    /// plateau test arms on it, not on the request.
    #[test]
    fn overload_normalizes_by_the_measured_window() {
        let vars = [
            ("RC_MAX_CYCLES", "70000"),
            ("RC_APPS", "fft"),
            ("RC_SEEDS", "2"),
        ];
        let vars = vars.map(|(k, v)| (k.to_owned(), v.to_owned()));
        let env = RunEnv::parse(vars).unwrap();
        assert_eq!((env.warmup, env.cycles), (60_000, 30_000));
        let rows = overload_grid(&env).unwrap();
        let row = &rows[0];
        assert_eq!(row.measured_cycles(), 2 * 10_000);
        assert!(
            !plateau_is_testable(row),
            "a 10 k window must not arm the plateau test"
        );

        let mut run = crate::testing::blank_run();
        run.external.completed_measured = 500;
        let runs = [run.clone(), run];
        let d = RowData {
            row,
            runs: &runs,
            nets: &[],
            base_runs: &[],
            base_nets: &[],
        };
        assert_eq!(goodput(&d), 1_000.0 / 20_000.0);

        let unclamped = RunEnv::parse([("RC_APPS".to_owned(), "fft".to_owned())]).unwrap();
        let row = &overload_grid(&unclamped).unwrap()[0];
        assert_eq!(row.measured_cycles(), 30_000);
        assert!(plateau_is_testable(row));
    }
}
