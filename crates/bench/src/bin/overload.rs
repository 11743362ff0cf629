//! Overload — latency-vs-offered-load curves driven past saturation:
//! seeded open-loop Poisson arrivals at the west edge sweep from light
//! load to well past the admission capacity, per circuit mechanism, with
//! p99/p99.9 SLO tracking and the admission-on vs admission-off
//! degradation comparison (DESIGN.md §11).
//!
//! Invariants asserted at EVERY load point:
//!   * the run terminates (a watchdog stall exits with status 2),
//!   * conservation closes exactly — offered == completed + shed +
//!     gave_up + in_flight, zero unaccounted,
//!   * ingress queues stay within their configured bound.
//!
//! With admission on, post-knee goodput must plateau (graceful
//! saturation); with admission off, the same loads are measured to show
//! the degradation admission prevents.
//!
//! Writes `target/experiments/BENCH_overload.json` (validated by
//! `validate_bench`) plus raw rows in `overload.json`.

use rcsim_bench::{
    bench_row, env, run_configs, save_bench_summary, save_json, BenchSummary, PointSpec,
};
use rcsim_core::{MechanismConfig, Mesh};
use rcsim_system::{OpenLoopConfig, RunResult, SimConfig};

/// Offered load per edge node, arrivals/cycle. The admission capacity
/// sits at [`ADMIT_RATE`]; the top half of the sweep is past the knee.
const RATES: [f64; 6] = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5];

/// Token-bucket refill rate, arrivals/cycle/edge — the admission
/// capacity. Loads above this are past saturation by construction.
const ADMIT_RATE: f64 = 0.1;

/// The mechanisms whose saturation behaviour the sweep compares.
fn mechanisms() -> Vec<MechanismConfig> {
    vec![
        MechanismConfig::baseline(),
        MechanismConfig::fragmented(),
        MechanismConfig::complete(),
        MechanismConfig::complete_noack(),
    ]
}

/// The open-loop layer for one sweep point: Poisson arrivals at `rate`
/// with the admission capacity pinned to [`ADMIT_RATE`] (not matched to
/// the offered rate — the knee must stay put while load sweeps past it).
fn open_loop(rate: f64, admission: bool) -> OpenLoopConfig {
    let mut ol = OpenLoopConfig::poisson(rate);
    ol.ingress.tokens_per_kilocycle = (ADMIT_RATE * 1024.0).ceil() as u64;
    ol.ingress.admission = admission;
    ol
}

/// Aggregated external-traffic numbers for one (mechanism, rate) point.
struct PointAgg {
    offered: u64,
    completed: u64,
    completed_measured: u64,
    in_slo: u64,
    rejected: u64,
    shed: u64,
    gave_up: u64,
    p99: f64,
    p999: f64,
    time_in_overload: u64,
    high_water: u64,
}

fn aggregate(results: &[RunResult], label: &str, queue_cap: usize) -> PointAgg {
    let mut a = PointAgg {
        offered: 0,
        completed: 0,
        completed_measured: 0,
        in_slo: 0,
        rejected: 0,
        shed: 0,
        gave_up: 0,
        p99: 0.0,
        p999: 0.0,
        time_in_overload: 0,
        high_water: 0,
    };
    for r in results {
        let e = &r.external;
        assert!(!r.health.stalled, "{label}: stalled under overload");
        assert_eq!(
            e.unaccounted, 0,
            "{label}: conservation violated ({} arrivals unaccounted)",
            e.unaccounted
        );
        assert!(
            r.health.overload.depth_high_water as usize <= queue_cap,
            "{label}: ingress queue exceeded its bound ({} > {queue_cap})",
            r.health.overload.depth_high_water
        );
        assert!(e.offered > 0, "{label}: arrival streams produced nothing");
        a.offered += e.offered;
        a.completed += e.completed;
        a.completed_measured += e.completed_measured;
        a.in_slo += e.completed_in_slo;
        a.rejected += e.rejected;
        a.shed += e.shed;
        a.gave_up += e.gave_up;
        // Tail latencies cannot be averaged; keep the worst-run envelope.
        a.p99 = a.p99.max(e.latency_p99);
        a.p999 = a.p999.max(e.latency_p999);
        a.time_in_overload += r.health.overload.time_in_overload;
        a.high_water = a.high_water.max(r.health.overload.depth_high_water as u64);
    }
    a
}

#[allow(clippy::too_many_arguments)]
fn push_row(
    summary: &mut BenchSummary,
    raw: &mut Vec<(String, f64, u64, u64)>,
    label: &str,
    cores: u16,
    rate: f64,
    admission: bool,
    goodput: f64,
    a: &PointAgg,
    results: &[RunResult],
) {
    let mut row = bench_row(label, cores, results);
    row.extra.insert("offered_load".to_owned(), rate);
    row.extra
        .insert("admission".to_owned(), if admission { 1.0 } else { 0.0 });
    row.extra.insert("goodput".to_owned(), goodput);
    row.extra.insert("ext_offered".to_owned(), a.offered as f64);
    row.extra
        .insert("ext_completed".to_owned(), a.completed as f64);
    row.extra
        .insert("ext_rejected".to_owned(), a.rejected as f64);
    row.extra.insert("ext_shed".to_owned(), a.shed as f64);
    row.extra.insert("ext_gave_up".to_owned(), a.gave_up as f64);
    row.extra.insert("ext_p99".to_owned(), a.p99);
    row.extra.insert("ext_p999".to_owned(), a.p999);
    let slo_frac = if a.completed_measured == 0 {
        0.0
    } else {
        a.in_slo as f64 / a.completed_measured as f64
    };
    row.extra.insert("slo_fraction".to_owned(), slo_frac);
    row.extra
        .insert("time_in_overload".to_owned(), a.time_in_overload as f64);
    row.extra
        .insert("depth_high_water".to_owned(), a.high_water as f64);
    summary.push(row);
    raw.push((label.to_owned(), rate, a.completed_measured, a.rejected));
}

fn main() {
    println!("Overload — open-loop saturation sweep with admission control\n");
    println!("Poisson arrivals at the west edge sweep from light load past the");
    println!("admission capacity ({ADMIT_RATE}/cycle/edge). Every point must");
    println!("terminate, conserve every arrival, and keep its ingress queues");
    println!("within bound; with admission on, post-knee goodput must plateau.\n");

    let cores = env().cores[0];
    let mesh = Mesh::square(cores)
        .or_else(|_| Mesh::near_square(cores))
        .expect("valid core count");
    let edge_count = mesh.height() as u64;
    let (apps, seed_list) = (&env().apps, &env().seeds);
    let per_point = apps.len() * seed_list.len();
    let queue_cap = open_loop(ADMIT_RATE, true).ingress.queue_cap;
    let window = env().cycles;

    let mut raw = Vec::new();
    let mut summary = BenchSummary::new("overload");

    // Section 1: admission ON, every mechanism × the full load sweep.
    let mut jobs = Vec::new();
    for mechanism in mechanisms() {
        for &rate in &RATES {
            for app in apps {
                for &s in seed_list {
                    let spec = PointSpec::new(cores, mechanism, app, s);
                    let mut cfg: SimConfig = spec.config();
                    cfg.open_loop = Some(open_loop(rate, true));
                    jobs.push((format!("{} load={rate}", spec.label()), cfg));
                }
            }
        }
    }
    let all = run_configs(jobs);
    let mut chunks = all.chunks(per_point);

    println!("== admission ON (capacity {ADMIT_RATE}/cycle/edge) ==");
    println!(
        "{:<22} {:>6} {:>9} {:>9} {:>9} {:>8} {:>9} {:>9} {:>7}",
        "configuration",
        "load",
        "goodput",
        "ext_p99",
        "ext_p999",
        "in_slo",
        "rejected",
        "shed",
        "hiwater"
    );
    for mechanism in mechanisms() {
        let mut post_knee = Vec::new();
        for &rate in &RATES {
            let results = chunks.next().expect("grid-aligned result chunks");
            let label = format!("{}/load{rate}", mechanism.label());
            let a = aggregate(results, &label, queue_cap);
            // Chip-level completions per cycle over the measure window,
            // averaged across the point's runs.
            let goodput = a.completed_measured as f64 / (window as f64 * results.len() as f64);
            let slo_frac = if a.completed_measured == 0 {
                0.0
            } else {
                a.in_slo as f64 / a.completed_measured as f64
            };
            println!(
                "{:<22} {:>6} {:>9.4} {:>9.0} {:>9.0} {:>7.1}% {:>9} {:>9} {:>7}",
                mechanism.label(),
                rate,
                goodput,
                a.p99,
                a.p999,
                100.0 * slo_frac,
                a.rejected,
                a.shed,
                a.high_water
            );
            if rate > ADMIT_RATE {
                post_knee.push((rate, goodput));
            }
            push_row(
                &mut summary,
                &mut raw,
                &label,
                cores,
                rate,
                true,
                goodput,
                &a,
                results,
            );
        }
        // Graceful saturation: past the knee, goodput must plateau, not
        // collapse. Short smoke windows are too noisy for the ratio test.
        if window >= 20_000 {
            let peak = post_knee.iter().map(|&(_, g)| g).fold(0.0f64, f64::max);
            for &(rate, g) in &post_knee {
                assert!(
                    g >= 0.5 * peak,
                    "{}: goodput collapsed past saturation (load {rate}: {g:.4} \
                     vs post-knee peak {peak:.4})",
                    mechanism.label()
                );
            }
        }
    }
    println!(
        "\nEvery point conserved all arrivals and kept its queues ≤ {queue_cap} \
         ({edge_count} edge nodes)."
    );

    // Section 2: admission OFF — the degradation comparison. One
    // mechanism, same loads: without the token bucket only the queue
    // bound and shed timeout protect the fabric, so the ingress queues
    // run full and end-to-end tails grow.
    let mechanism = MechanismConfig::complete_noack();
    let mut jobs = Vec::new();
    for &rate in &RATES {
        for app in apps {
            for &s in seed_list {
                let spec = PointSpec::new(cores, mechanism, app, s);
                let mut cfg: SimConfig = spec.config();
                cfg.open_loop = Some(open_loop(rate, false));
                jobs.push((format!("{} noadmit load={rate}", spec.label()), cfg));
            }
        }
    }
    let all = run_configs(jobs);
    let mut chunks = all.chunks(per_point);

    println!("\n== admission OFF ({} only) ==", mechanism.label());
    println!(
        "{:<22} {:>6} {:>9} {:>9} {:>9} {:>8} {:>9} {:>9} {:>7}",
        "configuration",
        "load",
        "goodput",
        "ext_p99",
        "ext_p999",
        "in_slo",
        "rejected",
        "shed",
        "hiwater"
    );
    for &rate in &RATES {
        let results = chunks.next().expect("grid-aligned result chunks");
        let label = format!("{}/noadmit/load{rate}", mechanism.label());
        let a = aggregate(results, &label, queue_cap);
        let goodput = a.completed_measured as f64 / (window as f64 * results.len() as f64);
        let slo_frac = if a.completed_measured == 0 {
            0.0
        } else {
            a.in_slo as f64 / a.completed_measured as f64
        };
        println!(
            "{:<22} {:>6} {:>9.4} {:>9.0} {:>9.0} {:>7.1}% {:>9} {:>9} {:>7}",
            mechanism.label(),
            rate,
            goodput,
            a.p99,
            a.p999,
            100.0 * slo_frac,
            a.rejected,
            a.shed,
            a.high_water
        );
        push_row(
            &mut summary,
            &mut raw,
            &label,
            cores,
            rate,
            false,
            goodput,
            &a,
            results,
        );
    }
    println!("\nAdmission off still terminates and conserves — the queue bound and");
    println!("shed timeout are the backstop — but the tails show what the token");
    println!("bucket buys.");

    save_json("overload", &raw);
    save_bench_summary(&mut summary);
}
