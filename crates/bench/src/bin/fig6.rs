//! Figure 6 — percentage of replies that travel on a circuit / with a
//! failed circuit / with an undone circuit / as scroungers / not eligible
//! / eliminated, for every circuit-building configuration, on 16- and
//! 64-core chips.
//!
//! Besides the human-readable table this binary writes:
//!
//! - `target/experiments/BENCH_fig6.json` — machine-readable summary
//!   (per-version avg/p99 packet latency, circuit hit rate, outcome
//!   fractions) validated by `validate_bench`;
//! - `target/experiments/fig6_trace.json` — a Chrome trace of one small
//!   traced run, loadable in Perfetto / `chrome://tracing` (see
//!   EXPERIMENTS.md for the walkthrough).

use rcsim_bench::{
    app_seed_points, bench_row, env, mean_outcomes, run_points, save_bench_summary, save_json,
    save_text, BenchSummary, PointSpec,
};
use rcsim_core::MechanismConfig;
use rcsim_system::{run_sim_traced_with_kernel, SimConfig, TraceConfig};
use rcsim_trace::chrome_trace_json;

/// One extra small traced run whose event log becomes a Chrome trace:
/// enough cycles to show circuit construction and reply slices without
/// bloating the JSON.
fn export_chrome_trace() {
    let app = &env().apps[0];
    let cfg = SimConfig {
        seed: 1,
        warmup_cycles: 1_000,
        measure_cycles: 3_000,
        ..SimConfig::quick(16, MechanismConfig::complete_noack(), app)
    };
    match run_sim_traced_with_kernel(&cfg, &TraceConfig::default(), env().kernel) {
        Ok((_, report)) => {
            save_text("fig6_trace.json", &chrome_trace_json(&report.events));
            eprintln!(
                "(trace: {} events, {} dropped, {:.1}% of delivered replies rode a circuit)",
                report.events.len(),
                report.dropped,
                100.0 * report.breakdown.circuit_ride_fraction()
            );
        }
        Err(e) => eprintln!("(chrome trace export skipped: {e})"),
    }
}

fn main() {
    println!("Figure 6 — reply outcome breakdown per configuration\n");
    println!("Paper landmarks: Complete builds more circuits than Fragmented;");
    println!("NoAck eliminates 20-30% of replies; timed circuits without slack");
    println!("fail more; slack recovers them but large slack re-creates conflicts;");
    println!("Ideal is the upper bound; ~40%+ of replies are never eligible.\n");

    // The whole (cores × mechanism × app × seed) grid goes to the sweep
    // runner as one job list, so RC_JOBS workers parallelize across
    // mechanisms as well as apps; results come back in submission order.
    let grid: Vec<(u16, MechanismConfig)> = env()
        .cores
        .iter()
        .flat_map(|&c| {
            MechanismConfig::figure6_grid()
                .into_iter()
                .map(move |m| (c, m))
        })
        .collect();
    let specs: Vec<PointSpec> = grid
        .iter()
        .flat_map(|&(c, m)| app_seed_points(c, m, 1))
        .collect();
    let per_point = env().apps.len() * env().seeds.len();
    let all = run_points(&specs);
    let mut chunks = all.chunks(per_point);

    let mut raw = Vec::new();
    let mut summary = BenchSummary::new("fig6");
    for &cores in &env().cores {
        println!("== {cores} cores ==");
        println!(
            "{:<22} {:>9} {:>9} {:>9} {:>10} {:>13} {:>12}",
            "configuration",
            "circuit",
            "failed",
            "undone",
            "scrounger",
            "not_eligible",
            "eliminated"
        );
        for mechanism in MechanismConfig::figure6_grid() {
            let results = chunks.next().expect("grid-aligned result chunks");
            let o = mean_outcomes(results);
            println!(
                "{:<22} {:>8.1}% {:>8.1}% {:>8.1}% {:>9.1}% {:>12.1}% {:>11.1}%",
                mechanism.label(),
                100.0 * o["circuit"],
                100.0 * o["failed"],
                100.0 * o["undone"],
                100.0 * o["scrounger"],
                100.0 * o["not_eligible"],
                100.0 * o["eliminated"],
            );
            let mut row = bench_row(&mechanism.label(), cores, results);
            for (k, v) in &o {
                row.extra.insert(format!("outcome.{k}"), *v);
            }
            summary.push(row);
            raw.push((cores, mechanism.label(), o));
        }
        println!();
    }
    save_json("fig6", &raw);
    save_bench_summary(&mut summary);
    export_chrome_trace();
}
