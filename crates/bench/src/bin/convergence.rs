//! Warm-up convergence diagnostic: how the Table 1 message mix approaches
//! its steady state as the warm-up window grows. The paper warms for
//! 200 M cycles; this shows where our synthetic workloads converge and
//! which components of the mix are still settling at the harness default.
//!
//! `RC_APPS` picks the workload (first entry; default canneal).

use rcsim_bench::{bench_row, env, run_configs, save_bench_summary, save_json, BenchSummary};
use rcsim_core::MechanismConfig;
use rcsim_system::SimConfig;

fn main() {
    let app = &env().first_app;
    let max_cycles = env().max_cycles;
    println!("Message-mix convergence vs warm-up ({app}, 64 cores, baseline)\n");
    println!(
        "{:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "warmup", "L2_Reply", "DATA_ACK", "WB_ACK", "INV_ACK", "MEMORY", "load"
    );

    // These points differ only in their warm-up window, so they are
    // custom SimConfigs rather than harness PointSpecs; the sweep runner
    // takes labelled configs directly.
    let warmups: Vec<u64> = [5_000u64, 20_000, 60_000, 150_000, 400_000]
        .into_iter()
        .map(|w| w.min(max_cycles - 1))
        .collect();
    let jobs: Vec<(String, SimConfig)> = warmups
        .iter()
        .map(|&warmup| {
            let cfg = SimConfig {
                seed: 1,
                warmup_cycles: warmup,
                measure_cycles: 30_000.min(max_cycles - warmup),
                small_caches: false,
                ..SimConfig::quick(64, MechanismConfig::baseline(), app)
            };
            (format!("convergence/{app}/warmup {warmup}"), cfg)
        })
        .collect();
    let results = run_configs(jobs);

    let mut rows = Vec::new();
    let mut summary = BenchSummary::new("convergence");
    for (&warmup, r) in warmups.iter().zip(&results) {
        let total: u64 = r.messages.values().sum::<u64>().max(1);
        let pct = |k: &str| 100.0 * r.messages.get(k).copied().unwrap_or(0) as f64 / total as f64;
        println!(
            "{:>9} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.2}",
            warmup,
            pct("L2_Reply"),
            pct("L1_DATA_ACK"),
            pct("L2_WB_ACK"),
            pct("L1_INV_ACK"),
            pct("MEMORY"),
            r.load
        );
        let mut row = bench_row(&format!("warmup_{warmup}"), 64, std::slice::from_ref(r));
        row.extra.insert("load".into(), r.load);
        summary.push(row);
        rows.push((warmup, r.messages.clone(), r.load));
    }
    save_bench_summary(&mut summary);
    println!("\npaper steady state: L2_Reply 22.6%, L1_DATA_ACK 23.0%, L2_WB_ACK 4.7%,");
    println!("L1_INV_ACK 1.1%, MEMORY 0.9% (after 200M warm-up cycles)");
    save_json("convergence", &rows);
}
