//! Table 5 — which entry of an input port's circuit table each
//! reservation lands in (Complete_NoAck, 64 cores), plus the failed
//! fraction.

use rcsim_bench::{
    bench_row, env, run_points, save_bench_summary, save_json, BenchSummary, PointSpec,
};
use rcsim_core::MechanismConfig;

const PAPER: [f64; 6] = [48.0, 24.0, 7.0, 6.0, 6.0, 9.0]; // 1st..5th, failed

fn main() {
    println!("Table 5 — circuit reservations per input-port entry (Complete_NoAck, 64 cores)\n");
    let specs: Vec<PointSpec> = env()
        .apps
        .iter()
        .map(|app| PointSpec::new(64, MechanismConfig::complete_noack(), app, 1))
        .collect();
    let runs = run_points(&specs);
    let mut at_index = [0u64; 8];
    let mut failed = 0u64;
    for r in &runs {
        for (i, n) in r.reservations_at_index.iter().enumerate() {
            at_index[i.min(7)] += n;
        }
        failed += r.reservations_failed;
    }
    let total = at_index.iter().sum::<u64>() + failed;
    let pct = |n: u64| 100.0 * n as f64 / total.max(1) as f64;

    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "", "1st", "2nd", "3rd", "4th", "5th", "failed"
    );
    println!(
        "{:<14} {:>7.0}% {:>7.0}% {:>7.0}% {:>7.0}% {:>7.0}% {:>7.0}%",
        "paper", PAPER[0], PAPER[1], PAPER[2], PAPER[3], PAPER[4], PAPER[5]
    );
    println!(
        "{:<14} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
        "measured",
        pct(at_index[0]),
        pct(at_index[1]),
        pct(at_index[2]),
        pct(at_index[3]),
        pct(at_index[4]),
        pct(failed)
    );
    println!("\n({total} reservation attempts at routers)");
    save_json("table5", &(at_index.to_vec(), failed));

    let mut summary = BenchSummary::new("table5");
    let mut row = bench_row("Complete_NoAck", 64, &runs);
    for (i, n) in at_index.iter().enumerate().take(5) {
        row.extra.insert(format!("entry_{}_pct", i + 1), pct(*n));
    }
    row.extra.insert("failed_pct".into(), pct(failed));
    summary.push(row);
    save_bench_summary(&mut summary);
}
