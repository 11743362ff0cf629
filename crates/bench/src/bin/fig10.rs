//! Figure 10 — per-application speedup of timed circuits with slack and
//! delay of 1 cycle/hop, on the 64-core chip.
//!
//! Run with `RC_APPS=all` to sweep all 21 applications plus the mix, as
//! the paper does.

use rcsim_bench::{
    bench_row, env, run_points, save_bench_summary, save_json, BenchSummary, PointSpec,
};
use rcsim_core::MechanismConfig;
use rcsim_stats::geometric_mean;

fn main() {
    println!("Figure 10 — per-application speedup (SlackDelay_1_NoAck, 64 cores)\n");
    println!("Paper landmarks: half the applications gain over 4.5%, a few gain");
    println!("more than 10%, at most two show a sub-2% slowdown.\n");
    println!(
        "{:<18} {:>9} {:>11} {:>9}",
        "application", "speedup", "circuit%", "load"
    );

    let mechanism = MechanismConfig::slack_delay(1);
    // One (baseline, slack) pair per application, submitted as one flat
    // job list so the sweep runner fans the whole figure across workers.
    let specs: Vec<PointSpec> = env()
        .apps
        .iter()
        .flat_map(|app| {
            [
                PointSpec::new(64, MechanismConfig::baseline(), app, 1),
                PointSpec::new(64, mechanism, app, 1),
            ]
        })
        .collect();
    let all = run_points(&specs);

    let mut speedups = Vec::new();
    let mut raw = Vec::new();
    let mut summary = BenchSummary::new("fig10");
    for (app, pair) in env().apps.iter().zip(all.chunks(2)) {
        let (base, r) = (&pair[0], &pair[1]);
        let s = r.speedup_over(base);
        println!(
            "{:<18} {:>9.3} {:>10.1}% {:>9.2}",
            app,
            s,
            100.0 * r.outcomes["circuit"],
            r.load
        );
        speedups.push(s);
        let mut row = bench_row(app, 64, std::slice::from_ref(r));
        row.extra.insert("speedup".into(), s);
        row.extra.insert("load".into(), r.load);
        summary.push(row);
        raw.push((app.clone(), s));
    }
    save_bench_summary(&mut summary);
    if let Some(g) = geometric_mean(speedups.iter().copied()) {
        println!("\ngeometric mean speedup: {g:.3} (paper average: 1.060)");
    }
    save_json("fig10", &raw);
}
