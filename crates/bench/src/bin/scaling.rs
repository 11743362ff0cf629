//! Scalability sweep (the §5.5 discussion): how circuit usage and speedup
//! evolve with chip size. Longer paths and more concurrent traffic make
//! complete circuits harder to build — the reason the paper argues for
//! timed circuits and partitioned usage at larger scales.

use rcsim_bench::{
    bench_row, env, run_points, save_bench_summary, save_json, BenchSummary, PointSpec,
};
use rcsim_core::MechanismConfig;

fn main() {
    let app = &env().first_app;
    println!("Scalability sweep ('{app}'): circuits get harder to build as chips grow\n");
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "cores", "Complete", "SlackDelay", "circuit%", "sd-circ%", "failed%"
    );

    // Three mechanisms × three chip sizes, one flat job list.
    let sizes = [16u16, 32, 64];
    let specs: Vec<PointSpec> = sizes
        .iter()
        .flat_map(|&cores| {
            [
                PointSpec::new(cores, MechanismConfig::baseline(), app, 1),
                PointSpec::new(cores, MechanismConfig::complete_noack(), app, 1),
                PointSpec::new(cores, MechanismConfig::slack_delay(1), app, 1),
            ]
        })
        .collect();
    let all = run_points(&specs);

    let mut rows = Vec::new();
    let mut summary = BenchSummary::new("scaling");
    for (&cores, chunk) in sizes.iter().zip(all.chunks(3)) {
        let (base, complete, slack) = (&chunk[0], &chunk[1], &chunk[2]);
        for r in [complete, slack] {
            let mut row = bench_row(&r.mechanism, cores, std::slice::from_ref(r));
            row.extra.insert("speedup".into(), r.speedup_over(base));
            summary.push(row);
        }
        println!(
            "{:<8} {:>11.3}x {:>11.3}x {:>9.1}% {:>9.1}% {:>9.1}%",
            cores,
            complete.speedup_over(base),
            slack.speedup_over(base),
            100.0 * complete.outcomes["circuit"],
            100.0 * slack.outcomes["circuit"],
            100.0 * complete.outcomes["failed"],
        );
        rows.push((
            cores,
            complete.speedup_over(base),
            complete.outcomes["circuit"],
        ));
    }
    println!("\n(§5.2: circuit usage falls with chip size; §5.5: timed circuits and");
    println!(" partitioning — see `examples/partitioned.rs` — are the remedies)");
    save_json("scaling", &rows);
    save_bench_summary(&mut summary);
}
