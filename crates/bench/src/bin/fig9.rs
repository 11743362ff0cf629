//! Figure 9 — system speedup per configuration vs the baseline, with
//! standard error across applications.

use rcsim_bench::{
    bench_row, env, run_points, save_bench_summary, save_json, BenchSummary, PointSpec,
};
use rcsim_core::MechanismConfig;
use rcsim_stats::Accumulator;

fn main() {
    println!("Figure 9 — system speedup over the baseline\n");
    println!("Paper landmarks: gains are small (the network is lightly loaded)");
    println!("but consistent; NoAck versions beat their ack-ful counterparts;");
    println!("SlackDelay_1 is best (+4.4% @16, +6.0% @64); Complete_NoAck gets");
    println!("+3.8% / +4.8%; everything sits close to Ideal.\n");

    // One baseline per (app, seed): comparisons stay seed-paired. The
    // whole grid is one submission-ordered job list for the sweep runner.
    let points: Vec<(String, u64)> = env()
        .apps
        .iter()
        .flat_map(|app| env().seeds.iter().map(move |&s| (app.clone(), s)))
        .collect();
    let swept: Vec<MechanismConfig> = MechanismConfig::key_configs()
        .into_iter()
        .filter(|m| *m != MechanismConfig::baseline())
        .collect();
    let mut specs = Vec::new();
    for &cores in &env().cores {
        for (app, s) in &points {
            specs.push(PointSpec::new(cores, MechanismConfig::baseline(), app, *s));
        }
        for mechanism in &swept {
            for (app, s) in &points {
                specs.push(PointSpec::new(cores, *mechanism, app, *s));
            }
        }
    }
    let all = run_points(&specs);
    let per_cores = points.len() * (1 + swept.len());

    let mut raw = Vec::new();
    let mut summary = BenchSummary::new("fig9");
    for (ci, &cores) in env().cores.iter().enumerate() {
        let block = &all[ci * per_cores..(ci + 1) * per_cores];
        let (baselines, rest) = block.split_at(points.len());
        let mut mech_chunks = rest.chunks(points.len());
        println!("== {cores} cores ==");
        println!("{:<22} {:>10} {:>9}", "configuration", "speedup", "stderr");
        for mechanism in MechanismConfig::key_configs() {
            if mechanism == MechanismConfig::baseline() {
                let mut row = bench_row("Baseline", cores, baselines);
                row.extra.insert("speedup".into(), 1.0);
                summary.push(row);
                continue;
            }
            let runs = mech_chunks.next().expect("grid-aligned result chunks");
            let mut acc = Accumulator::new();
            for (r, base) in runs.iter().zip(baselines) {
                acc.add(r.speedup_over(base));
            }
            let mut row = bench_row(&mechanism.label(), cores, runs);
            row.extra.insert("speedup".into(), acc.mean());
            row.extra.insert("stderr".into(), acc.std_err());
            summary.push(row);
            println!(
                "{:<22} {:>10.3} {:>9.3}  {}",
                mechanism.label(),
                acc.mean(),
                acc.std_err(),
                rcsim_bench::bar(acc.mean() - 1.0, 0.15, 30),
            );
            raw.push((cores, mechanism.label(), acc.mean(), acc.std_err()));
        }
        println!();
    }
    save_json("fig9", &raw);
    save_bench_summary(&mut summary);
}
