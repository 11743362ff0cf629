//! Figure 8 — network energy per configuration, normalized to the
//! baseline, with standard error across applications.

use rcsim_bench::{
    bench_row, env, run_points, save_bench_summary, save_json, BenchSummary, PointSpec,
};
use rcsim_core::MechanismConfig;
use rcsim_stats::Accumulator;

fn main() {
    println!("Figure 8 — normalized network energy (lower is better)\n");
    println!("Paper landmarks: Fragmented *increases* energy (extra VC);");
    println!("Complete_NoAck achieves the largest savings: -15.2% at 16 cores,");
    println!("-20.8% at 64 cores; timed variants save slightly less (timestamp");
    println!("storage cancels part of the buffer removal).\n");

    // Per-app baselines so each ratio is app-matched; one baseline per
    // (app, seed) keeps comparisons seed-paired. The whole grid — every
    // core count, the baselines, and every swept mechanism — goes to the
    // sweep runner as one submission-ordered job list.
    let points: Vec<(String, u64)> = env()
        .apps
        .iter()
        .flat_map(|app| env().seeds.iter().map(move |&s| (app.clone(), s)))
        .collect();
    // The paper excludes Ideal from Figure 8 (unbounded circuit storage
    // has no meaningful energy model).
    let swept: Vec<MechanismConfig> = MechanismConfig::key_configs()
        .into_iter()
        .filter(|m| *m != MechanismConfig::baseline() && *m != MechanismConfig::ideal())
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
    let mut summary = BenchSummary::new("fig8");
    for (ci, &cores) in env().cores.iter().enumerate() {
        let block = &all[ci * per_cores..(ci + 1) * per_cores];
        let (baselines, rest) = block.split_at(points.len());
        let mut mech_chunks = rest.chunks(points.len());
        println!("== {cores} cores ==");
        println!("{:<22} {:>10} {:>9}", "configuration", "energy", "stderr");
        for mechanism in MechanismConfig::key_configs() {
            if mechanism == MechanismConfig::baseline() {
                println!("{:<22} {:>10.3} {:>9.3}", "Baseline", 1.0, 0.0);
                let mut row = bench_row("Baseline", cores, baselines);
                row.extra.insert("energy_ratio".into(), 1.0);
                summary.push(row);
                continue;
            }
            if mechanism == MechanismConfig::ideal() {
                continue;
            }
            let runs = mech_chunks.next().expect("grid-aligned result chunks");
            let mut acc = Accumulator::new();
            for (r, base) in runs.iter().zip(baselines) {
                acc.add(r.energy_ratio_over(base));
            }
            let mut row = bench_row(&mechanism.label(), cores, runs);
            row.extra.insert("energy_ratio".into(), acc.mean());
            row.extra.insert("stderr".into(), acc.std_err());
            summary.push(row);
            println!(
                "{:<22} {:>10.3} {:>9.3}  {}",
                mechanism.label(),
                acc.mean(),
                acc.std_err(),
                rcsim_bench::bar(1.0 - acc.mean(), 0.25, 30),
            );
            raw.push((cores, mechanism.label(), acc.mean(), acc.std_err()));
        }
        println!();
    }
    println!("paper reference: Complete_NoAck = 0.848 (16 cores), 0.792 (64 cores)");
    save_json("fig8", &raw);
    save_bench_summary(&mut summary);
}
