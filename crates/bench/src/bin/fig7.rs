//! Figure 7 — network + queueing latency per message type (requests,
//! circuit-eligible replies, other replies) across the key mechanism
//! configurations.

use rcsim_bench::{
    app_seed_points, bench_row, env, run_points, save_bench_summary, save_json, BenchSummary,
    PointSpec,
};
use rcsim_core::MechanismConfig;
use rcsim_stats::Accumulator;
use rcsim_system::RunResult;

fn group(results: &[RunResult], key: &str) -> (f64, f64) {
    let net: Accumulator = results.iter().map(|r| r.latency[key].network).collect();
    let queue: Accumulator = results.iter().map(|r| r.latency[key].queueing).collect();
    (net.mean(), queue.mean())
}

fn main() {
    println!("Figure 7 — message latency by type (net + queueing, cycles)\n");
    println!("Paper landmarks: circuits cut Circuit_Rep latency sharply; NoAck");
    println!("drops NoCircuit_Rep latency (the acks vanish) and relieves the");
    println!("non-circuit VC; Postponed forces waits; requests are unchanged.\n");

    // One flat job list over the whole (cores × mechanism × app × seed)
    // grid: the sweep runner fans it across RC_JOBS workers and returns
    // results in submission order, which the loops below re-chunk.
    let grid: Vec<(u16, MechanismConfig)> = env()
        .cores
        .iter()
        .flat_map(|&c| {
            MechanismConfig::key_configs()
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
    let mut summary = BenchSummary::new("fig7");
    for &cores in &env().cores {
        println!("== {cores} cores ==");
        println!(
            "{:<22} {:>14} {:>16} {:>18} {:>8}",
            "configuration", "Request", "Circuit_Rep", "NoCircuit_Rep", "load"
        );
        println!(
            "{:<22} {:>7} {:>6} {:>9} {:>6} {:>11} {:>6} {:>8}",
            "", "net", "queue", "net", "queue", "net", "queue", "f/n/100c"
        );
        for mechanism in MechanismConfig::key_configs() {
            let results = chunks.next().expect("grid-aligned result chunks");
            let (rq_n, rq_q) = group(results, "Request");
            let (cr_n, cr_q) = group(results, "Circuit_Rep");
            let (nc_n, nc_q) = group(results, "NoCircuit_Rep");
            let load: Accumulator = results.iter().map(|r| r.load).collect();
            println!(
                "{:<22} {:>7.1} {:>6.1} {:>9.1} {:>6.1} {:>11.1} {:>6.1} {:>8.2}",
                mechanism.label(),
                rq_n,
                rq_q,
                cr_n,
                cr_q,
                nc_n,
                nc_q,
                load.mean()
            );
            let mut row = bench_row(&mechanism.label(), cores, results);
            row.extra.insert("request_net".into(), rq_n);
            row.extra.insert("circuit_rep_net".into(), cr_n);
            row.extra.insert("nocircuit_rep_net".into(), nc_n);
            row.extra.insert("load".into(), load.mean());
            summary.push(row);
            raw.push((cores, mechanism.label(), rq_n, cr_n, nc_n, cr_q));
        }
        // §4.1 diagnostic: circuit set-up takes ~5 cycles per request hop.
        println!(
            "(§4.1: paper reports ~19-cycle avg circuit set-up at 16 cores, ~59 at 64;\n\
             here requests pipeline at 5 cycles/hop, so set-up tracks request latency)\n"
        );
    }
    save_json("fig7", &raw);
    save_bench_summary(&mut summary);
}
