//! Ablations beyond the paper's main grid (DESIGN.md §8):
//!
//! 1. circuits-per-input sweep (the paper picks 5 experimentally, §4.2);
//! 2. keep vs undo circuits on L2 miss (§4.4 says keeping wins);
//! 3. slack sweep (the non-monotone trade-off of §5.2);
//! 4. load sweep with synthetic traffic — where circuits stop helping
//!    (§5.5's congestion threshold).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rcsim_bench::{
    bench_row, env, run_points, save_bench_summary, save_json, BenchRow, BenchSummary, PointSpec,
};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, Mesh, MessageClass};
use rcsim_noc::{MessageGroup, Network, NocConfig, PacketSpec};

fn circuits_per_input_sweep(summary: &mut BenchSummary, app: &str) {
    println!("== circuits per input port (Complete_NoAck, 64 cores, '{app}') ==");
    println!(
        "{:>9} {:>10} {:>10} {:>12}",
        "entries", "circuit%", "failed%", "storage-fail"
    );
    let entries_sweep = [1u8, 2, 3, 5, 8];
    let specs: Vec<PointSpec> = entries_sweep
        .iter()
        .map(|&entries| {
            let mut mechanism = MechanismConfig::complete_noack();
            mechanism.max_circuits_per_input = entries;
            PointSpec::new(64, mechanism, app, 1)
        })
        .collect();
    let runs = run_points(&specs);
    let mut rows = Vec::new();
    for (&entries, r) in entries_sweep.iter().zip(&runs) {
        println!(
            "{:>9} {:>9.1}% {:>9.1}% {:>12}",
            entries,
            100.0 * r.outcomes["circuit"],
            100.0 * r.outcomes["failed"],
            r.reservation_failures[0],
        );
        let mut row = bench_row(&format!("entries_{entries}"), 64, std::slice::from_ref(r));
        row.extra
            .insert("storage_failures".into(), r.reservation_failures[0] as f64);
        summary.push(row);
        rows.push((entries, r.outcomes["circuit"], r.reservation_failures[0]));
    }
    println!("(the paper settles on 5: enough entries that storage failures vanish)\n");
    save_json("ablation_entries", &rows);
}

fn undo_on_l2_miss(summary: &mut BenchSummary, app: &str) {
    println!("== keep vs undo circuits on L2 miss (§4.4, 64 cores, '{app}') ==");
    let mut undo_mech = MechanismConfig::complete_noack();
    undo_mech.undo_on_l2_miss = true;
    let specs = [
        PointSpec::new(64, MechanismConfig::baseline(), app, 1),
        PointSpec::new(64, MechanismConfig::complete_noack(), app, 1),
        PointSpec::new(64, undo_mech, app, 1),
    ];
    let runs = run_points(&specs);
    let (base, keep, undo) = (&runs[0], &runs[1], &runs[2]);
    println!(
        "  keep built: speedup {:.3}, circuit {:.1}%",
        keep.speedup_over(base),
        100.0 * keep.outcomes["circuit"]
    );
    println!(
        "  undo at miss: speedup {:.3}, circuit {:.1}%, undone {:.1}%",
        undo.speedup_over(base),
        100.0 * undo.outcomes["circuit"],
        100.0 * undo.outcomes["undone"]
    );
    for (label, r) in [("l2miss_keep", keep), ("l2miss_undo", undo)] {
        let mut row = bench_row(label, 64, std::slice::from_ref(r));
        row.extra.insert("speedup".into(), r.speedup_over(base));
        summary.push(row);
    }
    println!("(the paper found keeping them performs better)\n");
}

fn scrounger_modes(summary: &mut BenchSummary, app: &str) {
    println!("== scrounger semantics (64 cores, '{app}') ==");
    let modes = [
        ("no reuse", MechanismConfig::complete_noack()),
        ("consume", MechanismConfig::reuse_noack()),
        ("borrow", MechanismConfig::reuse_borrow_noack()),
    ];
    let mut specs = vec![PointSpec::new(64, MechanismConfig::baseline(), app, 1)];
    specs.extend(
        modes
            .iter()
            .map(|(_, mechanism)| PointSpec::new(64, *mechanism, app, 1)),
    );
    let runs = run_points(&specs);
    let base = &runs[0];
    for ((name, _), r) in modes.iter().zip(&runs[1..]) {
        println!(
            "  {:<9} speedup {:.3}, circuit {:>4.1}%, scrounger {:>4.1}%, failed {:>4.1}%",
            name,
            r.speedup_over(base),
            100.0 * r.outcomes["circuit"],
            100.0 * r.outcomes["scrounger"],
            100.0 * r.outcomes["failed"],
        );
        let mut row = bench_row(
            &format!("scrounger_{}", name.replace(' ', "_")),
            64,
            std::slice::from_ref(r),
        );
        row.extra.insert("speedup".into(), r.speedup_over(base));
        row.extra
            .insert("scrounger_frac".into(), r.outcomes["scrounger"]);
        summary.push(row);
    }
    println!("(the paper leaves the borrow-vs-consume choice open; borrowing keeps");
    println!(" the circuit alive for its own reply, consuming steals it)\n");
}

fn slack_sweep(summary: &mut BenchSummary, app: &str) {
    println!("== slack sweep (timed circuits, 64 cores, '{app}') ==");
    println!(
        "{:>7} {:>10} {:>10} {:>10}",
        "slack", "circuit%", "failed%", "undone%"
    );
    let slacks = [0u32, 1, 2, 4, 8];
    let specs: Vec<PointSpec> = slacks
        .iter()
        .map(|&k| {
            let mechanism = if k == 0 {
                MechanismConfig::timed_noack()
            } else {
                MechanismConfig::slack(k)
            };
            PointSpec::new(64, mechanism, app, 1)
        })
        .collect();
    let runs = run_points(&specs);
    let mut rows = Vec::new();
    for (&k, r) in slacks.iter().zip(&runs) {
        println!(
            "{:>7} {:>9.1}% {:>9.1}% {:>9.1}%",
            k,
            100.0 * r.outcomes["circuit"],
            100.0 * r.outcomes["failed"],
            100.0 * r.outcomes["undone"],
        );
        let mut row = bench_row(&format!("slack_{k}"), 64, std::slice::from_ref(r));
        row.extra.insert("undone_frac".into(), r.outcomes["undone"]);
        summary.push(row);
        rows.push((k, r.outcomes["circuit"]));
    }
    println!("(small slack loses to delays; large slack re-creates conflicts)\n");
    save_json("ablation_slack", &rows);
}

/// Network-only load sweep: circuit-reply latency gain vs injection rate.
/// Synthetic points drive `Network` directly (no `SimConfig`), so this
/// sweep stays serial rather than going through the sweep runner.
fn load_threshold(summary: &mut BenchSummary) {
    println!("== congestion threshold (synthetic request/reply, 8x8) ==");
    println!(
        "{:>9} {:>12} {:>12} {:>9}",
        "rate", "baseline", "complete", "gain"
    );
    let mut rows = Vec::new();
    for rate in [0.005, 0.01, 0.02, 0.05, 0.1] {
        let lat = |mechanism: MechanismConfig| -> f64 {
            let mesh = Mesh::new(8, 8).expect("valid mesh");
            let mut net = Network::new(NocConfig::paper_baseline(mesh, mechanism)).expect("valid");
            net.set_kernel(env().kernel);
            let gen = rcsim_noc::traffic::Generator::uniform(rate);
            let mut rng = StdRng::seed_from_u64(7);
            let mut block = 0;
            for _ in 0..4_000 {
                gen.step(&mut net, &mut rng, &mut block);
                net.tick();
                for (node, d) in net.take_all_delivered() {
                    if d.class == MessageClass::L1Request {
                        let key = CircuitKey {
                            requestor: d.src,
                            block: d.block,
                        };
                        net.inject(
                            PacketSpec::new(node, d.src, MessageClass::L2Reply)
                                .with_block(d.block)
                                .with_circuit_key(key),
                        );
                    }
                }
            }
            net.stats()
                .network_latency
                .get(&MessageGroup::CircuitRep)
                .map_or(0.0, |a| a.mean())
        };
        let b = lat(MechanismConfig::baseline());
        let c = lat(MechanismConfig::complete());
        println!(
            "{:>9.3} {:>12.1} {:>12.1} {:>8.1}%",
            rate,
            b,
            c,
            100.0 * (b - c) / b
        );
        // Synthetic network-only points: no RunResult exists, so the row
        // carries the circuit-reply latency directly.
        summary.push(BenchRow {
            label: format!("load_{rate}"),
            cores: 64,
            topology: "mesh".to_owned(),
            avg_latency: c,
            p99_latency: 0.0,
            p999_latency: 0.0,
            circuit_hit_rate: 0.0,
            extra: [
                ("baseline_latency".to_owned(), b),
                ("rate".to_owned(), rate),
            ]
            .into_iter()
            .collect(),
        });
        rows.push((rate, b, c));
    }
    println!("(gains shrink as conflicts prevent circuit construction — §5.5)\n");
    save_json("ablation_load", &rows);
}

fn main() {
    println!(
        "Ablations (RC_CYCLES={}, RC_WARMUP={})\n",
        env().cycles,
        env().warmup
    );
    let mut summary = BenchSummary::new("ablations");
    let app = &env().first_app;
    circuits_per_input_sweep(&mut summary, app);
    undo_on_l2_miss(&mut summary, app);
    scrounger_modes(&mut summary, app);
    slack_sweep(&mut summary, app);
    load_threshold(&mut summary);
    save_bench_summary(&mut summary);
}
