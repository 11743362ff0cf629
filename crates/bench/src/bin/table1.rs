//! Table 1 — percentage of messages traversing the network, by type
//! (64-core chip, average over all benchmarks, baseline network).

use rcsim_bench::{
    bench_row, env, run_points, save_bench_summary, save_json, BenchSummary, PointSpec,
};
use rcsim_core::MechanismConfig;
use std::collections::BTreeMap;

/// (class label, paper's reported share of all messages).
const PAPER: &[(&str, f64)] = &[
    ("Requests (total)", 47.0),
    ("L2_Reply", 22.6),
    ("L1_DATA_ACK", 23.0),
    ("L2_WB_ACK", 4.7),
    ("L1_INV_ACK", 1.1),
    ("MEMORY", 0.9),
    ("L1_TO_L1", 0.7),
];

const REQUEST_CLASSES: &[&str] = &[
    "Request",
    "FwdRequest",
    "Invalidation",
    "WbData",
    "MemRequest",
    "MemWbData",
];

fn main() {
    println!("Table 1 — message mix (64 cores, baseline, avg over apps)\n");
    let specs: Vec<PointSpec> = env()
        .apps
        .iter()
        .map(|app| PointSpec::new(64, MechanismConfig::baseline(), app, 1))
        .collect();
    let runs = run_points(&specs);
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for r in &runs {
        for (k, v) in &r.messages {
            *totals.entry(k.clone()).or_insert(0) += v;
        }
    }
    let all: u64 = totals.values().sum();
    let share = |label: &str| -> f64 {
        if label == "Requests (total)" {
            REQUEST_CLASSES
                .iter()
                .filter_map(|c| totals.get(*c))
                .sum::<u64>() as f64
                * 100.0
                / all as f64
        } else {
            totals.get(label).copied().unwrap_or(0) as f64 * 100.0 / all as f64
        }
    };

    println!("{:<20} {:>10} {:>10}", "message type", "paper", "measured");
    for (label, paper) in PAPER {
        println!("{:<20} {:>9.1}% {:>9.1}%", label, paper, share(label));
    }
    let replies: f64 = PAPER[1..].iter().map(|(l, _)| share(l)).sum();
    println!("{:<20} {:>9.1}% {:>9.1}%", "Replies (total)", 53.0, replies);
    println!(
        "\n({} messages total across {} apps)",
        all,
        env().apps.len()
    );
    save_json("table1", &totals);

    let mut summary = BenchSummary::new("table1");
    let mut row = bench_row("Baseline", 64, &runs);
    for (label, _) in PAPER {
        row.extra.insert(format!("share.{label}"), share(label));
    }
    row.extra.insert("share.Replies (total)".into(), replies);
    summary.push(row);
    save_bench_summary(&mut summary);
}
