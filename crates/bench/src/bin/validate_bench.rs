//! Validates every `target/experiments/BENCH_*.json` summary: it must
//! decode as an [`rcsim_trace::BenchSummary`] — the typed summary is the
//! schema, so a missing field or a value of the wrong kind fails the
//! decode — then hold [`BenchSummary::validate`]'s invariants and carry
//! verdicts that parse.
//!
//! Usage: `validate_bench [file.json ...]` — with no arguments, scans
//! `target/experiments/`.
//! Exits non-zero when any file fails or no summaries are found, so CI's
//! smoke step (`scripts/ci.sh`) catches an experiment that silently
//! stops writing its summary.

use rcsim_bench::Verdict;
use rcsim_trace::BenchSummary;
use std::path::{Path, PathBuf};

/// Every problem found in one summary file.
fn validate_file(path: &Path) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("unreadable: {e}")],
    };
    let summary: BenchSummary = match serde_json::from_str(&text) {
        Ok(summary) => summary,
        Err(e) => return vec![format!("does not decode as BenchSummary: {e}")],
    };
    let mut problems = summary.validate();
    for claim in &summary.claims {
        if let Err(e) = claim.verdict.parse::<Verdict>() {
            problems.push(format!("claim `{}`: verdict {e}", claim.name));
        }
    }
    problems
}

fn summary_files() -> Vec<PathBuf> {
    let args: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    if !args.is_empty() {
        return args;
    }
    let mut found = Vec::new();
    if let Ok(dir) = std::fs::read_dir("target/experiments") {
        for entry in dir.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                found.push(entry.path());
            }
        }
    }
    found.sort();
    found
}

fn main() {
    let files = summary_files();
    if files.is_empty() {
        eprintln!(
            "validate_bench: no BENCH_*.json summaries found \
             (run an experiment first, e.g. `cargo run -p rcsim-bench --bin rcsim-bench fig6`)"
        );
        std::process::exit(1);
    }

    let mut failed = false;
    for path in &files {
        let problems = validate_file(path);
        if problems.is_empty() {
            println!("ok   {}", path.display());
        } else {
            failed = true;
            println!("FAIL {}", path.display());
            for p in problems {
                println!("       - {p}");
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("({} summaries validated)", files.len());
}
