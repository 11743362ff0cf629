//! `rcsim-bench list | all | <name>…` — runs entries of
//! [`rcsim_bench::EXPERIMENTS`] under the process's `RC_*` environment
//! (README.md has the knob table), one after the other. Each prints its
//! tables and claim verdicts to stdout and leaves `BENCH_<name>.json`
//! and `<name>.md` (plus `fig6_trace.json` for `fig6`) in
//! `target/experiments/`.
//!
//! Exit status: 0 when every experiment reported; 1 when a point, an
//! assert or a write failed; 2 when nothing was simulated — an unknown
//! experiment name, an `RC_*` typo — or the watchdog declared a point
//! stalled (its health report is on stderr).

use rcsim_bench::{run_experiment, Experiment, RunEnv, EXPERIMENTS};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let find = |name: &String| EXPERIMENTS.iter().find(|e| e.name == name);
    let chosen: Option<Vec<&Experiment>> = match args.as_slice() {
        [one] if one == "list" => {
            println!("{}", names.join("\n"));
            return ExitCode::SUCCESS;
        }
        [one] if one == "all" => Some(EXPERIMENTS.iter().collect()),
        _ => args.iter().map(find).collect(),
    };
    let Some(chosen) = chosen.filter(|c| !c.is_empty()) else {
        eprintln!(
            "usage: rcsim-bench list | all | <name>... ({})",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let env = match RunEnv::from_process() {
        Ok(env) => env,
        Err(message) => {
            eprintln!("rcsim-bench: {message}");
            return ExitCode::from(2);
        }
    };
    let dir = Path::new("target/experiments");
    for exp in chosen {
        let report = match run_experiment(exp, &env) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("rcsim-bench {}: {}", exp.name, e.message);
                return ExitCode::from(if e.stalled { 2 } else { 1 });
            }
        };
        println!("{}", report.text);
        for (name, contents) in &report.files {
            let path = dir.join(name);
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents))
            {
                eprintln!(
                    "rcsim-bench {}: cannot write {}: {e}",
                    exp.name,
                    path.display()
                );
                return ExitCode::FAILURE;
            }
            eprintln!("(written to {})", path.display());
        }
    }
    ExitCode::SUCCESS
}
