//! `perf`: the benchmark's command line.
//!
//! * `perf --workload W --seed N --seconds S --trace 0|1` — one workload,
//!   one pass, one JSON result on the last line (the form `BENCHMARK.json`
//!   names; `--trace 0` is the end-to-end pass, `--trace 1` the traced
//!   pass).
//! * `perf` — the end-to-end pass over all four workloads, one child
//!   process each so `peak_rss_mb` is per workload; writes
//!   `out/results.json`.
//! * `perf layers` — the traced pass over all four; writes
//!   `out/layers.json` and `out/trace_<workload>.json`.
//! * `perf check` — the end-to-end pass twice; fails unless the two agree.
//! * `perf expected` — rewrites `expected.json` from a fresh pass.
//!
//! `--quick` (cycles ÷ 10, two reps) turns any of them into a smoke run.

use rcsim_perf::catalog::{catalog, MetricDef};
use rcsim_perf::expected::Expected;
use rcsim_perf::host::{self, Stamp};
use rcsim_perf::run::{self, Detail, RunArgs};
use rcsim_perf::workloads::Workload;
use serde::Serialize;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perf [layers|check|expected] [--workload NAME] [--seed N] \
[--seconds S] [--trace 0|1] [--quick]\n  workloads: fullsys64 net256_circuit net256_packet \
overload64";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Pass,
    Layers,
    Check,
    Expected,
}

#[derive(Debug, Clone)]
struct Cli {
    command: Mode,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: Mode::Pass,
        workload: None,
        seed: 1,
        // `run_seconds` of `BENCHMARK.json`, unless `--seconds` says otherwise.
        seconds: catalog().run_seconds as f64,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "layers" => cli.command = Mode::Layers,
            "check" => cli.command = Mode::Check,
            "expected" => cli.command = Mode::Expected,
            "--quick" => cli.quick = true,
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
                cli.seconds = s;
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn print_detail(d: &Detail, defs: &[MetricDef]) {
    println!(
        "== {} (seed {}{}): {} operations attempted, {} failed; \
         warm-up {} + measure {} cycles per rep",
        d.workload,
        d.seed,
        if d.quick { ", quick" } else { "" },
        d.attempted,
        d.failed,
        d.warmup_cycles,
        d.measure_cycles
    );
    if let Some(w) = catalog().workloads.iter().find(|w| w.name == d.workload) {
        println!("   why: {}", w.why);
    }
    for def in defs {
        let value = d.metrics.get(&def.name).copied().unwrap_or(0.0);
        let spread = d.host.get(&def.name).map_or(String::new(), |s| {
            let raw = d
                .host
                .get(&format!("raw.{}", def.name))
                .map_or(String::new(), |r| {
                    format!(", unscaled median {:.6}", r.median)
                });
            format!("  (q1 {:.6}, q3 {:.6}, n {}{raw})", s.q1, s.q3, s.n)
        });
        println!("{:<36} {:>16.6} {}{spread}", def.name, value, def.unit);
    }
    for why in &d.failures {
        println!("FAILED {}: {why}", d.workload);
    }
    for line in &d.drift {
        println!("{line}");
    }
}

fn defs_of(trace: bool) -> &'static [MetricDef] {
    if trace {
        &catalog().per_layer
    } else {
        &catalog().end_to_end
    }
}

/// One workload, one pass, in this process.
fn single(cli: &Cli, workload: Workload) -> Result<bool, String> {
    let detail = run::run(&RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
    })?;
    let defs = defs_of(cli.trace);
    print_detail(&detail, defs);
    println!("{}", run::result_line(&detail, defs));
    Ok(detail.failed == 0)
}

#[derive(Serialize)]
struct PassFile {
    stamp: Stamp,
    seed: u64,
    seconds: f64,
    quick: bool,
    traced: bool,
    min_reps: usize,
    workloads: Vec<Detail>,
}

/// One pass over all four workloads, each in a child process of its own
/// (run one after the other; nothing else is started meanwhile).
fn pass(cli: &Cli, trace: bool) -> Result<Vec<Detail>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut details = Vec::new();
    for w in Workload::ALL {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name()])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if cli.quick {
            child.arg("--quick");
        }
        // A child that dies before writing must not be answered for by an
        // earlier run's file.
        let path = run::detail_path(w, trace);
        let _ = std::fs::remove_file(&path);
        let output = child
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let text = String::from_utf8_lossy(&output.stdout);
        // Everything but the machine-readable last line.
        let human = text
            .trim_end()
            .rsplit_once('\n')
            .map_or("", |(head, _)| head);
        println!("{human}");
        let detail: Detail = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
            .map_err(|e| format!("{} ({}): {e}", path.display(), output.status))?;
        details.push(detail);
    }
    Ok(details)
}

fn write_pass_file(cli: &Cli, name: &str, trace: bool, details: &[Detail]) -> Result<(), String> {
    let file = PassFile {
        stamp: Stamp::gather(),
        seed: cli.seed,
        seconds: cli.seconds,
        quick: cli.quick,
        traced: trace,
        min_reps: if cli.quick {
            run::QUICK_REPS
        } else {
            run::MIN_REPS
        },
        workloads: details.to_vec(),
    };
    let path = host::out_dir().join(name);
    let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} (commit {}, {}, nproc {}, calibration {:.1} Msteps/s)",
        path.display(),
        file.stamp.commit,
        file.stamp.rustc,
        file.stamp.nproc,
        file.stamp.calibration_score
    );
    Ok(())
}

fn all_passed(details: &[Detail]) -> bool {
    details.iter().all(|d| d.failed == 0)
}

/// Where two passes of the same code are further apart than a metric's
/// bound. Host noise can do that on a smoke run; it is a failure of a
/// full-size check.
fn beyond_bounds(first: &[Detail], second: &[Detail]) -> Vec<String> {
    let mut out = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for def in &catalog().end_to_end {
            let (x, y) = (a.metrics[&def.name], b.metrics[&def.name]);
            let apart = (x - y).abs() / x.abs().max(y.abs()).max(f64::MIN_POSITIVE);
            if apart > def.bound {
                out.push(format!(
                    "{} {}: {x} vs {y} ({:.1} % apart, bound {:.1} %)",
                    a.workload,
                    def.name,
                    apart * 1e2,
                    def.bound * 1e2
                ));
            }
        }
    }
    out
}

/// The workloads whose simulated metrics, counts or fingerprint are not
/// identical in two passes of the same code: never acceptable.
fn not_identical(first: &[Detail], second: &[Detail]) -> Vec<String> {
    first
        .iter()
        .zip(second)
        .filter(|(a, b)| (a.sim, a.counts, &a.fingerprint) != (b.sim, b.counts, &b.fingerprint))
        .map(|(a, _)| a.workload.clone())
        .collect()
}

fn dispatch(cli: &Cli) -> Result<bool, String> {
    if let Some(workload) = cli.workload {
        return single(cli, workload);
    }
    match cli.command {
        Mode::Pass => {
            let details = pass(cli, false)?;
            write_pass_file(cli, "results.json", false, &details)?;
            Ok(all_passed(&details))
        }
        Mode::Layers => {
            let details = pass(cli, true)?;
            write_pass_file(cli, "layers.json", true, &details)?;
            Ok(all_passed(&details))
        }
        Mode::Check => {
            let first = pass(cli, false)?;
            let second = pass(cli, false)?;
            write_pass_file(cli, "results.json", false, &second)?;
            let apart = beyond_bounds(&first, &second);
            for line in &apart {
                println!("DISAGREE {line}");
            }
            if cli.quick && !apart.is_empty() {
                println!("(--quick: host-time bounds are not enforced on smoke runs)");
            }
            let changed = not_identical(&first, &second);
            for workload in &changed {
                println!(
                    "DISAGREE {workload}: simulated metrics, counts or fingerprint differ between passes"
                );
            }
            let agreed = changed.is_empty() && (apart.is_empty() || cli.quick);
            println!("check: {}", if agreed { "passes agree" } else { "FAILED" });
            Ok(agreed && all_passed(&first) && all_passed(&second))
        }
        Mode::Expected => {
            if cli.quick {
                return Err("expected.json is taken at full size; drop --quick".to_owned());
            }
            let details = pass(cli, false)?;
            let json = serde_json::to_string_pretty(&Expected::from_details(&details))
                .map_err(|e| e.to_string())?;
            std::fs::write(Expected::path(), json + "\n").map_err(|e| e.to_string())?;
            println!("wrote {}", Expected::path().display());
            Ok(all_passed(&details))
        }
    }
}

fn main() -> ExitCode {
    let vars = std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned());
    if let Some(var) = host::first_rc_variable(vars) {
        eprintln!(
            "perf: refusing to start with {var} set: the benchmark passes kernel, shards, \
             cache directory and cycle counts explicitly and measures no RC_* knob; unset it"
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("perf: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("perf: {why}");
            ExitCode::from(1)
        }
    }
}
