//! `pair`: a rep-level A/B reading of two builds of the simulator.
//!
//! * `pair serve` — a rep server. Each stdin line `WORKLOAD SEED QUICK`
//!   (`QUICK` is 0 or 1) runs one end-to-end rep of the canonical
//!   benchmark's workload through `session_rep` or `echo_rep`, tracing
//!   off (no host probe or calibration runs), and answers with one
//!   tab-separated line: `sim_cycles_per_s setup_s fingerprint failure`
//!   (`failure` is `-` for a clean rep).
//! * `pair drive --a BIN_A --b BIN_B [--workloads W,..] [--seconds S]
//!   [--seed N] [--quick]` — starts one server from each binary and, per
//!   workload, runs pairs of reps for `S` seconds: pair `k` runs seed
//!   `N + k` on both sides, A then B for even `k` and B then A for odd
//!   `k` (A B B A …), so a drift of the host's speed falls on both sides
//!   alike. It prints per workload the median B/A of `sim_cycles_per_s`
//!   and of `setup_s`, a bootstrap 99 % interval of each median, the
//!   pairs B won, and whether every pair's fingerprints matched; it exits
//!   1 if any pair's fingerprints differ or any rep failed.
//!
//! `scripts/pair.sh` builds one server per revision and runs the driver.

use rcsim_perf::span::Off;
use rcsim_perf::stats::median;
use rcsim_perf::workloads::{echo_rep, session_rep, RepOptions, Schedule, SplitMix64, Workload};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: pair serve\n       pair drive --a BIN_A --b BIN_B \
[--workloads W,..] [--seconds S] [--seed N] [--quick]";

/// Bootstrap resamples per interval.
const RESAMPLES: usize = 4_000;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve(),
        Some("drive") => drive(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("pair: {why}");
            ExitCode::from(2)
        }
    }
}

/// One rep's answer.
#[derive(Debug, Clone, PartialEq)]
struct RepLine {
    cycles_per_s: f64,
    setup_s: f64,
    fingerprint: String,
    failure: Option<String>,
}

fn serve() -> Result<bool, String> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    // An echo schedule is an input, generated outside any timing; the
    // last one is kept, since each seed comes once from each side.
    let mut last: Option<((Workload, u64, bool), Schedule)> = None;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let words: Vec<&str> = line.split_whitespace().collect();
        let [name, seed, quick] = words[..] else {
            return Err(format!("bad request {line:?}: want WORKLOAD SEED QUICK"));
        };
        let workload = Workload::by_name(name).ok_or_else(|| format!("no workload {name}"))?;
        let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed}"))?;
        let quick = quick == "1";
        let (warmup, measure) = workload.cycles(quick);
        let rep = match workload.sim_config(seed, quick) {
            Some(cfg) => session_rep(&cfg, RepOptions::plain(), &mut Off),
            None => {
                let key = (workload, seed, quick);
                if last.as_ref().is_none_or(|(k, _)| *k != key) {
                    let nodes = workload.fabric().0.nodes() as u16;
                    last = Some((key, Schedule::generate(seed, nodes, warmup + measure)));
                }
                let schedule = &last.as_ref().expect("generated above").1;
                echo_rep(
                    workload.fabric(),
                    schedule,
                    warmup,
                    RepOptions::plain(),
                    &mut Off,
                )
            }
        };
        let failure = rep
            .failure
            .as_deref()
            .unwrap_or("-")
            .replace(['\t', '\n'], " ");
        writeln!(
            out,
            "{}\t{}\t{:016x}\t{failure}",
            rep.window_cycles as f64 / rep.window_s,
            rep.setup_s,
            rep.fingerprint
        )
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    }
    Ok(true)
}

/// A running rep server.
struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn start(bin: &str) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let stdin = child.stdin.take().expect("piped");
        let stdout = BufReader::new(child.stdout.take().expect("piped"));
        Ok(Server {
            child,
            stdin,
            stdout,
        })
    }

    fn rep(&mut self, workload: Workload, seed: u64, quick: bool) -> Result<RepLine, String> {
        writeln!(self.stdin, "{} {seed} {}", workload.name(), u8::from(quick))
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("server gone: {e}"))?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("server gone: {e}"))?;
        let fields: Vec<&str> = line.trim_end_matches('\n').split('\t').collect();
        let [speed, setup, fingerprint, failure] = fields[..] else {
            return Err(format!("bad answer {line:?}"));
        };
        let number = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number {s:?}"));
        Ok(RepLine {
            cycles_per_s: number(speed)?,
            setup_s: number(setup)?,
            fingerprint: fingerprint.to_string(),
            failure: (failure != "-").then(|| failure.to_string()),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Args {
    a: String,
    b: String,
    workloads: Vec<Workload>,
    seconds: f64,
    seed: u64,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        a: String::new(),
        b: String::new(),
        workloads: Workload::ALL.to_vec(),
        seconds: 60.0,
        seed: 1,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--a" => parsed.a = value()?,
            "--b" => parsed.b = value()?,
            "--workloads" => {
                parsed.workloads = (value()?.split(','))
                    .map(|w| Workload::by_name(w).ok_or(format!("no workload {w}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seconds" => parsed.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--quick" => parsed.quick = true,
            _ => return Err(format!("unknown argument {arg}\n{USAGE}")),
        }
    }
    if parsed.a.is_empty() || parsed.b.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(parsed)
}

/// The bootstrap 99 % interval of the median of `xs`.
fn interval(xs: &[f64], rng: &mut SplitMix64) -> (f64, f64) {
    let mut medians: Vec<f64> = (0..RESAMPLES)
        .map(|_| {
            let sample: Vec<f64> = (0..xs.len())
                .map(|_| xs[rng.below(xs.len() as u64) as usize])
                .collect();
            median(&sample)
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    let at = |q: f64| medians[((RESAMPLES - 1) as f64 * q).round() as usize];
    (at(0.005), at(0.995))
}

fn drive(args: &[String]) -> Result<bool, String> {
    let args = parse(args)?;
    let mut a = Server::start(&args.a)?;
    let mut b = Server::start(&args.b)?;
    let mut rng = SplitMix64(0x5041_4952);
    let mut clean = true;
    println!(
        "{:<15} {:>5}  {:>16} {:>13} {:>7}  {:>12} {:>13} {:>7}  fingerprints",
        "workload", "pairs", "cycles/s B/A", "99 %", "B won", "setup_s B/A", "99 %", "B won"
    );
    for &workload in &args.workloads {
        let (mut speed, mut setup, mut matched) = (Vec::new(), Vec::new(), 0);
        let start = Instant::now();
        while speed.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            let k = speed.len() as u64;
            let seed = args.seed + k;
            let (ra, rb) = if k.is_multiple_of(2) {
                let ra = a.rep(workload, seed, args.quick)?;
                (ra, b.rep(workload, seed, args.quick)?)
            } else {
                let rb = b.rep(workload, seed, args.quick)?;
                (a.rep(workload, seed, args.quick)?, rb)
            };
            for (side, r) in [("A", &ra), ("B", &rb)] {
                if let Some(why) = &r.failure {
                    eprintln!("{} seed {seed}: {side} failed: {why}", workload.name());
                    clean = false;
                }
            }
            if ra.fingerprint == rb.fingerprint {
                matched += 1;
            } else {
                eprintln!(
                    "{} seed {seed}: fingerprint A {} B {}",
                    workload.name(),
                    ra.fingerprint,
                    rb.fingerprint
                );
                clean = false;
            }
            speed.push(rb.cycles_per_s / ra.cycles_per_s);
            setup.push(rb.setup_s / ra.setup_s);
        }
        let n = speed.len();
        let (s_lo, s_hi) = interval(&speed, &mut rng);
        let (u_lo, u_hi) = interval(&setup, &mut rng);
        let speed_won = speed.iter().filter(|&&r| r > 1.0).count();
        let setup_won = setup.iter().filter(|&&r| r < 1.0).count();
        println!(
            "{:<15} {n:>5}  {:>16.3} {:>13} {:>7}  {:>12.3} {:>13} {:>7}  {matched}/{n} match",
            workload.name(),
            median(&speed),
            format!("{s_lo:.3}–{s_hi:.3}"),
            format!("{speed_won}/{n}"),
            median(&setup),
            format!("{u_lo:.3}–{u_hi:.3}"),
            format!("{setup_won}/{n}"),
        );
    }
    Ok(clean)
}
