//! Loads a checkpoint file — typically a `wedged-*.ckpt` dumped by the
//! sweep runner when a run stalls with `RC_CKPT_DIR` set — rebuilds the
//! chip from it, and prints the saved position, the embedded
//! configuration and the full health report, including the wait-for-graph
//! deadlock diagnosis when the network is wedged.
//!
//! Usage: `rcsim-replay <file.ckpt> [extra_cycles]` — with a cycle count,
//! the chip is additionally advanced that many cycles before the health
//! dump (watching whether a suspected livelock moves). Exits non-zero on
//! an unreadable or corrupt checkpoint.

use rcsim_bench::RunEnv;
use rcsim_system::{KernelMode, SessionSnapshot, SimSession};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: rcsim-replay <file.ckpt> [extra_cycles]");
        return ExitCode::FAILURE;
    };
    let extra: u64 = match args.next().map(|v| v.parse()) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("rcsim-replay: extra_cycles must be an integer");
            return ExitCode::FAILURE;
        }
    };

    let Some(snap) = SessionSnapshot::load(std::path::Path::new(&path)) else {
        eprintln!("rcsim-replay: {path}: missing, corrupt, or stale-version checkpoint");
        return ExitCode::FAILURE;
    };
    println!(
        "checkpoint: cycle {} of {}",
        snap.pos(),
        snap.config().warmup_cycles + snap.config().measure_cycles
    );
    match serde_json::to_string_pretty(snap.config()) {
        Ok(json) => println!("config:\n{json}"),
        Err(e) => eprintln!("rcsim-replay: config failed to serialize: {e}"),
    }

    if let Err(message) = RunEnv::from_process() {
        eprintln!("rcsim-replay: {message}");
        return ExitCode::from(2);
    }
    let mut session = match SimSession::resume(&snap, KernelMode::Event, 1) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rcsim-replay: checkpoint no longer builds: {e}");
            return ExitCode::FAILURE;
        }
    };
    if extra > 0 {
        let target = (session.pos() + extra).min(session.total());
        println!("advancing {} cycles...", target - session.pos());
        // A stall here is expected — inspecting stalls is the point.
        let _ = session.run_until(target);
        println!("now at cycle {}", session.pos());
    }
    println!("{}", session.chip().health());
    ExitCode::SUCCESS
}
