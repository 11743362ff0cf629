//! Checkpoint/restore: pause a run mid-flight, serialize the whole
//! simulation to disk, reload it — even in a different process — and
//! finish with results byte-identical to a run that never stopped.
//!
//! ```text
//! cargo run --release --example checkpoint
//! ```

use reactive_circuits::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SimConfig::quick(16, MechanismConfig::complete_noack(), "fft");
    cfg.warmup_cycles = 2_000;
    cfg.measure_cycles = 10_000;
    let total = cfg.warmup_cycles + cfg.measure_cycles;
    let path = std::env::temp_dir().join("reactive-circuits-example.ckpt");

    // The reference: one uninterrupted run.
    let uninterrupted = run_sim(&cfg)?;

    // The same point, stopped at an arbitrary cycle and saved. A session
    // is an explicitly-stepped run: run_until / checkpoint / finish.
    let mut first = SimSession::new(&cfg, None, KernelMode::Event, 1)?;
    first.run_until(total / 3)?;
    first.checkpoint().save(&path)?;
    println!(
        "saved cycle {}/{} to {} ({} bytes)",
        first.pos(),
        total,
        path.display(),
        std::fs::metadata(&path)?.len()
    );
    drop(first); // simulate the process dying here

    // Reload and finish: the file holds every component's state, so the
    // rest of the run cannot tell it was ever interrupted.
    let snap = SessionSnapshot::load(&path).expect("checkpoint readable");
    let mut second = SimSession::resume(&snap, KernelMode::Event, 1)?;
    println!("resumed at cycle {}", second.pos());
    second.run_until(total)?;
    let (resumed, _) = second.finish();

    let a = serde_json::to_string(&uninterrupted)?;
    let b = serde_json::to_string(&resumed)?;
    assert_eq!(a, b, "resumed run diverged from the uninterrupted run");
    println!(
        "byte-identical: {} instructions, {:.3} IPC/core either way",
        resumed.instructions,
        resumed.ipc_per_core()
    );

    // The same guarantee, packaged: run_sim_resumable checkpoints every
    // `interval` cycles into a directory keyed by the config, picks up
    // any compatible checkpoint it finds there, and removes it when the
    // run completes — kill this loop at any point and rerun.
    let dir = std::env::temp_dir().join("reactive-circuits-example-ckpts");
    let via_wrapper = run_sim_resumable(&cfg, &dir, 4_000)?;
    assert_eq!(serde_json::to_string(&via_wrapper)?, a);
    println!("run_sim_resumable (interval 4000): byte-identical too");

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
