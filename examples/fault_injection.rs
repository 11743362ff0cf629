//! Fault injection and health reporting (the README walkthrough).
//!
//! Two runs of the same 16-core chip:
//!
//! 1. fault-free — the default; `FaultConfig::none()` perturbs nothing;
//! 2. a lossy fabric — 1 in 1 000 link traversals eats a packet, replies
//!    that lose their circuit limp home over the ordinary pipeline
//!    (`fault_degraded`) and dropped packets are retransmitted end-to-end.
//!
//! A run that wedges instead ends in `SimError::Stalled` with a
//! diagnostic `HealthReport` once no flit has moved for `STALL_WINDOW`
//! (1 000) cycles.
//!
//! Run with: `cargo run --release --example fault_injection [drop_rate]`
//! (`drop_rate` defaults to 0.001; crank it up to watch `fault_degraded`
//! and retransmission counts climb).

use reactive_circuits::prelude::*;

fn main() {
    let drop_rate: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("drop_rate must be a number in [0, 1]"))
        .unwrap_or(0.001);
    let base = || SimConfig::quick(16, MechanismConfig::complete_noack(), "fft");

    let clean = run_sim(&base()).expect("fault-free run");
    println!(
        "fault-free : {} instructions, healthy: {}, degraded replies: {:.2}%",
        clean.instructions,
        clean.health.healthy(),
        100.0 * clean.outcomes["fault_degraded"],
    );

    let mut lossy = base();
    lossy.faults = FaultConfig {
        link_drop_rate: drop_rate,
        seed: 42,
        ..FaultConfig::none()
    };
    match run_sim(&lossy) {
        Ok(r) => println!(
            "lossy links: {} instructions, degraded replies: {:.2}%, \
             retransmissions: {}, abandoned: {}, healthy: {}",
            r.instructions,
            100.0 * r.outcomes["fault_degraded"],
            r.health.faults.retransmissions,
            r.health.faults.packets_abandoned,
            r.health.healthy(),
        ),
        Err(e) => eprintln!("lossy links: {e}"),
    }
}
