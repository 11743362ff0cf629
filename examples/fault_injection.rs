//! Fault injection and health reporting (the README walkthrough).
//!
//! Two runs of the same 16-core chip:
//!
//! 1. fault-free — the default; `FaultConfig::none()` perturbs nothing;
//! 2. a degraded chip — the interior link 5–6 dies mid-run: the circuits
//!    whose replies would cross it are torn down (replies that lose their
//!    circuit limp home over the ordinary pipeline as `fault_degraded`),
//!    packets whose route it breaks detour along the up*/down* table, and
//!    packets caught on it are retransmitted end-to-end.
//!
//! A run that wedges instead ends in `SimError::Stalled` with a
//! diagnostic `HealthReport` once no flit has moved for `STALL_WINDOW`
//! (1 000) cycles. Some onsets do: a link dying under a circuit stream can
//! strand its body (ROADMAP item 2, wedge entrance 1); 5 000 is one.
//!
//! Run with: `cargo run --release --example fault_injection [onset]`
//! (`onset`, the cycle the link dies, defaults to 6 000, mid-way through
//! the measured window).

use reactive_circuits::prelude::*;
use reactive_circuits::system::DeadLinkEvent;

fn main() {
    let onset: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("onset must be a cycle number"))
        .unwrap_or(6_000);
    let base = || SimConfig::quick(16, MechanismConfig::complete_noack(), "fft");

    let clean = run_sim(&base()).expect("fault-free run");
    println!(
        "fault-free : {} instructions, healthy: {}, degraded replies: {:.2}%",
        clean.instructions,
        clean.health.healthy(),
        100.0 * clean.outcomes["fault_degraded"],
    );

    let mut degraded = base();
    degraded.faults.dead_links = vec![DeadLinkEvent {
        a: NodeId(5),
        b: NodeId(6),
        at: onset,
    }];
    match run_sim(&degraded) {
        Ok(r) => println!(
            "dead link  : {} instructions, degraded replies: {:.2}%, \
             circuits torn: {}, rerouted: {}, retransmissions: {}, abandoned: {}, healthy: {}",
            r.instructions,
            100.0 * r.outcomes["fault_degraded"],
            r.health.faults.circuits_torn,
            r.health.faults.packets_rerouted,
            r.health.faults.retransmissions,
            r.health.faults.packets_abandoned,
            r.health.healthy(),
        ),
        Err(e) => eprintln!("dead link  : {e}"),
    }
}
