//! Overload robustness in one run: open-loop Poisson traffic slams the
//! west edge of a 4×4 chip while admission control, bounded ingress
//! queues and deterministic load-shedding keep the fabric from wedging.
//!
//! ```text
//! cargo run --release --example overload
//! ```

use reactive_circuits::prelude::*;
use reactive_circuits::system::{QUEUE_CAP, SLO};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Poisson arrivals at 0.3/cycle/edge — past what admission lets in.
    let open_loop = OpenLoopConfig {
        process: ArrivalProcess::Poisson { rate: 0.3 },
        // Admit ≤ 0.25/cycle/edge (short bursts pass through a 16-token
        // bucket) into 32-deep edge queues; shed what waits 1 500 cycles.
        ingress: IngressConfig {
            shed_timeout: 1_500,
            admission: true,
            tokens_per_kilocycle: 256,
        },
    };

    let cfg = SimConfig {
        open_loop: Some(open_loop),
        warmup_cycles: 3_000,
        measure_cycles: 20_000,
        ..SimConfig::quick(16, MechanismConfig::complete_noack(), "blackscholes")
    };

    println!("Running 16-core chip, Poisson open-loop edge traffic, admission ON ...\n");
    let r = run_sim(&cfg)?;

    let e = &r.external;
    println!("external traffic:");
    println!(
        "  offered        {:>8}   (+{} client re-offers)",
        e.offered, e.reoffers
    );
    println!(
        "  completed      {:>8}   ({} within the {}-cycle SLO, measured window)",
        e.completed, e.completed_in_slo, SLO
    );
    println!(
        "  rejected       {:>8}   (typed refusals with retry-after)",
        e.rejected
    );
    println!(
        "  shed           {:>8}   (explicit timeout drops, never silent)",
        e.shed
    );
    println!(
        "  gave up        {:>8}   (retry budget exhausted)",
        e.gave_up
    );
    println!("  still in flight{:>8}", e.in_flight);
    println!(
        "  latency        mean {:.1} cy, p50 {:.0}, p99 {:.0}, p99.9 {:.0}",
        e.latency_mean, e.latency_p50, e.latency_p99, e.latency_p999
    );

    // The OverloadReport rides inside the HealthReport watchdog snapshot.
    println!("\noverload report (via HealthReport):");
    println!("  {}", r.health.overload);

    // The books must balance: every arrival is completed, shed, given up
    // or still somewhere in the pipeline. Nothing is ever lost silently.
    assert_eq!(e.unaccounted, 0, "conservation violated");
    assert!(!r.health.stalled, "fabric stalled under overload");
    println!("\nconservation: offered == completed + shed + gave_up + in_flight  ✓");
    println!(
        "no stall, queues bounded (high-water {} ≤ cap {QUEUE_CAP})  ✓",
        r.health.overload.depth_high_water
    );
    Ok(())
}
