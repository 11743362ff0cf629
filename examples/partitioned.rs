//! Partition isolation (the §5.5 future-usage model): an 8×8 chip split
//! into four Hardwall-style quadrants, each running a different parallel
//! application against its own shared region, with Reactive Circuits
//! working independently inside each partition.
//!
//! ```text
//! cargo run --release --example partitioned
//! ```

use reactive_circuits::prelude::*;
use reactive_circuits::protocol::ProtocolConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mesh = Topology::mesh(8, 8)?;
    let apps = ["fft", "canneal", "swaptions", "barnes"];
    let wl = Workload::partitioned(&apps, 64, 7).expect("known apps, square core count");
    println!("Partitioned 8x8 chip: quadrants run {:?}\n", apps);

    let mut results = Vec::new();
    for mechanism in [
        MechanismConfig::baseline(),
        MechanismConfig::complete_noack(),
    ] {
        let mut chip = Chip::new(mesh, mechanism, ProtocolConfig::paper_defaults(&mesh), &wl)?;
        chip.run(50_000).expect("chip run must not stall");
        chip.reset_stats();
        chip.run(25_000).expect("chip run must not stall");
        let violations = chip.coherence_violations();
        assert!(violations.is_empty(), "{violations:?}");
        let stats = chip.noc_stats();
        println!(
            "{:<16} instructions {:>9}  load {:>5.2} f/n/100c  replies on circuit {:>5.1}%",
            mechanism.label(),
            chip.instructions(),
            stats.load_flits_per_node_per_100(64),
            100.0 * stats.outcome_fraction(reactive_circuits::noc::CircuitOutcome::OnCircuit),
        );
        results.push(chip.instructions());
    }
    println!(
        "\nspeedup with circuits: {:.3}x (partitions keep paths short, so circuits\nbuild as easily as on a 16-core chip — the paper's scalability argument)",
        results[1] as f64 / results[0] as f64
    );
    Ok(())
}
