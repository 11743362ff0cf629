//! Resilience — degradation curves under permanent topology faults:
//! dead-link count × mechanism, measuring latency degradation, reroute /
//! circuit-teardown / reissue activity, and asserting that no coherence
//! request is ever abandoned (DESIGN.md §10).
//!
//! Writes `target/experiments/BENCH_resilience.json` (validated by
//! `validate_bench`) plus raw rows in `resilience.json`.

use rcsim_bench::{
    bench_row, env, run_configs, save_bench_summary, save_json, BenchSummary, PointSpec,
};
use rcsim_core::{MechanismConfig, Mesh, NodeId};
use rcsim_noc::DeadLinkEvent;
use rcsim_system::SimConfig;

/// Deterministic interior horizontal links (never touching the mesh
/// edge), pairwise disjoint — the first `count` become permanently dead
/// at cycle 0. Row-major over interior rows, so one dead link sits in
/// the middle of the chip and the second in the next interior row.
fn interior_dead_links(cores: u16, count: usize) -> Vec<DeadLinkEvent> {
    let mesh = Mesh::square(cores)
        .or_else(|_| Mesh::near_square(cores))
        .expect("valid core count");
    let (w, h) = (mesh.width(), mesh.height());
    assert!(
        w >= 4 && h >= 4,
        "resilience sweep needs a 4x4 mesh or larger"
    );
    let mut candidates = Vec::new();
    for y in 1..h - 1 {
        for x in 1..w - 2 {
            let a = y * w + x;
            candidates.push((a, a + 1));
        }
    }
    assert!(
        count <= candidates.len(),
        "not enough interior links for {count} dead links"
    );
    candidates[..count]
        .iter()
        .map(|&(a, b)| DeadLinkEvent {
            a: NodeId(a),
            b: NodeId(b),
            at: 0,
            duration: None,
        })
        .collect()
}

/// The mechanisms whose degradation curves the sweep compares: the plain
/// wormhole baseline, the main circuit-building configurations, a timed
/// mechanism (exercises the timed-slot degradation path) and the ideal
/// upper bound.
fn mechanisms() -> Vec<MechanismConfig> {
    vec![
        MechanismConfig::baseline(),
        MechanismConfig::fragmented(),
        MechanismConfig::complete(),
        MechanismConfig::complete_noack(),
        MechanismConfig::timed_noack(),
        MechanismConfig::slack(2),
        MechanismConfig::ideal(),
    ]
}

const DEAD_COUNTS: [usize; 3] = [0, 1, 2];

fn main() {
    println!("Resilience — degradation under permanently dead links\n");
    println!("Each mechanism runs fault-free and with 1 or 2 interior links");
    println!("permanently dead from cycle 0. Requests detour around the dead");
    println!("region, replies retrace the recorded reverse path, circuits");
    println!("crossing the region are torn down, and lost messages are");
    println!("reissued — no request may ever be abandoned.\n");

    let cores = env().cores[0];
    let (apps, seed_list) = (&env().apps, &env().seeds);
    let per_point = apps.len() * seed_list.len();

    // One flat job list so RC_JOBS workers parallelize across the whole
    // (mechanism × dead-count × app × seed) grid.
    let mut jobs = Vec::new();
    for mechanism in mechanisms() {
        for &dead in &DEAD_COUNTS {
            for app in apps {
                for &s in seed_list {
                    let spec = PointSpec::new(cores, mechanism, app, s);
                    let mut cfg: SimConfig = spec.config();
                    cfg.faults.dead_links = interior_dead_links(cores, dead);
                    jobs.push((format!("{} dead={dead}", spec.label()), cfg));
                }
            }
        }
    }
    let all = run_configs(jobs);
    let mut chunks = all.chunks(per_point);

    let mut raw = Vec::new();
    let mut summary = BenchSummary::new("resilience");
    println!(
        "{:<22} {:>5} {:>10} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "configuration", "dead", "avg_lat", "p99_lat", "reroutes", "torn", "reissues", "abandoned"
    );
    for mechanism in mechanisms() {
        let mut fault_free_avg = None;
        for &dead in &DEAD_COUNTS {
            let results = chunks.next().expect("grid-aligned result chunks");
            let mut reroutes = 0u64;
            let mut torn = 0u64;
            let mut reissues = 0u64;
            let mut abandoned = 0u64;
            for r in results {
                reroutes += r.health.faults.packets_rerouted;
                torn += r.health.faults.circuits_torn;
                reissues += r.health.l1_reissues;
                abandoned += r.health.faults.packets_abandoned;
                assert!(
                    !r.health.stalled,
                    "{} with {dead} dead links stalled",
                    mechanism.label()
                );
            }
            assert_eq!(
                abandoned,
                0,
                "{} with {dead} dead links abandoned coherence requests",
                mechanism.label()
            );
            if dead > 0 {
                assert!(
                    reroutes > 0,
                    "{} with {dead} dead links never rerouted — faults not exercised",
                    mechanism.label()
                );
            }
            let mut row = bench_row(&format!("{}/dead{dead}", mechanism.label()), cores, results);
            if dead == 0 {
                fault_free_avg = Some(row.avg_latency);
            }
            let degradation = match fault_free_avg {
                Some(base) if base > 0.0 => row.avg_latency / base,
                _ => 1.0,
            };
            println!(
                "{:<22} {:>5} {:>10.2} {:>10.2} {:>9} {:>9} {:>9} {:>10}",
                mechanism.label(),
                dead,
                row.avg_latency,
                row.p99_latency,
                reroutes,
                torn,
                reissues,
                abandoned
            );
            row.extra.insert("dead_links".to_owned(), dead as f64);
            row.extra.insert("reroutes".to_owned(), reroutes as f64);
            row.extra.insert("circuits_torn".to_owned(), torn as f64);
            row.extra.insert("l1_reissues".to_owned(), reissues as f64);
            row.extra
                .insert("latency_degradation".to_owned(), degradation);
            summary.push(row);
            raw.push((mechanism.label(), dead, reroutes, torn, reissues));
        }
    }
    println!("\nNo request was abandoned at any sweep point.");

    // Section 2: mid-run onset — the recovery machinery itself. One
    // interior link dies halfway through the measure window of a Complete
    // run, so circuits already cross it (teardown) and packets are in
    // flight on it (loss):
    //   noc_retry    — default end-to-end NoC retransmissions recover the
    //                  lost packets; nothing is abandoned.
    //   l1_reissue   — NoC retries disabled (max_retries = 0) on a lossy
    //                  fabric (the dead link alone only eats what is in
    //                  flight at onset, which can be nothing in a short
    //                  window), so the transport abandons every loss and
    //                  only the protocol-level L1 reissue can complete
    //                  the affected misses.
    println!("\n== mid-run fault onset: recovery paths (Complete, 1 dead link) ==");
    let mechanism = MechanismConfig::complete();
    let mut jobs = Vec::new();
    for retries in [true, false] {
        for app in apps {
            for &s in seed_list {
                let spec = PointSpec::new(cores, mechanism, app, s);
                let mut cfg: SimConfig = spec.config();
                let onset = cfg.warmup_cycles + cfg.measure_cycles / 2;
                cfg.faults.dead_links = interior_dead_links(cores, 1);
                cfg.faults.dead_links[0].at = onset;
                if !retries {
                    cfg.faults.max_retries = 0;
                    cfg.faults.link_drop_rate = 0.01;
                    cfg.faults.seed = 0xFA17;
                    // The default timeout is sized for multi-million-cycle
                    // runs; recovery must fit in the measure window here.
                    cfg.reissue_timeout = Some((cfg.measure_cycles / 4).max(250));
                }
                let tag = if retries { "noc_retry" } else { "l1_reissue" };
                jobs.push((format!("{} {tag}", spec.label()), cfg));
            }
        }
    }
    let all = run_configs(jobs);
    let mut chunks = all.chunks(per_point);
    println!(
        "{:<12} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "recovery", "avg_lat", "torn", "retrans", "reissues", "abandoned"
    );
    for tag in ["noc_retry", "l1_reissue"] {
        let results = chunks.next().expect("two result chunks");
        let torn: u64 = results.iter().map(|r| r.health.faults.circuits_torn).sum();
        let retrans: u64 = results
            .iter()
            .map(|r| r.health.faults.retransmissions)
            .sum();
        let reissues: u64 = results.iter().map(|r| r.health.l1_reissues).sum();
        let abandoned: u64 = results
            .iter()
            .map(|r| r.health.faults.packets_abandoned)
            .sum();
        for r in results {
            assert!(!r.health.stalled, "recovery run stalled ({tag})");
        }
        if tag == "noc_retry" {
            assert_eq!(
                abandoned, 0,
                "NoC retries must recover every in-flight loss"
            );
        } else {
            assert!(
                reissues > 0,
                "with NoC retries disabled the L1 reissue path must fire"
            );
        }
        let mut row = bench_row(&format!("recovery/{tag}"), cores, results);
        println!(
            "{:<12} {:>10.2} {:>9} {:>9} {:>9} {:>10}",
            tag, row.avg_latency, torn, retrans, reissues, abandoned
        );
        row.extra.insert("circuits_torn".to_owned(), torn as f64);
        row.extra
            .insert("retransmissions".to_owned(), retrans as f64);
        row.extra.insert("l1_reissues".to_owned(), reissues as f64);
        row.extra.insert("abandoned".to_owned(), abandoned as f64);
        summary.push(row);
        raw.push((format!("recovery/{tag}"), 1, retrans, torn, reissues));
    }

    save_json("resilience", &raw);
    save_bench_summary(&mut summary);
}
