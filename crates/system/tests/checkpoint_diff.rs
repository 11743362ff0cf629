//! The checkpoint/restore differential matrix: for any split cycle `k`,
//! `run(0..T)` and `run(0..k) → checkpoint → restore → run(k..T)` must
//! agree byte for byte — in the serialized `RunResult`, in the trace-event
//! sequence, and in *state*: what a resume holds is what was saved, and a
//! resumed run ends in the uninterrupted run's final checkpoint — across
//! mechanisms, fault injection, dead links, open-loop
//! overload and topologies. In debug builds
//! a restored run also keeps the two worklist laws (DESIGN.md §9): the
//! busy bits a restore rebuilds must hold every component with work.

use proptest::prelude::*;
use rcsim_core::{MechanismConfig, NodeId, TopologySpec};
use rcsim_system::{
    fnv1a_64, run_sim, run_sim_resumable, DeadLinkEvent, FaultConfig, KernelMode, OpenLoopConfig,
    RunResult, SessionSnapshot, SimConfig, SimSession, TraceConfig,
};
use std::path::{Path, PathBuf};

const WARMUP: u64 = 500;
/// Warm-up plus measure cycles of every 16-core configuration here.
const TOTAL: u64 = 3_000;

fn quick(cores: u16, mechanism: MechanismConfig) -> SimConfig {
    SimConfig {
        seed: 0xD1FF,
        warmup_cycles: WARMUP,
        measure_cycles: if cores > 16 { 1_500 } else { TOTAL - WARMUP },
        ..SimConfig::quick(cores, mechanism, "blackscholes")
    }
}

/// Three interior links dying one after another mid-run (the central
/// square's top, bottom and right sides): eat bits set under load,
/// retransmissions pending, and detours around a growing hole.
fn light_faults(cores: u16) -> FaultConfig {
    let (a, b, c, d) = if cores > 16 {
        (27, 28, 35, 36)
    } else {
        (5, 6, 9, 10)
    };
    let links = [(a, b, 700), (c, d, 1_000), (b, d, 1_300)];
    FaultConfig {
        dead_links: (links.map(|(a, b, at)| DeadLinkEvent {
            a: NodeId(a),
            b: NodeId(b),
            at,
        }))
        .to_vec(),
    }
}

fn faulty(cores: u16) -> SimConfig {
    SimConfig {
        faults: light_faults(cores),
        ..quick(cores, MechanismConfig::complete())
    }
}

/// The n5–n6 link dies at 400: reroutes, teardown, dead-link eating.
fn dead_link() -> SimConfig {
    let mut cfg = quick(16, MechanismConfig::complete());
    cfg.faults.dead_links = vec![DeadLinkEvent {
        a: NodeId(5),
        b: NodeId(6),
        at: 400,
    }];
    cfg
}

fn overloaded(cores: u16) -> SimConfig {
    let mut ol = OpenLoopConfig::poisson(0.2);
    ol.ingress.tokens_per_kilocycle = 103;
    ol.ingress.shed_timeout = 800;
    SimConfig {
        seed: 0x0BEE,
        open_loop: Some(ol),
        ..quick(cores, MechanismConfig::complete_noack())
    }
}

/// Every run here is traced: the ring is state like any other.
const TRACE: TraceConfig = TraceConfig {
    capacity: 1 << 16,
    epoch: 50,
};

/// What a finished traced run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: String,
    events: Vec<rcsim_trace::TraceEvent>,
    dropped: u64,
    /// The final checkpoint, serialized: the state of every component.
    state: String,
}

fn finish(mut session: SimSession) -> Outcome {
    let total = session.total();
    session.run_until(total).expect("run to completion");
    let state = serde_json::to_string(&session.checkpoint()).expect("serialize checkpoint");
    let (result, trace) = session.finish();
    let trace = trace.expect("traced session yields a report");
    assert!(!trace.events.is_empty(), "no events traced");
    Outcome {
        result: serialized(&result),
        events: trace.events,
        dropped: trace.dropped,
        state,
    }
}

/// A fresh traced session of `cfg`.
fn session(cfg: &SimConfig) -> SimSession {
    SimSession::new(cfg, Some(&TRACE), KernelMode::Event, 1).expect("session")
}

fn uninterrupted(cfg: &SimConfig) -> Outcome {
    finish(session(cfg))
}

/// Re-runs `cfg` split at cycle `k` through a full serialize → checksum →
/// deserialize round trip of the checkpoint and asserts that (i) the
/// resumed session re-checkpoints to the very bytes of the file and (ii)
/// it ends exactly like `reference`, the uninterrupted run: result, trace
/// and final state.
fn assert_split_identical(reference: &Outcome, cfg: &SimConfig, k: u64, label: &str) {
    let mut first = session(cfg);
    first.run_until(k).expect("run to split point");
    // Round-trip through the on-disk encoding, not just the in-memory
    // snapshot: the serializer is part of the contract.
    let dir = scratch_dir(&format!("{label} k={k}").replace([' ', '/', ':'], "_"));
    let (path, again) = (dir.join("saved.ckpt"), dir.join("again.ckpt"));
    first.checkpoint().save(&path).expect("save checkpoint");
    let snap = SessionSnapshot::load(&path).expect("load checkpoint");
    assert_eq!(snap.pos(), k, "checkpoint stored the wrong position");

    let resumed = SimSession::resume(&snap, KernelMode::Event, 1).expect("resume");
    resumed.checkpoint().save(&again).expect("save again");
    assert!(
        std::fs::read(&path).expect("read") == std::fs::read(&again).expect("read"),
        "resume at k={k} does not hold the state it was given on {label}"
    );
    std::fs::remove_dir_all(&dir).ok();

    let resumed = finish(resumed);
    let what = format!("resume at k={k} on {label}");
    assert_eq!(reference.result, resumed.result, "{what}: result");
    assert!(reference.events == resumed.events, "{what}: trace events");
    assert_eq!(reference.dropped, resumed.dropped, "{what}: dropped events");
    assert!(reference.state == resumed.state, "{what}: final state");
}

/// Mid-warm-up and mid-measure; the warm-up boundary itself (and its
/// neighbours, and both ends of the run) are [`BOUNDARIES`], which every
/// class of the property below crosses.
const SPLITS: [u64; 2] = [137, 1_700];

fn assert_splits_identical(cfg: &SimConfig, label: &str) {
    let reference = uninterrupted(cfg);
    for k in SPLITS {
        assert_split_identical(&reference, cfg, k, label);
    }
}

#[test]
fn every_mechanism_resumes_identically() {
    for m in MechanismConfig::key_configs() {
        assert_splits_identical(&quick(16, m), &m.label());
    }
}

#[test]
fn faulty_runs_resume_identically() {
    let cfg = faulty(16);
    let reference = uninterrupted(&cfg);
    assert!(!reference.result.contains("\"retransmissions\":0,"));
    for k in SPLITS {
        assert_split_identical(&reference, &cfg, k, "faults");
    }
}

/// Splits before the link dies and twice while it is dead (the eat bits,
/// the degraded routers, the detours).
#[test]
fn dead_link_resumes_identically() {
    let cfg = dead_link();
    let reference = uninterrupted(&cfg);
    assert!(!reference.result.contains("\"packets_rerouted\":0,"));
    for k in [137, 700, 1_700] {
        assert_split_identical(&reference, &cfg, k, "dead link");
    }
}

#[test]
fn overloaded_runs_resume_identically() {
    assert_splits_identical(&overloaded(16), "overload");
}

#[test]
fn non_mesh_topologies_resume_identically() {
    let cfg = quick(16, MechanismConfig::complete()).with_topology(TopologySpec::Torus);
    let reference = uninterrupted(&cfg);
    assert_split_identical(&reference, &cfg, 1_700, "torus");
}

#[test]
fn large_chip_resumes_identically() {
    let cfg = faulty(64);
    let reference = uninterrupted(&cfg);
    assert!(!reference.result.contains("\"retransmissions\":0,"));
    assert_split_identical(&reference, &cfg, 900, "64 cores faults");
}

/// The config classes of the property: every key mechanism (the first is
/// the baseline), then one configuration per subsystem with state of its
/// own.
fn classes() -> Vec<(String, SimConfig)> {
    let mut classes: Vec<(String, SimConfig)> = MechanismConfig::key_configs()
        .into_iter()
        .map(|m| (m.label(), quick(16, m)))
        .collect();
    classes.extend([
        ("light faults".to_owned(), faulty(16)),
        ("dead link".to_owned(), dead_link()),
        ("overload".to_owned(), overloaded(16)),
        (
            "torus".to_owned(),
            quick(16, MechanismConfig::complete()).with_topology(TopologySpec::Torus),
        ),
    ]);
    classes
}

/// The splits no draw may miss: both ends of the run, and the warm-up
/// boundary (where statistics reset and the trace ring drains) with the
/// cycle either side of it.
const BOUNDARIES: [u64; 5] = [0, WARMUP - 1, WARMUP, WARMUP + 1, TOTAL];

/// The forced part of the property: every class × every boundary split.
#[test]
fn boundary_splits_resume_identically() {
    for (label, cfg) in classes() {
        let reference = uninterrupted(&cfg);
        for k in BOUNDARIES {
            assert_split_identical(&reference, &cfg, k, &label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The drawn part: any class, split anywhere in the run ⇒ identical
    /// `RunResult`, trace stream and final checkpoint bytes.
    #[test]
    fn any_split_resumes_identically(
        class in 0..classes().len(),
        k in 0..=TOTAL,
    ) {
        let (label, cfg) = classes().swap_remove(class);
        assert_split_identical(&uninterrupted(&cfg), &cfg, k, &label);
    }
}

/// A fresh scratch directory for one test of the resumable driver.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcsim-ckpt-diff-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Where `run_sim_resumable` keeps `cfg`'s checkpoint: `dir/<fnv1a-64 of
/// the config's JSON>.ckpt` (pinned here — checkpoints outlive a build).
fn ckpt_path(dir: &Path, cfg: &SimConfig) -> PathBuf {
    let json = serde_json::to_string(cfg).expect("serialize config");
    dir.join(format!("{:016x}.ckpt", fnv1a_64(json.as_bytes())))
}

fn serialized(result: &RunResult) -> String {
    serde_json::to_string(result).expect("serialize result")
}

/// The driver every checkpointed sweep point takes: whatever the interval,
/// the result is `run_sim`'s, the finished point leaves
/// no checkpoint behind, garbage under the checkpoint's name is a clean
/// miss, and the half-finished checkpoint a killed run left there is
/// picked up.
#[test]
fn resumable_driver_matches_the_plain_run() {
    let cfg = quick(16, MechanismConfig::complete_noack());
    let total = cfg.warmup_cycles + cfg.measure_cycles;
    let reference = serialized(&run_sim(&cfg).expect("reference run"));
    let dir = scratch_dir("driver");
    let mut killed = SimSession::new(&cfg, None, KernelMode::Event, 1).expect("session");
    killed.run_until(1_700).expect("run to the kill");
    for interval in [total / 8, total / 2] {
        for killed_run_left_a_checkpoint in [false, true] {
            let path = ckpt_path(&dir, &cfg);
            if killed_run_left_a_checkpoint {
                killed.checkpoint().save(&path).expect("plant a checkpoint");
            } else {
                std::fs::write(&path, "garbage").expect("plant garbage");
            }
            let result = run_sim_resumable(&cfg, &dir, interval).expect("resumable run");
            assert_eq!(
                reference,
                serialized(&result),
                "interval {interval}: diverged from run_sim"
            );
            let left: Vec<_> = std::fs::read_dir(&dir).expect("list").collect();
            assert!(left.is_empty(), "finished point left {left:?} behind");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint written for one config must never resume a different one:
/// the resumable driver compares the embedded config field by field, so a
/// valid checkpoint of another point sitting under this point's name is a
/// clean miss — the run starts from cycle 0 and the result is its own.
#[test]
fn stale_checkpoint_for_changed_config_is_a_clean_miss() {
    let cfg = quick(16, MechanismConfig::complete_noack());
    let mut session = SimSession::new(&cfg, None, KernelMode::Event, 1).expect("session");
    session.run_until(600).expect("run");
    let mut changed = cfg.clone();
    changed.seed += 1;
    let dir = scratch_dir("stale");
    let stale = ckpt_path(&dir, &changed);
    session.checkpoint().save(&stale).expect("plant stale file");
    assert!(SessionSnapshot::load(&stale).is_some(), "the file is valid");

    let reference = run_sim(&changed).expect("reference run");
    assert_ne!(reference, run_sim(&cfg).expect("other point"));
    let result = run_sim_resumable(&changed, &dir, 1_000).expect("run");
    assert_eq!(serialized(&reference), serialized(&result));
    assert!(
        SessionSnapshot::load(Path::new("/nonexistent/x.ckpt")).is_none(),
        "missing file must be a clean miss"
    );
    std::fs::remove_dir_all(&dir).ok();
}
