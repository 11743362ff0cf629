//! The checkpoint/restore differential matrix: for any split cycle `k`,
//! `run(0..T)` and `run(0..k) → checkpoint → restore → run(k..T)` must
//! produce the byte-identical serialized `RunResult` — and, when traced,
//! the identical trace-event sequence — across mechanisms, kernels,
//! fault injection, open-loop overload and the adaptive runtime
//! policies. The restore side deliberately crosses kernels (checkpoint
//! under dense, resume under event and vice versa): the kernel is a
//! host-performance knob and must stay invisible to the snapshot.

use rcsim_core::MechanismConfig;
use rcsim_system::{
    fnv1a_64, run_sim, run_sim_resumable, run_sim_traced_with_kernel, run_sim_with_kernel,
    AdaptiveConfig, FaultConfig, KernelMode, OpenLoopConfig, RunResult, SessionSnapshot, SimConfig,
    SimSession, TraceConfig,
};
use std::path::{Path, PathBuf};

fn quick(cores: u16, mechanism: MechanismConfig) -> SimConfig {
    SimConfig {
        seed: 0xD1FF,
        warmup_cycles: 500,
        measure_cycles: if cores > 16 { 1_500 } else { 2_500 },
        ..SimConfig::quick(cores, mechanism, "blackscholes")
    }
}

fn light_faults(cores: u16) -> FaultConfig {
    FaultConfig {
        seed: if cores > 16 { 0x5EED1 } else { 0xFA017 },
        link_drop_rate: 0.003,
        link_corrupt_rate: 0.002,
        table_corrupt_rate: 0.001,
        ..FaultConfig::none()
    }
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

fn adaptive(cores: u16) -> SimConfig {
    SimConfig {
        adaptive: Some(AdaptiveConfig {
            decision_epoch: 40,
            regions: 4,
            hot_enter: 96,
            hot_exit: 48,
            min_dwell: 80,
            detour: true,
            mech_switch: true,
        }),
        ..quick(cores, MechanismConfig::complete())
    }
}

/// Runs `cfg` uninterrupted, then re-runs it split at cycle `k` through a
/// full serialize → checksum → deserialize round trip of the checkpoint,
/// optionally switching kernel at the restore, and asserts the
/// serialized results are byte-identical.
fn assert_split_identical(
    cfg: &SimConfig,
    k: u64,
    save: KernelMode,
    load: KernelMode,
    label: &str,
) {
    let reference = run_sim_with_kernel(cfg, save).expect("reference run");
    let reference = serde_json::to_string(&reference).expect("serialize reference");

    let mut first = SimSession::new(cfg, None, save, 1).expect("session");
    first.run_until(k).expect("run to split point");
    // Round-trip through the on-disk encoding, not just the in-memory
    // snapshot: the serializer is part of the contract.
    let dir = std::env::temp_dir().join(format!("rcsim-ckpt-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{label}.ckpt").replace([' ', '/', ':'], "_"));
    first.checkpoint().save(&path).expect("save checkpoint");
    let snap = SessionSnapshot::load(&path).expect("load checkpoint");
    std::fs::remove_file(&path).ok();
    assert_eq!(snap.pos(), k, "checkpoint stored the wrong position");

    let mut resumed = SimSession::resume(&snap, load, 1).expect("resume");
    let total = resumed.total();
    resumed.run_until(total).expect("run to completion");
    let (result, _) = resumed.finish();
    let result = serde_json::to_string(&result).expect("serialize resumed");
    assert_eq!(
        reference, result,
        "resume at k={k} diverged from the uninterrupted run on {label}"
    );
}

const DENSE: KernelMode = KernelMode::Dense;
const EVENT: KernelMode = KernelMode::Event;

/// Splits chosen to land in every phase of a run: mid-warm-up, exactly at
/// the warm-up boundary, and mid-measure.
const SPLITS: [u64; 3] = [137, 500, 1_700];

#[test]
fn every_mechanism_resumes_identically() {
    let mut mechanisms = vec![MechanismConfig::baseline()];
    mechanisms.extend(MechanismConfig::key_configs());
    for m in mechanisms {
        for k in SPLITS {
            assert_split_identical(
                &quick(16, m),
                k,
                EVENT,
                EVENT,
                &format!("{} k={k}", m.label()),
            );
        }
    }
}

#[test]
fn resume_crosses_kernels() {
    let cfg = quick(16, MechanismConfig::complete_noack());
    for (save, load) in [(DENSE, EVENT), (EVENT, DENSE)] {
        assert_split_identical(
            &cfg,
            1_700,
            save,
            load,
            &format!("cross {save:?} to {load:?}"),
        );
    }
}

#[test]
fn faulty_runs_resume_identically() {
    let mut cfg = quick(16, MechanismConfig::complete());
    cfg.faults = light_faults(16);
    for k in SPLITS {
        assert_split_identical(&cfg, k, EVENT, DENSE, &format!("faults k={k}"));
    }
}

#[test]
fn overloaded_runs_resume_identically() {
    let cfg = overloaded(16);
    for k in SPLITS {
        assert_split_identical(&cfg, k, EVENT, EVENT, &format!("overload k={k}"));
    }
}

#[test]
fn adaptive_runs_resume_identically() {
    let cfg = adaptive(16);
    for k in SPLITS {
        assert_split_identical(&cfg, k, EVENT, EVENT, &format!("adaptive k={k}"));
    }
}

#[test]
fn non_mesh_topologies_resume_identically() {
    use rcsim_core::TopologySpec;
    for spec in [TopologySpec::Torus, TopologySpec::Ring] {
        let cfg = quick(16, MechanismConfig::complete()).with_topology(spec);
        assert_split_identical(
            &cfg,
            1_700,
            EVENT,
            EVENT,
            &format!("topology {}", spec.label()),
        );
    }
}

#[test]
fn large_chip_resumes_identically() {
    let mut cfg = quick(64, MechanismConfig::complete_noack());
    cfg.faults = light_faults(64);
    assert_split_identical(&cfg, 900, EVENT, EVENT, "64 cores faults");
}

/// Traced runs: the checkpoint carries the ring contents, so the resumed
/// run's final event stream — sequence, drop count and report — must be
/// byte-identical to the uninterrupted traced run.
#[test]
fn traced_runs_resume_with_identical_event_streams() {
    let cfg = quick(16, MechanismConfig::complete_noack());
    let trace = TraceConfig {
        capacity: 1 << 16,
        epoch: 50,
    };
    let (reference, reference_tr) =
        run_sim_traced_with_kernel(&cfg, &trace, KernelMode::Event).expect("reference");
    assert!(!reference_tr.events.is_empty(), "no events traced");
    for k in SPLITS {
        let mut first = SimSession::new(&cfg, Some(&trace), KernelMode::Event, 1).expect("session");
        first.run_until(k).expect("run to split");
        let snap = first.checkpoint();
        let mut resumed = SimSession::resume(&snap, KernelMode::Event, 1).expect("resume");
        let total = resumed.total();
        resumed.run_until(total).expect("completion");
        let (result, tr) = resumed.finish();
        let tr = tr.expect("traced session yields a report");
        assert_eq!(
            serde_json::to_string(&reference).unwrap(),
            serde_json::to_string(&result).unwrap(),
            "traced result diverged at k={k}"
        );
        assert_eq!(
            reference_tr.events, tr.events,
            "trace-event sequences diverged at k={k}"
        );
        assert_eq!(reference_tr.dropped, tr.dropped, "drop counts diverged");
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

/// The driver every checkpointed sweep point takes: whatever the interval
/// and the kernel, the result is `run_sim`'s, the finished point leaves
/// no checkpoint behind, garbage under the checkpoint's name is a clean
/// miss, and the half-finished checkpoint a killed run left there is
/// picked up.
#[test]
fn resumable_driver_matches_the_plain_run() {
    let cfg = quick(16, MechanismConfig::complete_noack());
    let total = cfg.warmup_cycles + cfg.measure_cycles;
    let reference = serialized(&run_sim(&cfg).expect("reference run"));
    let dir = scratch_dir("driver");
    let mut killed = SimSession::new(&cfg, None, DENSE, 1).expect("session");
    killed.run_until(1_700).expect("run to the kill");
    for (kernel, interval) in [
        (DENSE, total / 8),
        (DENSE, total / 2),
        (EVENT, total / 8),
        (EVENT, total / 2),
    ] {
        for killed_run_left_a_checkpoint in [false, true] {
            let path = ckpt_path(&dir, &cfg);
            if killed_run_left_a_checkpoint {
                killed.checkpoint().save(&path).expect("plant a checkpoint");
            } else {
                std::fs::write(&path, "garbage").expect("plant garbage");
            }
            let result = run_sim_resumable(&cfg, kernel, &dir, interval).expect("resumable run");
            assert_eq!(
                reference,
                serialized(&result),
                "{kernel:?}, interval {interval}: diverged from run_sim"
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
    let result = run_sim_resumable(&changed, KernelMode::Event, &dir, 1_000).expect("run");
    assert_eq!(serialized(&reference), serialized(&result));
    assert!(
        SessionSnapshot::load(Path::new("/nonexistent/x.ckpt")).is_none(),
        "missing file must be a clean miss"
    );
    std::fs::remove_dir_all(&dir).ok();
}
