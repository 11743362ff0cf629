//! On-disk result-cache correctness: hits only for the exact same config
//! and simulator sources, misses for any field change, and graceful
//! recomputation when a cache file is corrupt or from another build.

use rcsim_bench::{cache_key, SweepRunner, SOURCE_HASH};
use rcsim_core::MechanismConfig;
use rcsim_system::SimConfig;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcsim-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 200,
        measure_cycles: 1_000,
        ..SimConfig::quick(16, MechanismConfig::complete_noack(), "fft")
    }
}

fn job(cfg: &SimConfig) -> Vec<(String, SimConfig)> {
    vec![("cache-test".to_owned(), cfg.clone())]
}

#[test]
fn rerun_hits_and_field_change_misses() {
    let dir = tmp_dir("cache-hit");
    let runner = SweepRunner::new(1, Some(dir.clone()));
    let cfg = small_cfg();

    let cold = runner.run(&job(&cfg));
    assert_eq!(cold.stats.cached, 0);
    let first = cold.results[0].as_ref().expect("runs").clone();

    let warm = runner.run(&job(&cfg));
    assert_eq!(warm.stats.cached, 1, "identical config must hit");
    assert_eq!(warm.results[0].as_ref().expect("cached"), &first);

    // Any single field change is a different key, hence a miss.
    let mut reseeded = cfg.clone();
    reseeded.seed += 1;
    assert_ne!(cache_key(&cfg), cache_key(&reseeded));
    let miss = runner.run(&job(&reseeded));
    assert_eq!(miss.stats.cached, 0, "changed seed must miss");
    assert_ne!(
        miss.results[0].as_ref().expect("runs"),
        &first,
        "a different seed yields a different run"
    );

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupt_cache_file_recomputes_not_errors() {
    let dir = tmp_dir("cache-corrupt");
    let runner = SweepRunner::new(1, Some(dir.clone()));
    let cfg = small_cfg();

    let cold = runner.run(&job(&cfg));
    let first = cold.results[0].as_ref().expect("runs").clone();
    let path = runner.cache_path(&cfg).expect("caching enabled");
    assert!(path.is_file(), "result was written to the cache");

    for garbage in ["", "{ not json", "[1,2,3]", "{\"format_version\":999}"] {
        std::fs::write(&path, garbage).unwrap();
        let again = runner.run(&job(&cfg));
        assert_eq!(again.stats.cached, 0, "corrupt file {garbage:?} must miss");
        assert_eq!(again.stats.failed, 0, "corruption is never an error");
        assert_eq!(again.results[0].as_ref().expect("recomputed"), &first);
        // The recompute healed the file: the next run hits again.
        let healed = runner.run(&job(&cfg));
        assert_eq!(healed.stats.cached, 1);
    }

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn entry_from_other_simulator_sources_recomputes_not_errors() {
    // The file header carries the hash of the sources that computed the
    // entry; an entry saved by another build of the simulator is a miss,
    // recomputed and overwritten, even though its payload is intact.
    let dir = tmp_dir("cache-sources");
    let runner = SweepRunner::new(1, Some(dir.clone()));
    let cfg = small_cfg();

    let first = runner.run(&job(&cfg)).results[0]
        .as_ref()
        .expect("runs")
        .clone();
    let path = runner.cache_path(&cfg).expect("caching enabled");
    let text = std::fs::read_to_string(&path).unwrap();
    let ours = format!("rcsim-cache v{SOURCE_HASH} ");
    assert!(text.starts_with(&ours), "header names this build's sources");
    let theirs = format!("rcsim-cache v{} ", SOURCE_HASH ^ 1);
    std::fs::write(&path, text.replacen(&ours, &theirs, 1)).unwrap();

    let again = runner.run(&job(&cfg));
    assert_eq!(again.stats.cached, 0, "another build's entry must miss");
    assert_eq!(again.stats.failed, 0, "a stale entry is never an error");
    assert_eq!(again.results[0].as_ref().expect("recomputed"), &first);
    assert!(std::fs::read_to_string(&path).unwrap().starts_with(&ours));
    assert_eq!(runner.run(&job(&cfg)).stats.cached, 1, "the file healed");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cache_entry_for_wrong_config_is_rejected() {
    // A hash collision (or a hand-copied file) stores a full config; the
    // lookup compares it field for field and recomputes on mismatch.
    let dir = tmp_dir("cache-collide");
    let runner = SweepRunner::new(1, Some(dir.clone()));
    let cfg = small_cfg();
    let mut other = cfg.clone();
    other.seed += 7;

    runner.run(&job(&other));
    let other_path = runner.cache_path(&other).expect("caching enabled");
    let cfg_path = runner.cache_path(&cfg).expect("caching enabled");
    // Plant `other`'s (valid, well-formed) entry under `cfg`'s key.
    std::fs::copy(&other_path, &cfg_path).unwrap();

    let out = runner.run(&job(&cfg));
    assert_eq!(
        out.stats.cached, 0,
        "entry for a different config must miss"
    );
    assert_eq!(
        out.results[0].as_ref().expect("recomputed").workload,
        cfg.workload
    );

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn disabled_cache_never_touches_disk() {
    let runner = SweepRunner::new(1, None);
    let cfg = small_cfg();
    assert!(runner.cache_path(&cfg).is_none());
    let a = runner.run(&job(&cfg));
    let b = runner.run(&job(&cfg));
    assert_eq!(a.stats.cached + b.stats.cached, 0);
    assert_eq!(
        a.results[0].as_ref().expect("runs"),
        b.results[0].as_ref().expect("runs"),
        "determinism holds with caching off"
    );
}
