//! The command line end to end: the `RC_*` refusal, and a `--quick` pass
//! whose output carries exactly the names `BENCHMARK.json` declares.

use rcsim_perf::catalog::catalog;
use rcsim_perf::host::first_rc_variable;
use rcsim_perf::workloads::Workload;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::Command;

const PERF: &str = env!("CARGO_BIN_EXE_perf");

#[derive(Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

/// `BENCHMARK.json` (compiled into the catalog) names this crate's
/// workloads and stays inside the benchmark contract's limits.
#[test]
fn benchmark_json_declares_this_benchmark() {
    let b = catalog();
    let names: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    assert!(b
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200));
    assert_eq!(b.paths, ["benchmark"]);
    assert!((1..=60).contains(&b.run_seconds));
    assert!(b.command.iter().any(|a| a == "benchmark/Cargo.toml"));
    assert!(b
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    let largest = b.end_to_end.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert!(largest <= 0.25 && b.end_to_end[0].bound == largest);
    for m in b.end_to_end.iter().chain(&b.per_layer) {
        assert!(
            matches!(m.better.as_str(), "higher" | "lower"),
            "{}",
            m.name
        );
    }
}

#[test]
fn finds_rc_variables_only() {
    let vars = |names: &[&str]| names.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
    assert_eq!(first_rc_variable(vars(&["PATH", "HOME", "RCFILE"])), None);
    assert_eq!(
        first_rc_variable(vars(&["PATH", "RC_KERNEL", "RC_SHARDS"])),
        Some("RC_KERNEL".to_owned())
    );
}

#[test]
fn refuses_to_start_under_an_rc_variable() {
    let out = Command::new(PERF)
        .args(["--workload", "net256_packet", "--quick"])
        .env("RC_SHARDS", "4")
        .output()
        .expect("perf runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("RC_SHARDS"), "names the variable: {stderr}");
}

#[test]
fn rejects_unknown_arguments_and_workloads() {
    for args in [
        &["--workload", "nope"][..],
        &["--frobnicate"],
        &["--trace", "2"],
    ] {
        let out = Command::new(PERF).args(args).output().expect("perf runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}

fn quick(workload: &str, trace: &str) -> ResultLine {
    let out = Command::new(PERF)
        .args(["--workload", workload, "--seed", "2", "--seconds", "1"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("perf runs");
    assert!(out.status.success(), "{workload}: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.trim_end().lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is the result object")
}

/// `--quick` output of every workload carries exactly the declared metric
/// names and units, with no failed operation (also the "second seed runs
/// clean" check: the seed here is 2), and the layers separate the way the
/// workloads were chosen for. One test, so each (workload, pass) runs once
/// and no two `perf` processes share `out/`.
#[test]
fn quick_runs_print_the_declared_metrics_and_separate_the_layers() {
    let b = catalog();
    let mut traced = BTreeMap::new();
    for w in &b.workloads {
        for (trace, declared) in [("0", &b.end_to_end), ("1", &b.per_layer)] {
            let r = quick(&w.name, trace);
            assert!(r.correct && r.failed == 0 && r.attempted >= 1, "{}", w.name);
            let want: BTreeMap<&str, &str> = declared
                .iter()
                .map(|d| (d.name.as_str(), d.unit.as_str()))
                .collect();
            let got: BTreeMap<&str, &str> = r
                .metrics
                .iter()
                .map(|(k, v)| (k.as_str(), v.unit.as_str()))
                .collect();
            assert_eq!(got, want, "{} --trace {trace}", w.name);
            assert!(r.metrics.values().all(|v| v.value.is_finite()));
            if trace == "0" {
                assert!(
                    r.metrics.values().all(|v| v.value > 0.0),
                    "{}: end-to-end metrics are never zero",
                    w.name
                );
            } else {
                traced.insert(w.name.as_str(), r.metrics);
            }
        }
    }

    let value = |workload: &str, name: &str| traced[workload][name].value;
    for w in ["net256_circuit", "net256_packet"] {
        for name in [
            "protocol.l1_accesses",
            "protocol.l1_misses",
            "protocol.l2_queued_on_busy",
            "protocol.messages",
            "workload.ops",
            "system.instructions",
        ] {
            assert_eq!(value(w, name), 0.0, "{w} {name}");
        }
    }
    assert_eq!(value("net256_packet", "noc.circuit_writes"), 0.0);
    assert!(value("net256_circuit", "noc.circuit_writes") > 0.0);
    assert!(value("net256_circuit", "sim_circuit_hit_rate") > 0.0);
    let admit = value("overload64", "noc.ingress_admit_ratio");
    assert!(admit > 0.0 && admit < 1.0, "admit ratio {admit}");
    assert!(value("overload64", "sim_ext_goodput") > 0.0);
}
