//! Validates every `target/experiments/BENCH_*.json` summary against the
//! checked-in contract `scripts/bench_schema.json`, then re-checks the
//! semantic invariants through [`rcsim_trace::BenchSummary::validate`].
//!
//! Usage: `validate_bench [file.json ...]` — with no arguments, scans
//! `target/experiments/`.
//! Exits non-zero when any file fails or no summaries are found, so CI's
//! smoke step (`scripts/ci.sh`) catches an experiment that silently
//! stops writing its summary.

use rcsim_bench::Verdict;
use rcsim_trace::{BenchSummary, BENCH_SCHEMA_VERSION};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// `true` when `v`'s JSON kind satisfies the schema's `expected` kind
/// (`number` accepts integers too — the parser keeps them distinct).
fn kind_matches(v: &Value, expected: &str) -> bool {
    match expected {
        "number" => matches!(v.kind(), "number" | "integer"),
        k => v.kind() == k,
    }
}

/// Checks `doc` against one `required`-style map of `field -> kind`.
fn check_fields(doc: &Value, spec: &Value, what: &str, problems: &mut Vec<String>) {
    let Some(entries) = spec.as_object() else {
        problems.push(format!("schema's `{what}` section is not an object"));
        return;
    };
    for (field, expected) in entries {
        let Some(expected) = expected.as_str() else {
            problems.push(format!("schema `{what}.{field}` is not a kind string"));
            continue;
        };
        match doc.get(field) {
            None => problems.push(format!("{what}: missing field `{field}`")),
            Some(v) if !kind_matches(v, expected) => problems.push(format!(
                "{what}: field `{field}` is {}, expected {expected}",
                v.kind()
            )),
            Some(_) => {}
        }
    }
}

/// Structural pass (shape per the schema) + semantic pass (the summary's
/// own invariants); returns every problem found.
fn validate_file(path: &Path, schema: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("unreadable: {e}")],
    };
    let doc: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };

    check_fields(
        &doc,
        schema.get("required").unwrap_or(&Value::Null),
        "summary",
        &mut problems,
    );
    for (list, spec) in [("rows", "row_required"), ("claims", "claim_required")] {
        let spec = schema.get(spec).unwrap_or(&Value::Null);
        let items = doc.get(list).and_then(Value::as_array);
        for (i, item) in items.into_iter().flatten().enumerate() {
            check_fields(item, spec, &format!("{list}[{i}]"), &mut problems);
        }
    }
    if let Some(v) = doc.get("schema_version").and_then(Value::as_u64) {
        if v != u64::from(BENCH_SCHEMA_VERSION) {
            problems.push(format!(
                "schema_version {v} != supported {BENCH_SCHEMA_VERSION}"
            ));
        }
    }
    if !problems.is_empty() {
        return problems; // shape is wrong; typed decode would only add noise
    }

    match serde_json::from_str::<BenchSummary>(&text) {
        Ok(summary) => {
            problems.extend(summary.validate());
            for claim in &summary.claims {
                if let Err(e) = claim.verdict.parse::<Verdict>() {
                    problems.push(format!("claim `{}`: verdict {e}", claim.name));
                }
            }
        }
        Err(e) => problems.push(format!("does not decode as BenchSummary: {e}")),
    }
    problems
}

fn summary_files() -> Vec<PathBuf> {
    let args: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    if !args.is_empty() {
        return args;
    }
    let mut found = Vec::new();
    if let Ok(dir) = std::fs::read_dir("target/experiments") {
        for entry in dir.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                found.push(entry.path());
            }
        }
    }
    found.sort();
    found
}

fn main() {
    let schema_path = "scripts/bench_schema.json";
    let schema: Value = match std::fs::read_to_string(schema_path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("validate_bench: cannot load schema {schema_path}: {e}");
            std::process::exit(2);
        }
    };

    let files = summary_files();
    if files.is_empty() {
        eprintln!(
            "validate_bench: no BENCH_*.json summaries found \
             (run an experiment first, e.g. `cargo run -p rcsim-bench --bin rcsim-bench fig6`)"
        );
        std::process::exit(1);
    }

    let mut failed = false;
    for path in &files {
        let problems = validate_file(path, &schema);
        if problems.is_empty() {
            println!("ok   {}", path.display());
        } else {
            failed = true;
            println!("FAIL {}", path.display());
            for p in problems {
                println!("       - {p}");
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "({} summaries validated against {schema_path})",
        files.len()
    );
}
