//! Hashes the sources of every crate `rcsim_system::run_sim` is built from
//! into `$OUT_DIR/source_hash.rs`, so the sweep cache (`src/sweep.rs`)
//! serves a result only to the simulator that computed it.

use std::path::{Path, PathBuf};

/// The `src` directories of `run_sim`'s crates, from this crate's
/// manifest: the workspace crates `rcsim-system` depends on and the stubs
/// standing in for the external ones (a change to the RNG or the JSON
/// writer changes results as surely as a change to a router).
const SOURCES: &[&str] = &[
    "../core/src",
    "../noc/src",
    "../power/src",
    "../protocol/src",
    "../stats/src",
    "../system/src",
    "../trace/src",
    "../workload/src",
    "../../stubs/rand/src",
    "../../stubs/rand_chacha/src",
    "../../stubs/serde/src",
    "../../stubs/serde_derive/src",
    "../../stubs/serde_json/src",
];

/// The `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// 64-bit FNV-1a, the hash the cache's file names and checksums use.
fn fnv1a_64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    println!("cargo:rerun-if-changed=build.rs");
    let mut files = Vec::new();
    for dir in SOURCES {
        // A directory: cargo reruns this script when anything under it
        // changes.
        println!("cargo:rerun-if-changed={dir}");
        rust_files(&manifest.join(dir), &mut files);
    }
    // Paths relative to the manifest, so the hash of a checkout does not
    // depend on where it lives; sorted, so it does not depend on the order
    // the file system lists them in.
    let mut files: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(&manifest).expect("under the manifest");
            (rel.to_string_lossy().replace('\\', "/"), p)
        })
        .collect();
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (rel, path) in &files {
        let text = std::fs::read(path).unwrap_or_else(|e| panic!("{rel}: {e}"));
        hash = fnv1a_64(hash, rel.as_bytes());
        hash = fnv1a_64(hash, &[0]);
        hash = fnv1a_64(hash, &text);
        hash = fnv1a_64(hash, &[0]);
    }
    let out = PathBuf::from(std::env::var("OUT_DIR").expect("set by cargo"));
    std::fs::write(
        out.join("source_hash.rs"),
        format!(
            "/// FNV-1a of the {} source files of `run_sim`'s crates (`build.rs`).\n\
             pub const SOURCE_HASH: u64 = {hash:#018x};\n",
            files.len()
        ),
    )
    .expect("OUT_DIR is writable");
}
