//! One file format for whatever is saved per configuration — checkpoints
//! and the sweep's result cache. A file is named by its configuration's
//! content hash and holds that configuration inside its payload; a header
//! line `<magic> v<version> <fnv1a-64 of the payload>` precedes the JSON
//! payload; writes go tmp-then-rename, so a reader never sees a torn file.
//! A missing, truncated or corrupt file, another version or another
//! configuration all read as `None`: a clean miss, never an error.

use crate::sim::SimConfig;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Stable 64-bit FNV-1a over `bytes` — deliberately not `DefaultHasher`,
/// whose output may change between Rust releases; file checksums and
/// names must be stable across toolchains.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The content hash a configuration's files are named by: FNV-1a of its
/// serde JSON, so any field change — seed, cycles, mechanism knobs, fault
/// plan — names another file.
pub fn config_hash(cfg: &SimConfig) -> u64 {
    let json = serde_json::to_string(cfg).expect("configs always serialize");
    fnv1a_64(json.as_bytes())
}

/// A file format (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct Envelope {
    /// The header's first word.
    pub magic: &'static str,
    /// The only version that loads: a format number bumped whenever a
    /// payload saved before would no longer mean the same, or a hash of
    /// what computed the payload.
    pub version: u64,
    /// The file names' extension.
    pub extension: &'static str,
}

impl Envelope {
    /// The file in `dir` that `cfg`'s payload is saved to.
    pub fn path(&self, dir: &Path, cfg: &SimConfig) -> PathBuf {
        dir.join(format!("{:016x}.{}", config_hash(cfg), self.extension))
    }

    fn header(&self) -> String {
        format!("{} v{} ", self.magic, self.version)
    }

    pub(crate) fn encode<T: Serialize>(&self, payload: &T) -> String {
        let payload = serde_json::to_string(payload).expect("payloads always serialize");
        let checksum = fnv1a_64(payload.as_bytes());
        format!("{}{checksum:016x}\n{payload}", self.header())
    }

    pub(crate) fn decode<T: DeserializeOwned>(&self, text: &str) -> Option<T> {
        let (header, payload) = text.split_once('\n')?;
        let checksum = header.strip_prefix(&self.header())?;
        let intact = u64::from_str_radix(checksum, 16).ok()? == fnv1a_64(payload.as_bytes());
        intact.then(|| serde_json::from_str(payload).ok())?
    }

    /// Writes `payload` to `path` atomically: to a sibling temp file, then
    /// renamed over `path`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the temp file is cleaned up on a
    /// failed rename.
    pub fn save<T: Serialize>(&self, path: &Path, payload: &T) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.encode(payload))?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Reads `path` back; `None` on any mismatch.
    pub fn load<T: DeserializeOwned>(&self, path: &Path) -> Option<T> {
        self.decode(&std::fs::read_to_string(path).ok()?)
    }

    /// The payload saved for `cfg` in `dir`, if its file holds one whose
    /// `config` is `cfg` field for field (a hash collision or a hand-copied
    /// file is a miss).
    pub fn lookup<T: DeserializeOwned>(
        &self,
        dir: &Path,
        cfg: &SimConfig,
        config: impl Fn(&T) -> &SimConfig,
    ) -> Option<T> {
        self.load(&self.path(dir, cfg))
            .filter(|payload| config(payload) == cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable() {
        // Pinned: saved files outlive any single build.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
