//! Memory-system configuration (the paper's Table 2) and address mapping.

use crate::cache::CacheConfig;
use rcsim_core::{Cycle, NodeId, Topology};
use serde::{Deserialize, Serialize};

/// Configuration of the coherent memory hierarchy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// L1 geometry (32 KB, 4-way in the paper).
    pub l1: CacheConfig,
    /// Per-bank L2 geometry (1 MB, 16-way).
    pub l2: CacheConfig,
    /// L1 hit latency in cycles (2).
    pub l1_hit_latency: u32,
    /// L2 bank hit latency in cycles (7).
    pub l2_hit_latency: u32,
    /// Memory access latency in cycles (160).
    pub mem_latency: u32,
    /// Eliminate `L1_DATA_ACK`s for replies that rode a complete circuit
    /// (§4.6). Mirrors `MechanismConfig::eliminate_acks`.
    pub eliminate_acks: bool,
    /// Undo circuits when the L2 misses (§4.4 ablation; the paper keeps
    /// them, so this defaults to `false`).
    pub undo_on_l2_miss: bool,
    /// Tiles hosting memory controllers.
    pub mc_tiles: Vec<NodeId>,
    /// Cycles an L1 waits for the reply to an outstanding miss before
    /// reissuing the request (permanent faults can lose either the request
    /// or its reply). Reissue `n` fires after `reissue_timeout << n`
    /// cycles, i.e. exponential backoff.
    #[serde(default = "default_reissue_timeout")]
    pub reissue_timeout: Cycle,
}

fn default_reissue_timeout() -> Cycle {
    50_000
}

impl ProtocolConfig {
    /// The Table 2 configuration for a topology. Lines interleave over all
    /// tiles ([`Self::home`]), so each L2 bank indexes its sets by the
    /// bank-local line number.
    pub fn paper_defaults(topology: &Topology) -> Self {
        Self {
            l1: CacheConfig::from_capacity(32 * 1024, 4),
            l2: CacheConfig::from_capacity(1024 * 1024, 16).with_interleave(topology.nodes()),
            l1_hit_latency: 2,
            l2_hit_latency: 7,
            mem_latency: 160,
            eliminate_acks: false,
            undo_on_l2_miss: false,
            mc_tiles: topology.memory_controller_tiles(),
            reissue_timeout: default_reissue_timeout(),
        }
    }

    /// A scaled-down configuration for fast tests (256-line L1, 4K-line
    /// L2, same latencies).
    pub fn small_for_tests(topology: &Topology) -> Self {
        let defaults = Self::paper_defaults(topology);
        Self {
            l1: CacheConfig {
                sets: 16,
                ways: 4,
                interleave: 1,
            },
            l2: CacheConfig {
                sets: 64,
                ways: 8,
                interleave: defaults.l2.interleave,
            },
            ..defaults
        }
    }

    /// The L2 bank (home tile) of a cache line: address-interleaved over
    /// all tiles at line granularity.
    pub fn home(&self, topology: &Topology, block: u64) -> NodeId {
        NodeId((block % topology.nodes() as u64) as u16)
    }

    /// The memory controller serving a cache line.
    pub fn memory_controller(&self, block: u64) -> NodeId {
        self.mc_tiles[(block as usize) % self.mc_tiles.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheArray;
    use rcsim_core::Topology;

    #[test]
    fn paper_geometry() {
        let mesh = Topology::mesh(8, 8).unwrap();
        let cfg = ProtocolConfig::paper_defaults(&mesh);
        assert_eq!(cfg.l1.sets * cfg.l1.ways * 64, 32 * 1024);
        assert_eq!(cfg.l2.sets * cfg.l2.ways * 64, 1024 * 1024);
        assert_eq!(cfg.mc_tiles.len(), 4);
    }

    #[test]
    fn home_interleaves_over_all_tiles() {
        let mesh = Topology::mesh(4, 4).unwrap();
        let cfg = ProtocolConfig::paper_defaults(&mesh);
        let homes: std::collections::HashSet<_> = (0..64u64).map(|b| cfg.home(&mesh, b)).collect();
        assert_eq!(homes.len(), 16);
        // Stable mapping.
        assert_eq!(cfg.home(&mesh, 5), cfg.home(&mesh, 5 + 16));
    }

    /// At tile counts that are not a power of two a bank's blocks are
    /// `bank + k·nodes`; indexed by `block` they reached 64 of the 1 024
    /// sets at 48 tiles. Indexed by the bank-local line number, `sets`
    /// consecutive blocks of a bank fill every set once, in order, and
    /// (tag, set) still names each block — high address bits included.
    #[test]
    fn every_l2_set_is_reachable_at_any_tile_count() {
        for (w, h) in [(4, 3), (6, 4), (6, 6), (8, 6), (4, 4), (8, 8)] {
            let mesh = Topology::mesh(w, h).unwrap();
            let nodes = mesh.nodes() as u64;
            for cfg in [
                ProtocolConfig::paper_defaults(&mesh),
                ProtocolConfig::small_for_tests(&mesh),
            ] {
                let sets = cfg.l2.sets as u64;
                for bank in 0..nodes {
                    let mut array: CacheArray<u64> = CacheArray::new(cfg.l2);
                    let blocks = (0..sets).map(|k| bank + ((bank << 32) * sets + k) * nodes);
                    for (k, block) in blocks.clone().enumerate() {
                        assert_eq!(cfg.home(&mesh, block).index() as u64, bank);
                        assert_eq!(array.set_of(block), k, "{nodes} tiles, bank {bank}");
                        assert_eq!(array.insert(block, block), None);
                    }
                    assert!(array
                        .iter()
                        .map(|(b, m)| (b, *m))
                        .eq(blocks.map(|b| (b, b))));
                }
            }
        }
    }

    #[test]
    fn mc_mapping_hits_all_controllers() {
        let mesh = Topology::mesh(8, 8).unwrap();
        let cfg = ProtocolConfig::paper_defaults(&mesh);
        let mcs: std::collections::HashSet<_> =
            (0..16u64).map(|b| cfg.memory_controller(b)).collect();
        assert_eq!(mcs.len(), 4);
    }
}
