//! Event-based network energy model (Figure 8).

use crate::area::RouterArea;
use rcsim_core::MechanismConfig;
use rcsim_noc::NocStats;
use serde::{Deserialize, Serialize};

/// Per-event and static energy coefficients, loosely calibrated to 32 nm
/// DSENT numbers for a 128-bit 5-port router at 2 GHz. Units are
/// picojoules (dynamic) and picojoules/cycle (static); only *relative*
/// energies matter for the normalized Figure 8 results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy per flit written into a VC buffer.
    pub buffer_write_pj: f64,
    /// Energy per flit read from a VC buffer.
    pub buffer_read_pj: f64,
    /// Energy per crossbar traversal.
    pub xbar_pj: f64,
    /// Energy per flit-hop on an inter-router link.
    pub link_pj: f64,
    /// Energy per allocator grant operation.
    pub alloc_pj: f64,
    /// Energy per credit (incl. undo piggybacks).
    pub credit_pj: f64,
    /// Energy per circuit-table write or lookup.
    pub table_pj: f64,
    /// Router static power, per normalized area unit per cycle.
    pub router_static_pj_per_area: f64,
    /// Link static power per link per cycle.
    pub link_static_pj: f64,
}

impl EnergyModel {
    /// The 32 nm / 2 GHz defaults. Static power dominates at the light
    /// loads the paper reports (<4 flits/node/100 cycles), which is what
    /// makes the buffer removal of complete circuits pay off.
    pub fn default_32nm() -> Self {
        Self {
            buffer_write_pj: 1.3,
            buffer_read_pj: 1.1,
            xbar_pj: 1.9,
            link_pj: 2.0,
            alloc_pj: 0.25,
            credit_pj: 0.08,
            table_pj: 0.12,
            router_static_pj_per_area: 0.0016,
            link_static_pj: 4.5,
        }
    }

    /// Computes the network energy of one run from its activity counters.
    ///
    /// `cores` fixes the router count and link count (a W×H mesh has
    /// `2·(2·W·H − W − H)` unidirectional links).
    pub fn network_energy(
        &self,
        stats: &NocStats,
        mechanism: &MechanismConfig,
        width: usize,
        height: usize,
    ) -> EnergyBreakdown {
        let routers = (width * height) as f64;
        let links = 2.0 * (2 * width * height - width - height) as f64;
        let a = &stats.activity;
        let router_dynamic = a.buffer_writes as f64 * self.buffer_write_pj
            + a.buffer_reads as f64 * self.buffer_read_pj
            + a.xbar_traversals as f64 * self.xbar_pj
            + (a.vc_allocs + a.sw_allocs) as f64 * self.alloc_pj
            + a.credits as f64 * self.credit_pj
            + (a.circuit_writes + a.circuit_lookups) as f64 * self.table_pj;
        let link_dynamic = a.link_flits as f64 * self.link_pj;
        let area = RouterArea::for_mechanism(mechanism, width * height).total();
        let router_static = stats.cycles as f64 * routers * area * self.router_static_pj_per_area;
        let link_static = stats.cycles as f64 * links * self.link_static_pj;
        EnergyBreakdown {
            router_dynamic_pj: router_dynamic,
            router_static_pj: router_static,
            link_dynamic_pj: link_dynamic,
            link_static_pj: link_static,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::default_32nm()
    }
}

/// Network energy split into the four Figure 8 components.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Dynamic energy in routers.
    pub router_dynamic_pj: f64,
    /// Static (leakage + clock) energy in routers.
    pub router_static_pj: f64,
    /// Dynamic energy in links.
    pub link_dynamic_pj: f64,
    /// Static energy in links.
    pub link_static_pj: f64,
}

impl EnergyBreakdown {
    /// Total network energy.
    pub fn total_pj(&self) -> f64 {
        self.router_dynamic_pj + self.router_static_pj + self.link_dynamic_pj + self.link_static_pj
    }

    /// Fraction of the total that is static.
    pub fn static_share(&self) -> f64 {
        let t = self.total_pj();
        if t == 0.0 {
            0.0
        } else {
            (self.router_static_pj + self.link_static_pj) / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
    use rcsim_noc::{Network, NocConfig, PacketSpec};

    fn run_light_load(mechanism: MechanismConfig) -> NocStats {
        let mesh = Topology::mesh(4, 4).unwrap();
        let mut net = Network::new(NocConfig::paper_baseline(mesh, mechanism)).unwrap();
        for i in 0..40u64 {
            let src = NodeId((i % 16) as u16);
            let dst = NodeId(((i * 7 + 3) % 16) as u16);
            if src != dst {
                net.inject(PacketSpec::new(src, dst, MessageClass::L1Request).with_block(i * 64));
            }
            for _ in 0..25 {
                net.tick();
            }
        }
        for _ in 0..500 {
            net.tick();
        }
        net.stats()
    }

    #[test]
    fn static_dominates_at_light_load() {
        let stats = run_light_load(MechanismConfig::baseline());
        let e =
            EnergyModel::default_32nm().network_energy(&stats, &MechanismConfig::baseline(), 4, 4);
        assert!(
            e.static_share() > 0.5,
            "static share {} should dominate at light load",
            e.static_share()
        );
        assert!(e.router_dynamic_pj > 0.0 && e.link_dynamic_pj > 0.0);
    }

    #[test]
    fn smaller_router_means_less_static_energy() {
        let stats = run_light_load(MechanismConfig::baseline());
        let m = EnergyModel::default_32nm();
        let base = m.network_energy(&stats, &MechanismConfig::baseline(), 4, 4);
        let complete = m.network_energy(&stats, &MechanismConfig::complete(), 4, 4);
        assert!(complete.router_static_pj < base.router_static_pj);
    }

    #[test]
    fn zero_stats_zero_dynamic() {
        let e = EnergyModel::default_32nm().network_energy(
            &NocStats::default(),
            &MechanismConfig::baseline(),
            4,
            4,
        );
        assert_eq!(e.router_dynamic_pj, 0.0);
        assert_eq!(e.link_dynamic_pj, 0.0);
        assert_eq!(e.total_pj(), 0.0);
        assert_eq!(e.static_share(), 0.0);
    }

    #[test]
    fn energy_scales_with_cycles() {
        let mut s = NocStats {
            cycles: 1000,
            ..Default::default()
        };
        let m = EnergyModel::default_32nm();
        let e1 = m.network_energy(&s, &MechanismConfig::baseline(), 4, 4);
        s.cycles = 2000;
        let e2 = m.network_energy(&s, &MechanismConfig::baseline(), 4, 4);
        assert!((e2.router_static_pj / e1.router_static_pj - 2.0).abs() < 1e-9);
    }
}
