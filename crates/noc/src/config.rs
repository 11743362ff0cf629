//! Network configuration and the virtual-channel layout.

use rcsim_core::table4::REQ_VCS;
use rcsim_core::{CircuitMode, MechanismConfig, Topology, Vnet};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Configuration of one network instance: a topology and a mechanism.
///
/// Everything else about the router is the paper's Table 4, fixed in
/// [`rcsim_core::table4`]: 2 VCs per virtual network (plus the
/// fragmented mode's extra reply VC), 5-flit buffers, 16-byte flits,
/// 1-cycle links.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Network topology (mesh or torus).
    pub topology: Topology,
    /// The Reactive Circuits mechanism configuration.
    pub mechanism: MechanismConfig,
}

impl NocConfig {
    /// The Table 4 router on a given topology, with a given mechanism.
    pub fn paper_baseline(topology: Topology, mechanism: MechanismConfig) -> Self {
        Self {
            topology,
            mechanism,
        }
    }

    /// The VC layout implied by the mechanism and the topology: the torus
    /// adds one reply VC, so each virtual network
    /// keeps at least two allocatable VCs after the dateline splits them
    /// into classes; on the mesh the layout is exactly the paper's.
    pub fn vc_layout(&self) -> VcLayout {
        VcLayout {
            reply_vcs: self.mechanism.reply_vcs() + usize::from(self.topology.has_wrap()),
            circuit_vcs: self.mechanism.circuit_vcs(),
        }
    }

    /// `true` when VC `vc` takes a credit per flit ([`VcLayout::credited`]).
    pub(crate) fn credited(&self, vc: usize) -> bool {
        self.vc_layout().credited(vc, self.mechanism.mode)
    }
}

/// How the virtual channels of one physical port are split between the two
/// virtual networks and the circuit class.
///
/// VC indices are dense: the [`REQ_VCS`] request VCs first, then reply
/// VCs; the *last* `circuit_vcs` reply VCs are the circuit class
/// (bufferless in complete mode).
///
/// # Examples
///
/// ```
/// use rcsim_core::{MechanismConfig, Topology, Vnet};
/// use rcsim_noc::NocConfig;
///
/// let cfg = NocConfig::paper_baseline(
///     Topology::mesh(4, 4)?,
///     MechanismConfig::complete(),
/// );
/// let vl = cfg.vc_layout();
/// assert_eq!(vl.total(), 4);
/// assert_eq!(vl.vnet_of(0), Vnet::Request);
/// assert_eq!(vl.vnet_of(3), Vnet::Reply);
/// assert!(vl.is_circuit_vc(3));
/// assert!(!vl.is_circuit_vc(2));
/// # Ok::<(), rcsim_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VcLayout {
    /// VCs in the reply virtual network (incl. circuit class).
    pub reply_vcs: usize,
    /// Trailing reply VCs dedicated to circuits.
    pub circuit_vcs: usize,
}

impl VcLayout {
    /// Total VCs per port.
    pub fn total(&self) -> usize {
        REQ_VCS + self.reply_vcs
    }

    /// Virtual network a VC index belongs to.
    ///
    /// Invariant: `vc < self.total()` — VC indices come from the layout
    /// itself, so this is debug-asserted rather than checked on the hot
    /// path. An out-of-range index classifies as `Reply` in release
    /// builds.
    pub fn vnet_of(&self, vc: usize) -> Vnet {
        debug_assert!(vc < self.total(), "vc {vc} out of range");
        if vc < REQ_VCS {
            Vnet::Request
        } else {
            Vnet::Reply
        }
    }

    /// `true` when `vc` is a circuit-class VC.
    pub fn is_circuit_vc(&self, vc: usize) -> bool {
        vc >= self.total() - self.circuit_vcs && vc < self.total()
    }

    /// `true` when VC `vc` takes a credit per flit under circuit mode
    /// `mode`: every VC but the complete- and ideal-mode circuit VC, which
    /// is sent on without one. The one credit rule: a router returns a
    /// credit, and a wire carries one, only where this holds.
    pub(crate) fn credited(&self, vc: usize, mode: CircuitMode) -> bool {
        !self.is_circuit_vc(vc) || mode == CircuitMode::Fragmented
    }

    /// The global VC index of circuit VC `i`.
    ///
    /// Invariant: `i < self.circuit_vcs` — callers iterate the layout's
    /// own circuit range, so this is debug-asserted rather than checked
    /// on the hot path.
    pub fn circuit_vc(&self, i: usize) -> usize {
        debug_assert!(i < self.circuit_vcs, "circuit vc {i} out of range");
        self.total() - self.circuit_vcs + i
    }

    /// The VC index range a packet may be *allocated* in by the VC
    /// allocator: its VN's VCs minus the circuit class (circuit VCs are
    /// only ever used through reservations).
    pub fn allocatable_vcs(&self, vnet: Vnet) -> Range<usize> {
        match vnet {
            Vnet::Request => 0..REQ_VCS,
            Vnet::Reply => REQ_VCS..self.total() - self.circuit_vcs,
        }
    }

    /// The allocatable-VC subset for one dateline class on wrap
    /// topologies: class 0 (still to cross the wrap link in the current
    /// dimension) gets the first half of the VN's allocatable VCs, class 1
    /// (past the wrap, or never crossing it) the rest. Splitting by VC
    /// index breaks the channel-dependency cycle a torus would
    /// otherwise close through its wraparound links.
    pub fn allocatable_class_vcs(&self, vnet: Vnet, class: u8) -> Range<usize> {
        let all = self.allocatable_vcs(vnet);
        let mid = all.start + (all.end - all.start) / 2;
        if class == 0 {
            all.start..mid
        } else {
            mid..all.end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::{MechanismConfig, Topology};

    fn layout_for(mechanism: MechanismConfig) -> VcLayout {
        NocConfig::paper_baseline(Topology::mesh(4, 4).unwrap(), mechanism).vc_layout()
    }

    #[test]
    fn wrap_topologies_gain_a_reply_vc_and_split_classes() {
        let torus =
            NocConfig::paper_baseline(Topology::torus(4, 4).unwrap(), MechanismConfig::complete());
        let vl = torus.vc_layout();
        // 2 req + (2 complete + 1 for the dateline) reply, the last one
        // the circuit VC.
        assert_eq!((vl.reply_vcs, vl.total()), (3, 5));
        assert_eq!(vl.allocatable_vcs(Vnet::Reply), 2..4);
        // Each class keeps at least one allocatable VC in both VNs.
        for vnet in [Vnet::Request, Vnet::Reply] {
            let c0 = vl.allocatable_class_vcs(vnet, 0);
            let c1 = vl.allocatable_class_vcs(vnet, 1);
            assert!(!c0.is_empty() && !c1.is_empty(), "{vnet:?}: {c0:?}/{c1:?}");
            assert_eq!(c0.end, c1.start);
            assert_eq!(c0.start, vl.allocatable_vcs(vnet).start);
            assert_eq!(c1.end, vl.allocatable_vcs(vnet).end);
        }
        let one_row =
            NocConfig::paper_baseline(Topology::torus(8, 1).unwrap(), MechanismConfig::baseline());
        assert_eq!(one_row.vc_layout().total(), 5);
        // The mesh keeps the paper's exact layout: no extra VC.
        let cfg =
            NocConfig::paper_baseline(Topology::mesh(4, 4).unwrap(), MechanismConfig::complete());
        assert_eq!((cfg.vc_layout().reply_vcs, cfg.vc_layout().total()), (2, 4));
    }

    #[test]
    fn baseline_layout() {
        let vl = layout_for(MechanismConfig::baseline());
        assert_eq!(vl.total(), 4);
        assert_eq!(vl.circuit_vcs, 0);
        let vnets: Vec<_> = (0..vl.total()).map(|v| vl.vnet_of(v)).collect();
        assert_eq!(
            vnets,
            [Vnet::Request, Vnet::Request, Vnet::Reply, Vnet::Reply]
        );
        assert_eq!(vl.allocatable_vcs(Vnet::Reply), 2..4);
        assert!(!vl.is_circuit_vc(3));
    }

    #[test]
    fn fragmented_layout_has_extra_vc() {
        let vl = layout_for(MechanismConfig::fragmented());
        assert_eq!(vl.total(), 5);
        assert_eq!(vl.circuit_vcs, 2);
        assert_eq!(vl.allocatable_vcs(Vnet::Reply), 2..3);
        assert!(vl.is_circuit_vc(3));
        assert!(vl.is_circuit_vc(4));
        assert_eq!(vl.circuit_vc(0), 3);
        assert_eq!(vl.circuit_vc(1), 4);
    }

    #[test]
    fn complete_layout_dedicates_one_vc() {
        let vl = layout_for(MechanismConfig::complete());
        assert_eq!(vl.total(), 4);
        assert_eq!(vl.circuit_vcs, 1);
        assert_eq!(vl.allocatable_vcs(Vnet::Reply), 2..3);
        assert!(vl.is_circuit_vc(3));
        assert_eq!(vl.circuit_vc(0), 3);
    }

    #[test]
    fn request_vcs_never_circuit_class() {
        for m in [
            MechanismConfig::baseline(),
            MechanismConfig::fragmented(),
            MechanismConfig::complete(),
            MechanismConfig::ideal(),
        ] {
            let vl = layout_for(m);
            for vc in 0..REQ_VCS {
                assert!(!vl.is_circuit_vc(vc));
                assert_eq!(vl.vnet_of(vc), Vnet::Request);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn vnet_of_out_of_range_panics() {
        layout_for(MechanismConfig::baseline()).vnet_of(9);
    }
}
