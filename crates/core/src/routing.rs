//! Dimension-order routing.
//!
//! The paper modifies classic DOR so that requests use XY and replies use
//! YX (§4.1): the two then traverse the *same* routers in opposite order,
//! which is what lets a request reserve circuit resources for its reply at
//! every hop. Different message types travel on different virtual networks,
//! so the XY/YX mix stays deadlock-free.

use crate::state::StateSet;
use crate::types::NodeId;
use serde::{Deserialize, Serialize};

/// Deterministic routing algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Routing {
    /// X first then Y — used by the request virtual network.
    Xy,
    /// Y first then X — used by the reply virtual network.
    Yx,
}

impl Routing {
    /// The routing used by a virtual network.
    pub fn for_vnet(vnet: crate::types::Vnet) -> Routing {
        match vnet {
            crate::types::Vnet::Request => Routing::Xy,
            crate::types::Vnet::Reply => Routing::Yx,
        }
    }
}

/// Live health map of the network: which links are dead (the
/// permanent-fault model, DESIGN.md §10). Links are bidirectional —
/// killing `(a, b)` kills both directions.
///
/// Every field is state (DESIGN.md §13): the map serializes as it stands.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyHealth {
    /// Dead links, stored as normalized `(min, max)` node pairs.
    dead_links: StateSet<(NodeId, NodeId)>,
}

fn norm(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

impl TopologyHealth {
    /// A fully healthy topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when any link is dead.
    pub fn is_degraded(&self) -> bool {
        !self.dead_links.is_empty()
    }

    /// Marks the `a`–`b` link dead in both directions.
    pub fn kill_link(&mut self, a: NodeId, b: NodeId) {
        self.dead_links.insert(norm(a, b));
    }

    /// `true` when a flit may cross between `a` and `b`: their link is
    /// alive.
    pub fn link_usable(&self, a: NodeId, b: NodeId) -> bool {
        !self.dead_links.contains(&norm(a, b))
    }

    /// Currently dead links, sorted, for deterministic reporting.
    pub fn dead_links_sorted(&self) -> Vec<(NodeId, NodeId)> {
        self.dead_links.clone().into()
    }
}

/// `true` when every consecutive hop of `path` crosses a live link.
pub fn path_is_healthy(path: &[NodeId], topo: &TopologyHealth) -> bool {
    path.windows(2).all(|w| topo.link_usable(w[0], w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_for_vnet() {
        use crate::types::Vnet;
        assert_eq!(Routing::for_vnet(Vnet::Request), Routing::Xy);
        assert_eq!(Routing::for_vnet(Vnet::Reply), Routing::Yx);
    }

    #[test]
    fn path_health_follows_kills() {
        let path = [0, 1, 2, 6].map(NodeId);
        let mut topo = TopologyHealth::new();
        assert!(!topo.is_degraded());
        assert!(path_is_healthy(&path, &topo));
        topo.kill_link(NodeId(2), NodeId(1));
        assert!(topo.is_degraded());
        assert!(!topo.link_usable(NodeId(1), NodeId(2)));
        assert!(!path_is_healthy(&path, &topo));
        assert!(path_is_healthy(&path[2..], &topo));
    }

    #[test]
    fn health_report_accessors_sorted() {
        let mut topo = TopologyHealth::new();
        topo.kill_link(NodeId(9), NodeId(8));
        topo.kill_link(NodeId(3), NodeId(2));
        assert_eq!(
            topo.dead_links_sorted(),
            vec![(NodeId(2), NodeId(3)), (NodeId(8), NodeId(9))]
        );
    }
}
