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

/// Live health map of the network: which links and routers are currently
/// dead (the permanent-fault model, DESIGN.md §10). Links are
/// bidirectional — killing `(a, b)` kills both directions — and a dead
/// router implicitly kills every link touching it.
///
/// Every field is state (DESIGN.md §15): the map serializes as it stands.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyHealth {
    /// Dead links, stored as normalized `(min, max)` node pairs.
    dead_links: StateSet<(NodeId, NodeId)>,
    /// Dead routers: nothing may enter, leave or cross them.
    dead_routers: StateSet<NodeId>,
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

    /// `true` when any link or router is currently dead.
    pub fn is_degraded(&self) -> bool {
        !self.dead_links.is_empty() || !self.dead_routers.is_empty()
    }

    /// Marks the `a`–`b` link dead in both directions.
    pub fn kill_link(&mut self, a: NodeId, b: NodeId) {
        self.dead_links.insert(norm(a, b));
    }

    /// Marks router `n` dead.
    pub fn kill_router(&mut self, n: NodeId) {
        self.dead_routers.insert(n);
    }

    /// `true` when router `n` is alive.
    pub fn node_usable(&self, n: NodeId) -> bool {
        !self.dead_routers.contains(&n)
    }

    /// `true` when the `a`–`b` link itself is alive (endpoint routers are
    /// checked separately via [`TopologyHealth::node_usable`]).
    pub fn link_usable(&self, a: NodeId, b: NodeId) -> bool {
        !self.dead_links.contains(&norm(a, b))
    }

    /// `true` when a flit may cross from `a` to `b`: the link and both
    /// endpoint routers are alive.
    pub fn hop_usable(&self, a: NodeId, b: NodeId) -> bool {
        self.link_usable(a, b) && self.node_usable(a) && self.node_usable(b)
    }

    /// Currently dead links, sorted, for deterministic reporting.
    pub fn dead_links_sorted(&self) -> Vec<(NodeId, NodeId)> {
        self.dead_links.clone().into()
    }

    /// Currently dead routers, sorted, for deterministic reporting.
    pub fn dead_routers_sorted(&self) -> Vec<NodeId> {
        self.dead_routers.clone().into()
    }
}

/// `true` when every router on `path` is alive and every consecutive hop
/// crosses a live link.
pub fn path_is_healthy(path: &[NodeId], topo: &TopologyHealth) -> bool {
    path.iter().all(|&n| topo.node_usable(n))
        && path.windows(2).all(|w| topo.link_usable(w[0], w[1]))
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
        assert!(!topo.hop_usable(NodeId(1), NodeId(2)));
        assert!(!path_is_healthy(&path, &topo));
        let mut topo = TopologyHealth::new();
        topo.kill_router(NodeId(6));
        assert!(topo.link_usable(NodeId(2), NodeId(6)));
        assert!(!topo.hop_usable(NodeId(2), NodeId(6)));
        assert!(!path_is_healthy(&path, &topo));
        assert!(path_is_healthy(&path[..3], &topo));
    }

    #[test]
    fn health_report_accessors_sorted() {
        let mut topo = TopologyHealth::new();
        topo.kill_link(NodeId(9), NodeId(8));
        topo.kill_link(NodeId(3), NodeId(2));
        topo.kill_router(NodeId(12));
        topo.kill_router(NodeId(4));
        assert_eq!(
            topo.dead_links_sorted(),
            vec![(NodeId(2), NodeId(3)), (NodeId(8), NodeId(9))]
        );
        assert_eq!(topo.dead_routers_sorted(), vec![NodeId(4), NodeId(12)]);
    }
}
