//! Routing: dimension order on a healthy chip, an up*/down* table once a
//! link dies (DESIGN.md §10).
//!
//! The paper modifies classic DOR so that requests use XY and replies use
//! YX (§4.1): the two then traverse the *same* routers in opposite order,
//! which is what lets a request reserve circuit resources for its reply at
//! every hop. Different message types travel on different virtual networks,
//! so the XY/YX mix stays deadlock-free. On a degraded chip every route is
//! up*/down*-legal (Autonet; Schroeder et al., 1991), so it stays so.

use crate::state::StateSet;
use crate::types::{NodeId, Vnet};
use crate::{Topology, PORT_EAST, PORT_NORTH, PORT_SOUTH, PORT_WEST};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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
    #[inline]
    pub fn for_vnet(vnet: Vnet) -> Routing {
        match vnet {
            Vnet::Request => Routing::Xy,
            Vnet::Reply => Routing::Yx,
        }
    }
}

/// Live health map of the network: which links are dead (the
/// permanent-fault model), and the up*/down* table they imply. Links are
/// bidirectional — killing `(a, b)` kills both directions. The dead links
/// are state (DESIGN.md §13); the table is derived from them and never
/// serialized, so a restored map needs [`TopologyHealth::rebuild`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyHealth {
    /// Dead links, stored as normalized `(min, max)` node pairs.
    dead_links: StateSet<(NodeId, NodeId)>,
    #[serde(default, skip_serializing_if = "UpDown::derived")]
    table: UpDown,
}

/// The up*/down* table of a degraded chip (empty on a healthy one).
/// Routers rank by `(BFS level, id)` from the lowest-numbered router of
/// each healthy component; a hop toward a lower rank is *up*, and a legal
/// path never goes up after going down.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct UpDown {
    /// Per router, its BFS level; its rank is `(level, id)`.
    rank: Vec<u32>,
    /// `next[(dst · routers + at) · 2 + gone_down]`: the first port of a
    /// shortest legal path from `at` to router `dst` (ties in E/W/N/S
    /// order), [`UpDown::NONE`] when there is none.
    next: Vec<u8>,
}

impl UpDown {
    const NONE: u8 = u8::MAX;
    /// The port order ties break in.
    const SCAN: [usize; 4] = [PORT_EAST, PORT_WEST, PORT_NORTH, PORT_SOUTH];

    /// Always: the table is scratch.
    fn derived(&self) -> bool {
        true
    }

    fn new(t: &Topology, health: &TopologyHealth) -> UpDown {
        let n = t.routers();
        let links = |r: NodeId| {
            let usable =
                move |p| Some((p, t.neighbor(r, p)?)).filter(|&(_, nb)| health.link_usable(r, nb));
            Self::SCAN.into_iter().filter_map(usable)
        };
        let mut rank = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        for root in 0..n {
            if rank[root] == u32::MAX {
                rank[root] = 0;
                queue.push_back(root);
            }
            while let Some(r) = queue.pop_front() {
                for (_, nb) in links(NodeId(r as u16)) {
                    if rank[nb.index()] == u32::MAX {
                        rank[nb.index()] = rank[r] + 1;
                        queue.push_back(nb.index());
                    }
                }
            }
        }
        let up = |from: NodeId, to: NodeId| (rank[to.index()], to) < (rank[from.index()], from);

        // Per destination, the hops from every state `2 · router +
        // gone_down`, breadth-first backwards from it: a hop `q -> r` enters
        // state `s` if it goes up into a fresh state (from a fresh one) or
        // down into a gone-down state (from either).
        let mut next = vec![Self::NONE; 2 * n * n];
        let mut dist = vec![u32::MAX; 2 * n];
        for d in 0..n {
            dist.fill(u32::MAX);
            (dist[2 * d], dist[2 * d + 1]) = (0, 0);
            queue.extend([2 * d, 2 * d + 1]);
            while let Some(s) = queue.pop_front() {
                let (r, down) = (NodeId((s / 2) as u16), s % 2 == 1);
                for (_, q) in links(r).filter(|&(_, q)| up(q, r) != down) {
                    for f in 2 * q.index()..=2 * q.index() + usize::from(down) {
                        if dist[f] == u32::MAX {
                            dist[f] = dist[s] + 1;
                            queue.push_back(f);
                        }
                    }
                }
            }
            for s in (0..2 * n).filter(|&s| s / 2 != d && dist[s] != u32::MAX) {
                let r = NodeId((s / 2) as u16);
                let step = links(r).find(|&(_, nb)| {
                    let (up, down) = (up(r, nb), s % 2 == 1);
                    !(up && down) && dist[2 * nb.index() + usize::from(!up)] == dist[s] - 1
                });
                next[2 * n * d + s] = step.expect("a reachable state has a step").0 as u8;
            }
        }
        UpDown { rank, next }
    }
}

impl TopologyHealth {
    /// A fully healthy topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when any link is dead.
    #[inline]
    pub fn is_degraded(&self) -> bool {
        !self.dead_links.is_empty()
    }

    /// Marks the `a`–`b` link of `t` dead in both directions and rebuilds
    /// the table.
    pub fn kill_link(&mut self, t: &Topology, a: NodeId, b: NodeId) {
        self.dead_links.insert((a.min(b), a.max(b)));
        self.rebuild(t);
    }

    /// Rebuilds the table of `t` from the dead links, as every onset and
    /// every restore does.
    pub fn rebuild(&mut self, t: &Topology) {
        self.table = UpDown::default();
        if self.is_degraded() {
            self.table = UpDown::new(t, self);
        }
    }

    /// `true` when a flit may cross between `a` and `b`: their link is
    /// alive.
    #[inline]
    pub fn link_usable(&self, a: NodeId, b: NodeId) -> bool {
        !self.dead_links.contains(&(a.min(b), a.max(b)))
    }

    /// Currently dead links, sorted, for deterministic reporting.
    pub fn dead_links_sorted(&self) -> Vec<(NodeId, NodeId)> {
        self.dead_links.clone().into()
    }

    /// `true` when the hop between neighbours `from` and `to` goes up.
    fn is_up(&self, from: NodeId, to: NodeId) -> bool {
        let rank = |r: NodeId| (self.table.rank[r.index()], r);
        rank(to) < rank(from)
    }

    /// The detour bit of a packet from tile `src` to tile `dst` on `vnet`:
    /// the chip is degraded and its DOR path is not both healthy and legal.
    /// A pair's XY path is legal exactly when its reversed YX path is, so a
    /// reply detours exactly when its request did.
    pub fn detours(&self, t: &Topology, src: NodeId, dst: NodeId, vnet: Vnet) -> bool {
        let (mut at, mut down) = (src, false);
        while self.is_degraded() && at != dst {
            let port = t.min_route_port(at, dst, Routing::for_vnet(vnet));
            let nb = t.neighbor(at, port).expect("DOR stays on the grid");
            let up = self.is_up(at, nb);
            if !self.link_usable(at, nb) || (down && up) {
                return true;
            }
            (at, down) = (nb, !up);
        }
        false
    }

    /// The table's port at router `at` toward router `dst` for a packet
    /// that came from router `from` (`None`: injected here) — it has gone
    /// down when that hop did — or `None` when the dead links cut `at` off
    /// from `dst`.
    pub fn next_port(&self, at: NodeId, from: Option<NodeId>, dst: NodeId) -> Option<usize> {
        let down = from.is_some_and(|from| !self.is_up(from, at));
        let n = self.table.rank.len();
        let port = self.table.next[2 * (n * dst.index() + at.index()) + usize::from(down)];
        (port != UpDown::NONE).then_some(usize::from(port))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_for_vnet() {
        assert_eq!(Routing::for_vnet(Vnet::Request), Routing::Xy);
        assert_eq!(Routing::for_vnet(Vnet::Reply), Routing::Yx);
    }

    #[test]
    fn detour_bit_follows_kills() {
        let t = Topology::mesh(4, 4).unwrap();
        let mut health = TopologyHealth::new();
        assert!(!health.is_degraded());
        assert!(!health.detours(&t, NodeId(0), NodeId(6), Vnet::Request));
        health.kill_link(&t, NodeId(2), NodeId(1));
        assert!(health.is_degraded());
        assert!(!health.link_usable(NodeId(1), NodeId(2)));
        // XY 0 -> 6 crosses 1-2; YX back goes 6, 2, 1, 0 across it too.
        assert!(health.detours(&t, NodeId(0), NodeId(6), Vnet::Request));
        assert!(health.detours(&t, NodeId(6), NodeId(0), Vnet::Reply));
        assert!(!health.detours(&t, NodeId(4), NodeId(5), Vnet::Request));
        assert!(!health.detours(&t, NodeId(5), NodeId(5), Vnet::Request));
    }

    #[test]
    fn a_restored_map_rebuilds_its_table() {
        let t = Topology::torus(4, 4).unwrap();
        let mut health = TopologyHealth::new();
        health.kill_link(&t, NodeId(5), NodeId(6));
        let json = serde_json::to_string(&health).unwrap();
        assert!(!json.contains("table"), "{json}");
        let mut back: TopologyHealth = serde_json::from_str(&json).unwrap();
        assert_ne!(back, health);
        back.rebuild(&t);
        assert_eq!(back, health);
    }

    #[test]
    fn health_report_accessors_sorted() {
        let t = Topology::mesh(4, 4).unwrap();
        let mut topo = TopologyHealth::new();
        topo.kill_link(&t, NodeId(9), NodeId(8));
        topo.kill_link(&t, NodeId(3), NodeId(2));
        assert_eq!(
            topo.dead_links_sorted(),
            vec![(NodeId(2), NodeId(3)), (NodeId(8), NodeId(9))]
        );
    }
}
