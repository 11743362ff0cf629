//! The deadlock oracle: the channel-dependency graph a routing function
//! implies, built from its routes alone and searched for a cycle
//! (Dally and Seitz). A channel is one router output port in one dateline
//! VC class ([`Topology::vc_class`]; always class 1 on the mesh),
//! the local port being an ejection channel; a route makes each of its
//! channels depend on the next. Each virtual network is its own graph.
//!
//! It checks a static picture, under two assumptions:
//! - a reply is always consumed at its destination, so no request waits
//!   on a reply inside the fabric and the two virtual networks are
//!   independent;
//! - every packet routes under the health map it is checked with: packets
//!   in flight at a dead-link onset, routed partly under the old map, are
//!   outside the check (the dead-link wedge matrix runs them).

#![allow(dead_code)]

use rcsim_core::routing::Routing;
use rcsim_core::{
    NodeId, Topology, TopologyHealth, Vnet, PORTS, PORT_EAST, PORT_LOCAL, PORT_NORTH, PORT_SOUTH,
    PORT_WEST,
};
use std::collections::VecDeque;

/// One hop of a route: the router and its output port (the last hop
/// ejects through the local port).
pub type Hops = Vec<(NodeId, usize)>;

/// The network ports in the order every search here scans them.
pub const NET_PORTS: [usize; 4] = [PORT_EAST, PORT_WEST, PORT_NORTH, PORT_SOUTH];

/// The hops of a packet from tile `s` to tile `d` on `vnet` under
/// [`Topology::route`] with the detour bit its source NI would set, or
/// `None` where it would cross a dead link (a pair the dead links cut
/// apart).
pub fn route_hops(
    t: &Topology,
    health: &TopologyHealth,
    vnet: Vnet,
    s: NodeId,
    d: NodeId,
) -> Option<Hops> {
    let detour = health.detours(t, s, d, vnet);
    let (mut at, mut in_port) = (s, PORT_LOCAL);
    let mut hops = Vec::new();
    loop {
        let port = t.route(at, in_port, d, vnet, detour, health);
        hops.push((at, port));
        let Some(nb) = t.neighbor(at, port) else {
            return Some(hops);
        };
        if !health.link_usable(at, nb) {
            return None;
        }
        assert!(hops.len() <= 2 * t.routers(), "{t:?} {s:?} -> {d:?} loops");
        (at, in_port) = (nb, port ^ 2);
    }
}

/// Every link of `t`, once.
pub fn every_link(t: &Topology) -> Vec<(NodeId, NodeId)> {
    let mut links: Vec<(NodeId, NodeId)> = t
        .iter_routers()
        .flat_map(|a| {
            NET_PORTS
                .into_iter()
                .filter_map(move |p| Some((a, t.neighbor(a, p)?)))
        })
        .filter(|(a, b)| a < b)
        .collect();
    links.sort();
    links.dedup();
    links
}

/// The routers of a hop list.
pub fn routers(hops: &Hops) -> Vec<NodeId> {
    hops.iter().map(|&(at, _)| at).collect()
}

/// The hops along a router path: between two routers the first port in
/// E/W/N/S order that links them.
pub fn hops_along(t: &Topology, path: &[NodeId]) -> Hops {
    let mut hops: Hops = path
        .windows(2)
        .map(|w| {
            let port = NET_PORTS
                .into_iter()
                .find(|&p| t.neighbor(w[0], p) == Some(w[1]));
            (w[0], port.expect("a path steps between neighbours"))
        })
        .collect();
    hops.push((path[path.len() - 1], PORT_LOCAL));
    hops
}

/// A shortest path of healthy links between two routers, breadth-first in
/// E/W/N/S order, or `None` when they are cut apart.
pub fn bfs_path(
    t: &Topology,
    health: &TopologyHealth,
    s: NodeId,
    d: NodeId,
) -> Option<Vec<NodeId>> {
    let mut prev = vec![None; t.routers()];
    prev[s.index()] = Some(s);
    let mut frontier = VecDeque::from([s]);
    while let Some(at) = frontier.pop_front() {
        for nb in NET_PORTS.into_iter().filter_map(|p| t.neighbor(at, p)) {
            if prev[nb.index()].is_none() && health.link_usable(at, nb) {
                prev[nb.index()] = Some(at);
                frontier.push_back(nb);
            }
        }
    }
    prev[d.index()]?;
    let mut path = vec![d];
    while path[path.len() - 1] != s {
        path.push(prev[path[path.len() - 1].index()].expect("reached"));
    }
    path.reverse();
    Some(path)
}

/// The negative control: the scheme the up*/down* table replaced. A
/// request whose XY path crosses a dead link takes a breadth-first detour
/// ([`bfs_path`]); a reply whose YX path does retraces its request's
/// detour reversed. Detours follow no turn model.
pub fn bfs_detour_hops(
    t: &Topology,
    health: &TopologyHealth,
    vnet: Vnet,
    s: NodeId,
    d: NodeId,
) -> Option<Hops> {
    let dor = t.route_path(s, d, Routing::for_vnet(vnet));
    let path = if dor.windows(2).all(|w| health.link_usable(w[0], w[1])) {
        dor
    } else if vnet == Vnet::Request {
        bfs_path(t, health, s, d)?
    } else {
        let mut back = bfs_path(t, health, d, s)?;
        back.reverse();
        back
    };
    Some(hops_along(t, &path))
}

/// A shortest dependency cycle among the channels of one virtual network
/// that the routes of every pair of tiles imply — `routes(src, dst)`,
/// `None` for a pair left out — as the routers of its channels, starting
/// at the lowest; `None` when the graph is acyclic.
pub fn dependency_cycle(
    t: &Topology,
    mut routes: impl FnMut(NodeId, NodeId) -> Option<Hops>,
) -> Option<Vec<NodeId>> {
    let ports = PORTS;
    let channel = |(at, port): (NodeId, usize), dst: NodeId| {
        let class = match t.neighbor(at, port) {
            Some(nb) => t.vc_class(nb, dst, port),
            None => 1,
        };
        (at.index() * ports + port) * 2 + class
    };
    let mut edges = vec![Vec::new(); t.routers() * ports * 2];
    for s in t.iter_routers() {
        for d in t.iter_routers() {
            let Some(hops) = routes(s, d) else {
                continue;
            };
            for w in hops.windows(2) {
                edges[channel(w[0], d)].push(channel(w[1], d));
            }
        }
    }
    for e in &mut edges {
        e.sort_unstable();
        e.dedup();
    }
    let cycle = shortest_cycle(&edges)?;
    Some(
        cycle
            .iter()
            .map(|c| NodeId((c / 2 / ports) as u16))
            .collect(),
    )
}

/// The first virtual network whose graph under [`Topology::route`] and
/// `health` has a dependency cycle, with the cycle.
pub fn route_cycle(t: &Topology, health: &TopologyHealth) -> Option<(Vnet, Vec<NodeId>)> {
    Vnet::ALL.into_iter().find_map(|vnet| {
        let cycle = dependency_cycle(t, |s, d| route_hops(t, health, vnet, s, d))?;
        Some((vnet, cycle))
    })
}

/// A shortest cycle of a directed graph, rotated to start at its lowest
/// node (the lowest such cycle on ties), or `None` when it is acyclic.
fn shortest_cycle(edges: &[Vec<usize>]) -> Option<Vec<usize>> {
    // Kahn: what no topological order reaches lies on or behind a cycle.
    let mut indegree = vec![0usize; edges.len()];
    edges.iter().flatten().for_each(|&to| indegree[to] += 1);
    let mut ready: Vec<usize> = (0..edges.len()).filter(|&v| indegree[v] == 0).collect();
    while let Some(v) = ready.pop() {
        for &to in &edges[v] {
            indegree[to] -= 1;
            if indegree[to] == 0 {
                ready.push(to);
            }
        }
    }
    let mut best: Option<Vec<usize>> = None;
    for start in (0..edges.len()).filter(|&v| indegree[v] > 0) {
        // The shortest way back to `start`, breadth-first.
        let mut prev = vec![usize::MAX; edges.len()];
        let mut frontier = VecDeque::from([start]);
        'search: while let Some(v) = frontier.pop_front() {
            for &to in &edges[v] {
                if to == start {
                    let mut cycle = vec![v];
                    while cycle[cycle.len() - 1] != start {
                        cycle.push(prev[cycle[cycle.len() - 1]]);
                    }
                    cycle.reverse();
                    if best.as_ref().is_none_or(|b| cycle.len() < b.len()) {
                        best = Some(cycle);
                    }
                    break 'search;
                }
                if prev[to] == usize::MAX {
                    prev[to] = v;
                    frontier.push_back(to);
                }
            }
        }
    }
    best
}
