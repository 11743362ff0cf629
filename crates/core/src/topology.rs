//! The chip's geometry: one `width × height` router grid whose *shape* —
//! mesh, torus, concentrated mesh or ring — says whether its edges wrap
//! and how many tiles share a router. Every shape keeps the paper's port
//! model and the path-symmetry guarantee circuit reservation rests on
//! (§4.1).
//!
//! # Port model
//!
//! Every router has four network ports with fixed indices — North `0`,
//! East `1`, South `2`, West `3` — and `concentration()` local ports at
//! indices `4..4 + c`. A mesh, torus or ring has one local port (index 4);
//! a concentrated mesh (`CMesh`) attaches `c` tiles to each router through
//! distinct local ports. A ring is the `n × 1` torus: its North and South
//! ports lead nowhere.
//!
//! # Identity spaces
//!
//! Tiles (cores, caches, NIs) and routers are distinct spaces. With one
//! tile per router they coincide (`router_of` is the identity); for
//! `CMesh` with concentration `c`, tile `t` sits at router `t / c`, local
//! slot `t % c`. Routers are numbered row-major. Flit source routes,
//! [`TopologyHealth`] and fault events all live in *router* space.
//!
//! # Wraparound and deadlock (dateline rule)
//!
//! Torus and ring links wrap. Three rules keep them deadlock-free
//! (DESIGN.md §12):
//!
//! 1. every virtual network splits its allocatable VCs into two *dateline
//!    classes*; a packet whose remaining travel in the current dimension
//!    still crosses the wrap link allocates class 0, otherwise class 1
//!    ([`Topology::vc_class`] — stateless, derived from position alone);
//! 2. wrap topologies add one extra reply VC so every VN has at least two
//!    allocatable VCs to split;
//! 3. circuit reservations never span a wrap link
//!    ([`Topology::is_wrap_hop`]), so circuit-VC dependency chains cannot
//!    close a cycle around a ring dimension.

use crate::config::ConfigError;
use crate::routing::{Routing, TopologyHealth};
use crate::types::{Coord, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// North network port. The four network ports come first; local ports
/// follow at `4..4 + concentration`.
pub const PORT_NORTH: usize = 0;
/// East network port.
pub const PORT_EAST: usize = 1;
/// South network port.
pub const PORT_SOUTH: usize = 2;
/// West network port.
pub const PORT_WEST: usize = 3;
/// First local (injection/ejection) port.
pub const PORT_LOCAL: usize = 4;

/// The order every search scans the network ports in, which is what makes
/// a detour — and the port chosen between two routers a 2-wide torus links
/// twice — deterministic.
const SCAN_ORDER: [usize; 4] = [PORT_EAST, PORT_WEST, PORT_NORTH, PORT_SOUTH];

/// The physical interconnect of one chip: a shape and a router grid.
///
/// # Examples
///
/// ```
/// use rcsim_core::{NodeId, Topology, PORT_EAST};
///
/// let mesh = Topology::mesh(4, 4)?;
/// assert_eq!(mesh.nodes(), 16);
/// assert_eq!(mesh.neighbor(NodeId(5), PORT_EAST), Some(NodeId(6)));
/// assert_eq!(mesh.neighbor(NodeId(3), PORT_EAST), None); // edge
/// assert_eq!(mesh.distance(NodeId(0), NodeId(15)), 6);
/// let torus = Topology::torus(4, 4)?;
/// assert_eq!(torus.neighbor(NodeId(3), PORT_EAST), Some(NodeId(0)));
/// assert_eq!(torus.distance(NodeId(0), NodeId(15)), 2);
/// # Ok::<(), rcsim_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Topology {
    shape: TopologySpec,
    /// Columns of the router grid.
    width: u16,
    /// Rows of the router grid (1 for a ring).
    height: u16,
}

// It sits in the first cache line of every router.
const _: () = assert!(std::mem::size_of::<Topology>() <= 8);

impl Topology {
    fn new(shape: TopologySpec, width: u16, height: u16) -> Result<Self, ConfigError> {
        let topology = Topology {
            shape,
            width,
            height,
        };
        let tiles = u64::from(width) * u64::from(height) * topology.concentration() as u64;
        if tiles == 0 {
            return Err(ConfigError::EmptyMesh);
        }
        if tiles > u64::from(u16::MAX) {
            return Err(ConfigError::MeshTooLarge);
        }
        Ok(topology)
    }

    /// The paper's 2-D mesh, `width × height` tiles numbered row-major.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyMesh`] if either dimension is zero, and
    /// [`ConfigError::MeshTooLarge`] if the node count would not fit the
    /// 16-bit [`NodeId`] space — as every constructor here does.
    pub fn mesh(width: u16, height: u16) -> Result<Self, ConfigError> {
        Self::new(TopologySpec::Mesh, width, height)
    }

    /// A torus: the mesh plus wraparound links in both dimensions.
    ///
    /// # Errors
    ///
    /// Returns the dimension errors of [`Topology::mesh`].
    pub fn torus(width: u16, height: u16) -> Result<Self, ConfigError> {
        Self::new(TopologySpec::Torus, width, height)
    }

    /// A concentrated mesh: a `width × height` router grid with
    /// `concentration` tiles per router.
    ///
    /// # Errors
    ///
    /// Returns the dimension errors of [`Topology::mesh`], counting tiles
    /// (a zero concentration is an empty mesh).
    pub fn cmesh(width: u16, height: u16, concentration: u16) -> Result<Self, ConfigError> {
        Self::new(TopologySpec::CMesh { concentration }, width, height)
    }

    /// A bidirectional ring of `nodes` routers — the `nodes × 1` torus,
    /// using the East/West ports only.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyMesh`] for fewer than two nodes (a
    /// one-node ring has no links).
    pub fn ring(nodes: u16) -> Result<Self, ConfigError> {
        if nodes < 2 {
            return Err(ConfigError::EmptyMesh);
        }
        Self::new(TopologySpec::Ring, nodes, 1)
    }

    /// Short label for bench rows and reports (the shape's).
    pub fn label(&self) -> String {
        self.shape.label()
    }

    /// Number of tiles (cores, caches, NIs).
    pub fn nodes(&self) -> usize {
        self.routers() * self.concentration()
    }

    /// Number of routers.
    pub fn routers(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Tiles per router (local ports per router); 1 except for `CMesh`.
    pub fn concentration(&self) -> usize {
        match self.shape {
            TopologySpec::CMesh { concentration } => concentration as usize,
            _ => 1,
        }
    }

    /// `true` for shapes with wraparound links (torus, ring): these need
    /// the dateline VC classes and the extra reply VC.
    pub fn has_wrap(&self) -> bool {
        matches!(self.shape, TopologySpec::Torus | TopologySpec::Ring)
    }

    /// Total ports per router: four network ports plus the local ports.
    pub fn ports(&self) -> usize {
        PORT_LOCAL + self.concentration()
    }

    /// The router grid dimensions `(width, height)` (a ring is `n × 1`).
    pub fn dims(&self) -> (u16, u16) {
        (self.width, self.height)
    }

    /// Iterator over all router ids, row-major.
    pub fn iter_routers(&self) -> impl Iterator<Item = NodeId> {
        (0..self.routers() as u16).map(NodeId)
    }

    /// Iterator over all tile ids.
    pub fn iter_tiles(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes() as u16).map(NodeId)
    }

    /// The router a tile hangs off.
    pub fn router_of(&self, tile: NodeId) -> NodeId {
        NodeId(tile.0 / self.concentration() as u16)
    }

    /// The local-port slot of a tile at its router (`0..concentration()`).
    pub fn local_slot(&self, tile: NodeId) -> usize {
        tile.index() % self.concentration()
    }

    /// The tile attached to `router` through local slot `slot`.
    pub fn tile_of(&self, router: NodeId, slot: usize) -> NodeId {
        NodeId(router.0 * self.concentration() as u16 + slot as u16)
    }

    /// The router port a flit ejects through to reach `tile`.
    pub fn eject_port(&self, tile: NodeId) -> usize {
        PORT_LOCAL + self.local_slot(tile)
    }

    /// Coordinate of a router on the grid.
    pub fn coord(&self, router: NodeId) -> Coord {
        debug_assert!(
            router.index() < self.routers(),
            "router {router} out of range for {self:?}"
        );
        Coord {
            x: router.0 % self.width,
            y: router.0 / self.width,
        }
    }

    /// Router at a grid coordinate.
    pub fn router_at(&self, c: Coord) -> NodeId {
        NodeId(c.y * self.width + c.x)
    }

    /// One step from position `at` along a dimension of length `len`, up
    /// (East/South) or down: the new position and whether the step crossed
    /// the wraparound seam, or `None` off an edge that does not wrap (every
    /// edge of a mesh; both ends of a dimension of length one).
    fn step(&self, at: u16, len: u16, up: bool) -> Option<(u16, bool)> {
        if at != if up { len - 1 } else { 0 } {
            Some((if up { at + 1 } else { at - 1 }, false))
        } else if self.has_wrap() && len > 1 {
            Some((len - 1 - at, true))
        } else {
            None
        }
    }

    /// The router out of a network port and whether the link to it wraps.
    fn hop(&self, router: NodeId, port: usize) -> Option<(NodeId, bool)> {
        let c = self.coord(router);
        let up = port == PORT_EAST || port == PORT_SOUTH;
        let (to, wrap) = match port {
            PORT_EAST | PORT_WEST => {
                let (x, wrap) = self.step(c.x, self.width, up)?;
                (Coord { x, ..c }, wrap)
            }
            PORT_NORTH | PORT_SOUTH => {
                let (y, wrap) = self.step(c.y, self.height, up)?;
                (Coord { y, ..c }, wrap)
            }
            _ => return None,
        };
        Some((self.router_at(to), wrap))
    }

    /// The neighbouring *router* out of a network port, or `None` at a
    /// mesh edge, for a local port, or for a ring's North/South ports.
    pub fn neighbor(&self, router: NodeId, port: usize) -> Option<NodeId> {
        self.hop(router, port).map(|(to, _)| to)
    }

    /// `true` when the hop out of `port` at `router` crosses a wraparound
    /// link (torus dateline / ring seam). Always `false` on mesh/cmesh.
    pub fn is_wrap_hop(&self, router: NodeId, port: usize) -> bool {
        self.has_wrap() && self.hop(router, port).is_some_and(|(_, wrap)| wrap)
    }

    /// Minimal hop distance between two *routers*.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let span = |a: u16, b: u16, len: u16| {
            let d = a.abs_diff(b);
            u32::from(if self.has_wrap() { d.min(len - d) } else { d })
        };
        let (a, b) = (self.coord(a), self.coord(b));
        span(a.x, b.x, self.width) + span(a.y, b.y, self.height)
    }

    /// Minimal hop distance between two *tiles* (their routers).
    pub fn hop_count(&self, a: NodeId, b: NodeId) -> u32 {
        self.distance(self.router_of(a), self.router_of(b))
    }

    /// Minimal direction of travel from `at` to `dst` in one dimension of
    /// length `len`: `Some(true)` = up (East/South), `Some(false)` = down,
    /// `None` = already aligned. The way round through the seam is taken
    /// only when strictly shorter: equal distances break toward the
    /// *non-wrapping* direction, which is what makes forward and reverse
    /// routes retrace each other.
    fn toward(&self, at: u16, dst: u16, len: u16) -> Option<bool> {
        let d = at.abs_diff(dst);
        (d != 0).then_some((dst > at) == (!self.has_wrap() || d <= len - d))
    }

    /// The output port at router `at` for a packet whose destination
    /// *router* is `dst`, under dimension-order routing. Must not be
    /// called with `at == dst` (ejection is [`Topology::eject_port`],
    /// which needs the tile).
    fn min_route_port(&self, at: NodeId, dst: NodeId, algo: Routing) -> usize {
        debug_assert_ne!(at, dst, "min_route_port called at the destination");
        let (a, d) = (self.coord(at), self.coord(dst));
        let x_port = self
            .toward(a.x, d.x, self.width)
            .map(|up| if up { PORT_EAST } else { PORT_WEST });
        let y_port =
            self.toward(a.y, d.y, self.height)
                .map(|up| if up { PORT_SOUTH } else { PORT_NORTH });
        match algo {
            Routing::Xy => x_port.or(y_port),
            Routing::Yx => y_port.or(x_port),
        }
        .expect("at != dst, so one dimension differs")
    }

    /// The output port at router `at` for a packet heading to *tile*
    /// `dst`: the ejection port when `at` is the destination's router,
    /// the DOR port otherwise.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcsim_core::routing::Routing;
    /// use rcsim_core::{NodeId, Topology, PORT_EAST, PORT_LOCAL, PORT_SOUTH};
    ///
    /// let mesh = Topology::mesh(4, 4)?;
    /// // From n0 (0,0) to n5 (1,1): XY goes East first, YX goes South first.
    /// assert_eq!(mesh.next_hop_port(NodeId(0), NodeId(5), Routing::Xy), PORT_EAST);
    /// assert_eq!(mesh.next_hop_port(NodeId(0), NodeId(5), Routing::Yx), PORT_SOUTH);
    /// assert_eq!(mesh.next_hop_port(NodeId(5), NodeId(5), Routing::Xy), PORT_LOCAL);
    /// # Ok::<(), rcsim_core::ConfigError>(())
    /// ```
    pub fn next_hop_port(&self, at: NodeId, dst: NodeId, algo: Routing) -> usize {
        let dst_router = self.router_of(dst);
        if at == dst_router {
            self.eject_port(dst)
        } else {
            self.min_route_port(at, dst_router, algo)
        }
    }

    /// The full sequence of *routers* a packet visits between two tiles
    /// (inclusive of both endpoint routers).
    pub fn route_path(&self, src: NodeId, dst: NodeId, algo: Routing) -> Vec<NodeId> {
        let mut at = self.router_of(src);
        let dst_router = self.router_of(dst);
        let mut path = vec![at];
        while at != dst_router {
            let port = self.min_route_port(at, dst_router, algo);
            at = self
                .neighbor(at, port)
                .expect("min_route_port returned an edge-crossing port");
            path.push(at);
        }
        path
    }

    /// Dateline VC class of the downstream input VC for a hop arriving at
    /// router `downstream` out of network port `port`, for a packet whose
    /// destination router is `dst`: class 0 while the remaining travel in
    /// the hop's dimension still crosses the wrap link, class 1 once it no
    /// longer does. Stateless — derived from position alone — and always
    /// 1 on mesh/cmesh (which never restrict by class).
    pub fn vc_class(&self, downstream: NodeId, dst: NodeId, port: usize) -> usize {
        if !self.has_wrap() {
            return 1;
        }
        let m = self.coord(downstream);
        let d = self.coord(dst);
        let wraps_ahead = match port {
            // Going East (x grows, wraps w-1 -> 0): still ahead iff the
            // destination column is behind us in East order.
            PORT_EAST => d.x < m.x,
            PORT_WEST => d.x > m.x,
            PORT_SOUTH => d.y < m.y,
            PORT_NORTH => d.y > m.y,
            _ => false,
        };
        usize::from(!wraps_ahead)
    }

    /// The network port leading from router `a` to adjacent router `b`,
    /// or `None` when the two are not neighbours (scanned E, W, N, S).
    pub fn port_between(&self, a: NodeId, b: NodeId) -> Option<usize> {
        SCAN_ORDER
            .into_iter()
            .find(|&p| self.neighbor(a, p) == Some(b))
    }

    /// The output port at router `at` for a packet following a recorded
    /// router `path` toward tile `dst`: the ejection port at the path's
    /// end, `None` when `at` is not on the path or the recorded successor
    /// is not adjacent (caller falls back to plain DOR).
    pub fn next_hop_on_path(&self, path: &[NodeId], at: NodeId, dst: NodeId) -> Option<usize> {
        let i = path.iter().position(|&n| n == at)?;
        match path.get(i + 1) {
            None => Some(self.eject_port(dst)),
            Some(&next) => self.port_between(at, next),
        }
    }

    /// Shortest healthy router path between the routers of two tiles,
    /// avoiding dead links, or `None` when the degraded network is
    /// disconnected between the two. Breadth-first in the fixed E/W/N/S
    /// order, so the detour is fully deterministic. Detours are *not*
    /// restricted to dimension order or to any turn model, so deadlock
    /// freedom is not guaranteed on a degraded network, and single-fault
    /// detours can close one: on a 4×4 mesh with one dead link, the
    /// circuit mechanisms' one buffered reply VC wedges in a six-router
    /// wait-for cycle of packet-switched replies (ROADMAP item 2). The
    /// watchdog catches such wedges.
    pub fn route_path_healthy(
        &self,
        src: NodeId,
        dst: NodeId,
        topo: &TopologyHealth,
    ) -> Option<Vec<NodeId>> {
        let src = self.router_of(src);
        let dst = self.router_of(dst);
        if src == dst {
            return Some(vec![src]);
        }
        // `prev[router]` is the router it was first reached from (the
        // start: itself), `UNSEEN` until it is.
        const UNSEEN: u32 = u32::MAX;
        let start = src.index();
        let mut prev = vec![UNSEEN; self.routers()];
        prev[start] = start as u32;
        let mut frontier = VecDeque::from([src]);
        while let Some(at) = frontier.pop_front() {
            for port in SCAN_ORDER {
                let Some(nb) = self.neighbor(at, port) else {
                    continue;
                };
                if prev[nb.index()] != UNSEEN || !topo.link_usable(at, nb) {
                    continue;
                }
                prev[nb.index()] = at.index() as u32;
                if nb == dst {
                    let mut path = vec![dst, at];
                    let mut r = at.index();
                    while r != start {
                        r = prev[r] as usize;
                        path.push(NodeId(r as u16));
                    }
                    path.reverse();
                    return Some(path);
                }
                frontier.push_back(nb);
            }
        }
        None
    }

    /// The tiles where external open-loop traffic enters the chip: every
    /// tile whose router sits in the leftmost grid column (`x == 0`), top
    /// to bottom — datacenter-style CMPs pin I/O at one physical edge of
    /// the die. A ring's single row pins ingress at node 0.
    pub fn edge_nodes(&self) -> Vec<NodeId> {
        let mut edge = Vec::new();
        for y in 0..self.height {
            let router = self.router_at(Coord { x: 0, y });
            for slot in 0..self.concentration() {
                edge.push(self.tile_of(router, slot));
            }
        }
        edge
    }

    /// The tiles holding memory controllers: four, a quarter of the way in
    /// from each end of the top and bottom rows as in the paper (Table 2;
    /// a concentrated router contributes its slot-0 tile). A ring has no
    /// rows to speak of and spreads its four evenly around the
    /// circumference.
    pub fn memory_controller_tiles(&self) -> Vec<NodeId> {
        match self.shape {
            TopologySpec::Ring => {
                let mut tiles: Vec<NodeId> = (0..4u32)
                    .map(|i| NodeId((i * self.width as u32 / 4) as u16))
                    .collect();
                tiles.dedup();
                tiles
            }
            _ => {
                let (w, h) = (self.width, self.height);
                let q = (w / 4).max(1).min(w - 1);
                [(q, 0), (w - 1 - q, 0), (q, h - 1), (w - 1 - q, h - 1)]
                    .into_iter()
                    .map(|(x, y)| self.tile_of(self.router_at(Coord { x, y }), 0))
                    .collect()
            }
        }
    }
}

/// A topology's *shape*. [`SimConfig`](https://docs.rs/rcsim-system)
/// carries only this beside its `cores` knob; [`TopologySpec::build`]
/// finds the grid.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Plain 2-D mesh (the default; serialization omits it so old cache
    /// keys and goldens stay valid).
    #[default]
    Mesh,
    /// 2-D torus on the same grid a mesh would use.
    Torus,
    /// Concentrated mesh with the given tiles-per-router.
    CMesh {
        /// Tiles per router.
        concentration: u16,
    },
    /// 1-D bidirectional ring over all cores.
    Ring,
}

impl TopologySpec {
    /// `true` for the default mesh spec (used by `skip_serializing_if` to
    /// keep default configurations byte-identical on disk).
    pub fn is_mesh(&self) -> bool {
        matches!(self, TopologySpec::Mesh)
    }

    /// Short label for bench rows.
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Mesh => "mesh".to_owned(),
            TopologySpec::Torus => "torus".to_owned(),
            TopologySpec::CMesh { concentration } => format!("cmesh-{concentration}"),
            TopologySpec::Ring => "ring".to_owned(),
        }
    }

    /// Builds the concrete topology for `cores` tiles: a ring over all of
    /// them, or the most nearly square grid with exactly that many tiles
    /// (16 → 4×4, 32 → 8×4, a prime → `n × 1`).
    ///
    /// # Errors
    ///
    /// Returns the dimension errors of the topology constructors (zero
    /// cores, node-id overflow) and [`ConfigError::Concentration`] for a
    /// core count a cmesh concentration does not divide.
    pub fn build(&self, cores: u16) -> Result<Topology, ConfigError> {
        let concentration = match *self {
            TopologySpec::Ring => return Topology::ring(cores),
            TopologySpec::CMesh { concentration } => concentration,
            TopologySpec::Mesh | TopologySpec::Torus => 1,
        };
        if concentration == 0 || !cores.is_multiple_of(concentration) {
            return Err(ConfigError::Concentration {
                cores,
                concentration,
            });
        }
        // In u32: `h * h` passes u16::MAX before the search ends.
        let routers = u32::from(cores / concentration);
        let height = (1..=routers)
            .take_while(|h| h * h <= routers)
            .filter(|h| routers.is_multiple_of(*h))
            .last()
            .unwrap_or(1);
        Topology::new(*self, (routers / height) as u16, height as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::path_is_healthy;

    fn all_topologies() -> Vec<Topology> {
        vec![
            Topology::mesh(4, 4).unwrap(),
            Topology::mesh(5, 3).unwrap(),
            Topology::torus(4, 4).unwrap(),
            Topology::torus(5, 3).unwrap(),
            Topology::cmesh(4, 2, 4).unwrap(),
            Topology::ring(16).unwrap(),
            Topology::ring(7).unwrap(),
        ]
    }

    #[test]
    fn constructors_validate() {
        assert_eq!(Topology::mesh(0, 4), Err(ConfigError::EmptyMesh));
        assert_eq!(Topology::mesh(4, 0), Err(ConfigError::EmptyMesh));
        assert_eq!(Topology::mesh(300, 300), Err(ConfigError::MeshTooLarge));
        assert!(Topology::torus(0, 4).is_err());
        assert_eq!(Topology::cmesh(4, 4, 0), Err(ConfigError::EmptyMesh));
        assert_eq!(Topology::cmesh(256, 256, 4), Err(ConfigError::MeshTooLarge));
        assert_eq!(Topology::cmesh(255, 255, 2), Err(ConfigError::MeshTooLarge));
        assert!(Topology::ring(1).is_err());
        assert!(Topology::ring(2).is_ok());
    }

    #[test]
    fn mesh_4x4_by_hand() {
        let t = Topology::mesh(4, 4).unwrap();
        assert_eq!((t.nodes(), t.routers(), t.ports()), (16, 16, 5));
        assert_eq!(t.neighbor(NodeId(0), PORT_NORTH), None);
        assert_eq!(t.neighbor(NodeId(0), PORT_WEST), None);
        assert_eq!(t.neighbor(NodeId(0), PORT_EAST), Some(NodeId(1)));
        assert_eq!(t.neighbor(NodeId(0), PORT_SOUTH), Some(NodeId(4)));
        assert_eq!(t.neighbor(NodeId(15), PORT_SOUTH), None);
        assert_eq!(t.neighbor(NodeId(15), PORT_EAST), None);
        assert_eq!(t.neighbor(NodeId(5), PORT_LOCAL), None);
        for r in t.iter_routers() {
            assert_eq!(t.eject_port(r), PORT_LOCAL);
            assert_eq!(t.next_hop_port(r, r, Routing::Xy), PORT_LOCAL);
            assert_eq!(t.next_hop_port(r, r, Routing::Yx), PORT_LOCAL);
        }
        // n0 = (0,0), n10 = (2,2): XY goes x first, YX y first.
        assert_eq!(
            t.route_path(NodeId(0), NodeId(10), Routing::Xy),
            [0, 1, 2, 6, 10].map(NodeId)
        );
        assert_eq!(
            t.route_path(NodeId(0), NodeId(10), Routing::Yx),
            [0, 4, 8, 9, 10].map(NodeId)
        );
        let big = Topology::mesh(8, 8).unwrap();
        assert_eq!(big.distance(NodeId(0), NodeId(0)), 0);
        assert_eq!(big.distance(NodeId(0), NodeId(63)), 14);
        assert_eq!(big.distance(NodeId(0), NodeId(7)), 7);
        assert_eq!(big.distance(NodeId(7), NodeId(0)), 7);
    }

    #[test]
    fn coord_roundtrip() {
        for t in all_topologies() {
            for r in t.iter_routers() {
                assert_eq!(t.router_at(t.coord(r)), r, "{t:?}");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn coord_out_of_range_panics() {
        Topology::mesh(2, 2).unwrap().coord(NodeId(4));
    }

    #[test]
    fn neighbor_links_are_symmetric() {
        for t in all_topologies() {
            for r in t.iter_routers() {
                for (port, opp) in [
                    (PORT_NORTH, PORT_SOUTH),
                    (PORT_EAST, PORT_WEST),
                    (PORT_SOUTH, PORT_NORTH),
                    (PORT_WEST, PORT_EAST),
                ] {
                    if let Some(nb) = t.neighbor(r, port) {
                        assert_eq!(t.neighbor(nb, opp), Some(r), "{t:?} r={r} port={port}");
                        assert_eq!(
                            t.is_wrap_hop(r, port),
                            t.is_wrap_hop(nb, opp),
                            "{t:?} r={r} port={port}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn paths_are_minimal_and_terminate() {
        for t in all_topologies() {
            for s in t.iter_tiles() {
                for d in t.iter_tiles() {
                    for algo in [Routing::Xy, Routing::Yx] {
                        let p = t.route_path(s, d, algo);
                        assert_eq!(p.len() as u32, t.hop_count(s, d) + 1, "{t:?} s={s} d={d}");
                        assert_eq!(p.first(), Some(&t.router_of(s)));
                        assert_eq!(p.last(), Some(&t.router_of(d)));
                        for w in p.windows(2) {
                            assert_eq!(t.distance(w[0], w[1]), 1, "{t:?} non-adjacent hop");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn xy_forward_equals_yx_reverse_everywhere() {
        // The property circuit reservation rests on (§4.1): the reply's YX
        // path visits exactly the request's XY routers, reversed.
        for t in all_topologies() {
            for s in t.iter_tiles() {
                for d in t.iter_tiles() {
                    let fwd = t.route_path(s, d, Routing::Xy);
                    let mut back = t.route_path(d, s, Routing::Yx);
                    back.reverse();
                    assert_eq!(fwd, back, "{t:?} s={s} d={d}");
                }
            }
        }
    }

    #[test]
    fn torus_distance_uses_wraparound() {
        let t = Topology::torus(4, 4).unwrap();
        assert_eq!(t.distance(NodeId(0), NodeId(3)), 1); // wrap West
        assert_eq!(t.distance(NodeId(0), NodeId(12)), 1); // wrap North
        assert_eq!(t.distance(NodeId(0), NodeId(15)), 2);
        let r = Topology::ring(8).unwrap();
        assert_eq!(r.distance(NodeId(0), NodeId(7)), 1);
        assert_eq!(r.distance(NodeId(1), NodeId(5)), 4);
    }

    #[test]
    fn wrap_hops_only_at_the_seam() {
        let t = Topology::torus(4, 4).unwrap();
        assert!(t.is_wrap_hop(NodeId(3), PORT_EAST));
        assert!(t.is_wrap_hop(NodeId(0), PORT_WEST));
        assert!(t.is_wrap_hop(NodeId(0), PORT_NORTH));
        assert!(t.is_wrap_hop(NodeId(12), PORT_SOUTH));
        assert!(!t.is_wrap_hop(NodeId(1), PORT_EAST));
        for m in [
            Topology::mesh(4, 4).unwrap(),
            Topology::cmesh(4, 2, 4).unwrap(),
        ] {
            assert!(!m.has_wrap());
            for r in m.iter_routers() {
                for p in 0..m.ports() {
                    assert!(!m.is_wrap_hop(r, p));
                }
            }
        }
        let r = Topology::ring(8).unwrap();
        assert!(r.is_wrap_hop(NodeId(7), PORT_EAST));
        assert!(r.is_wrap_hop(NodeId(0), PORT_WEST));
        assert!(!r.is_wrap_hop(NodeId(3), PORT_EAST));
    }

    #[test]
    fn dateline_class_flips_after_the_wrap() {
        let t = Topology::torus(4, 4).unwrap();
        // Node 2 -> node 1 going East wraps at x=3: before the wrap the
        // remaining path still crosses it (class 0), after it does not.
        assert_eq!(t.vc_class(NodeId(3), NodeId(1), PORT_EAST), 0);
        assert_eq!(t.vc_class(NodeId(0), NodeId(1), PORT_EAST), 1);
        // Non-wrapping journeys are class 1 from the start.
        assert_eq!(t.vc_class(NodeId(1), NodeId(3), PORT_EAST), 1);
        // Mesh never restricts.
        let m = Topology::mesh(4, 4).unwrap();
        assert_eq!(m.vc_class(NodeId(1), NodeId(3), PORT_EAST), 1);
    }

    #[test]
    fn cmesh_identity_spaces() {
        let t = Topology::cmesh(4, 2, 4).unwrap();
        assert_eq!(t.nodes(), 32);
        assert_eq!(t.routers(), 8);
        assert_eq!(t.ports(), 8);
        assert_eq!(t.router_of(NodeId(13)), NodeId(3));
        assert_eq!(t.local_slot(NodeId(13)), 1);
        assert_eq!(t.tile_of(NodeId(3), 1), NodeId(13));
        assert_eq!(t.eject_port(NodeId(13)), PORT_LOCAL + 1);
        // Tiles on the same router are zero hops apart.
        assert_eq!(t.hop_count(NodeId(12), NodeId(13)), 0);
        assert_eq!(t.route_path(NodeId(12), NodeId(13), Routing::Xy).len(), 1);
    }

    /// Everything a ring answers, the `n × 1` torus answers alike — but
    /// its name and where its memory controllers sit.
    #[test]
    fn ring_is_the_one_row_torus() {
        for n in [2u16, 3, 7, 16] {
            let (ring, torus) = (Topology::ring(n).unwrap(), Topology::torus(n, 1).unwrap());
            assert_eq!(ring.dims(), torus.dims());
            assert_eq!(ring.nodes(), torus.nodes());
            assert_eq!(ring.routers(), torus.routers());
            assert_eq!(ring.ports(), torus.ports());
            assert_eq!(ring.has_wrap(), torus.has_wrap());
            assert_eq!(ring.edge_nodes(), torus.edge_nodes());
            let mut health = TopologyHealth::new();
            health.kill_link(NodeId(0), NodeId(1));
            for a in ring.iter_routers() {
                assert_eq!(ring.coord(a), torus.coord(a));
                assert_eq!(ring.router_of(a), torus.router_of(a));
                assert_eq!(ring.eject_port(a), torus.eject_port(a));
                for port in 0..ring.ports() {
                    assert_eq!(ring.neighbor(a, port), torus.neighbor(a, port));
                    assert_eq!(ring.is_wrap_hop(a, port), torus.is_wrap_hop(a, port));
                }
                for b in ring.iter_routers() {
                    assert_eq!(ring.distance(a, b), torus.distance(a, b));
                    assert_eq!(ring.port_between(a, b), torus.port_between(a, b));
                    assert_eq!(
                        ring.route_path_healthy(a, b, &health),
                        torus.route_path_healthy(a, b, &health)
                    );
                    for port in 0..PORT_LOCAL {
                        assert_eq!(ring.vc_class(a, b, port), torus.vc_class(a, b, port));
                    }
                    for algo in [Routing::Xy, Routing::Yx] {
                        assert_eq!(
                            ring.next_hop_port(a, b, algo),
                            torus.next_hop_port(a, b, algo)
                        );
                        assert_eq!(ring.route_path(a, b, algo), torus.route_path(a, b, algo));
                    }
                }
            }
        }
    }

    #[test]
    fn edge_nodes_cover_column_zero() {
        let t = Topology::cmesh(4, 2, 4).unwrap();
        let edge = t.edge_nodes();
        assert_eq!(edge.len(), 8); // 2 rows x 4 tiles
        for n in &edge {
            assert_eq!(t.coord(t.router_of(*n)).x, 0);
        }
        assert_eq!(Topology::ring(8).unwrap().edge_nodes(), vec![NodeId(0)]);
        assert_eq!(Topology::torus(4, 4).unwrap().edge_nodes().len(), 4);
        // Height-many entries, top to bottom, on a non-square mesh.
        assert_eq!(
            Topology::mesh(8, 4).unwrap().edge_nodes(),
            [0, 8, 16, 24].map(NodeId)
        );
    }

    #[test]
    fn memory_controllers_exist_and_are_distinct() {
        for t in all_topologies() {
            let mcs = t.memory_controller_tiles();
            assert!(!mcs.is_empty(), "{t:?}");
            let mut sorted = mcs.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), mcs.len(), "{t:?} duplicate MC tiles");
            for mc in &mcs {
                assert!(mc.index() < t.nodes());
            }
        }
        // The paper's chips: four controllers, on the top and bottom rows.
        for cores in [16u16, 64] {
            let t = TopologySpec::Mesh.build(cores).unwrap();
            let mcs = t.memory_controller_tiles();
            assert_eq!(mcs.len(), 4);
            for mc in mcs {
                let y = t.coord(mc).y;
                assert!(y == 0 || y == t.dims().1 - 1, "mc {mc} not on an edge row");
            }
        }
    }

    #[test]
    fn healthy_search_is_minimal_on_a_healthy_network() {
        for t in all_topologies() {
            let health = TopologyHealth::new();
            for s in t.iter_tiles() {
                for d in t.iter_tiles() {
                    let p = t.route_path_healthy(s, d, &health).unwrap();
                    assert_eq!(p.first(), Some(&t.router_of(s)));
                    assert_eq!(p.last(), Some(&t.router_of(d)));
                    assert_eq!(p.len() as u32, t.hop_count(s, d) + 1, "{t:?} s={s} d={d}");
                    assert!(path_is_healthy(&t.route_path(s, d, Routing::Xy), &health));
                }
            }
        }
    }

    #[test]
    fn dead_link_breaks_path_and_search_detours() {
        let m = Topology::mesh(4, 4).unwrap();
        let mut topo = TopologyHealth::new();
        // Kill the (1)-(2) link on n0 -> n10's XY path.
        topo.kill_link(NodeId(2), NodeId(1));
        assert!(topo.is_degraded());
        assert!(!topo.link_usable(NodeId(1), NodeId(2)));
        let dor = m.route_path(NodeId(0), NodeId(10), Routing::Xy);
        assert!(!path_is_healthy(&dor, &topo));

        let detour = m.route_path_healthy(NodeId(0), NodeId(10), &topo).unwrap();
        assert_eq!(detour.first(), Some(&NodeId(0)));
        assert_eq!(detour.last(), Some(&NodeId(10)));
        assert!(path_is_healthy(&detour, &topo));
        // Single dead link off the bounding box: detour stays minimal.
        assert_eq!(detour.len() as u32, m.distance(NodeId(0), NodeId(10)) + 1);
        assert!(path_is_healthy(&dor, &TopologyHealth::new()));
    }

    /// Kills every link of router `r`.
    fn isolate(t: &Topology, topo: &mut TopologyHealth, r: NodeId) {
        for port in 0..PORT_LOCAL {
            if let Some(nb) = t.neighbor(r, port) {
                topo.kill_link(r, nb);
            }
        }
    }

    #[test]
    fn disconnected_corner_returns_none() {
        // Cut every link of router 0: the mesh corner's two, the torus
        // corner's four, the ring node's two.
        for t in all_topologies() {
            let mut topo = TopologyHealth::new();
            isolate(&t, &mut topo, NodeId(0));
            let far = NodeId(t.nodes() as u16 - 1);
            assert!(t.route_path_healthy(NodeId(0), far, &topo).is_none());
            assert!(t.route_path_healthy(far, NodeId(0), &topo).is_none());
        }
    }

    #[test]
    fn detours_are_deterministic_and_healthy() {
        for t in [
            Topology::mesh(8, 8).unwrap(),
            Topology::torus(8, 8).unwrap(),
            Topology::cmesh(8, 8, 1).unwrap(),
            Topology::ring(64).unwrap(),
        ] {
            let mut topo = TopologyHealth::new();
            topo.kill_link(NodeId(9), NodeId(10));
            isolate(&t, &mut topo, NodeId(27));
            for s in t.iter_tiles() {
                for d in [0u16, 7, 35, 63].map(NodeId) {
                    let a = t.route_path_healthy(s, d, &topo);
                    assert_eq!(a, t.route_path_healthy(s, d, &topo), "{t:?} s={s} d={d}");
                    // The two faults cut a ring into the arcs 10..=26 and
                    // 28..=9; a grid stays connected around them.
                    let same_arc = (10..27).contains(&s.0) == (10..27).contains(&d.0);
                    let connected = s != NodeId(27) && (t.dims().1 > 1 || same_arc);
                    assert_eq!(a.is_some(), connected, "{t:?} s={s} d={d}");
                    assert!(a.is_none_or(|p| path_is_healthy(&p, &topo)));
                }
            }
        }
    }

    #[test]
    fn next_hop_on_path_follows_recording() {
        let m = Topology::mesh(4, 4).unwrap();
        let p = [0, 1, 5, 6].map(NodeId);
        let dst = NodeId(6);
        assert_eq!(m.next_hop_on_path(&p, NodeId(0), dst), Some(PORT_EAST));
        assert_eq!(m.next_hop_on_path(&p, NodeId(1), dst), Some(PORT_SOUTH));
        assert_eq!(m.next_hop_on_path(&p, NodeId(6), dst), Some(PORT_LOCAL));
        // Off-path routers fall back to DOR (None).
        assert_eq!(m.next_hop_on_path(&p, NodeId(9), dst), None);
        // Non-adjacent successor (corrupt recording) also falls back.
        let bad = [NodeId(0), NodeId(10)];
        assert_eq!(m.next_hop_on_path(&bad, NodeId(0), NodeId(10)), None);
    }

    #[test]
    fn spec_builds_expected_shapes() {
        for (cores, grid) in [
            (16, (4, 4)),
            (32, (8, 4)),
            (64, (8, 8)),
            (7, (7, 1)),
            (1024, (32, 32)),
        ] {
            assert_eq!(
                TopologySpec::Mesh.build(cores).unwrap(),
                Topology::mesh(grid.0, grid.1).unwrap()
            );
            assert_eq!(
                TopologySpec::Torus.build(cores).unwrap(),
                Topology::torus(grid.0, grid.1).unwrap()
            );
        }
        assert_eq!(
            TopologySpec::CMesh { concentration: 4 }.build(64).unwrap(),
            Topology::cmesh(4, 4, 4).unwrap()
        );
        assert_eq!(
            TopologySpec::Ring.build(64).unwrap(),
            Topology::ring(64).unwrap()
        );
        assert_eq!(TopologySpec::Mesh.build(0), Err(ConfigError::EmptyMesh));
        // 1024 cores: the scale regime the bench opens.
        assert_eq!(
            TopologySpec::CMesh { concentration: 4 }
                .build(1024)
                .unwrap()
                .routers(),
            256
        );
    }

    #[test]
    fn spec_default_is_mesh_and_skippable() {
        assert!(TopologySpec::default().is_mesh());
        assert!(!TopologySpec::Ring.is_mesh());
        assert_eq!(TopologySpec::CMesh { concentration: 4 }.label(), "cmesh-4");
        assert_eq!(Topology::cmesh(4, 4, 4).unwrap().label(), "cmesh-4");
    }

    #[test]
    fn spec_serde_forms_match_docs() {
        // README documents these exact on-disk forms (the default Mesh is
        // additionally omitted at the SimConfig level via
        // skip_serializing_if, so old configs stay byte-identical).
        assert_eq!(
            serde_json::from_str::<TopologySpec>("\"Torus\"").unwrap(),
            TopologySpec::Torus
        );
        assert_eq!(
            serde_json::from_str::<TopologySpec>(r#"{"CMesh":{"concentration":4}}"#).unwrap(),
            TopologySpec::CMesh { concentration: 4 }
        );
        for spec in [
            TopologySpec::Mesh,
            TopologySpec::Torus,
            TopologySpec::CMesh { concentration: 4 },
            TopologySpec::Ring,
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: TopologySpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "round-trip of {json}");
        }
    }
}
