//! The chip's geometry: one `width × height` router grid whose *shape* —
//! mesh or torus — says whether its edges wrap. Both shapes keep the
//! paper's port model and the path-symmetry guarantee circuit reservation
//! rests on (§4.1).
//!
//! # Port model
//!
//! Every router has five ports with fixed indices: the four network
//! ports — North `0`, East `1`, South `2`, West `3` — and the local port
//! `4`. A tile *is* its router: tile `t` (its core, caches and NI) hangs
//! off router `t` through the local port, and both are numbered
//! row-major, so [`TopologyHealth`] and fault events name tiles too.
//!
//! # Wraparound and deadlock (dateline rule)
//!
//! Torus links wrap. Three rules keep them deadlock-free
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
//!    close a cycle around a wrapped dimension.

use crate::config::ConfigError;
use crate::routing::{Routing, TopologyHealth};
use crate::types::{Coord, NodeId, Vnet};
use serde::{Deserialize, Serialize};

/// North network port. The four network ports come first; the local port
/// follows.
pub const PORT_NORTH: usize = 0;
/// East network port.
pub const PORT_EAST: usize = 1;
/// South network port.
pub const PORT_SOUTH: usize = 2;
/// West network port.
pub const PORT_WEST: usize = 3;
/// The local (injection/ejection) port.
pub const PORT_LOCAL: usize = 4;
/// Ports per router: the four network ports and the local port.
pub const PORTS: usize = PORT_LOCAL + 1;

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
    /// Rows of the router grid.
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
        let tiles = u64::from(width) * u64::from(height);
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

    /// Short label for bench rows and reports (the shape's).
    pub fn label(&self) -> String {
        self.shape.label()
    }

    /// Number of tiles, one per router (and so of routers).
    pub fn nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Number of routers: [`Topology::nodes`].
    pub fn routers(&self) -> usize {
        self.nodes()
    }

    /// `true` for the torus, whose wraparound links need the dateline VC
    /// classes and the extra reply VC.
    #[inline]
    pub fn has_wrap(&self) -> bool {
        self.shape == TopologySpec::Torus
    }

    /// The router grid dimensions `(width, height)`.
    pub fn dims(&self) -> (u16, u16) {
        (self.width, self.height)
    }

    /// Iterator over all router (and tile) ids, row-major.
    pub fn iter_routers(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes() as u16).map(NodeId)
    }

    /// Coordinate of a router on the grid.
    #[inline]
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
    #[inline]
    pub fn router_at(&self, c: Coord) -> NodeId {
        NodeId(c.y * self.width + c.x)
    }

    /// One step from position `at` along a dimension of length `len`, up
    /// (East/South) or down: the new position and whether the step crossed
    /// the wraparound seam, or `None` off an edge that does not wrap (every
    /// edge of a mesh; both ends of a dimension of length one).
    #[inline]
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
    #[inline]
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

    /// The neighbouring router out of a network port, or `None` at a
    /// mesh edge, for the local port, or along a dimension of length one.
    #[inline]
    pub fn neighbor(&self, router: NodeId, port: usize) -> Option<NodeId> {
        self.hop(router, port).map(|(to, _)| to)
    }

    /// `true` when the hop out of `port` at `router` crosses a wraparound
    /// link (the torus dateline). Always `false` on a mesh.
    pub fn is_wrap_hop(&self, router: NodeId, port: usize) -> bool {
        self.has_wrap() && self.hop(router, port).is_some_and(|(_, wrap)| wrap)
    }

    /// Minimal hop distance between two routers.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let span = |a: u16, b: u16, len: u16| {
            let d = a.abs_diff(b);
            u32::from(if self.has_wrap() { d.min(len - d) } else { d })
        };
        let (a, b) = (self.coord(a), self.coord(b));
        span(a.x, b.x, self.width) + span(a.y, b.y, self.height)
    }

    /// Minimal direction of travel from `at` to `dst` in one dimension of
    /// length `len`: `Some(true)` = up (East/South), `Some(false)` = down,
    /// `None` = already aligned. The way round through the seam is taken
    /// only when strictly shorter: equal distances break toward the
    /// *non-wrapping* direction, which is what makes forward and reverse
    /// routes retrace each other.
    #[inline]
    fn toward(&self, at: u16, dst: u16, len: u16) -> Option<bool> {
        let d = at.abs_diff(dst);
        (d != 0).then_some((dst > at) == (!self.has_wrap() || d <= len - d))
    }

    /// The output port at router `at` for a packet whose destination
    /// router is `dst`, under dimension-order routing. Must not be
    /// called with `at == dst` (that packet ejects through
    /// [`PORT_LOCAL`]).
    #[inline]
    pub fn min_route_port(&self, at: NodeId, dst: NodeId, algo: Routing) -> usize {
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

    /// The full sequence of routers a packet visits between two tiles
    /// (inclusive of both endpoints).
    pub fn route_path(&self, src: NodeId, dst: NodeId, algo: Routing) -> Vec<NodeId> {
        let mut at = src;
        let mut path = vec![at];
        while at != dst {
            let port = self.min_route_port(at, dst, algo);
            at = self
                .neighbor(at, port)
                .expect("min_route_port returned an edge-crossing port");
            path.push(at);
        }
        path
    }

    /// The one routing decision: the output port at router `at` for a
    /// packet that arrived through input port `in_port`, heading to tile
    /// `dst` on `vnet` — dimension order, or `health`'s up*/down* table when
    /// its source NI set the `detour` bit ([`TopologyHealth::detours`]).
    /// A detoured packet cut off from `dst` keeps DOR and is retried.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcsim_core::{NodeId, Topology, TopologyHealth, Vnet};
    /// use rcsim_core::{PORT_EAST, PORT_LOCAL as INJECTED, PORT_SOUTH};
    ///
    /// let (mesh, health) = (Topology::mesh(4, 4)?, TopologyHealth::new());
    /// let hop = |at, vnet| mesh.route(NodeId(at), INJECTED, NodeId(5), vnet, false, &health);
    /// // From n0 (0,0) to n5 (1,1): requests go East first, replies South.
    /// assert_eq!(hop(0, Vnet::Request), PORT_EAST);
    /// assert_eq!(hop(0, Vnet::Reply), PORT_SOUTH);
    /// assert_eq!(hop(5, Vnet::Request), INJECTED); // ejects
    /// # Ok::<(), rcsim_core::ConfigError>(())
    /// ```
    #[inline]
    pub fn route(
        &self,
        at: NodeId,
        in_port: usize,
        dst: NodeId,
        vnet: Vnet,
        detour: bool,
        health: &TopologyHealth,
    ) -> usize {
        if at == dst {
            return PORT_LOCAL;
        }
        let table = detour.then(|| health.next_port(at, self.neighbor(at, in_port), dst));
        (table.flatten()).unwrap_or_else(|| self.min_route_port(at, dst, Routing::for_vnet(vnet)))
    }

    /// Dateline VC class of the downstream input VC for a hop arriving at
    /// router `downstream` out of network port `port`, for a packet whose
    /// destination is `dst`: class 0 while the remaining travel in
    /// the hop's dimension still crosses the wrap link, class 1 once it no
    /// longer does. Stateless — derived from position alone — and always
    /// 1 on a mesh (which never restricts by class).
    #[inline]
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

    /// The tiles where external open-loop traffic enters the chip: every
    /// tile in the leftmost grid column (`x == 0`), top to bottom —
    /// datacenter-style CMPs pin I/O at one physical edge of the die.
    pub fn edge_nodes(&self) -> Vec<NodeId> {
        (0..self.height)
            .map(|y| self.router_at(Coord { x: 0, y }))
            .collect()
    }

    /// The tiles holding memory controllers: four, a quarter of the way in
    /// from each end of the top and bottom rows as in the paper (Table 2).
    pub fn memory_controller_tiles(&self) -> Vec<NodeId> {
        let (w, h) = (self.width, self.height);
        let q = (w / 4).max(1).min(w - 1);
        [(q, 0), (w - 1 - q, 0), (q, h - 1), (w - 1 - q, h - 1)]
            .into_iter()
            .map(|(x, y)| self.router_at(Coord { x, y }))
            .collect()
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
        }
    }

    /// Builds the concrete topology for `cores` tiles: the most nearly
    /// square grid with exactly that many (16 → 4×4, 32 → 8×4, a prime →
    /// `n × 1`).
    ///
    /// # Errors
    ///
    /// Returns the dimension errors of the topology constructors (zero
    /// cores).
    pub fn build(&self, cores: u16) -> Result<Topology, ConfigError> {
        // In u32: `h * h` passes u16::MAX before the search ends.
        let routers = u32::from(cores);
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

    /// The routers a packet from tile `s` to tile `d` on `vnet` visits
    /// under [`Topology::route`], or `None` where it would cross a dead
    /// link.
    fn walk(
        t: &Topology,
        health: &TopologyHealth,
        s: NodeId,
        d: NodeId,
        vnet: Vnet,
    ) -> Option<Vec<NodeId>> {
        let detour = health.detours(t, s, d, vnet);
        let (mut at, mut in_port) = (s, PORT_LOCAL);
        let mut path = vec![at];
        while at != d {
            let port = t.route(at, in_port, d, vnet, detour, health);
            let nb = t.neighbor(at, port).expect("routes stay on the grid");
            if !health.link_usable(at, nb) {
                return None;
            }
            assert!(path.len() <= 2 * t.routers(), "{t:?} {s} -> {d} loops");
            (at, in_port) = (nb, port ^ 2);
            path.push(at);
        }
        Some(path)
    }

    fn all_topologies() -> Vec<Topology> {
        vec![
            Topology::mesh(4, 4).unwrap(),
            Topology::mesh(5, 3).unwrap(),
            Topology::torus(4, 4).unwrap(),
            Topology::torus(5, 3).unwrap(),
        ]
    }

    #[test]
    fn constructors_validate() {
        assert_eq!(Topology::mesh(0, 4), Err(ConfigError::EmptyMesh));
        assert_eq!(Topology::mesh(4, 0), Err(ConfigError::EmptyMesh));
        assert_eq!(Topology::mesh(300, 300), Err(ConfigError::MeshTooLarge));
        assert!(Topology::torus(0, 4).is_err());
    }

    #[test]
    fn mesh_4x4_by_hand() {
        let t = Topology::mesh(4, 4).unwrap();
        assert_eq!((t.nodes(), t.routers()), (16, 16));
        assert_eq!(t.neighbor(NodeId(0), PORT_NORTH), None);
        assert_eq!(t.neighbor(NodeId(0), PORT_WEST), None);
        assert_eq!(t.neighbor(NodeId(0), PORT_EAST), Some(NodeId(1)));
        assert_eq!(t.neighbor(NodeId(0), PORT_SOUTH), Some(NodeId(4)));
        assert_eq!(t.neighbor(NodeId(15), PORT_SOUTH), None);
        assert_eq!(t.neighbor(NodeId(15), PORT_EAST), None);
        assert_eq!(t.neighbor(NodeId(5), PORT_LOCAL), None);
        for r in t.iter_routers() {
            for vnet in Vnet::ALL {
                let hop = t.route(r, PORT_LOCAL, r, vnet, false, &TopologyHealth::new());
                assert_eq!(hop, PORT_LOCAL);
            }
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
            for s in t.iter_routers() {
                for d in t.iter_routers() {
                    for algo in [Routing::Xy, Routing::Yx] {
                        let p = t.route_path(s, d, algo);
                        assert_eq!(p.len() as u32, t.distance(s, d) + 1, "{t:?} s={s} d={d}");
                        assert_eq!(p.first(), Some(&s));
                        assert_eq!(p.last(), Some(&d));
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
            for s in t.iter_routers() {
                for d in t.iter_routers() {
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
        let r = Topology::torus(8, 1).unwrap();
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
        let m = Topology::mesh(4, 4).unwrap();
        assert!(!m.has_wrap());
        for r in m.iter_routers() {
            for p in 0..PORTS {
                assert!(!m.is_wrap_hop(r, p));
            }
        }
        let r = Topology::torus(8, 1).unwrap();
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
    fn edge_nodes_cover_column_zero() {
        let t = Topology::mesh(4, 2).unwrap();
        let edge = t.edge_nodes();
        assert_eq!(edge.len(), 2);
        for n in &edge {
            assert_eq!(t.coord(*n).x, 0);
        }
        assert_eq!(Topology::torus(8, 1).unwrap().edge_nodes(), vec![NodeId(0)]);
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
    fn a_healthy_chip_routes_in_dimension_order() {
        for t in all_topologies() {
            let health = TopologyHealth::new();
            for at in t.iter_routers() {
                for d in t.iter_routers() {
                    for vnet in Vnet::ALL {
                        let dor = match d {
                            d if d == at => PORT_LOCAL,
                            d => t.min_route_port(at, d, Routing::for_vnet(vnet)),
                        };
                        for in_port in 0..PORTS {
                            assert_eq!(t.route(at, in_port, d, vnet, false, &health), dor);
                        }
                        assert!(!health.detours(&t, at, d, vnet));
                    }
                }
            }
        }
    }

    #[test]
    fn a_dead_link_detours_the_pairs_whose_dor_path_crosses_it() {
        let m = Topology::mesh(4, 4).unwrap();
        let mut health = TopologyHealth::new();
        // Kill the (1)-(2) link on n0 -> n10's XY path.
        health.kill_link(&m, NodeId(2), NodeId(1));
        assert!(health.detours(&m, NodeId(0), NodeId(10), Vnet::Request));
        let detour = walk(&m, &health, NodeId(0), NodeId(10), Vnet::Request).unwrap();
        assert_eq!(
            (detour[0], detour[detour.len() - 1]),
            (NodeId(0), NodeId(10))
        );
        // Single dead link off the bounding box: the detour stays minimal.
        assert_eq!(detour.len() as u32, m.distance(NodeId(0), NodeId(10)) + 1);
        // A pair whose XY path misses the link keeps it.
        assert!(!health.detours(&m, NodeId(4), NodeId(7), Vnet::Request));
        assert_eq!(
            walk(&m, &health, NodeId(4), NodeId(7), Vnet::Request).unwrap(),
            m.route_path(NodeId(4), NodeId(7), Routing::Xy)
        );
    }

    /// Kills every link of router `r`.
    fn isolate(t: &Topology, topo: &mut TopologyHealth, r: NodeId) {
        for port in 0..PORT_LOCAL {
            if let Some(nb) = t.neighbor(r, port) {
                topo.kill_link(t, r, nb);
            }
        }
    }

    #[test]
    fn a_cut_off_router_has_no_table_route() {
        // Cut every link of router 0: the mesh corner's two, the torus
        // corner's four.
        for t in all_topologies() {
            let mut health = TopologyHealth::new();
            isolate(&t, &mut health, NodeId(0));
            let far = NodeId(t.nodes() as u16 - 1);
            assert_eq!(health.next_port(NodeId(0), None, far), None);
            assert_eq!(health.next_port(far, None, NodeId(0)), None);
            assert_eq!(walk(&t, &health, NodeId(0), far, Vnet::Request), None);
        }
    }

    #[test]
    fn detours_are_deterministic_and_healthy() {
        for t in [
            Topology::mesh(8, 8).unwrap(),
            Topology::torus(8, 8).unwrap(),
            Topology::torus(64, 1).unwrap(),
        ] {
            let mut topo = TopologyHealth::new();
            topo.kill_link(&t, NodeId(9), NodeId(10));
            isolate(&t, &mut topo, NodeId(27));
            let mut again = topo.clone();
            again.rebuild(&t);
            assert_eq!(again, topo, "{t:?}");
            for s in t.iter_routers() {
                for d in [0u16, 7, 35, 63].map(NodeId) {
                    let a = walk(&t, &topo, s, d, Vnet::Request);
                    // The two faults cut a one-row torus into the arcs
                    // 10..=26 and 28..=9; a grid stays connected around
                    // them.
                    let same_arc = (10..27).contains(&s.0) == (10..27).contains(&d.0);
                    let connected = s != NodeId(27) && (t.dims().1 > 1 || same_arc);
                    assert_eq!(a.is_some(), connected, "{t:?} s={s} d={d}");
                }
            }
        }
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
        assert_eq!(TopologySpec::Mesh.build(0), Err(ConfigError::EmptyMesh));
    }

    #[test]
    fn spec_default_is_mesh_and_skippable() {
        assert!(TopologySpec::default().is_mesh());
        assert!(!TopologySpec::Torus.is_mesh());
        assert_eq!(Topology::torus(4, 4).unwrap().label(), "torus");
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
        for spec in [TopologySpec::Mesh, TopologySpec::Torus] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: TopologySpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "round-trip of {json}");
        }
    }
}
