//! The geometry's oracle: every table a [`Topology`] answers from —
//! neighbours, wrap hops, distances, dimension-order routes, dateline
//! classes, ingress and memory-controller placement, fault detours —
//! hashed per shape and pinned. The values were generated by
//! the four-variant `enum Topology` (with its separate `Mesh` struct) that
//! preceded the one-struct geometry, so a rewrite of `topology.rs` is
//! checked against something that is not itself. The `detours` column
//! was regenerated once, by the code that still modelled dead routers,
//! when its dead router became a router with every link dead (a route
//! from that router to itself is `[router]`, where a dead router had
//! none); it then held unchanged across the deletion of dead routers. It
//! was regenerated a second time, again by the code it was to check, when
//! the turn-model congestion detours it also hashed were dropped from it,
//! and held unchanged across their deletion. A legitimate change prints
//! the new row in the failure message.

use rcsim_core::routing::{Routing, TopologyHealth};
use rcsim_core::{
    ConfigError, NodeId, Topology, TopologySpec, PORT_EAST, PORT_NORTH, PORT_SOUTH, PORT_WEST,
};

const NET_PORTS: [usize; 4] = [PORT_EAST, PORT_WEST, PORT_NORTH, PORT_SOUTH];
const ALGOS: [Routing; 2] = [Routing::Xy, Routing::Yx];

/// FNV-1a, 64-bit (`core` cannot see `rcsim_system::fnv1a_64`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A path (or placement list), length-prefixed; `None` hashes apart
    /// from every list.
    fn nodes(&mut self, nodes: Option<&[NodeId]>) {
        match nodes {
            None => self.word(u64::MAX),
            Some(nodes) => {
                self.word(nodes.len() as u64);
                nodes.iter().for_each(|n| self.word(u64::from(n.0)));
            }
        }
    }
}

/// Neighbour table and wrap hops over every port a router has, network
/// and local, plus the counts they are indexed by.
fn links(t: &Topology) -> u64 {
    let mut h = Fnv::new();
    for n in [t.nodes(), t.routers(), t.concentration(), t.ports()] {
        h.word(n as u64);
    }
    let (width, height) = t.dims();
    h.word(u64::from(width) << 16 | u64::from(height));
    h.word(u64::from(t.has_wrap()));
    for r in t.iter_routers() {
        let c = t.coord(r);
        assert_eq!(t.router_at(c), r);
        h.word(u64::from(c.x) << 16 | u64::from(c.y));
        for port in 0..t.ports() {
            h.word(t.neighbor(r, port).map_or(u64::MAX, |n| u64::from(n.0)));
            h.word(u64::from(t.is_wrap_hop(r, port)));
        }
    }
    h.0
}

/// All-pairs router distance, and the adjacent-pair port lookup.
fn distances(t: &Topology) -> u64 {
    let mut h = Fnv::new();
    for a in t.iter_routers() {
        for b in t.iter_routers() {
            h.word(u64::from(t.distance(a, b)));
            h.word(t.port_between(a, b).map_or(u64::MAX, |p| p as u64));
        }
    }
    h.0
}

/// Dimension-order routing between every pair of tiles, both orders.
fn dor(t: &Topology) -> u64 {
    let mut h = Fnv::new();
    for s in t.iter_tiles() {
        for d in t.iter_tiles() {
            h.word(u64::from(t.hop_count(s, d)));
            for algo in ALGOS {
                h.word(t.next_hop_port(t.router_of(s), d, algo) as u64);
                h.nodes(Some(&t.route_path(s, d, algo)));
            }
        }
    }
    h.0
}

/// Dateline classes for every (downstream, destination, network port),
/// tile-to-router maps, ingress edge and memory-controller placement.
fn classes_and_placement(t: &Topology) -> u64 {
    let mut h = Fnv::new();
    for m in t.iter_routers() {
        for d in t.iter_routers() {
            for port in NET_PORTS {
                h.word(t.vc_class(m, d, port) as u64);
            }
        }
    }
    for tile in t.iter_tiles() {
        let (router, slot) = (t.router_of(tile), t.local_slot(tile));
        assert_eq!(t.tile_of(router, slot), tile);
        h.word(u64::from(router.0) << 16 | slot as u64);
        h.word(t.eject_port(tile) as u64);
    }
    h.nodes(Some(&t.edge_nodes()));
    h.nodes(Some(&t.memory_controller_tiles()));
    h.0
}

/// Kills every link of router `r`: a router-sized obstacle.
fn isolate(t: &Topology, health: &mut TopologyHealth, r: NodeId) {
    for nb in NET_PORTS.into_iter().filter_map(|p| t.neighbor(r, p)) {
        health.kill_link(r, nb);
    }
}

/// Fault detours under one fixed degraded state, and on the healthy
/// network: the first link out of router `n / 3` dead, every link of
/// router `n / 2` dead (when there are more than two). Every source,
/// destinations thinned on the large shapes.
fn detours(t: &Topology) -> u64 {
    let n = t.routers();
    let mut health = TopologyHealth::new();
    let a = NodeId((n / 3) as u16);
    let b = NET_PORTS
        .into_iter()
        .find_map(|p| t.neighbor(a, p))
        .expect("every router has a link");
    health.kill_link(a, b);
    if n > 2 {
        isolate(t, &mut health, NodeId((n / 2) as u16));
    }

    let mut h = Fnv::new();
    for s in t.iter_tiles() {
        for d in t.iter_tiles().step_by(1 + n / 16) {
            h.nodes(t.route_path_healthy(s, d, &health).as_deref());
            h.nodes(
                t.route_path_healthy(s, d, &TopologyHealth::new())
                    .as_deref(),
            );
        }
    }
    h.0
}

fn mesh(width: u16, height: u16) -> Topology {
    Topology::mesh(width, height).unwrap()
}

/// `[links, distances, dor, classes_and_placement, detours]` per shape.
#[test]
fn every_table_matches_its_pinned_hash() {
    let table: [(&str, Topology, [u64; 5]); 10] = [
        (
            "mesh 4x4",
            mesh(4, 4),
            [
                0x714c49eb9490c4b1,
                0x6d42425661a92425,
                0x5952a6358e96f025,
                0xfeb5dfd3037fd2a5,
                0x034299018291a5c0,
            ],
        ),
        (
            "mesh 8x8",
            mesh(8, 8),
            [
                0x0aaac97f4796eb21,
                0x81fe2bfbe7130045,
                0xbac208afe46ca125,
                0x58e12b9ccf9d5e29,
                0xf4248d31ec962097,
            ],
        ),
        (
            "mesh 8x4",
            mesh(8, 4),
            [
                0x8aaeb4e08a19edcd,
                0x4669620e2cf51b65,
                0x3dac7e30567f8d25,
                0xc1f1d98c0d3b9725,
                0x326490800a505b54,
            ],
        ),
        (
            "torus 4x4",
            Topology::torus(4, 4).unwrap(),
            [
                0x528481fa42b84000,
                0xa961c77070443a25,
                0xf0c44afbf4d5c025,
                0x47893070c106a1a5,
                0x01d3c0d35f823167,
            ],
        ),
        (
            "torus 16x16",
            Topology::torus(16, 16).unwrap(),
            [
                0x806f09f9d8d16cc0,
                0x3732a10afe7e1925,
                0xfbdeda0165068325,
                0xb38341e9e7fdfd31,
                0xbf55538d70bcd6ed,
            ],
        ),
        (
            "torus 2x3",
            Topology::torus(2, 3).unwrap(),
            [
                0x3e2f286332819cd8,
                0xd745ddfd6e85fd55,
                0xabc1f8b10cd6f0e5,
                0x84268b45b9df764d,
                0x085a4df7cb4bceb5,
            ],
        ),
        (
            "cmesh 2x2x4",
            Topology::cmesh(2, 2, 4).unwrap(),
            [
                0x696162851cd6e36d,
                0xcc63da85fa9e4f65,
                0x915795ab589d7f25,
                0x31ab98c940b0a5a9,
                0x94c9060215455425,
            ],
        ),
        (
            "cmesh 4x4x2",
            Topology::cmesh(4, 4, 2).unwrap(),
            [
                0x82f15482c878bf01,
                0x6d42425661a92425,
                0x14e87c1cc9d90d25,
                0x964982b635102769,
                0x954a53fe3fee9de5,
            ],
        ),
        (
            "ring 2",
            Topology::ring(2).unwrap(),
            [
                0x02369ae04877827a,
                0x8dd600be849ab0d5,
                0x5b4a485c51a0d825,
                0x893e70e2e67ba0ee,
                0x7039c89115c41235,
            ],
        ),
        (
            "ring 16",
            Topology::ring(16).unwrap(),
            [
                0xc91452205ad9a491,
                0x97b684c96d65ab85,
                0x09ca359f08f6ee25,
                0x9927638429572220,
                0x4f433168a8f18f1e,
            ],
        ),
    ];
    let mut moved = String::new();
    for (name, t, pinned) in table {
        let got = [
            links(&t),
            distances(&t),
            dor(&t),
            classes_and_placement(&t),
            detours(&t),
        ];
        if got != pinned {
            let row: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
            moved += &format!("\n{name:?}: [{}]", row.join(", "));
        }
    }
    assert!(moved.is_empty(), "geometry tables moved:{moved}");
}

/// `TopologySpec::build` factors any core count into the most nearly
/// square grid — `Ok` or a typed error for every `u16`, never a panic or
/// a hang (the factoring once looped in `u16`, where `h * h` passes
/// `u16::MAX` for every non-square count from 65 025 up).
#[test]
fn build_terminates_for_every_core_count() {
    for spec in [TopologySpec::Mesh, TopologySpec::Torus] {
        assert_eq!(spec.build(0), Err(ConfigError::EmptyMesh));
        for cores in 1..=u16::MAX {
            let t = spec.build(cores).unwrap();
            let (width, height) = t.dims();
            assert_eq!(t.nodes(), cores as usize);
            assert!(width >= height, "{cores} -> {width}x{height}");
        }
        let dims = |cores| spec.build(cores).unwrap().dims();
        assert_eq!(dims(65_025), (255, 255));
        assert_eq!(dims(65_521), (65_521, 1)); // prime
        assert_eq!(dims(u16::MAX), (257, 255));
    }
    let cmesh = TopologySpec::CMesh { concentration: 3 };
    let err = cmesh.build(64).unwrap_err();
    assert_eq!(
        err,
        ConfigError::Concentration {
            cores: 64,
            concentration: 3
        }
    );
    assert_eq!(
        err.to_string(),
        "64 cores do not divide into routers of 3 tiles"
    );
    assert!(TopologySpec::CMesh { concentration: 0 }.build(64).is_err());
    assert_eq!(cmesh.build(u16::MAX).unwrap().dims(), (257, 85));
    assert_eq!(
        TopologySpec::Ring.build(u16::MAX).unwrap().dims(),
        (u16::MAX, 1)
    );
    assert_eq!(TopologySpec::Ring.build(1), Err(ConfigError::EmptyMesh));
}

/// Hop counts from `src` over the links `health` leaves usable, by a
/// breadth-first search of this test's own (`None`: unreachable).
fn healthy_distances(t: &Topology, src: NodeId, health: &TopologyHealth) -> Vec<Option<usize>> {
    let mut dist = vec![None; t.routers()];
    dist[src.index()] = Some(0);
    let mut frontier = vec![src];
    let mut hops = 0;
    while !frontier.is_empty() {
        hops += 1;
        let mut next = Vec::new();
        for at in frontier {
            for nb in NET_PORTS.into_iter().filter_map(|p| t.neighbor(at, p)) {
                if dist[nb.index()].is_none() && health.link_usable(at, nb) {
                    dist[nb.index()] = Some(hops);
                    next.push(nb);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Fault detours are shortest healthy paths: under seeded sets of one to
/// three dead links and up to one router with every link dead, every route
/// `route_path_healthy` returns between two routers walks only usable
/// links, is as long as the oracle's distance, and is absent exactly when
/// the oracle finds the pair disconnected.
#[test]
fn fault_detours_are_shortest_healthy_paths() {
    let shapes = [
        ("mesh 4x4", mesh(4, 4)),
        ("torus 4x4", Topology::torus(4, 4).unwrap()),
        ("ring 8", Topology::ring(8).unwrap()),
        ("cmesh 2x2x4", Topology::cmesh(2, 2, 4).unwrap()),
    ];
    // SplitMix64: the fault sets depend on nothing but the seed.
    let mut state = 0x5EED_u64;
    let mut draw = |bound: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    for (name, t) in shapes {
        let routers: Vec<NodeId> = t.iter_routers().collect();
        for set in 0..32 {
            let mut health = TopologyHealth::new();
            for _ in 0..1 + draw(3) {
                let a = routers[draw(routers.len())];
                let ports: Vec<NodeId> = NET_PORTS
                    .into_iter()
                    .filter_map(|p| t.neighbor(a, p))
                    .collect();
                health.kill_link(a, ports[draw(ports.len())]);
            }
            if draw(2) == 1 {
                isolate(&t, &mut health, routers[draw(routers.len())]);
            }
            for &a in &routers {
                let oracle = healthy_distances(&t, a, &health);
                for &b in &routers {
                    let what = format!("{name}, set {set}, {a:?} -> {b:?}, {health:?}");
                    let path = t.route_path_healthy(t.tile_of(a, 0), t.tile_of(b, 0), &health);
                    let Some(path) = path else {
                        assert_eq!(oracle[b.index()], None, "{what}: a path exists");
                        continue;
                    };
                    assert_eq!(
                        Some(path.len() - 1),
                        oracle[b.index()],
                        "{what}: {path:?} is not a shortest healthy path"
                    );
                    assert_eq!((path[0], path[path.len() - 1]), (a, b), "{what}");
                    for w in path.windows(2) {
                        let adjacent = NET_PORTS
                            .into_iter()
                            .any(|p| t.neighbor(w[0], p) == Some(w[1]));
                        assert!(
                            adjacent && health.link_usable(w[0], w[1]),
                            "{what}: {path:?} crosses {:?} -> {:?}",
                            w[0],
                            w[1]
                        );
                    }
                }
            }
        }
    }
}
