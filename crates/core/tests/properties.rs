//! Property-based tests for the geometry (every shape), routing and
//! circuit-table invariants.

use proptest::prelude::*;
use rcsim_core::circuit::timing::TimeWindow;
use rcsim_core::circuit::{CircuitKey, ReserveRequest, RouterCircuits};
mod cdg;

use rcsim_core::routing::{Routing, TopologyHealth};
use rcsim_core::{CircuitMode, NodeId, Topology, Vnet, PORT_LOCAL};

/// A mesh or a torus on a small grid, or the one-row torus over `w * h`
/// nodes, with two of its tiles.
fn topology_and_pair() -> impl Strategy<Value = (Topology, NodeId, NodeId)> {
    (2u16..=8, 2u16..=8, 0usize..3).prop_flat_map(|(w, h, shape)| {
        let t = match shape {
            0 => Topology::mesh(w, h),
            1 => Topology::torus(w, h),
            _ => Topology::torus(w * h, 1),
        }
        .expect("valid dims");
        let n = t.nodes() as u16;
        (Just(t), 0..n, 0..n).prop_map(|(t, a, b)| (t, NodeId(a), NodeId(b)))
    })
}

proptest! {
    /// DOR paths are minimal and end where they should.
    #[test]
    fn dor_paths_minimal((t, a, b) in topology_and_pair()) {
        for algo in [Routing::Xy, Routing::Yx] {
            let p = t.route_path(a, b, algo);
            prop_assert_eq!(p.len() as u32, t.distance(a, b) + 1);
            prop_assert_eq!(*p.first().expect("non-empty"), a);
            prop_assert_eq!(*p.last().expect("non-empty"), b);
            // Consecutive path elements are neighbours.
            for w in p.windows(2) {
                prop_assert_eq!(t.distance(w[0], w[1]), 1);
            }
        }
    }

    /// The property Reactive Circuits is built on: the XY path there is
    /// the YX path back, reversed (§4.1).
    #[test]
    fn xy_equals_reversed_yx((t, a, b) in topology_and_pair()) {
        let fwd = t.route_path(a, b, Routing::Xy);
        let mut back = t.route_path(b, a, Routing::Yx);
        back.reverse();
        prop_assert_eq!(fwd, back);
    }

    /// The next hop never points off the grid, and ejects at the
    /// destination.
    #[test]
    fn next_hop_stays_inside((t, a, b) in topology_and_pair()) {
        let port = t.route(a, PORT_LOCAL, b, Vnet::Request, false, &TopologyHealth::new());
        if a == b {
            prop_assert_eq!(port, PORT_LOCAL);
        } else {
            prop_assert!(t.neighbor(a, port).is_some());
        }
    }

    /// Links are symmetric: the way back out of the opposite port leads
    /// home.
    #[test]
    fn links_are_symmetric((t, a, _b) in topology_and_pair()) {
        for port in 0..PORT_LOCAL {
            if let Some(nb) = t.neighbor(a, port) {
                prop_assert_eq!(t.neighbor(nb, port ^ 2), Some(a));
            }
        }
    }

    /// No shape here has a bridge (a one-row torus has two ways round), so a
    /// detour around one dead link exists: a healthy route between the
    /// same routers, the same from a second table built from the same
    /// dead link, and no shorter than dimension order.
    #[test]
    fn single_fault_detours_are_healthy_and_deterministic(
        (t, a, b) in topology_and_pair(),
        cut in 0usize..64,
    ) {
        let dor = t.route_path(a, b, Routing::Xy);
        let mut health = TopologyHealth::new();
        if dor.len() > 1 {
            let i = cut % (dor.len() - 1);
            health.kill_link(&t, dor[i], dor[i + 1]);
        }
        let mut again = TopologyHealth::new();
        for (x, y) in health.dead_links_sorted() {
            again.kill_link(&t, x, y);
        }
        let detour = cdg::route_hops(&t, &health, Vnet::Request, a, b);
        prop_assert_eq!(&detour, &cdg::route_hops(&t, &again, Vnet::Request, a, b));
        let detour = cdg::routers(&detour.expect("one dead link disconnects nothing"));
        prop_assert_eq!(detour.first(), dor.first());
        prop_assert_eq!(detour.last(), dor.last());
        prop_assert!(detour.len() >= dor.len());
    }

    /// Window overlap is symmetric and consistent with an exhaustive
    /// cycle-by-cycle check.
    #[test]
    fn window_overlap_is_exact(s1 in 0u64..50, l1 in 0u64..10, s2 in 0u64..50, l2 in 0u64..10) {
        let a = TimeWindow::new(s1, s1 + l1);
        let b = TimeWindow::new(s2, s2 + l2);
        let brute = (s1..s1 + l1).any(|t| t >= s2 && t < s2 + l2);
        prop_assert_eq!(a.overlaps(&b), brute);
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }
}

/// A random reservation workload against the complete-circuit rules.
#[derive(Debug, Clone)]
struct Op {
    key_block: u64,
    source: u16,
    in_port: usize,
    out_port: usize,
    release: bool,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u64..32, 0u16..16, 0usize..5, 0usize..5, prop::bool::ANY).prop_map(
            |(key_block, source, in_port, out_port, release)| Op {
                key_block,
                source,
                in_port,
                out_port,
                release,
            },
        ),
        0..200,
    )
}

proptest! {
    /// After any sequence of reservations and releases, the §4.2
    /// complete-circuit invariants hold: every input port's circuits share
    /// one source, and no output port is reserved from two different
    /// input ports.
    #[test]
    fn complete_rules_always_hold(ops in ops()) {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        let mut live: Vec<(usize, CircuitKey, NodeId, usize)> = Vec::new();
        for op in ops {
            let key = CircuitKey { requestor: NodeId(op.source % 4), block: op.key_block * 64 };
            let in_port = op.in_port;
            let out_port = op.out_port;
            if op.release {
                if let Some(pos) = live.iter().position(|(_, k, _, _)| *k == key) {
                    let (p, k, _, _) = live.remove(pos);
                    prop_assert!(rc.release(p, k).is_some());
                }
            } else if !live.iter().any(|(_, k, _, _)| *k == key) {
                let req = ReserveRequest {
                    key,
                    source: NodeId(op.source),
                    in_port,
                    out_port,
                    window: None,
                    max_extra_shift: 0,
                };
                if rc.try_reserve(&req).is_ok() {
                    live.push((in_port, key, NodeId(op.source), out_port));
                }
            }

            // Invariant 1: same input port => same source.
            for d in 0usize..5 {
                let sources: Vec<NodeId> = live
                    .iter()
                    .filter(|(p, _, _, _)| *p == d)
                    .map(|(_, _, s, _)| *s)
                    .collect();
                prop_assert!(sources.windows(2).all(|w| w[0] == w[1]));
            }
            // Invariant 2: an output port is reserved from one input only.
            for d in 0usize..5 {
                let inputs: Vec<usize> = live
                    .iter()
                    .filter(|(_, _, _, o)| *o == d)
                    .map(|(p, _, _, _)| *p)
                    .collect();
                prop_assert!(inputs.windows(2).all(|w| w[0] == w[1]));
            }
            // Capacity: at most 5 per input port.
            for d in 0usize..5 {
                prop_assert!(rc.occupancy(d) <= 5);
            }
        }
    }

    /// Ideal mode accepts everything and undo always finds what was
    /// reserved.
    #[test]
    fn ideal_reserve_then_undo(ops in ops()) {
        let mut rc = RouterCircuits::new(CircuitMode::Ideal, 5, 1);
        let mut keys = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let key = CircuitKey {
                requestor: NodeId(op.source),
                block: i as u64 * 64,
            };
            rc.try_reserve(&ReserveRequest {
                key,
                source: NodeId(op.source),
                in_port: op.in_port,
                out_port: op.out_port,
                window: None,
                max_extra_shift: 0,
            })
            .expect("ideal never fails");
            keys.push(key);
        }
        for key in keys {
            prop_assert!(rc.undo(key).is_some());
        }
        prop_assert_eq!(rc.total_entries(), 0);
    }
}
