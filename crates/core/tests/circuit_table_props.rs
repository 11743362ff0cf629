//! Property-based tests for the circuit-table invariants the paper's
//! mechanisms rely on (§4.2): per-input storage caps, the complete-mode
//! output-conflict rule, and clean tear-down under arbitrary interleavings
//! of reserve / release / undo / begin_use / end_use — plus, for the
//! topology subsystem, reservation/teardown symmetry along paths drawn
//! from torus and one-row torus routings.

use proptest::prelude::*;
use rcsim_core::circuit::{CircuitKey, ReserveError, ReserveRequest, RouterCircuits};
use rcsim_core::routing::Routing;
use rcsim_core::{CircuitMode, NodeId, Topology, PORT_LOCAL};
use std::collections::BTreeMap;

const PORTS: [usize; 5] = [0, 1, 2, 3, 4];

/// One step of a random table workout. Reservations are untimed so the
/// complete-mode conflict rules apply in their strictest form.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `(source, in_port index, out_port index)` — the key is derived from
    /// the op's position so every reservation has a unique identity.
    Reserve(u16, usize, usize),
    /// Target the `n`-th live circuit (modulo the live count).
    Release(usize),
    Undo(usize),
    BeginUse(usize),
    EndUse(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let reserve = || (0u16..4, 0usize..5, 0usize..5).prop_map(|(s, i, o)| Op::Reserve(s, i, o));
    prop_oneof![
        // The reserve branch is repeated to weight the mix towards
        // reservations, so tables actually fill up.
        reserve(),
        reserve(),
        reserve(),
        (0usize..16).prop_map(Op::Release),
        (0usize..16).prop_map(Op::Undo),
        (0usize..16).prop_map(Op::BeginUse),
        (0usize..16).prop_map(Op::EndUse),
    ]
}

/// What the test believes the table holds: key → (in_port, out_port,
/// source, in_use, undo_pending). Kept in sync op by op and cross-checked
/// against the table's own accounting after every step.
type Shadow = BTreeMap<u64, (usize, usize, NodeId, bool, bool)>;

fn nth_key(shadow: &Shadow, n: usize) -> Option<u64> {
    if shadow.is_empty() {
        return None;
    }
    shadow.keys().nth(n % shadow.len()).copied()
}

fn key(block: u64) -> CircuitKey {
    CircuitKey {
        requestor: NodeId((block % 97) as u16),
        block,
    }
}

/// Drives `ops` through a table, checking the mode's invariants after every
/// step, then tears everything down and requires an empty table.
fn workout(
    mode: CircuitMode,
    capacity: u8,
    circuit_vcs: usize,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut rc = RouterCircuits::new(mode, capacity, circuit_vcs);
    let mut shadow: Shadow = BTreeMap::new();

    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Reserve(source, in_idx, out_idx) => {
                let (in_port, out_port) = (PORTS[in_idx], PORTS[out_idx]);
                let block = i as u64 * 64;
                let req = ReserveRequest {
                    key: key(block),
                    source: NodeId(source),
                    in_port,
                    out_port,
                    window: None,
                    max_extra_shift: 0,
                };
                match rc.try_reserve(&req) {
                    Ok(_) => {
                        // The table accepted: the mode's conflict rules must
                        // have held *before* insertion.
                        prop_assert!(
                            shadow.values().filter(|e| e.0 == in_port).count() < capacity as usize,
                            "reservation accepted at a full input port"
                        );
                        if mode == CircuitMode::Complete {
                            prop_assert!(
                                !shadow.values().any(|e| e.0 != in_port && e.1 == out_port),
                                "two complete circuits with different input \
                                 ports share output {out_port:?}"
                            );
                            prop_assert!(
                                !shadow.values().any(|e| e.0 == in_port && e.2 != req.source),
                                "complete circuits at one input port must \
                                 share their source"
                            );
                        }
                        if mode == CircuitMode::Fragmented {
                            prop_assert!(
                                shadow.values().filter(|e| e.1 == out_port).count() < circuit_vcs,
                                "more fragmented circuits than circuit VCs \
                                 at output {out_port:?}"
                            );
                        }
                        shadow.insert(block, (in_port, out_port, req.source, false, false));
                    }
                    Err(ReserveError::NoStorage) => prop_assert_eq!(
                        shadow.values().filter(|e| e.0 == in_port).count(),
                        capacity as usize,
                        "NoStorage reported below the per-input cap"
                    ),
                    Err(_) => {}
                }
            }
            Op::Release(n) => {
                if let Some(block) = nth_key(&shadow, n) {
                    let (in_port, ..) = shadow[&block];
                    prop_assert!(rc.release(in_port, key(block)).is_some());
                    shadow.remove(&block);
                }
            }
            Op::Undo(n) => {
                if let Some(block) = nth_key(&shadow, n) {
                    let entry = shadow.get_mut(&block).expect("picked from shadow");
                    if entry.3 {
                        // In use: the undo is deferred, not applied.
                        prop_assert!(rc.undo(key(block)).is_none());
                        entry.4 = true;
                    } else {
                        let removed = rc.undo(key(block)).expect("live circuit undone");
                        prop_assert_eq!(removed.out_port, entry.1);
                        shadow.remove(&block);
                    }
                }
            }
            Op::BeginUse(n) => {
                if let Some(block) = nth_key(&shadow, n) {
                    let entry = shadow.get_mut(&block).expect("picked from shadow");
                    prop_assert!(rc.begin_use(entry.0, key(block)));
                    entry.3 = true;
                }
            }
            Op::EndUse(n) => {
                if let Some(block) = nth_key(&shadow, n) {
                    let entry = *shadow.get(&block).expect("picked from shadow");
                    let removed = rc.end_use(entry.0, key(block));
                    if entry.4 {
                        prop_assert!(removed.is_some(), "pending undo resumes at end_use");
                        shadow.remove(&block);
                    } else {
                        prop_assert!(removed.is_none());
                        shadow.get_mut(&block).expect("still live").3 = false;
                    }
                }
            }
        }

        // Global accounting invariants, every step.
        prop_assert_eq!(rc.total_entries(), shadow.len());
        for d in PORTS {
            prop_assert!(
                rc.occupancy(d) <= capacity as usize,
                "input port {d:?} holds more than {capacity} circuits"
            );
            prop_assert_eq!(
                rc.occupancy(d),
                shadow.values().filter(|e| e.0 == d).count()
            );
        }
    }

    // Tear-down: ending every active stream and undoing every survivor must
    // return the table to exactly empty — no leaked entries.
    let live: Vec<u64> = shadow.keys().copied().collect();
    for block in &live {
        let (in_port, _, _, in_use, _) = shadow[block];
        if in_use {
            rc.end_use(in_port, key(*block));
        }
    }
    for block in &live {
        rc.undo(key(*block));
    }
    prop_assert_eq!(rc.total_entries(), 0, "tear-down left entries behind");
    for d in PORTS {
        prop_assert_eq!(rc.occupancy(d), 0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fragmented tables (2 entries per input, 2 circuit VCs) never exceed
    /// the paper's per-input cap, never oversubscribe an output's circuit
    /// VCs, and tear down to empty.
    #[test]
    fn fragmented_invariants(ops in prop::collection::vec(op_strategy(), 1..60)) {
        workout(CircuitMode::Fragmented, 2, 2, &ops)?;
    }

    /// Complete tables (5 entries per input) never exceed the cap, never
    /// hold two circuits with different input ports and the same output
    /// port, keep the same-source rule, and tear down to empty.
    #[test]
    fn complete_invariants(ops in prop::collection::vec(op_strategy(), 1..60)) {
        workout(CircuitMode::Complete, 5, 1, &ops)?;
    }

    /// A deliberately tiny table (1 entry per input) is the harshest cap
    /// check: the second reservation at any port must fail with NoStorage.
    #[test]
    fn unit_capacity_invariants(ops in prop::collection::vec(op_strategy(), 1..40)) {
        workout(CircuitMode::Complete, 1, 1, &ops)?;
    }
}

// ---------------------------------------------------------------------------
// Topology-path properties: circuits reserved along request paths drawn
// from torus and one-row torus routings retrace and tear down exactly,
// per topology (the §4.1 symmetry the mechanism rests on).
// ---------------------------------------------------------------------------

fn topo_strategy() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (2u16..=6, 2u16..=6).prop_map(|(w, h)| Topology::torus(w, h).expect("valid torus")),
        (3u16..=24).prop_map(|n| Topology::torus(n, 1).expect("valid torus")),
    ]
}

/// The network port from router `a` to its neighbour `b`.
fn port_between(topo: &Topology, a: NodeId, b: NodeId) -> usize {
    (0..PORT_LOCAL)
        .find(|&p| topo.neighbor(a, p) == Some(b))
        .expect("adjacent routers")
}

/// The per-router reservations a request travelling `path` (router ids,
/// src-side first) writes for its reply: at each router the reply arrives
/// from the dst side and leaves towards the src side; the endpoints use
/// the local port.
fn reply_ports_along(topo: &Topology, path: &[NodeId]) -> Vec<(NodeId, usize, usize)> {
    let mut out = Vec::with_capacity(path.len());
    for (j, r) in path.iter().enumerate() {
        let in_port = if j + 1 < path.len() {
            port_between(topo, *r, path[j + 1])
        } else {
            PORT_LOCAL
        };
        let out_port = if j > 0 {
            port_between(topo, *r, path[j - 1])
        } else {
            PORT_LOCAL
        };
        out.push((*r, in_port, out_port));
    }
    out
}

/// One reserved circuit: its key plus the (router, in_port, out_port)
/// hops it occupies along the request path.
type ReservedPath = (CircuitKey, Vec<(NodeId, usize, usize)>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every topology: the XY request path reversed is the YX reply
    /// path, circuits reserved hop-by-hop along it are found again by the
    /// retracing reply (lookup on the reply's arrival port), and a full
    /// begin_use / end_use / release walk leaves every table empty.
    #[test]
    fn reservation_retraces_and_tears_down(
        topo in topo_strategy(),
        pairs in prop::collection::vec((any::<u16>(), any::<u16>()), 1..10),
    ) {
        let n = topo.nodes() as u16;
        let mut tables: Vec<RouterCircuits> = (0..topo.routers())
            .map(|_| RouterCircuits::new(CircuitMode::Ideal, 8, 1))
            .collect();
        let mut reserved: Vec<ReservedPath> = Vec::new();

        for (i, (a, b)) in pairs.iter().enumerate() {
            let src = NodeId(a % n);
            let dst = NodeId(b % n);
            if src == dst {
                // Traffic a tile sends itself builds no circuit.
                continue;
            }
            // §4.1: the request goes XY, the reply retraces YX — reversed.
            let fwd = topo.route_path(src, dst, Routing::Xy);
            let mut back = topo.route_path(dst, src, Routing::Yx);
            back.reverse();
            prop_assert_eq!(&fwd, &back, "path symmetry broken on {}", topo.label());

            let k = CircuitKey { requestor: src, block: i as u64 * 64 };
            let hops = reply_ports_along(&topo, &fwd);
            for (r, in_port, out_port) in &hops {
                tables[r.index()]
                    .try_reserve(&ReserveRequest {
                        key: k,
                        source: dst,
                        in_port: *in_port,
                        out_port: *out_port,
                        window: None,
                        max_extra_shift: 0,
                    })
                    .expect("ideal mode never refuses");
            }
            reserved.push((k, hops));
        }

        // Reply retrace: from the reply source's router back to the
        // requestor, every table has the entry on the reply's arrival port,
        // and streaming through it then releasing empties the table.
        for (k, hops) in &reserved {
            for (r, in_port, _) in hops.iter().rev() {
                prop_assert!(
                    tables[r.index()].lookup(*in_port, *k).is_some(),
                    "reply failed to find its circuit at router {r} on {}",
                    topo.label()
                );
                prop_assert!(tables[r.index()].begin_use(*in_port, *k));
                prop_assert!(tables[r.index()].end_use(*in_port, *k).is_none());
                prop_assert!(tables[r.index()].release(*in_port, *k).is_some());
            }
        }
        for (r, t) in tables.iter().enumerate() {
            prop_assert_eq!(
                t.total_entries(),
                0,
                "teardown left entries at router {} on {}",
                r,
                topo.label()
            );
        }
    }

    /// Undo-based teardown (§4.4): an undo visiting the routers in request
    /// order finds each entry, and the removed entry's out_port points back
    /// towards the requestor — the reversed-path invariant that lets the
    /// undo retrace without carrying a route.
    #[test]
    fn undo_follows_the_reversed_path(
        topo in topo_strategy(),
        a in any::<u16>(),
        b in any::<u16>(),
    ) {
        let n = topo.nodes() as u16;
        let src = NodeId(a % n);
        let dst = NodeId(b % n);
        prop_assume!(src != dst);

        let fwd = topo.route_path(src, dst, Routing::Xy);
        let k = CircuitKey { requestor: src, block: 0x40 };
        let hops = reply_ports_along(&topo, &fwd);
        let mut tables: Vec<RouterCircuits> = (0..topo.routers())
            .map(|_| RouterCircuits::new(CircuitMode::Complete, 5, 1))
            .collect();
        for (r, in_port, out_port) in &hops {
            tables[r.index()]
                .try_reserve(&ReserveRequest {
                    key: k,
                    source: dst,
                    in_port: *in_port,
                    out_port: *out_port,
                    window: None,
                    max_extra_shift: 0,
                })
                .expect("lone circuit cannot conflict");
        }
        for (j, (r, _, out_port)) in hops.iter().enumerate() {
            let removed = tables[r.index()].undo(k).expect("undo finds the entry");
            prop_assert_eq!(removed.out_port, *out_port);
            if j > 0 {
                // Interior and dst-side routers point back at the previous
                // router on the path; the first hop points at the src tile.
                prop_assert_eq!(
                    topo.neighbor(*r, removed.out_port),
                    Some(fwd[j - 1]),
                    "undo retrace diverges at router {} on {}",
                    r,
                    topo.label()
                );
            }
            prop_assert_eq!(tables[r.index()].total_entries(), 0);
        }
    }
}
