//! Progress watchdog and structured health reporting.
//!
//! The network keeps a small amount of always-on bookkeeping — the cycle
//! of the last flit movement and the set of in-flight packets — from
//! which [`crate::Network::health`] assembles a [`HealthReport`] on
//! demand: whether the fabric has stalled (in-flight traffic but no flit
//! moved for [`STALL_WINDOW`] cycles, i.e. deadlock or
//! livelock), the oldest in-flight messages, per-NI backlogs,
//! circuit-table entries that look leaked, and the fault-injection
//! counters. The bookkeeping is pure observation: it never changes what
//! the network does, so a fault-free run with the watchdog enabled is
//! bit-identical to one without it.

use crate::fault::FaultStats;
use crate::flit::PacketId;
use crate::links::opposite_port;
use crate::router::{VcWaiter, WaitEdge};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{Cycle, MessageClass, NodeId, Topology, PORTS};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Cycles without any flit movement (while packets are in flight) after
/// which the network is declared stalled.
pub const STALL_WINDOW: Cycle = 1_000;

/// Age in cycles after which a circuit-table entry is reported as a
/// suspected leak.
pub(crate) const LEAK_AGE: Cycle = 4_000;

/// Cap on every list in a report: stuck messages, leaked entries, dead
/// links and the resources of a deadlock cycle.
pub const MAX_REPORT_ENTRIES: usize = 8;

/// One in-flight message, as listed by a [`HealthReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StuckMessage {
    /// Packet id.
    pub packet: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message class.
    pub class: MessageClass,
    /// Cycles since the packet was enqueued at its source NI.
    pub age: Cycle,
    /// End-to-end retransmissions issued for it so far.
    pub retries: u32,
}

/// A circuit-table entry older than `LEAK_AGE` (4 000 cycles): either a
/// reservation whose reply never came (e.g. dropped by a fault without a
/// complete undo) or a circuit wedged mid-use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeakedCircuit {
    /// Router holding the entry.
    pub node: NodeId,
    /// Input port index of the entry (0–3 the network directions, 4 the
    /// local port).
    pub in_port: usize,
    /// The circuit's key.
    pub key: CircuitKey,
    /// Cycles since the entry was reserved.
    pub age: Cycle,
    /// `true` if a reply started streaming over it and never finished.
    pub in_use: bool,
}

/// Always zero: the adaptive runtime policy whose counters these were
/// is gone. The type stays so the serialized [`HealthReport`] keeps its
/// shape (ROADMAP item 1 retires it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // every field is always zero
pub struct AdaptiveReport {
    pub decisions: u64,
    pub hot_switches: u64,
    pub calm_switches: u64,
    pub circuits_torn_on_switch: u64,
    pub congestion_detours: u64,
    #[serde(default)]
    pub circuits_suppressed: u64,
    pub hot_regions: u64,
}

/// Structured snapshot of network liveness, produced by
/// [`crate::Network::health`] and attached to simulation results.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Cycle the report was taken.
    pub cycle: Cycle,
    /// `true` when in-flight traffic exists but nothing has moved for at
    /// least the stall window — deadlock or livelock.
    pub stalled: bool,
    /// Last cycle any flit moved (arrival, ejection or delivery).
    pub last_progress: Cycle,
    /// Packets injected but not yet delivered or abandoned.
    pub in_flight: u64,
    /// Total packets queued at source NIs, waiting to enter the network.
    pub ni_backlog: u64,
    /// `true` when nothing at all is left in the network (end-of-run
    /// quiescence check).
    pub quiescent: bool,
    /// Age of the oldest in-flight packet, if any.
    pub oldest_age: Option<Cycle>,
    /// The oldest in-flight messages (oldest first, capped).
    pub stuck_messages: Vec<StuckMessage>,
    /// Suspected circuit-table leaks (capped).
    pub leaked_circuits: Vec<LeakedCircuit>,
    /// Fault-injection counters (all zero when faults are disabled).
    pub faults: FaultStats,
    /// Links currently dead (sorted `(min, max)` pairs, capped like the
    /// stuck/leaked lists).
    #[serde(default)]
    pub dead_links: Vec<(NodeId, NodeId)>,
    /// Always empty: dead links are the only topology fault. It stays so
    /// the serialized report keeps its shape (ROADMAP item 1 retires it).
    #[serde(default)]
    pub dead_routers: Vec<NodeId>,
    /// Always zero: the protocol never re-sends a request, the transport's
    /// retransmission is the one recovery path. It stays so the serialized
    /// report keeps its shape (ROADMAP item 1 retires it).
    #[serde(default)]
    pub l1_reissues: u64,
    /// Open-loop ingress ledger: admit/reject/shed counters, queue
    /// high-water marks and time in overload (all zero when no ingress
    /// layer is configured).
    #[serde(default)]
    pub overload: crate::ingress::OverloadReport,
    /// Always zero (see [`AdaptiveReport`]).
    #[serde(default)]
    pub adaptive: AdaptiveReport,
    /// Wait-for-graph diagnosis: present only when the network is
    /// stalled *and* the diagnoser found a genuine circular wait among
    /// channel resources (see [`DeadlockReport`]). Boxed so the common
    /// healthy report stays small.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub deadlock: Option<Box<DeadlockReport>>,
}

/// One resource in a detected wait-for cycle: a blocked input VC, what
/// it holds and what it is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadlockResource {
    /// Router of the blocked input VC.
    pub node: NodeId,
    /// Input port of the blocked VC (0–3 network directions, 4+ local).
    pub in_port: usize,
    /// Input VC index — the buffer this packet *holds*.
    pub vc: usize,
    /// Head packet occupying the VC.
    pub packet: Option<PacketId>,
    /// Output port the head's route points at — the channel it *wants*.
    pub wants_port: usize,
    /// Output VC allocated to it, if VC allocation succeeded before the
    /// wedge (the wait is then a credit wait; otherwise a VA wait).
    pub out_vc: Option<usize>,
    /// Credits left on the allocated output VC (0 in a credit wait).
    pub credits: u32,
    /// Circuit reservation pinning the wanted output port, if any — a
    /// circuit hold participating in the cycle.
    pub held_by_circuit: Option<CircuitKey>,
}

/// A cycle in the network's wait-for graph, built by the watchdog's
/// deadlock diagnoser when a stall fires: nodes are input-VC channel
/// resources, and an edge runs from a blocked VC to the resource it
/// waits on (the downstream VC it needs credits from, or the same-router
/// VC that owns its wanted output). A report is only attached when an
/// actual cycle exists, so livelocks and lost-credit wedges — stalls
/// with no circular wait — stay distinguishable.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadlockReport {
    /// The blocked resources forming the cycle, in wait order: each
    /// entry waits on the next, and the last waits on the first. Capped
    /// at [`MAX_REPORT_ENTRIES`].
    pub resources: Vec<DeadlockResource>,
    /// Full length of the detected cycle (exceeds `resources.len()`
    /// when truncated).
    pub cycle_len: usize,
    /// `true` when `resources` was truncated to the cap.
    pub truncated: bool,
}

impl DeadlockReport {
    /// The pure half of the diagnoser. Builds the wait-for graph over
    /// `waiters` (each blocked input VC with its router; `vcs` input VCs
    /// per port) — an edge runs from a blocked VC to the resource it
    /// waits on: the downstream VC it needs credits from, or the
    /// same-router VC owning its wanted output — then walks it with a
    /// deterministic DFS (waiters in slot order, edges as listed) and
    /// reports the first cycle, listing at most `cap` of its resources.
    pub(crate) fn find(
        topology: &Topology,
        vcs: usize,
        waiters: &[(NodeId, VcWaiter)],
        cap: usize,
    ) -> Option<Box<Self>> {
        let idx = |n: NodeId, p: usize, v: usize| (n.index() * PORTS + p) * vcs + v;
        let total = topology.routers() * PORTS * vcs;
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); total];
        let mut waiter: Vec<Option<&(NodeId, VcWaiter)>> = vec![None; total];
        for entry in waiters {
            let (node, w) = entry;
            let src = idx(*node, w.in_port, w.vc);
            for e in &w.edges {
                match *e {
                    WaitEdge::Local { in_port, vc } => edges[src].push(idx(*node, in_port, vc)),
                    WaitEdge::Downstream { out_vc } => {
                        if let Some(nb) = topology.neighbor(*node, w.wants_port) {
                            edges[src].push(idx(nb, opposite_port(w.wants_port), out_vc));
                        }
                    }
                }
            }
            waiter[src] = Some(entry);
        }
        // Deterministic iterative DFS with tree-edge parents; a back
        // edge to a gray node closes the cycle.
        let mut color = vec![0u8; total]; // 0 white, 1 gray, 2 black
        let mut parent = vec![usize::MAX; total];
        for start in 0..total {
            if color[start] != 0 || waiter[start].is_none() {
                continue;
            }
            color[start] = 1;
            let mut stack = vec![(start, 0usize)];
            while let Some(&mut (node, ref mut ei)) = stack.last_mut() {
                if *ei >= edges[node].len() {
                    color[node] = 2;
                    stack.pop();
                    continue;
                }
                let next = edges[node][*ei];
                *ei += 1;
                if waiter[next].is_none() {
                    // Waiting on an idle or progressing VC: a dangling
                    // edge, never part of a cycle.
                    continue;
                }
                match color[next] {
                    0 => {
                        color[next] = 1;
                        parent[next] = node;
                        stack.push((next, 0));
                    }
                    1 => {
                        // Walk the tree path next → … → node; with the
                        // back edge node → next it is the cycle, in
                        // wait order (each entry waits on the next).
                        let mut cycle = Vec::new();
                        let mut cur = node;
                        while cur != next {
                            cycle.push(cur);
                            cur = parent[cur];
                        }
                        cycle.push(next);
                        cycle.reverse();
                        let cycle_len = cycle.len();
                        let resources = cycle
                            .iter()
                            .take(cap)
                            .map(|&ix| {
                                let (node, w) = waiter[ix].expect("cycle nodes are waiters");
                                DeadlockResource {
                                    node: *node,
                                    in_port: w.in_port,
                                    vc: w.vc,
                                    packet: w.packet,
                                    wants_port: w.wants_port,
                                    out_vc: w.out_vc,
                                    credits: w.credits,
                                    held_by_circuit: w.held_by_circuit,
                                }
                            })
                            .collect();
                        return Some(Box::new(DeadlockReport {
                            resources,
                            cycle_len,
                            truncated: cycle_len > cap,
                        }));
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

impl HealthReport {
    /// `true` when the report shows nothing suspicious: no stall, no
    /// suspected leaks, nothing abandoned.
    pub fn healthy(&self) -> bool {
        !self.stalled && self.leaked_circuits.is_empty() && self.faults.packets_abandoned == 0
    }
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "health @ cycle {}: {}",
            self.cycle,
            if self.stalled {
                "STALLED"
            } else if self.quiescent {
                "quiescent"
            } else {
                "progressing"
            }
        )?;
        writeln!(
            f,
            "  in flight: {} packets, {} queued at NIs, last progress at cycle {}",
            self.in_flight, self.ni_backlog, self.last_progress
        )?;
        if let Some(age) = self.oldest_age {
            writeln!(f, "  oldest in-flight message: {age} cycles")?;
        }
        for m in &self.stuck_messages {
            writeln!(
                f,
                "  stuck: {:?} {} {}->{} age {} retries {}",
                m.packet, m.class, m.src, m.dst, m.age, m.retries
            )?;
        }
        for l in &self.leaked_circuits {
            writeln!(
                f,
                "  leaked circuit: {}/{} key ({}, {:#x}) age {}{}",
                l.node,
                l.in_port,
                l.key.requestor,
                l.key.block,
                l.age,
                if l.in_use { " (in use)" } else { "" }
            )?;
        }
        if self.faults != FaultStats::default() {
            writeln!(
                f,
                "  faults: {} retransmissions, {} abandoned",
                self.faults.retransmissions, self.faults.packets_abandoned
            )?;
        }
        if !self.dead_links.is_empty() {
            // A full list was capped: the chip may have more dead links.
            let capped = if self.dead_links.len() >= MAX_REPORT_ENTRIES {
                "at least "
            } else {
                ""
            };
            writeln!(
                f,
                "  degraded topology: {capped}{} dead links {:?}; \
                 {} packets rerouted, {} circuits torn, {} flits lost on dead links",
                self.dead_links.len(),
                self.dead_links
                    .iter()
                    .map(|(a, b)| (a.0, b.0))
                    .collect::<Vec<_>>(),
                self.faults.packets_rerouted,
                self.faults.circuits_torn,
                self.faults.dead_flits_lost
            )?;
        }
        if self.overload.offered > 0 {
            writeln!(f, "  ingress: {}", self.overload)?;
        }
        if let Some(d) = &self.deadlock {
            writeln!(
                f,
                "  DEADLOCK: circular wait over {} channel resources{}:",
                d.cycle_len,
                if d.truncated {
                    " (listing truncated)"
                } else {
                    ""
                }
            )?;
            for r in &d.resources {
                write!(
                    f,
                    "    {}/in{}/vc{} holds {:?}, wants out{}",
                    r.node, r.in_port, r.vc, r.packet, r.wants_port
                )?;
                match r.out_vc {
                    Some(ov) => write!(f, " vc{ov} ({} credits)", r.credits)?,
                    None => write!(f, " (no VC allocated)")?,
                }
                if let Some(k) = r.held_by_circuit {
                    write!(f, ", pinned by circuit ({}, {:#x})", k.requestor, k.block)?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::{PORT_EAST, PORT_LOCAL, PORT_NORTH, PORT_SOUTH, PORT_WEST};

    #[test]
    fn default_report_is_healthy() {
        let r = HealthReport::default();
        assert!(r.healthy());
        assert!(!r.stalled);
    }

    /// A blocked VC 0 of `in_port` at router `node` heading out of
    /// `wants_port`: a credit wait for a `Downstream` edge (output VC 0
    /// allocated, no credits), a VA wait for a `Local` one.
    fn waiter(node: u16, in_port: usize, wants_port: usize, edge: WaitEdge) -> (NodeId, VcWaiter) {
        let w = VcWaiter {
            in_port,
            vc: 0,
            packet: Some(PacketId(u64::from(node))),
            wants_port,
            out_vc: matches!(edge, WaitEdge::Downstream { .. }).then_some(0),
            credits: 0,
            held_by_circuit: None,
            edges: vec![edge],
        };
        (NodeId(node), w)
    }

    /// The clockwise credit cycle around a 2×2 mesh (0 → 1 → 3 → 2 → 0):
    /// every router's VC holds a packet that wants the next router's VC.
    fn ring_2x2() -> Vec<(NodeId, VcWaiter)> {
        let down = WaitEdge::Downstream { out_vc: 0 };
        vec![
            waiter(0, PORT_SOUTH, PORT_EAST, down),
            waiter(1, PORT_WEST, PORT_SOUTH, down),
            waiter(2, PORT_EAST, PORT_NORTH, down),
            waiter(3, PORT_NORTH, PORT_WEST, down),
        ]
    }

    fn find(waiters: &[(NodeId, VcWaiter)], cap: usize) -> Option<Box<DeadlockReport>> {
        let mesh = Topology::mesh(2, 2).unwrap();
        DeadlockReport::find(&mesh, 2, waiters, cap)
    }

    fn nodes(report: &DeadlockReport) -> Vec<u16> {
        report.resources.iter().map(|r| r.node.0).collect()
    }

    #[test]
    fn credit_cycle_is_reported_in_wait_order() {
        let report = find(&ring_2x2(), 8).expect("four VCs wait in a circle");
        assert_eq!(nodes(&report), [0, 1, 3, 2], "each entry waits on the next");
        assert_eq!((report.cycle_len, report.truncated), (4, false));
        let r = &report.resources[0];
        assert_eq!((r.in_port, r.vc, r.wants_port), (PORT_SOUTH, 0, PORT_EAST));
        assert_eq!(
            (r.out_vc, r.credits, r.packet),
            (Some(0), 0, Some(PacketId(0)))
        );
    }

    #[test]
    fn chain_ending_at_an_idle_vc_is_not_a_deadlock() {
        // Router 2's VC is not blocked, so 0 → 1 → 3 → (idle) closes nothing.
        let mut chain = ring_2x2();
        chain.remove(2);
        assert_eq!(find(&chain, 8), None);
        assert_eq!(find(&[], 8), None);
    }

    #[test]
    fn local_edge_closes_a_cycle_inside_one_router() {
        // At router 0 the VC fed from the south waits in VA for the east
        // output, which the local port's VC owns; that one is out of
        // credits, and the wait runs round the mesh back to the first.
        let mut waiters = ring_2x2();
        waiters[0] = waiter(
            0,
            PORT_SOUTH,
            PORT_EAST,
            WaitEdge::Local {
                in_port: PORT_LOCAL,
                vc: 0,
            },
        );
        waiters.push(waiter(
            0,
            PORT_LOCAL,
            PORT_EAST,
            WaitEdge::Downstream { out_vc: 0 },
        ));
        let report = find(&waiters, 8).expect("the local edge joins the cycle");
        assert_eq!(nodes(&report), [0, 0, 1, 3, 2]);
        assert_eq!(
            report.resources[0].out_vc, None,
            "a VA wait holds no output VC"
        );
        assert_eq!(report.resources[1].in_port, PORT_LOCAL);
    }

    #[test]
    fn long_cycle_is_truncated_with_its_length_intact() {
        let report = find(&ring_2x2(), 2).expect("same cycle, smaller cap");
        assert_eq!(nodes(&report), [0, 1]);
        assert_eq!((report.cycle_len, report.truncated), (4, true));
    }

    #[test]
    fn display_renders_the_deadlock_section() {
        let mut health = HealthReport {
            stalled: true,
            deadlock: find(&ring_2x2(), 8),
            ..HealthReport::default()
        };
        let s = health.to_string();
        assert!(
            s.contains("DEADLOCK: circular wait over 4 channel resources:"),
            "{s}"
        );
        assert!(
            s.contains("n0/in2/vc0 holds Some(PacketId(0)), wants out1 vc0 (0 credits)"),
            "{s}"
        );
        health.deadlock = find(&ring_2x2(), 2);
        assert!(health.to_string().contains("(listing truncated)"));
    }

    #[test]
    fn display_mentions_stall() {
        let r = HealthReport {
            cycle: 500,
            stalled: true,
            ..HealthReport::default()
        };
        let s = r.to_string();
        assert!(s.contains("STALLED"), "{s}");
        assert!(!r.healthy());
    }
}
