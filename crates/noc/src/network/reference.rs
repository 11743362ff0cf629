#![cfg(test)]
//! `RefNetwork`: the network of Table 4 in its plainest form — one
//! [`RefRouter`] per node and the production [`Ni`]s, wired by links that
//! are queues. It is the oracle [`Network`](super::Network) is held to
//! cycle for cycle (`differential.rs`), as `RefRouter` is the router's.
//!
//! Each link direction is one `VecDeque` of `(arrive, message)`, in send
//! order, carrying flits, undos and credits alike (`bsg_wormhole_router`'s
//! valid/ready FIFO, SNIPPETS.md §2). A credit is a message that lands on
//! its cycle: at the top of that cycle it is added to the counter of the
//! output VC it returns to. Every cycle visits every link, then every NI,
//! then every router, each in index order.
//!
//! It shares with production only the NIs, the packet table the flits
//! are handles into, the routing function and the circuit table (inside
//! `RefRouter`), and the [`CreditWire`] counter a router reads its credits
//! from. No calendar, no worklist, no network-wide credit list: a credit
//! rides its link like a flit. Healthy links only: no fault layer and no
//! dead links (ROADMAP item 2).

use crate::config::NocConfig;
use crate::credit::CreditWire;
use crate::flit::{Delivered, Flit, Packet, PacketId, PacketSpec, Packets};
use crate::links::{opposite_port, LinkSink};
use crate::ni::{Ni, NiOut};
use crate::router::reference::RefRouter;
use crate::stats::NocStats;
use rcsim_core::circuit::CircuitKey;
use rcsim_core::table4::BUFFER_DEPTH;
use rcsim_core::{Cycle, NodeId, TopologyHealth, PORTS, PORT_LOCAL};
use rcsim_trace::{ClassLabel, EventKind, TraceEvent, TraceSink};
use std::collections::VecDeque;

/// What a link carries.
#[derive(Debug, Clone, Copy)]
enum Msg {
    Flit(Flit),
    /// An undo (§4.4) with its network-wide send number: undos reaching a
    /// router in one cycle are handled in the order they were sent.
    Undo(u64, CircuitKey, NodeId),
    /// A credit for the receiver's output VC `vc` on this link.
    Credit(usize),
}

/// One link direction: its messages in send order, with arrival cycles.
type Link = VecDeque<(Cycle, Msg)>;

/// Hands `f` the messages on `link` that have arrived by `now` and that
/// `want` picks, in send order, taking them off the link.
fn take(link: &mut Link, now: Cycle, want: fn(&Msg) -> bool, mut f: impl FnMut(Msg)) {
    link.retain(|&(arrive, m)| {
        let due = arrive <= now && want(&m);
        if due {
            f(m);
        }
        !due
    });
}

/// A producer's ports: the links leaving it, indexed by port (an NI has
/// the one, port 0), and its own credit counters.
struct Ports<'a> {
    links: &'a mut [Link],
    wires: &'a mut [CreditWire],
    undos_sent: &'a mut u64,
}

impl LinkSink for Ports<'_> {
    fn flit(&mut self, port: usize, flit: Flit, arrive: Cycle, _: &mut Packets) {
        self.links[port].push_back((arrive, Msg::Flit(flit)));
    }

    fn credit(&mut self, port: usize, vc: usize, arrive: Cycle) {
        self.links[port].push_back((arrive, Msg::Credit(vc)));
    }

    fn undo(&mut self, port: usize, key: CircuitKey, dst: NodeId, arrive: Cycle) {
        *self.undos_sent += 1;
        let undo = Msg::Undo(*self.undos_sent, key, dst);
        self.links[port].push_back((arrive, undo));
    }

    fn wires(&mut self) -> &mut [CreditWire] {
        self.wires
    }
}

pub(crate) struct RefNetwork {
    cfg: NocConfig,
    health: TopologyHealth,
    sink: TraceSink,
    pub(crate) routers: Vec<RefRouter>,
    nis: Vec<Ni>,
    packets: Packets,
    /// What the NIs' enqueue and undo calls record; compared nowhere.
    stats: NocStats,
    /// `out[r][p]`: the link leaving router `r` through port `p`; the
    /// local port's goes to NI `r`.
    out: Vec<Vec<Link>>,
    /// `inject[t]`: the link from NI `t` into its router's local port.
    inject: Vec<Link>,
    /// Router `r`'s credit counters, by output VC slot `port · vcs + vc`
    /// of its network ports (ejection is uncredited).
    router_wires: Vec<Vec<CreditWire>>,
    /// NI `t`'s credit counters, by injection VC.
    ni_wires: Vec<Vec<CreditWire>>,
    delivered: Vec<(NodeId, Delivered)>,
    undos_sent: u64,
    now: Cycle,
    next_packet: u64,
}

impl RefNetwork {
    pub(crate) fn new(cfg: NocConfig) -> Self {
        let (n, vcs) = (cfg.topology.routers(), cfg.vc_layout().total());
        let full = CreditWire::full(BUFFER_DEPTH);
        RefNetwork {
            cfg,
            health: TopologyHealth::new(),
            sink: TraceSink::default(),
            routers: (cfg.topology.iter_routers())
                .map(|id| RefRouter::new(id, &cfg))
                .collect(),
            nis: cfg
                .topology
                .iter_routers()
                .map(|id| Ni::new(id, &cfg))
                .collect(),
            packets: Packets::default(),
            stats: NocStats::default(),
            out: vec![vec![Link::new(); PORTS]; n],
            inject: vec![Link::new(); n],
            router_wires: vec![vec![full; PORT_LOCAL * vcs]; n],
            ni_wires: vec![vec![full; vcs]; n],
            delivered: Vec::new(),
            undos_sent: 0,
            now: 0,
            next_packet: 0,
        }
    }

    pub(crate) fn set_trace_sink(&mut self, sink: TraceSink) {
        for ni in &mut self.nis {
            ni.set_trace_sink(sink.clone());
        }
        for r in &mut self.routers {
            r.set_trace_sink(sink.clone());
        }
        self.sink = sink;
    }

    /// [`Network::inject`](super::Network::inject), for traffic between
    /// two tiles.
    pub(crate) fn inject(&mut self, spec: PacketSpec) -> (PacketId, bool) {
        assert_ne!(
            spec.src, spec.dst,
            "tile-local traffic never enters a network"
        );
        let (now, id) = (self.now, PacketId(self.next_packet));
        self.next_packet += 1;
        self.sink.emit(|| TraceEvent {
            cycle: now,
            kind: EventKind::NiEnqueue {
                packet: id.0,
                src: spec.src.0,
                dst: spec.dst.0,
                class: ClassLabel(spec.class.label()),
            },
        });
        let len = spec.flits_override.unwrap_or_else(|| spec.class.flits());
        let slot = self.packets.insert(Packet::new(id, &spec, len, now));
        let ni = &mut self.nis[spec.src.index()];
        let committed = ni.enqueue(&spec, slot, &mut self.packets[slot], now, &mut self.stats);
        (id, committed)
    }

    /// [`Network::undo_circuit`](super::Network::undo_circuit).
    pub(crate) fn undo_circuit(&mut self, node: NodeId, key: CircuitKey) -> bool {
        self.nis[node.index()].undo_circuit(key, &mut self.stats)
    }

    /// Packets delivered since the last call, in tile order, each tile's
    /// in arrival order.
    pub(crate) fn take_all_delivered(&mut self) -> Vec<(NodeId, Delivered)> {
        self.delivered.sort_by_key(|&(node, _)| node);
        std::mem::take(&mut self.delivered)
    }

    /// `true` when no packet is open or draining and every link is empty.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.packets.records().occupied() == 0
            && self.nis.iter().all(|ni| ni.backlog() == 0)
            && self
                .inject
                .iter()
                .chain(self.out.iter().flatten())
                .all(Link::is_empty)
    }

    /// One cycle: credits land, then every NI ticks, then every router.
    pub(crate) fn tick(&mut self) {
        let now = self.now;
        self.land_credits(now);
        let mut out = NiOut::default();
        for t in 0..self.nis.len() {
            let mut ejected = Vec::new();
            take(
                &mut self.out[t][PORT_LOCAL],
                now,
                |_| true,
                |m| match m {
                    Msg::Flit(f) => ejected.push((0, f)),
                    m => panic!("{m:?} ejected at NI {t}"),
                },
            );
            let mut ports = Ports {
                links: std::slice::from_mut(&mut self.inject[t]),
                wires: &mut self.ni_wires[t],
                undos_sent: &mut self.undos_sent,
            };
            let (health, packets) = (&self.health, &mut self.packets);
            self.nis[t].tick(now, &mut ejected, health, packets, &mut out, &mut ports);
            for (slot, d) in out.delivered.drain(..) {
                let retries = self.packets[slot].retries;
                self.packets.close(slot);
                self.sink.emit(|| TraceEvent {
                    cycle: now,
                    kind: EventKind::NiEject {
                        packet: d.packet.0,
                        node: d.dst.0,
                        rode_circuit: d.rode_circuit,
                        retries,
                    },
                });
                self.delivered.push((NodeId(t as u16), d));
            }
            out.clear();
        }
        for r in 0..self.routers.len() {
            let (mut arrivals, mut undos) = (Vec::new(), Vec::new());
            for port in 0..PORTS {
                let link = if port == PORT_LOCAL {
                    &mut self.inject[r]
                } else if let Some(up) = self.neighbor(r, port) {
                    &mut self.out[up][opposite_port(port)]
                } else {
                    continue;
                };
                let carried = |m: &Msg| !matches!(m, Msg::Credit(_));
                take(link, now, carried, |m| match m {
                    Msg::Flit(f) => arrivals.push((port, f)),
                    Msg::Undo(sent, key, dst) => undos.push((sent, key, dst)),
                    Msg::Credit(_) => unreachable!("credits landed first"),
                });
            }
            undos.sort_by_key(|&(sent, ..)| sent);
            let mut undos = undos.into_iter().map(|(_, key, dst)| (key, dst)).collect();
            let mut ports = Ports {
                links: &mut self.out[r],
                wires: &mut self.router_wires[r],
                undos_sent: &mut self.undos_sent,
            };
            let (health, packets) = (&self.health, &mut self.packets);
            self.routers[r].tick(now, &mut arrivals, &mut undos, packets, health, &mut ports);
        }
        self.now = now + 1;
    }

    /// The router out of router `r`'s network port `port`, if any.
    fn neighbor(&self, r: usize, port: usize) -> Option<usize> {
        let id = NodeId(r as u16);
        self.cfg.topology.neighbor(id, port).map(NodeId::index)
    }

    /// Adds every credit landing at `now` to the counter of the output VC
    /// it returns to: the upstream router's, or the NI's on a local port.
    fn land_credits(&mut self, now: Cycle) {
        let vcs = self.cfg.vc_layout().total();
        for r in 0..self.out.len() {
            for port in 0..PORTS {
                let mut landed = Vec::new();
                let credit = |m: &Msg| matches!(m, Msg::Credit(_));
                take(&mut self.out[r][port], now, credit, |m| {
                    if let Msg::Credit(vc) = m {
                        landed.push(vc);
                    }
                });
                for vc in landed {
                    assert!(self.cfg.credited(vc), "a credit for uncredited VC {vc}");
                    let wire = if port == PORT_LOCAL {
                        &mut self.ni_wires[r][vc]
                    } else {
                        let up = self
                            .neighbor(r, port)
                            .expect("a credit stays in the fabric");
                        &mut self.router_wires[up][opposite_port(port) * vcs + vc]
                    };
                    wire.land();
                }
            }
        }
    }
}
