#![cfg(test)]
//! The differential: a production [`Router`] and a [`RefRouter`] at the
//! same node, fed the same seeded upstream traffic, must make the same
//! [`LinkSink`] calls, emit the same trace events, count the same activity
//! and hold the same circuit table every cycle.
//!
//! The upstream model keeps the rules a real neighbour keeps: each input
//! port carries at most one flit a cycle, each input VC one packet at a
//! time and only on a credit the router returned, and a new packet starts
//! on a VC only once all its credits are home. Downstream, every flit sent
//! on a network port returns its credit after a seeded 2–6 cycles (a
//! fragmented circuit VC's up to 24). Under circuits, a request head that
//! reserved here is later answered by a reply riding in on the mirrored
//! port, sometimes after an undo tore the circuit down first. Under
//! fragmented circuits so is one that found no room here and crosses a
//! gap; the NI sends its replies on a reply VC, and a neighbour whose
//! circuit VC here is not idle falls back to one. A degraded row marks
//! both routers degraded three quarters of the way through, as a link's
//! death does (DESIGN.md §10).

use super::reference::{Coverage, RefRouter};
use super::tests::{Outgoing, Recorder};
use super::Router;
use crate::config::NocConfig;
use crate::flit::{Flit, Packet, PacketId, PacketSpec, Packets};
use rcsim_core::circuit::{CircuitHandle, CircuitKey};
use rcsim_core::table4::BUFFER_DEPTH;
use rcsim_core::{
    CircuitMode, Cycle, MechanismConfig, MessageClass, NodeId, Topology, TopologyHealth, Vnet,
    PORTS, PORT_LOCAL,
};
use rcsim_trace::TraceSink;
use std::collections::VecDeque;

/// SplitMix64: the harness's own seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// `true` with probability `percent`/100.
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// One router under test, with its own sink, packet table and trace.
struct Side<R> {
    router: R,
    sink: Recorder,
    packets: Packets,
    trace: TraceSink,
}

/// The neighbour (or NI) feeding one input port.
struct Feed {
    /// Credits held for each of the router's input VCs on this port.
    credits: Vec<u8>,
    /// Credits on their way back: `(landing cycle, vc)`.
    landing: Vec<(Cycle, usize)>,
    /// Per VC, the packet being sent: `(slot, next seq, len, tags)`.
    sending: Vec<Option<(u32, u16, u32, u8)>>,
    /// Replies that will ride in on this port, in order: `(earliest
    /// start, slot, len, circuit VC)`.
    replies: VecDeque<(Cycle, u32, u32, usize)>,
}

/// Requests to start a packet on a free VC, in percent per cycle.
const LOAD: u64 = 9;

struct Harness {
    rng: Rng,
    node: NodeId,
    cfg: NocConfig,
    prod: Side<Router>,
    reference: Side<RefRouter>,
    /// Per input port with a sender, its feed.
    feeds: Vec<Option<Feed>>,
    /// Undos to deliver: `(cycle, key, requestor)`.
    undos: Vec<(Cycle, CircuitKey, NodeId)>,
    /// Requests carrying a circuit handle: slot → built hops on arrival.
    requests: std::collections::HashMap<u32, u32>,
    /// Per output VC slot, the landing cycle of its newest returned credit.
    last_credit: Vec<Cycle>,
    /// The cycle both routers turn degraded, if they do.
    degrade_at: Option<Cycle>,
    next_block: u64,
    undos_sent: u64,
    label: String,
}

impl Harness {
    fn new(
        topology: Topology,
        mechanism: MechanismConfig,
        seed: u64,
        degrade_at: Option<Cycle>,
    ) -> Self {
        let cfg = NocConfig::paper_baseline(topology, mechanism);
        // A corner, an edge and an interior router of the 8×8 grid.
        let node = NodeId([0, 3, 27][seed as usize % 3]);
        let (trace, expected_trace) = (TraceSink::ring(1 << 10), TraceSink::ring(1 << 10));
        let mut router = Router::new(node, &cfg);
        router.set_trace_sink(trace.clone());
        let mut reference = RefRouter::new(node, &cfg);
        reference.set_trace_sink(expected_trace.clone());
        let prod = Side {
            router,
            sink: Recorder::new(&cfg),
            packets: Packets::default(),
            trace,
        };
        let reference = Side {
            router: reference,
            sink: Recorder::new(&cfg),
            packets: Packets::default(),
            trace: expected_trace,
        };
        let vcs = cfg.vc_layout().total();
        let feeds = (0..PORTS)
            .map(|p| {
                (p == PORT_LOCAL || topology.neighbor(node, p).is_some()).then(|| Feed {
                    credits: vec![BUFFER_DEPTH; vcs],
                    landing: Vec::new(),
                    sending: vec![None; vcs],
                    replies: VecDeque::new(),
                })
            })
            .collect();
        Harness {
            rng: Rng(seed),
            node,
            cfg,
            prod,
            reference,
            feeds,
            undos: Vec::new(),
            requests: Default::default(),
            last_credit: vec![0; PORTS * vcs],
            degrade_at,
            next_block: 0,
            undos_sent: 0,
            label: format!(
                "{} {}{} seed {seed} at {node:?}",
                topology.label(),
                mechanism.label(),
                degrade_at.map_or(String::new(), |t| format!(" degraded at {t}")),
            ),
        }
    }

    /// Files the same record in both packet tables.
    fn file(&mut self, packet: Packet) -> u32 {
        let slot = self.prod.packets.insert(packet.clone());
        assert_eq!(self.reference.packets.insert(packet), slot);
        slot
    }

    /// A new packet of `vnet` entering through `port`.
    fn new_packet(&mut self, now: Cycle, port: usize, vnet: Vnet) -> (u32, u32) {
        let nodes = self.cfg.topology.nodes() as u64;
        let dst = loop {
            let dst = NodeId(self.rng.range(0, nodes - 1) as u16);
            if port != PORT_LOCAL || dst != self.node {
                break dst;
            }
        };
        let class = match vnet {
            Vnet::Request => MessageClass::L1Request,
            Vnet::Reply => MessageClass::L2Reply,
        };
        let len = [1, 5][self.rng.range(0, 1) as usize];
        let id = PacketId(self.prod.packets.records().slots() as u64 + 1);
        let spec = PacketSpec::new(NodeId(0), dst, class);
        let mut packet = Packet::new(id, &spec, len, now);
        // Fragmented circuits share an output through their two circuit
        // VCs: their requests all come in on one port, not a wrap link's,
        // so their replies meet on the way out through it.
        let topology = self.cfg.topology;
        let plain =
            |p| topology.neighbor(self.node, p).is_some() && !topology.is_wrap_hop(self.node, p);
        let chance = match self.cfg.mechanism.mode {
            CircuitMode::None => 0,
            CircuitMode::Fragmented if Some(port) == (0..PORT_LOCAL).find(|&p| plain(p)) => 60,
            CircuitMode::Fragmented => 0,
            _ => 60,
        };
        if vnet == Vnet::Request && self.rng.chance(chance) {
            let requestor = NodeId(self.rng.range(0, nodes - 1) as u16);
            self.next_block += 1;
            let reply_flits = [1, 5][self.rng.range(0, 1) as usize];
            let hops = self.rng.range(1, 10) as u32;
            let mut handle =
                CircuitHandle::new(requestor, self.next_block, dst, hops, reply_flits, 10);
            handle.built_hops = self.rng.range(0, 2) as u32;
            packet.circuit = Some(handle);
        }
        let built = packet.circuit.map(|h| h.built_hops);
        let slot = self.file(packet);
        if let Some(built) = built {
            self.requests.insert(slot, built);
        }
        (slot, len)
    }

    /// `true` when VC `vc` holds flits in buffers, so it is credited: all
    /// but the complete-mode circuit VC.
    fn credited(&self, vc: usize) -> bool {
        !self.cfg.vc_layout().is_circuit_vc(vc) || self.cfg.mechanism.circuit_vc_buffered()
    }

    /// What every feed sends this cycle.
    fn arrivals(&mut self, now: Cycle) -> Vec<(usize, Flit)> {
        let layout = self.cfg.vc_layout();
        let credited: Vec<bool> = (0..layout.total()).map(|v| self.credited(v)).collect();
        let fragmented = self.cfg.mechanism.mode == CircuitMode::Fragmented;
        let mut arrivals = Vec::new();
        for p in 0..PORTS {
            let Some(mut feed) = self.feeds[p].take() else {
                continue;
            };
            feed.landing.retain(|&(t, v)| {
                feed.credits[v] += u8::from(t <= now);
                t > now
            });
            for v in 0..layout.total() {
                let free = feed.sending[v].is_none() && feed.credits[v] == BUFFER_DEPTH;
                if !layout.is_circuit_vc(v) && free && self.rng.chance(LOAD) {
                    let (slot, len) = self.new_packet(now, p, layout.vnet_of(v));
                    feed.sending[v] = Some((slot, 0, len, 0));
                }
            }
            if let Some(&(_, slot, len, vc)) = feed.replies.front().filter(|r| r.0 <= now) {
                let free = |v: usize| {
                    feed.sending[v].is_none() && (!credited[v] || feed.credits[v] == BUFFER_DEPTH)
                };
                // A fragmented upstream router whose circuit VC here is not
                // idle gives its reservation back and sends the reply
                // through its pipeline, on a reply VC, still riding.
                let fallback = || layout.allocatable_vcs(Vnet::Reply).find(|&v| free(v));
                let vc = if free(vc) {
                    Some(vc)
                } else {
                    fallback().filter(|_| fragmented)
                };
                if let Some(vc) = vc {
                    feed.replies.pop_front();
                    feed.sending[vc] = Some((slot, 0, len, Flit::RIDES));
                }
            }
            // A riding stream goes first; else any VC with a credit.
            let ready: Vec<usize> = (0..layout.total())
                .filter(|&v| feed.sending[v].is_some() && (!credited[v] || feed.credits[v] > 0))
                .collect();
            let rides = |v: &&usize| feed.sending[**v].is_some_and(|s| s.3 & Flit::RIDES != 0);
            let pick = match ready.iter().find(rides) {
                Some(&v) => Some(v),
                None if ready.is_empty() => None,
                None => Some(ready[self.rng.range(0, ready.len() as u64 - 1) as usize]),
            };
            if let Some(v) = pick {
                let (slot, seq, len, tags) = feed.sending[v].expect("picked a sending VC");
                arrivals.push((p, Flit::new(slot, seq, len, v as u8, tags)));
                if credited[v] {
                    feed.credits[v] -= 1;
                }
                feed.sending[v] = (u32::from(seq) + 1 < len).then_some((slot, seq + 1, len, tags));
            }
            self.feeds[p] = Some(feed);
        }
        arrivals
    }

    /// Reacts to what the router sent at `now`: credits home upstream,
    /// credits back from downstream, and replies for circuits reserved
    /// here.
    fn react(&mut self, now: Cycle, sent: &[Outgoing]) {
        let layout = self.cfg.vc_layout();
        for o in sent {
            match *o {
                Outgoing::Credit(port, vc, arrive) => {
                    let credited = self.credited(vc);
                    let feed = self.feeds[port]
                        .as_mut()
                        .expect("a credit goes to a sender");
                    if credited {
                        feed.landing.push((arrive, vc));
                    }
                }
                Outgoing::Flit(port, flit, _) => {
                    if port != PORT_LOCAL && self.credited(flit.vc.into()) {
                        let slot = port * layout.total() + usize::from(flit.vc);
                        // A fragmented circuit's next router may lack its
                        // reservation and buffer the message: a circuit
                        // VC's credits may come home late.
                        let late = if layout.is_circuit_vc(flit.vc.into()) {
                            24
                        } else {
                            6
                        };
                        let land = (now + self.rng.range(2, late)).max(self.last_credit[slot] + 1);
                        self.last_credit[slot] = land;
                        self.prod.sink.wires[slot].send(land);
                        self.reference.sink.wires[slot].send(land);
                    }
                    if flit.is_head() {
                        self.departed(now, port, flit.slot);
                    }
                }
                Outgoing::Undo(..) => {}
            }
        }
    }

    /// A head left through `port`: if it reserved a circuit here, its
    /// reply will come back in through `port`, and so will a fragmented
    /// circuit's that could not reserve here, across the gap.
    fn departed(&mut self, now: Cycle, port: usize, slot: u32) {
        let handle = self.prod.packets[slot].circuit;
        assert_eq!(
            handle, self.reference.packets[slot].circuit,
            "{}: circuit handles differ at cycle {now}",
            self.label
        );
        let Some(built) = self.requests.remove(&slot) else {
            return;
        };
        let handle = handle.expect("a request with a handle");
        let fragmented = self.cfg.mechanism.mode == CircuitMode::Fragmented;
        if handle.failed || handle.built_hops != built + 1 && !fragmented {
            return;
        }
        let start = now + self.rng.range(2, 12);
        if self.rng.chance(30) {
            let at = start - self.rng.range(1, 2);
            self.undos.push((at, handle.key, handle.key.requestor));
        }
        let id = PacketId(self.prod.packets.records().slots() as u64 + 1);
        let spec = PacketSpec::new(handle.source, handle.key.requestor, MessageClass::L2Reply);
        let mut reply = Packet::new(id, &spec, handle.reply_flits, now);
        reply.riding = Some(handle.key);
        let slot = self.file(reply);
        let layout = self.cfg.vc_layout();
        let vc = match layout.circuit_vcs {
            // The NI sends a fragmented circuit's reply as a packet, on a
            // reply VC (`Ni::inject`).
            _ if fragmented && port == PORT_LOCAL => layout.allocatable_vcs(Vnet::Reply).start,
            1 => layout.circuit_vc(0),
            n => layout.circuit_vc(self.rng.range(0, n as u64 - 1) as usize),
        };
        let feed = self.feeds[port]
            .as_mut()
            .expect("a reply comes from a sender");
        feed.replies
            .push_back((start, slot, handle.reply_flits, vc));
    }

    /// Runs `cycles` cycles, panicking at the first difference.
    fn run(mut self, cycles: Cycle) -> (Coverage, u64, String) {
        let health = TopologyHealth::new();
        for now in 0..cycles {
            if self.degrade_at == Some(now) {
                self.prod.router.set_degraded(true);
                self.reference.router.set_degraded(true);
            }
            let arrivals = self.arrivals(now);
            let mut undos = Vec::new();
            self.undos.retain(|&(t, key, dst)| {
                if t == now {
                    undos.push((key, dst));
                }
                t > now
            });
            self.undos_sent += undos.len() as u64;
            let (p, r) = (&mut self.prod, &mut self.reference);
            p.router.tick(
                now,
                &mut arrivals.clone(),
                &mut undos.clone(),
                &mut p.packets,
                &health,
                &mut p.sink,
            );
            r.router.tick(
                now,
                &mut arrivals.clone(),
                &mut undos,
                &mut r.packets,
                &health,
                &mut r.sink,
            );
            let sent = std::mem::take(&mut p.sink.sent);
            let expected = std::mem::take(&mut r.sink.sent);
            let (events, expected_events) = (p.trace.drain(), r.trace.drain());
            if sent != expected || events != expected_events {
                let first = (sent.iter().zip(&expected))
                    .position(|(a, b)| a != b)
                    .unwrap_or(sent.len().min(expected.len()));
                panic!(
                    "{}: production and reference differ at cycle {now}, message {first} \
                     (arrivals {arrivals:?}, undos {undos:?})\n\
                     production sent {sent:?}\n reference sent {expected:?}\n\
                     production traced {events:?}\n reference traced {expected_events:?}",
                    self.label
                );
            }
            assert_eq!(
                p.router.state.activity, r.router.activity,
                "{}: activity differs at cycle {now}",
                self.label
            );
            assert_eq!(
                p.router.state.circuits, r.router.circuits,
                "{}: circuit tables differ at cycle {now}",
                self.label
            );
            self.react(now, &sent);
        }
        (self.reference.router.coverage, self.undos_sent, self.label)
    }
}

/// Runs `seeds` seeds of `cycles` cycles on an 8×8 `topology` under
/// `mechanism`, both routers turning degraded half-way through if
/// `degrade`, reporting each run's coverage and requiring every contended
/// corner the mechanism has to be reached.
fn differential(
    topology: Topology,
    mechanism: MechanismConfig,
    seeds: u64,
    cycles: Cycle,
    degrade: bool,
) {
    let degrade_at = degrade.then_some(cycles * 3 / 4);
    let mut retries = 0;
    for seed in 1..=seeds {
        let (c, undos, label) = Harness::new(topology, mechanism, seed, degrade_at).run(cycles);
        eprintln!(
            "{label}: {cycles} cycles, VA conflicts {}, SA conflicts {}, credit stalls {}, \
             bypasses {}, bypass retries {}, fall-backs {}, undos {undos}",
            c.va_conflicts,
            c.sa_conflicts,
            c.credit_stalls,
            c.bypasses,
            c.bypass_retries,
            c.fallbacks
        );
        let mut reached = vec![c.va_conflicts, c.sa_conflicts, c.credit_stalls];
        if mechanism.circuit_vcs() > 0 {
            reached.extend([c.bypasses, c.fallbacks, c.undos]);
        }
        // A complete circuit's head parks behind a stream that fell back
        // in every run; fragmented flits park only when two circuits meet
        // at an output, which a router with wrap links sees rarely, so
        // only the row as a whole must show them.
        if mechanism.mode == CircuitMode::Complete {
            reached.push(c.bypass_retries);
        }
        retries += c.bypass_retries;
        assert!(reached.iter().all(|&n| n > 0), "{label}: {c:?}");
    }
    assert!(
        mechanism.circuit_vcs() == 0 || retries > 0,
        "no bypass retries"
    );
}

fn mesh() -> Topology {
    Topology::mesh(8, 8).expect("valid")
}

fn torus() -> Topology {
    Topology::torus(8, 8).expect("valid")
}

#[test]
fn production_matches_reference_mesh_baseline() {
    differential(mesh(), MechanismConfig::baseline(), 8, 20_000, false);
}

#[test]
fn production_matches_reference_mesh_complete() {
    differential(mesh(), MechanismConfig::complete(), 8, 20_000, false);
}

#[test]
fn production_matches_reference_mesh_fragmented() {
    differential(mesh(), MechanismConfig::fragmented(), 8, 20_000, false);
}

#[test]
fn production_matches_reference_torus_baseline() {
    differential(torus(), MechanismConfig::baseline(), 8, 20_000, false);
}

#[test]
fn production_matches_reference_torus_complete() {
    differential(torus(), MechanismConfig::complete(), 8, 20_000, false);
}

#[test]
fn production_matches_reference_torus_fragmented() {
    differential(torus(), MechanismConfig::fragmented(), 8, 20_000, false);
}

/// A link of the router dies mid-run: reservations are refused from then
/// on, and riding flits give their entries back and take the pipeline.
#[test]
fn production_matches_reference_degraded() {
    for mechanism in [MechanismConfig::complete(), MechanismConfig::fragmented()] {
        differential(mesh(), mechanism, 8, 20_000, true);
    }
}

/// The long size, for a release build.
#[test]
#[ignore]
fn production_matches_reference_long() {
    let circuits = [MechanismConfig::complete(), MechanismConfig::fragmented()];
    for topology in [mesh(), torus()] {
        for mechanism in [MechanismConfig::baseline()].iter().chain(&circuits) {
            differential(topology, *mechanism, 48, 100_000, false);
        }
        for mechanism in circuits {
            differential(topology, mechanism, 48, 100_000, true);
        }
    }
}
