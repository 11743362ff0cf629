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
//! circuit VC here is not idle falls back to one. Under every circuit
//! mode some replies ride in on a reply VC, from a neighbour that gave
//! its reservation back, and riding streams on one port interleave.
//! Under timed circuits a reply starts before its entry here expires and
//! rides, starts after it and falls back, is undone, or never comes, and
//! some requests arrive with windows an earlier router narrowed. Under scrounger reuse some
//! circuits first carry a foreign reply, a scrounger, which leaves the
//! circuit to its own reply when it borrows. A degraded row marks both
//! routers degraded three quarters of the way through, as a link's death
//! does (DESIGN.md §10). After a healthy row's run, the feeds start no
//! new packet and send the rest: a router that holds flits while nothing
//! moves for [`WEDGED`] cycles fails the row.

use super::reference::{Coverage, RefRouter};
use super::tests::{registers, Outgoing, Recorder};
use super::Router;
use crate::config::NocConfig;
use crate::flit::{Flit, Packet, PacketId, PacketSpec, Packets};
use rcsim_core::circuit::{CircuitHandle, CircuitKey};
use rcsim_core::table4::{BUFFER_DEPTH, INJECT_OVERHEAD};
use rcsim_core::{
    CircuitMode, Cycle, MechanismConfig, MessageClass, NodeId, Topology, TopologyHealth, Vnet,
    PORTS, PORT_LOCAL,
};
use rcsim_trace::TraceSink;
use std::collections::VecDeque;

/// SplitMix64: the harness's own seeded stream.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// `true` with probability `percent`/100.
    pub(crate) fn chance(&mut self, percent: u64) -> bool {
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
    /// start, slot, len, circuit VC, tags)`.
    replies: VecDeque<(Cycle, u32, u32, usize, u8)>,
}

/// Requests to start a packet on a free VC, in percent per cycle.
const LOAD: u64 = 9;

/// Cycles in a row with flits held, nothing sent and nothing arriving
/// that call the router wedged: every credit comes home within 24.
const WEDGED: u32 = 200;

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
    /// Credits on their way back from downstream: `(landing, slot)`.
    downstream: Vec<(Cycle, usize)>,
    /// The cycle both routers turn degraded, if they do.
    degrade_at: Option<Cycle>,
    /// No new packets start: the run is draining.
    draining: bool,
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
            downstream: Vec::new(),
            degrade_at,
            draining: false,
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
            let timed = self.cfg.mechanism.timed;
            if timed.is_timed() {
                handle.turnaround = self.rng.range(0, 40) as u32;
                handle = handle.with_policy(timed);
                if handle.built_hops > 0 && self.rng.chance(25) {
                    // An earlier router estimated the reply's injection
                    // near where this one will.
                    let h = Cycle::from(topology.distance(self.node, dst));
                    let nominal = now + 5 * h + Cycle::from(handle.turnaround + INJECT_OVERHEAD);
                    let slack = timed.slack(hops);
                    let t = handle.timing.as_mut().expect("a timed handle");
                    t.narrow(nominal + self.rng.range(0, 12), slack);
                }
            }
            packet.circuit = Some(handle);
        }
        let built = packet.circuit.map(|h| h.built_hops);
        let slot = self.file(packet);
        if let Some(built) = built {
            self.requests.insert(slot, built);
        }
        (slot, len)
    }

    /// What every feed sends this cycle.
    fn arrivals(&mut self, now: Cycle) -> Vec<(usize, Flit)> {
        let layout = self.cfg.vc_layout();
        let credited: Vec<bool> = (0..layout.total()).map(|v| self.cfg.credited(v)).collect();
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
                if !layout.is_circuit_vc(v) && free && !self.draining && self.rng.chance(LOAD) {
                    let (slot, len) = self.new_packet(now, p, layout.vnet_of(v));
                    feed.sending[v] = Some((slot, 0, len, 0));
                }
            }
            if let Some(&(_, slot, len, vc, tags)) = feed.replies.front().filter(|r| r.0 <= now) {
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
                    feed.sending[vc] = Some((slot, 0, len, tags));
                }
            }
            // A riding stream goes first; else any VC with a credit.
            let ready: Vec<usize> = (0..layout.total())
                .filter(|&v| feed.sending[v].is_some() && (!credited[v] || feed.credits[v] > 0))
                .collect();
            let rides = |v: &&usize| feed.sending[**v].is_some_and(|s| s.3 & Flit::RIDES != 0);
            let riding: Vec<usize> = ready.iter().filter(rides).copied().collect();
            let pool = if riding.is_empty() { &ready } else { &riding };
            let pick =
                (!pool.is_empty()).then(|| pool[self.rng.range(0, pool.len() as u64 - 1) as usize]);
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
                // A router returns a credit only where a wire carries one.
                Outgoing::Credit(port, vc, arrive) => {
                    assert!(self.cfg.credited(vc), "a credit for uncredited VC {vc}");
                    let feed = self.feeds[port]
                        .as_mut()
                        .expect("a credit goes to a sender");
                    feed.landing.push((arrive, vc));
                }
                Outgoing::Flit(port, flit, _) => {
                    if port != PORT_LOCAL && self.cfg.credited(flit.vc.into()) {
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
                        self.downstream.push((land, slot));
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
        let mechanism = self.cfg.mechanism;
        let fragmented = mechanism.mode == CircuitMode::Fragmented;
        if handle.failed || handle.built_hops != built + 1 && !fragmented {
            return;
        }
        if mechanism.timed.is_timed() {
            return self.timed_reply(now, port, handle);
        }
        let mut start = now + self.rng.range(2, 12);
        if self.rng.chance(30) {
            // Under reuse, the undo may meet a scrounger mid-stream.
            let at = if mechanism.reuse_circuits {
                start + self.rng.range(0, 6) - 1
            } else {
                start - self.rng.range(1, 2)
            };
            self.undos.push((at, handle.key, handle.key.requestor));
        }
        if mechanism.reuse_circuits && self.rng.chance(40) {
            // A foreign reply scrounges the circuit to its end (§4.5).
            let len = [1, 5][self.rng.range(0, 1) as usize];
            self.reply(port, start, &handle, len, Flit::RIDES | Flit::SCROUNGER);
            if !mechanism.scrounger_borrow {
                return;
            }
            start += 1;
        }
        self.reply(port, start, &handle, handle.reply_flits, Flit::RIDES);
    }

    /// The reply of a timed circuit reserved here: it starts early enough
    /// to find its entry, or too late and falls back, or its NI undoes the
    /// circuit, or it never comes; the last three leave the entry to
    /// expire unused, unless the undo gets there first.
    fn timed_reply(&mut self, now: Cycle, port: usize, handle: CircuitHandle) {
        let entry = self.reference.router.circuits.lookup(port, handle.key);
        let Some(window) = entry.and_then(|e| e.window) else {
            return;
        };
        // The entry expires at the tick of `window.end + 4`.
        let expiry = window.end + 4;
        match self.rng.range(0, 9) {
            0..=4 => {
                let start = self.rng.range(now + 2, (expiry - 1).max(now + 2));
                self.reply(port, start, &handle, handle.reply_flits, Flit::RIDES);
            }
            5 | 6 => {
                let start = expiry + self.rng.range(0, 12);
                self.reply(port, start, &handle, handle.reply_flits, Flit::RIDES);
            }
            7 => {
                let at = self.rng.range(now + 1, expiry + 2);
                self.undos.push((at, handle.key, handle.key.requestor));
            }
            _ => {}
        }
    }

    /// Files a reply of `len` flits tagged `tags` on `handle`'s circuit,
    /// to ride in through `port` from `start` on.
    fn reply(&mut self, port: usize, start: Cycle, handle: &CircuitHandle, len: u32, tags: u8) {
        let id = PacketId(self.prod.packets.records().slots() as u64 + 1);
        let spec = PacketSpec::new(handle.source, handle.key.requestor, MessageClass::L2Reply);
        let mut reply = Packet::new(id, &spec, len, start);
        reply.riding = Some(handle.key);
        let slot = self.file(reply);
        let layout = self.cfg.vc_layout();
        let vc = match layout.circuit_vcs {
            // The NI sends a fragmented circuit's reply as a packet, on a
            // reply VC (`Ni::inject`).
            _ if self.cfg.mechanism.mode == CircuitMode::Fragmented && port == PORT_LOCAL => {
                layout.allocatable_vcs(Vnet::Reply).start
            }
            // A neighbour that gave the circuit back (degraded, a wrap
            // hop refused, its timed entry expired) sends the reply
            // through its pipeline, on a reply VC, still riding.
            _ if port != PORT_LOCAL && self.rng.chance(15) => {
                let vcs = layout.allocatable_vcs(Vnet::Reply);
                self.rng.range(vcs.start as u64, vcs.end as u64 - 1) as usize
            }
            1 => layout.circuit_vc(0),
            n => layout.circuit_vc(self.rng.range(0, n as u64 - 1) as usize),
        };
        let replies = &mut self.feeds[port]
            .as_mut()
            .expect("a reply comes from a sender")
            .replies;
        // Timed replies start far apart: each waits only for earlier ones.
        let at = if self.cfg.mechanism.timed.is_timed() {
            replies.partition_point(|r| r.0 <= start)
        } else {
            replies.len()
        };
        replies.insert(at, (start, slot, len, vc, tags));
    }

    /// Runs `cycles` cycles and then until every packet has left,
    /// panicking at the first difference, or when [`WEDGED`] cycles of
    /// the drain pass with flits held and nothing moving.
    fn run(mut self, cycles: Cycle) -> (Coverage, u64, String) {
        let health = TopologyHealth::new();
        let mut still = 0;
        for now in 0.. {
            self.draining = now >= cycles;
            // A stream the onset cut mid-way leaves its headless rest in
            // an idle VC (ROADMAP item 2, wedge entrance 1): a degraded
            // row stops at `cycles`.
            if self.draining && self.degrade_at.is_some() {
                break;
            }
            if self.degrade_at == Some(now) {
                self.prod.router.set_degraded(true);
                self.reference.router.set_degraded(true);
            }
            let (prod, reference) = (&mut self.prod.sink.wires, &mut self.reference.sink.wires);
            self.downstream.retain(|&(land, slot)| {
                if land <= now {
                    prod[slot].land();
                    reference[slot].land();
                }
                land > now
            });
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
            let (arrived, regs) = registers(&arrivals);
            p.router.tick(
                now,
                arrived,
                &regs,
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
            if !self.draining {
                continue;
            }
            let (p, r) = (&self.prod, &self.reference);
            let held = p.router.is_busy() || r.router.holds_flits();
            let fed = self.feeds.iter().flatten();
            if !held
                && fed.clone().all(|f| f.replies.is_empty())
                && fed.flat_map(|f| &f.sending).all(Option::is_none)
            {
                break;
            }
            still = if held && sent.is_empty() && arrivals.is_empty() {
                still + 1
            } else {
                0
            };
            if still == WEDGED {
                let mut dump = String::new();
                p.router.debug_dump(&p.sink.wires, &p.packets, &mut dump);
                panic!("{}: wedged at cycle {now}\n{dump}", self.label);
            }
        }
        (self.reference.router.coverage, self.undos_sent, self.label)
    }
}

/// Runs `seeds` seeds of `cycles` cycles on an 8×8 `topology` under
/// `mechanism`, both routers turning degraded three quarters of the way
/// through if `degrade`, reporting each run's coverage and requiring
/// every contended corner the mechanism has to be reached.
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
             bypasses {}, bypass retries {}, held waits {}, fall-backs {}, undos {undos}, \
             scroungers {}, expiries {}",
            c.va_conflicts,
            c.sa_conflicts,
            c.credit_stalls,
            c.bypasses,
            c.bypass_retries,
            c.held_waits,
            c.fallbacks,
            c.scroungers,
            c.expiries
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
        // Two ideal circuits meet at an output circuit VC in every run.
        if mechanism.mode == CircuitMode::Ideal {
            reached.push(c.held_waits);
        }
        // Timed replies ride, are undone by their NI and expire unused.
        if mechanism.timed.is_timed() {
            reached.extend([undos, c.expiries]);
        }
        if mechanism.reuse_circuits {
            reached.push(c.scroungers);
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

/// The paper's ten versions at the router (`Complete_NoAck` differs from
/// `Complete` only at the NI) and the borrowing-scrounger variant.
pub(crate) fn versions() -> [MechanismConfig; 11] {
    [
        MechanismConfig::baseline(),
        MechanismConfig::fragmented(),
        MechanismConfig::complete(),
        MechanismConfig::complete_noack(),
        MechanismConfig::reuse_noack(),
        MechanismConfig::reuse_borrow_noack(),
        MechanismConfig::timed_noack(),
        MechanismConfig::slack(1),
        MechanismConfig::slack_delay(1),
        MechanismConfig::postponed(1),
        MechanismConfig::ideal(),
    ]
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

/// Ideal circuits never fail (§4.8): two of them meet at an output
/// circuit VC, and the later head waits for the earlier tail.
#[test]
fn production_matches_reference_mesh_ideal() {
    differential(mesh(), MechanismConfig::ideal(), 8, 20_000, false);
}

#[test]
fn production_matches_reference_torus_ideal() {
    differential(torus(), MechanismConfig::ideal(), 8, 20_000, false);
}

/// Timed windows (§4.7): exact, widened by slack, slid by a delay, or
/// postponed; entries expire four cycles past their window.
#[test]
fn production_matches_reference_mesh_timed_noack() {
    differential(mesh(), MechanismConfig::timed_noack(), 8, 20_000, false);
}

#[test]
fn production_matches_reference_mesh_slack_1() {
    differential(mesh(), MechanismConfig::slack(1), 8, 20_000, false);
}

#[test]
fn production_matches_reference_mesh_slack_delay_1() {
    differential(mesh(), MechanismConfig::slack_delay(1), 8, 20_000, false);
}

#[test]
fn production_matches_reference_mesh_postponed_1() {
    differential(mesh(), MechanismConfig::postponed(1), 8, 20_000, false);
}

/// Scroungers (§4.5) that consume the circuit they ride, or borrow it and
/// leave it to its own reply.
#[test]
fn production_matches_reference_mesh_reuse_noack() {
    differential(mesh(), MechanismConfig::reuse_noack(), 8, 20_000, false);
}

#[test]
fn production_matches_reference_mesh_reuse_borrow_noack() {
    differential(
        mesh(),
        MechanismConfig::reuse_borrow_noack(),
        8,
        20_000,
        false,
    );
}

/// A link of the router dies mid-run: reservations are refused from then
/// on, and riding flits give their entries back — and a stream cut
/// mid-way its output circuit VC — and take the pipeline.
#[test]
fn production_matches_reference_degraded() {
    for mechanism in [
        MechanismConfig::complete(),
        MechanismConfig::fragmented(),
        MechanismConfig::ideal(),
        MechanismConfig::slack_delay(1),
    ] {
        differential(mesh(), mechanism, 8, 20_000, true);
    }
}

/// The long size, for a release build, on `topology`: every version.
/// The long rows are three, so the test harness can run them side by
/// side.
fn long(topology: Topology) {
    for mechanism in versions() {
        differential(topology, mechanism, 48, 100_000, false);
    }
}

#[test]
#[ignore]
fn production_matches_reference_long_mesh() {
    long(mesh());
}

#[test]
#[ignore]
fn production_matches_reference_long_torus() {
    long(torus());
}

/// The long size's degraded onset: every circuit version, on each fabric.
#[test]
#[ignore]
fn production_matches_reference_long_degraded() {
    for mechanism in versions().into_iter().filter(|m| m.circuits_enabled()) {
        for topology in [mesh(), torus()] {
            differential(topology, mechanism, 48, 100_000, true);
        }
    }
}
