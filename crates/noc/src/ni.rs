//! Network interfaces: injection queues, ejection assembly, circuit-origin
//! records (§4.1: "information of the circuit is also stored in the network
//! interface where the circuit starts"), the timed injection check (§4.7)
//! and scrounger reuse (§4.5).

use crate::config::{NocConfig, VcLayout};
use crate::credit::CreditWire;
use crate::flit::{Delivered, Flit, Packet, PacketSpec, Packets};
use crate::links::LinkSink;
use crate::router::alloc::RoundRobin;
use crate::stats::{CircuitOutcome, NocStats};
use rcsim_core::circuit::{CircuitHandle, CircuitKey};
use rcsim_core::table4::{BUFFER_DEPTH, LINK_LATENCY};
use rcsim_core::{
    CircuitMode, Cycle, MechanismConfig, MessageClass, NodeId, StateMap, StateSet, Topology,
    TopologyHealth, Vnet,
};
use rcsim_trace::{EventKind, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

/// The reply class (and its flit count) a circuit-building request expects.
pub(crate) fn expected_reply_flits(class: MessageClass) -> u32 {
    match class {
        MessageClass::L1Request => MessageClass::L2Reply.flits(),
        MessageClass::WbData => MessageClass::L2WbAck.flits(),
        MessageClass::MemRequest => MessageClass::MemoryReply.flits(),
        // The MEMORY reply to an L2 write-back is a single-flit ack.
        MessageClass::MemWbData => 1,
        _ => 1,
    }
}

/// A copy of a packet waiting at the NI: the slot of its record and the
/// circuit tags ([`Flit::RIDES`], [`Flit::SCROUNGER`]) its flits will
/// carry — a retransmission waits untagged while the copy it replaces may
/// still be streaming out tagged.
type Queued = (u32, u8);

/// An in-flight outbound stream on one local-input VC (or the circuit path).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Stream {
    slot: u32,
    next_seq: u16,
    vc: u8,
    tags: u8,
}

impl Stream {
    /// Starts streaming the queued copy `(slot, tags)` on `vc`: from here
    /// until each of its flits is received or lost, the copy counts
    /// towards its record's `in_fabric`.
    fn start((slot, tags): Queued, vc: usize, packets: &mut Packets) -> Stream {
        let p = &mut packets[slot];
        p.in_fabric += p.len;
        Stream {
            slot,
            next_seq: 0,
            vc: vc as u8,
            tags,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Origin {
    handle: CircuitHandle,
    registered_at: Cycle,
}

/// What one NI tick produced for the network to account — the flit and
/// the undos it sent went straight onto its link. The network owns one
/// reusable instance per tick ([`NiOut::clear`] between NIs) so the
/// per-cycle loop stays allocation-free.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct NiOut {
    /// Fully received packets for the tile logic, with their record's slot.
    pub delivered: Vec<(u32, Delivered)>,
    /// Packets this tick sent with the detour bit set (added to the fault
    /// counters).
    pub reroutes: u64,
    /// The statistics-counted injection this tick started, if any (class
    /// and flit count of the head emitted with `count_injection` set). At
    /// most one per tick — an NI injects at most one flit per cycle. The
    /// network records it, like the deliveries: [`Ni::tick`] touches no
    /// statistics; the network accounts for each NI in tile order.
    pub injection: Option<(MessageClass, u32)>,
}

impl NiOut {
    /// Empties every output list, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.delivered.clear();
        self.reroutes = 0;
        self.injection = None;
    }
}

/// An NI's state (DESIGN.md §13).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct State {
    /// Per-VN FIFO of packet-switched packets.
    queues: [VecDeque<Queued>; 2],
    /// Per local-input VC, the packet currently streaming into the router
    /// (whose credits are the NI's wires, read through its link).
    streams: Vec<Option<Stream>>,
    rr_stream: RoundRobin,
    vnet_rr: usize,
    /// Committed circuit (and scrounger) packets, in commitment order.
    circuit_queue: VecDeque<Queued>,
    circuit_active: Option<Stream>,
    /// Cycle after which the next circuit stream may start (commitments
    /// are back-to-back and never overlap).
    circuit_link_free_at: Cycle,
    origins: StateMap<CircuitKey, Origin>,
    /// Circuit origins removed by fault-recovery teardown; consumed when
    /// the reply shows up to record the `TornDown` outcome.
    torn: StateSet<CircuitKey>,
    /// Undos decided at enqueue time, drained at the next tick.
    pending_undos: Vec<(CircuitKey, NodeId)>,
}

/// Wiring, [`State`], then scratch.
pub(crate) struct Ni {
    node: NodeId,
    topology: Topology,
    layout: VcLayout,
    mechanism: MechanismConfig,
    /// Where trace events go; disabled by default.
    sink: TraceSink,
    pub(crate) state: State,
    /// Occupied slots of `streams`: kept in step where a slot fills or
    /// empties, recounted by [`Ni::rebuild_scratch`]. Makes
    /// [`Ni::backlog`], asked after every NI tick for its busy bit, O(1).
    live_streams: usize,
    /// Reused scratch for [`Ni::inject_one`]'s sendable-VC collection.
    sendable: Vec<usize>,
}

impl Ni {
    pub(crate) fn new(node: NodeId, cfg: &NocConfig) -> Self {
        let layout = cfg.vc_layout();
        let total = layout.total();
        Self {
            node,
            topology: cfg.topology,
            layout,
            mechanism: cfg.mechanism,
            sink: TraceSink::default(),
            state: State {
                queues: [VecDeque::new(), VecDeque::new()],
                streams: vec![None; total],
                rr_stream: RoundRobin::new(total),
                vnet_rr: 0,
                circuit_queue: VecDeque::new(),
                circuit_active: None,
                circuit_link_free_at: 0,
                origins: StateMap::default(),
                torn: StateSet::default(),
                pending_undos: Vec::new(),
            },
            live_streams: 0,
            sendable: Vec::new(),
        }
    }

    pub(crate) fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// `true` if a fully built circuit origin for `key` is registered here.
    pub(crate) fn has_origin(&self, key: CircuitKey) -> bool {
        self.state.origins.contains_key(&key)
    }

    /// Fault-recovery teardown (DESIGN.md §10): forgets every circuit
    /// origin whose key is in `doomed`, remembering the key so the reply
    /// that would have ridden it records the `torn_down` outcome instead
    /// of a generic failure. The router entries are removed by the
    /// network; no undo propagation is needed.
    pub(crate) fn purge_origins(&mut self, doomed: &BTreeSet<CircuitKey>) {
        for key in doomed {
            if self.state.origins.remove(key).is_some() {
                self.state.torn.insert(*key);
            }
        }
    }

    /// Protocol-initiated circuit teardown (the L2-forwards-to-owner flow
    /// of §4.4). Records the `undone` outcome and starts undo propagation.
    pub(crate) fn undo_circuit(&mut self, key: CircuitKey, stats: &mut NocStats) -> bool {
        if self.state.origins.remove(&key).is_some() {
            stats.record_outcome(CircuitOutcome::Undone);
            self.state.pending_undos.push((key, key.requestor));
            true
        } else {
            false
        }
    }

    /// Enqueues the freshly injected packet `p` (the record in `slot`),
    /// planning its traversal into the record. Returns `true` when the
    /// packet is a reply that committed to riding its own complete
    /// circuit (the §4.6 NoAck condition).
    pub(crate) fn enqueue(
        &mut self,
        spec: &PacketSpec,
        slot: u32,
        p: &mut Packet,
        now: Cycle,
        stats: &mut NocStats,
    ) -> bool {
        if !spec.class.is_reply() {
            // A circuit needs at least one router-to-router hop: traffic
            // a tile sends itself never leaves its router.
            if spec.class.builds_circuit()
                && self.mechanism.circuits_enabled()
                && spec.src != spec.dst
            {
                let reply_flits = expected_reply_flits(spec.class);
                // The tail of a multi-flit request arrives len-1 cycles
                // after its head, so the responder's turnaround as seen
                // from the head's schedule is that much longer.
                let turnaround = spec.turnaround + (p.len - 1);
                let handle = CircuitHandle::new(
                    spec.src,
                    spec.block,
                    spec.dst,
                    self.topology.distance(spec.src, spec.dst),
                    reply_flits,
                    turnaround,
                )
                .with_policy(self.mechanism.timed);
                p.circuit = Some(handle);
            }
            self.state.queues[p.vnet.index()].push_back((slot, 0));
            return false;
        }

        // Reply: resolve its circuit situation.
        let mut outcome = CircuitOutcome::NotEligible;
        if let Some(key) = spec.circuit_key {
            match self.state.origins.get(&key) {
                Some(origin) if origin.handle.fully_built() => {
                    if self.mechanism.mode.is_complete() {
                        let earliest = now.max(self.state.circuit_link_free_at);
                        let start = match origin.handle.timing {
                            None => Some(earliest),
                            Some(t) => t.injection_time(earliest),
                        };
                        match start {
                            Some(t) => {
                                p.committed = true;
                                outcome = CircuitOutcome::OnCircuit;
                                p.riding = Some(key);
                                p.start_at = t;
                                self.state.circuit_link_free_at = t + p.len as Cycle;
                                self.state.origins.remove(&key);
                            }
                            None => {
                                // Missed the reserved window (§4.7): undo
                                // and go packet-switched.
                                outcome = CircuitOutcome::Undone;
                                self.state.origins.remove(&key);
                                self.state.pending_undos.push((key, key.requestor));
                            }
                        }
                    } else {
                        // Fragmented: ride wherever reserved; buffers
                        // guarantee progress everywhere else.
                        outcome = CircuitOutcome::OnCircuit;
                        p.riding = Some(key);
                        self.state.origins.remove(&key);
                    }
                }
                Some(_) => {
                    // Partially built fragmented circuit: still useful.
                    outcome = CircuitOutcome::Failed;
                    p.riding = Some(key);
                    self.state.origins.remove(&key);
                }
                None => {
                    outcome = if self.state.torn.remove(&key) {
                        // The circuit was built but a dead link tore it
                        // down before the reply could ride.
                        CircuitOutcome::TornDown
                    } else if spec.class.circuit_eligible() && self.mechanism.circuits_enabled() {
                        CircuitOutcome::Failed
                    } else {
                        CircuitOutcome::NotEligible
                    };
                }
            }
        }

        // Scrounger reuse (§4.5): ride a foreign complete circuit that
        // ends strictly closer to this reply's destination.
        if p.riding.is_none() && self.scrounge(p, now) {
            outcome = CircuitOutcome::Scrounger;
        }

        if spec.count_outcome {
            stats.record_outcome(outcome);
        }
        let tags = match (p.riding, p.scrounger_final) {
            (None, _) => 0,
            (Some(_), None) => Flit::RIDES,
            (Some(_), Some(_)) => Flit::RIDES | Flit::SCROUNGER,
        };
        if tags != 0 && self.mechanism.mode.is_complete() {
            self.state.circuit_queue.push_back((slot, tags));
        } else {
            self.state.queues[p.vnet.index()].push_back((slot, tags));
        }
        p.committed
    }

    /// Scrounger reuse (§4.5): if a suitable foreign circuit starts here,
    /// re-plans `p`'s traversal as a leg riding it to the circuit's end
    /// and reserves the circuit link for the stream.
    fn scrounge(&mut self, p: &mut Packet, now: Cycle) -> bool {
        if !self.mechanism.reuse_circuits || p.dst == self.node {
            return false;
        }
        let Some(key) = self.best_scrounge_target(p.dst, now) else {
            return false;
        };
        if !self.mechanism.scrounger_borrow {
            self.state.origins.remove(&key);
        }
        let start = now.max(self.state.circuit_link_free_at);
        p.scrounger_final = Some(p.dst);
        p.dst = key.requestor;
        p.riding = Some(key);
        p.start_at = start;
        self.state.circuit_link_free_at = start + p.len as Cycle;
        true
    }

    /// Re-injection of a scrounger at its intermediate node: same logical
    /// message, original timestamps, no new statistics.
    fn reenqueue_scrounger(&mut self, slot: u32, p: &mut Packet, final_dst: NodeId, now: Cycle) {
        p.dst = final_dst;
        p.scrounger_final = None;
        p.start_at = now;
        p.received = 0;
        // A scrounger may chain onto another circuit from here.
        if self.scrounge(p, now) {
            let tags = Flit::RIDES | Flit::SCROUNGER;
            self.state.circuit_queue.push_back((slot, tags));
        } else {
            self.state.queues[Vnet::Reply.index()].push_back((slot, 0));
        }
    }

    /// End-to-end retransmission of a packet lost by the fault layer: same id, token and creation time, but a fresh plain
    /// packet-switched traversal — a replacement circuit would need a new
    /// request, so retries never ride one. Injection statistics are not
    /// recounted (the original injection already was).
    pub(crate) fn reenqueue_retry(&mut self, slot: u32, p: &mut Packet, now: Cycle) {
        p.dst = p.final_dst();
        p.scrounger_final = None;
        p.injected_at = None;
        p.circuit = None;
        p.received = 0;
        p.start_at = now;
        self.state.queues[p.vnet.index()].push_back((slot, 0));
    }

    /// How long a circuit must have sat idle before a scrounger may take
    /// it. Scrounging *consumes* the circuit (DESIGN.md §4b), so stealing
    /// one whose reply is imminent trades a cheap ride for an expensive
    /// packet-switched data reply; circuits this old belong to
    /// memory-latency transactions that barely notice the loss.
    const SCROUNGE_MIN_IDLE: Cycle = 120;

    /// The long-idle, untimed, fully built circuit from this NI whose
    /// endpoint is closest to (and strictly closer than this node to)
    /// `final_dst`.
    fn best_scrounge_target(&self, final_dst: NodeId, now: Cycle) -> Option<CircuitKey> {
        let here = self.topology.distance(self.node, final_dst);
        self.state
            .origins
            .iter()
            .filter(|(_, o)| {
                o.handle.fully_built()
                    && o.handle.timing.is_none()
                    && now.saturating_sub(o.registered_at) >= Self::SCROUNGE_MIN_IDLE
            })
            .map(|(k, _)| (*k, self.topology.distance(k.requestor, final_dst)))
            .filter(|&(_, d)| d < here)
            .min_by_key(|&(k, d)| (d, k.requestor.0, k.block))
            .map(|(k, _)| k)
    }

    /// One NI cycle: process ejected flits, then inject at most one flit
    /// into the router's local port (circuit streams have priority);
    /// returns whether one was injected. `ejected` is the flit the
    /// router's ejection wire delivers this cycle, at most one; the
    /// injected flit and any circuit undos go out on `link`, the NI's
    /// single port, whose wires hold the NI's credits.
    ///
    /// Deliberately statistics-free: deliveries and the counted injection
    /// are surfaced through `out` and recorded into [`NocStats`] by the
    /// network, NI by NI in tile order (see [`NiOut::injection`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tick(
        &mut self,
        now: Cycle,
        ejected: Option<Flit>,
        topo: &TopologyHealth,
        packets: &mut Packets,
        out: &mut NiOut,
        link: &mut impl LinkSink,
    ) -> bool {
        for (key, dst) in self.state.pending_undos.drain(..) {
            link.undo(0, key, dst, now + Cycle::from(LINK_LATENCY));
        }
        if let Some(flit) = ejected {
            self.receive_flit(flit, now, packets, out);
        }
        let Some(flit) = self.inject_one(now, topo, packets, out, link.wires()) else {
            return false;
        };
        link.flit(0, flit, now + Cycle::from(LINK_LATENCY), packets);
        true
    }

    /// `true` when a tick with no arriving flits could still produce
    /// output: something is queued, streaming, or an undo is
    /// waiting to propagate — the NI's busy bit. A `false` NI receiving no
    /// input this cycle is a provable no-op, so the worklist may skip
    /// its tick.
    pub(crate) fn is_active(&self) -> bool {
        self.backlog() > 0 || !self.state.pending_undos.is_empty()
    }

    /// Takes one ejected flit out of the fabric; the tail completes the
    /// packet's current traversal.
    fn receive_flit(&mut self, flit: Flit, now: Cycle, packets: &mut Packets, out: &mut NiOut) {
        let p = &mut packets[flit.slot];
        p.received += 1;
        if flit.is_tail() {
            self.receive_packet(flit, p, now, out);
        }
        packets.flit_gone(flit.slot);
    }

    fn receive_packet(&mut self, tail: Flit, p: &mut Packet, now: Cycle, out: &mut NiOut) {
        debug_assert_eq!(p.received, p.len, "flits lost or duplicated in transit");
        if let Some(final_dst) = p.scrounger_final {
            if final_dst != self.node {
                self.reenqueue_scrounger(tail.slot, p, final_dst, now);
                return;
            }
        }

        // The delivery statistic is replayed by the network from the
        // `Delivered` record below: its arguments — class, queueing delay
        // (`injected_at - created_at`) and network latency
        // (`delivered_at - injected_at`) — are all fields of the record,
        // so the replay is exact.
        if let Some(h) = &p.circuit {
            let register = match self.mechanism.mode {
                CircuitMode::Complete | CircuitMode::Ideal => h.fully_built(),
                CircuitMode::Fragmented => h.built_hops > 0,
                CircuitMode::None => false,
            };
            if register {
                self.sink.emit(|| TraceEvent {
                    cycle: now,
                    kind: EventKind::CircuitConfirm {
                        node: self.node.0,
                        requestor: h.key.requestor.0,
                        block: h.key.block,
                    },
                });
                self.state.origins.insert(
                    h.key,
                    Origin {
                        handle: *h,
                        registered_at: now,
                    },
                );
            }
        }
        let delivered = Delivered {
            packet: p.id,
            src: p.src,
            dst: self.node,
            class: p.class,
            block: p.block,
            token: p.token,
            created_at: p.created_at,
            injected_at: p.injected_at.expect("stamped when the head left its NI"),
            delivered_at: now,
            circuit: p.circuit,
            // "Rode a circuit" means *its own* circuit: a scrounger ends
            // its circuit leg at an intermediate node and re-injects, so
            // it must not trigger ACK elision at the receiver (§4.6).
            rode_circuit: tail.rides() && !tail.scrounger(),
        };
        out.delivered.push((tail.slot, delivered));
    }

    /// The flit this NI sends into its router this cycle, if any, spending
    /// a credit of its VC's wire (the complete-mode circuit stream is
    /// uncredited).
    fn inject_one(
        &mut self,
        now: Cycle,
        topo: &TopologyHealth,
        packets: &mut Packets,
        out: &mut NiOut,
        wires: &mut [CreditWire],
    ) -> Option<Flit> {
        // Circuit streams first: they must hold their committed schedule.
        if self.state.circuit_active.is_none() {
            if let Some(&queued) = self.state.circuit_queue.front() {
                if packets[queued.0].start_at <= now {
                    self.state.circuit_queue.pop_front();
                    let vc = if self.layout.circuit_vcs > 0 {
                        self.layout.circuit_vc(0)
                    } else {
                        0
                    };
                    self.state.circuit_active = Some(Stream::start(queued, vc, packets));
                }
            }
        }
        if let Some(mut s) = self.state.circuit_active.take() {
            let flit = self.emit_flit(&mut s, now, topo, packets, out);
            if !flit.is_tail() {
                self.state.circuit_active = Some(s);
            }
            return Some(flit);
        }

        // Packet-switched: continue an in-flight stream or start one.
        self.collect_sendable(wires);
        if self.sendable.is_empty() {
            self.try_activate(wires, packets);
            self.collect_sendable(wires);
        }
        let vc = self.state.rr_stream.grant_among(&self.sendable)?;
        let mut s = self.state.streams[vc]
            .take()
            .expect("sendable stream exists");
        wires[vc].take();
        let flit = self.emit_flit(&mut s, now, topo, packets, out);
        if flit.is_tail() {
            self.live_streams -= 1;
        } else {
            self.state.streams[vc] = Some(s);
        }
        Some(flit)
    }

    /// Rebuilds the scratch list of VCs with a stream and a credit home
    /// at `now`.
    fn collect_sendable(&mut self, wires: &[CreditWire]) {
        self.sendable.clear();
        let vcs = self.state.streams.iter().zip(wires).enumerate();
        self.sendable.extend(
            vcs.filter(|(_, (s, w))| s.is_some() && w.available() > 0)
                .map(|(vc, _)| vc),
        );
    }

    /// Starts a new packet-switched stream if a VC of its class is fully
    /// idle at `now` (all credits home, no local stream).
    fn try_activate(&mut self, wires: &[CreditWire], packets: &mut Packets) {
        for attempt in 0..2 {
            let vn = (self.state.vnet_rr + attempt) % 2;
            let vnet = Vnet::ALL[vn];
            if self.state.queues[vn].is_empty() {
                continue;
            }
            let vc = self.layout.allocatable_vcs(vnet).find(|&vc| {
                self.state.streams[vc].is_none() && wires[vc].available() == BUFFER_DEPTH
            });
            if let Some(vc) = vc {
                let queued = self.state.queues[vn]
                    .pop_front()
                    .expect("queue checked non-empty");
                self.state.streams[vc] = Some(Stream::start(queued, vc, packets));
                self.live_streams += 1;
                self.state.vnet_rr = (vn + 1) % 2;
                return;
            }
        }
    }

    fn emit_flit(
        &mut self,
        s: &mut Stream,
        now: Cycle,
        topo: &TopologyHealth,
        packets: &mut Packets,
        out: &mut NiOut,
    ) -> Flit {
        let p = &mut packets[s.slot];
        if s.next_seq == 0 {
            if p.injected_at.is_none() {
                p.injected_at = Some(now);
            }
            if !p.counted {
                p.counted = true;
                out.injection = Some((p.class, p.len));
            }
            // Scrounger legs and retransmissions re-emit: the breakdown
            // post-pass keeps the first injection per packet id.
            self.sink.emit(|| TraceEvent {
                cycle: now,
                kind: EventKind::NiInject {
                    packet: p.id.0,
                    node: self.node.0,
                },
            });
            p.detour = topo.detours(&self.topology, self.node, p.dst, p.vnet);
            if p.detour {
                // A detoured request reserves nothing: its reply detours
                // too, so it would not retrace the reservations (§4.1).
                p.circuit = None;
                out.reroutes += 1;
                self.sink.emit(|| TraceEvent {
                    cycle: now,
                    kind: EventKind::NiReroute {
                        packet: p.id.0,
                        node: self.node.0,
                    },
                });
            }
        }
        let flit = Flit::new(s.slot, s.next_seq, p.len, s.vc, s.tags);
        s.next_seq += 1;
        flit
    }

    /// The packet copies this NI holds, as `(slot, flits sent)`: `None`
    /// flits sent for a copy still queued.
    pub(crate) fn copies(&self) -> impl Iterator<Item = (u32, Option<u32>)> + '_ {
        let state = &self.state;
        let queued = state.queues.iter().flatten().chain(&state.circuit_queue);
        let streams = state.streams.iter().flatten().chain(&state.circuit_active);
        queued
            .map(|q| (q.0, None))
            .chain(streams.map(|s| (s.slot, Some(s.next_seq.into()))))
    }

    /// Number of packets waiting or streaming (diagnostics).
    pub(crate) fn backlog(&self) -> usize {
        debug_assert_eq!(self.live_streams, Self::rebuild_scratch(&self.state));
        self.state.queues[0].len()
            + self.state.queues[1].len()
            + self.state.circuit_queue.len()
            + self.live_streams
            + usize::from(self.state.circuit_active.is_some())
    }

    /// The live-stream count `state` implies.
    fn rebuild_scratch(state: &State) -> usize {
        let State {
            streams,
            queues: _,
            rr_stream: _,
            vnet_rr: _,
            circuit_queue: _,
            circuit_active: _,
            circuit_link_free_at: _,
            origins: _,
            torn: _,
            pending_undos: _,
        } = state;
        streams.iter().flatten().count()
    }
}

rcsim_core::stateful!(Ni => State, live_streams = Ni::rebuild_scratch);
