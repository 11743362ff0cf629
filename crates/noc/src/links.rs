//! One sink per producer (DESIGN.md §9): routers and NIs hand every
//! message they emit to a [`LinkSink`]. For a router that is [`Links`], a
//! view of the network's link registers and credit wires that lets the
//! link-fault layer decide the message's fate and writes it once, where
//! it arrives; for an NI it is [`NiLink`], the fault-free wire into its
//! own router. Either also hands the producer its own credit wires.

use crate::calendar::Calendar;
use crate::config::NocConfig;
use crate::credit::{CreditWire, CreditWires};
use crate::fault::FaultState;
use crate::flit::{Flit, PacketId, Packets};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{Cycle, NodeId, TopologyHealth, PORT_LOCAL};
use rcsim_trace::{EventKind, TraceEvent, TraceSink};

/// Where a router or NI puts the messages it emits, one call per message
/// in emission order.
///
/// Ports are indices in `0..PORTS`: 0–3 the N/E/S/W network ports, 4 the
/// local port to the router's own tile. An NI has the single port 0, into
/// its router.
pub(crate) trait LinkSink {
    /// A flit leaving through output `port` (the local port ejects to the
    /// tile's NI); its `vc` field is the downstream buffer index. The
    /// link may lose the flit's packet in `packets`.
    fn flit(&mut self, port: usize, flit: Flit, arrive: Cycle, packets: &mut Packets);
    /// A credit for `vc` returned upstream through input port `port`,
    /// landing on the sender's wire at `arrive`.
    fn credit(&mut self, port: usize, vc: usize, arrive: Cycle);
    /// Circuit-undo information riding the credit channel (§4.4) out of
    /// `port` towards the circuit destination `dst` (the requestor).
    fn undo(&mut self, port: usize, key: CircuitKey, dst: NodeId, arrive: Cycle);
    /// The producer's own credit wires, one per output VC slot (a
    /// router's `port · vcs + vc`, an NI's injection VC).
    fn wires(&mut self) -> &mut [CreditWire];
}

/// The input port a flit sent out of network port `port` arrives on at
/// the downstream router. All four network ports are grid-directional
/// (N↔S, E↔W), so the opposite is a single XOR — valid on every
/// topology, including wraparound links and 2-wide tori where both of a
/// router's horizontal ports reach the same neighbour.
pub(crate) fn opposite_port(port: usize) -> usize {
    debug_assert!(port < PORT_LOCAL, "only network ports have an opposite");
    port ^ 2
}

/// An NI's wire into the local input port of its own router (index
/// `router`): fault-free, so it bypasses the link-fault layer and writes
/// the router's registers directly. `wires` are the NI's own.
pub(crate) struct NiLink<'a> {
    pub now: Cycle,
    pub router: usize,
    pub links: &'a mut Calendar,
    pub wires: &'a mut [CreditWire],
}

impl LinkSink for NiLink<'_> {
    fn flit(&mut self, _: usize, flit: Flit, arrive: Cycle, _: &mut Packets) {
        self.links
            .push_flit(self.router, self.now, arrive, PORT_LOCAL, flit);
    }

    fn credit(&mut self, _: usize, _: usize, _: Cycle) {
        unreachable!("ejection is uncredited: an NI returns no credits");
    }

    fn undo(&mut self, _: usize, key: CircuitKey, dst: NodeId, arrive: Cycle) {
        self.links
            .push_undo(self.router, self.now, arrive, key, dst);
    }

    fn wires(&mut self) -> &mut [CreditWire] {
        self.wires
    }
}

/// The sink a router or NI left off the worklist ticks into under the skip
/// law (debug builds, DESIGN.md §9): it keeps nothing, counts what it is
/// handed and lends the producer a copy of its credit wires.
pub(crate) struct Probe<'a> {
    sent: usize,
    wires: Vec<CreditWire>,
    home: &'a [CreditWire],
    sink: &'a TraceSink,
    events: u64,
}

impl<'a> Probe<'a> {
    pub(crate) fn new(wires: &'a [CreditWire], sink: &'a TraceSink) -> Self {
        Probe {
            sent: 0,
            wires: wires.to_vec(),
            home: wires,
            sink,
            events: sink.emitted(),
        }
    }

    /// `true` while the producer sent nothing, traced nothing and left its
    /// wires as they were.
    pub(crate) fn quiet(&self) -> bool {
        self.sent == 0 && self.wires == self.home && self.sink.emitted() == self.events
    }
}

impl LinkSink for Probe<'_> {
    fn flit(&mut self, _: usize, _: Flit, _: Cycle, _: &mut Packets) {
        self.sent += 1;
    }

    fn credit(&mut self, _: usize, _: usize, _: Cycle) {
        self.sent += 1;
    }

    fn undo(&mut self, _: usize, _: CircuitKey, _: NodeId, _: Cycle) {
        self.sent += 1;
    }

    fn wires(&mut self) -> &mut [CreditWire] {
        &mut self.wires
    }
}

/// End-to-end retransmissions of a lost packet before it is abandoned
/// and counted in `NocStats::dropped_packets`.
const MAX_RETRIES: u32 = 4;
/// Base retransmission delay in cycles: retry `n` waits `n × RETRY_BACKOFF`.
const RETRY_BACKOFF: Cycle = 64;

/// The routers' sink: everything a message leaving router `from` at `now`
/// can touch — both register sets, the credit wires, the neighbour
/// table, the link-fault layer and the end-to-end retry state (see
/// `Network::links`). The fault layer decides each message's fate in
/// emission order, which no skipped component moves.
pub(crate) struct Links<'a> {
    pub now: Cycle,
    pub from: NodeId,
    pub cfg: &'a NocConfig,
    pub neighbors: &'a [[Option<NodeId>; PORT_LOCAL]],
    pub router_links: &'a mut Calendar,
    pub ni_links: &'a mut Calendar,
    pub credits: &'a mut CreditWires,
    pub topo: &'a TopologyHealth,
    /// `topo.is_degraded()`, which cannot change while routers tick: on a
    /// healthy fabric no message asks the map about its hop.
    pub degraded: bool,
    pub faults: &'a mut Option<FaultState>,
    pub retry_queue: &'a mut Vec<(Cycle, u32, PacketId)>,
    pub dropped_packets: &'a mut u64,
    pub sink: &'a TraceSink,
    /// Packets (slot and id) that lost their head on a link since the
    /// last [`Links::settle`], with the cycle the loss takes effect.
    pub lost: Vec<(u32, PacketId, Cycle)>,
}

impl Links<'_> {
    /// The router out of `from`'s network port `port`. A message never
    /// leaves the fabric: XY/YX routing, credits and undo propagation all
    /// follow existing links. Should one try, losing it beats tearing
    /// down a long experiment run, and the watchdog will flag the wedged
    /// packet.
    fn neighbor(&self, port: usize) -> Option<NodeId> {
        let nb = self.neighbors[self.from.index()]
            .get(port)
            .copied()
            .flatten();
        debug_assert!(nb.is_some(), "{}/{port} leaves the fabric", self.from);
        nb
    }

    /// Schedules the end-to-end retransmissions of the packets lost
    /// since the last call — after the router's tick rather than inside
    /// it, so their trace events follow the tick's own. Called after
    /// every router tick, so the common empty case stays in the caller.
    #[inline]
    pub(crate) fn settle(&mut self, packets: &mut Packets) {
        if !self.lost.is_empty() {
            self.settle_lost(packets);
        }
    }

    #[cold]
    fn settle_lost(&mut self, packets: &mut Packets) {
        for (slot, id, at) in std::mem::take(&mut self.lost) {
            self.schedule_retry(packets, slot, id, at);
        }
    }

    /// Marks packet `id` (in `slot`) as hit by a fault and schedules its
    /// next end-to-end retransmission (linear backoff: retry `n` waits
    /// `n × RETRY_BACKOFF`), or abandons it once [`MAX_RETRIES`] are spent.
    /// No-op without fault injection, or when the packet is already
    /// resolved.
    fn schedule_retry(&mut self, packets: &mut Packets, slot: u32, id: PacketId, at: Cycle) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        let Some(rec) = packets.open_mut(slot, id) else {
            return;
        };
        if rec.retries < MAX_RETRIES {
            rec.retries += 1;
            fs.state.stats.retransmissions += 1;
            let attempt = rec.retries;
            let backoff = RETRY_BACKOFF * attempt as Cycle;
            self.retry_queue.push((at + backoff, slot, id));
            self.sink.emit(|| TraceEvent {
                cycle: at,
                kind: EventKind::NiRetry {
                    packet: id.0,
                    attempt,
                },
            });
        } else {
            fs.state.stats.packets_abandoned += 1;
            *self.dropped_packets += 1;
            let retries = rec.retries;
            packets.close(slot);
            self.sink.emit(|| TraceEvent {
                cycle: at,
                kind: EventKind::PacketDropped {
                    packet: id.0,
                    retries,
                },
            });
        }
    }

    /// Handles one flit lost on the dead link `from → nb`: makes up the
    /// downstream credit it will never earn, landing when the flit would
    /// have (a loss must not wedge the fabric), tears down the circuit
    /// reservations the packet leaves orphaned, and notes the end-to-end
    /// retransmission.
    fn drop_on_link(
        &mut self,
        nb: NodeId,
        port: usize,
        flit: Flit,
        arrive: Cycle,
        packets: &mut Packets,
    ) {
        let (now, from) = (self.now, self.from.index());
        let vc = usize::from(flit.vc);
        let slot = self.credits.router_slot(from, port, vc);
        self.credits.send(slot, vc, arrive);
        if flit.is_head() {
            let rec = &packets[flit.slot];
            if let Some(h) = &rec.circuit {
                // A dropped circuit-building request: undo the prefix of
                // reservations it made, starting from the last router it
                // crossed (the retransmission goes plain packet-switched).
                self.router_links
                    .push_undo(from, now, arrive, h.key, h.key.requestor);
            } else if let Some(key) = rec.riding.filter(|_| flit.rides()) {
                // A dropped circuit ride: the not-yet-used suffix of the
                // circuit (from the next router on) is torn down; routers
                // it already crossed were released by normal streaming.
                self.router_links
                    .push_undo(nb.index(), now, arrive, key, key.requestor);
            }
            self.lost.push((flit.slot, rec.id, arrive));
        }
        packets.flit_gone(flit.slot);
    }
}

impl LinkSink for Links<'_> {
    fn flit(&mut self, port: usize, flit: Flit, arrive: Cycle, packets: &mut Packets) {
        if port >= PORT_LOCAL {
            let tile = self.from.index();
            self.ni_links.push_flit(tile, self.now, arrive, 0, flit);
            return;
        }
        let Some(nb) = self.neighbor(port) else {
            packets.flit_gone(flit.slot);
            return;
        };
        if let Some(fs) = self.faults.as_mut() {
            let dead = self.degraded && !self.topo.link_usable(self.from, nb);
            let out = port * self.cfg.vc_layout().total() + usize::from(flit.vc);
            if fs.on_link_flit(self.from.index(), out, flit, dead) {
                self.drop_on_link(nb, port, flit, arrive, packets);
                return;
            }
        }
        self.router_links
            .push_flit(nb.index(), self.now, arrive, opposite_port(port), flit);
    }

    fn credit(&mut self, port: usize, vc: usize, arrive: Cycle) {
        let slot = if port >= PORT_LOCAL {
            self.credits.ni_slot(self.from.index(), vc)
        } else {
            let Some(nb) = self.neighbor(port) else {
                return;
            };
            // Credits deliberately survive dead links: the credit
            // backchannel is the recovery path's control plane, and
            // without it every VC that ever crossed the link would wedge
            // permanently (DESIGN.md §6b).
            self.credits
                .router_slot(nb.index(), opposite_port(port), vc)
        };
        self.credits.send(slot, vc, arrive);
    }

    fn undo(&mut self, port: usize, key: CircuitKey, dst: NodeId, arrive: Cycle) {
        let Some(nb) = self.neighbor(port) else {
            return;
        };
        // Undo propagation dies with a dead link; the entries beyond it
        // were removed by the scheduled-fault teardown, so nothing is
        // left to clean up.
        if !self.degraded || self.topo.link_usable(self.from, nb) {
            self.router_links
                .push_undo(nb.index(), self.now, arrive, key, dst);
        }
    }

    fn wires(&mut self) -> &mut [CreditWire] {
        self.credits.router_mut(self.from.index())
    }
}
