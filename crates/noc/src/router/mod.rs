//! The 4-stage wormhole VC router with Reactive Circuits extensions.
//!
//! Pipeline (Table 4): a head flit that arrives at cycle *t* is buffered
//! and route-computed during *t* (stage 1), VC-allocated at *t+1*
//! (stage 2, **in parallel with the circuit reservation** of §4.1),
//! switch-allocated at *t+2* (stage 3) and traverses the crossbar at *t+3*
//! (stage 4), reaching the next router at *t+5* after the 1-cycle link —
//! 5 cycles per hop ([`rcsim_core::table4`]). A reply that finds its
//! circuit reserved bypasses stages 1–3 entirely: it crosses the router
//! the cycle it arrives and reaches the next router 2 cycles later (§4.3).

pub(crate) mod alloc;
#[cfg(test)]
pub(crate) mod differential;
mod input;
#[cfg(test)]
pub(crate) mod reference;

use crate::config::{NocConfig, VcLayout};
use crate::credit::CreditWire;
use crate::flit::{Flit, PacketId, Packets};
use crate::links::LinkSink;
use crate::stats::Activity;
use alloc::RoundRobin;
use input::{InputVc, VcState};
use rcsim_core::circuit::timing::{nominal_inject, router_window};
use rcsim_core::circuit::{CircuitEntry, CircuitKey, ReserveRequest, RouterCircuits};
use rcsim_core::routing::Routing;
use rcsim_core::table4::{BUFFER_DEPTH, INJECT_OVERHEAD, LINK_LATENCY, REQ_VCS};
use rcsim_core::{
    CircuitMode, Cycle, MechanismConfig, NodeId, Topology, TopologyHealth, Vnet, PORTS, PORT_LOCAL,
};
use rcsim_trace::{EventKind, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How one output VC is held by a packet, from its head to its tail: a
/// VC-allocated packet, or on a circuit VC a stream crossing the bypass.
/// A VC no packet holds is free for VC allocation once all its credits
/// are home ([`Router::free_at`]); until then it is draining.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
enum Owner {
    /// Held by no packet.
    #[default]
    Free,
    /// Held by a packet streaming from `(in_port, in_vc)`.
    Owned(u8, u8),
}

/// A switch-allocation grant awaiting switch traversal next cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct StGrant {
    in_port: u8,
    in_vc: u8,
}

/// One port's three arbiters: the input side's over its VCs (switch
/// allocation phase 1), the output side's two over the input ports
/// (switch allocation phase 2, VC allocation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
struct PortArbiters {
    sa_in: RoundRobin,
    sa_out: RoundRobin,
    va_out: RoundRobin,
}

/// Width of the [`OccupancyIndex`] masks and capacity of the router's
/// per-VC arrays: a router may have at most this many input VCs (`PORTS ×
/// VcLayout::total()`).
const VC_INDEX_BITS: usize = u64::BITS as usize;

// The widest VC layout — `Fragmented`'s, plus the extra reply VC a wrap
// topology adds — fits the index on every port.
const _: () =
    assert!(PORTS * (REQ_VCS + MechanismConfig::fragmented().reply_vcs() + 1) <= VC_INDEX_BITS);

/// Which input VCs and retry queues hold work — the request lines a
/// hardware allocator sees, so the pipeline stages visit busy VCs only
/// instead of scanning `ports × VCs` states per tick.
///
/// This is *scratch*, not *state* (DESIGN.md §13): every field is a
/// function of the VC states, VC buffers and bypass-retry queues, is
/// rebuilt from them by [`Router::rebuild_scratch`] on restore, and is never
/// serialized. It is maintained where a VC changes state
/// ([`Router::buffer_flit`], the VA grant, the tail's reset in
/// [`Router::stage_st`]) and where a flit enters or leaves a buffer or
/// retry queue. Bit `p·total+v` stands for input VC `(p, v)`, so walking
/// set bits in ascending order is the `for p { for v { .. } }` order of a
/// full scan — arbitration, reservation and trace-event order are those
/// of the scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C)]
struct OccupancyIndex {
    /// VCs in `WaitVa`.
    wait_va: u64,
    /// VCs in `WaitSa` or `Active`.
    post_va: u64,
    /// Flits buffered across all input VCs.
    buffered: usize,
    /// Input ports whose bypass-retry queue holds flits.
    retries: u64,
}

/// The set bit positions of `mask`, ascending.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// A router's state (DESIGN.md §13), flat: everything per VC — input or
/// output side — lives at slot `port · total + vc`, the numbering of the
/// [`OccupancyIndex`] bits, in arrays of [`VC_INDEX_BITS`] entries, and
/// everything per port at slot `port`, in arrays of [`PORTS`] entries,
/// all inside the router itself, each entry as narrow as the layout
/// lets it be. They serialize
/// whole: the entries past the last slot are never touched, so
/// they are the same constants in every snapshot. Declaration order is
/// memory order (DESIGN.md §9 has the field → cache line table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[repr(C)]
pub(crate) struct State {
    /// Switch grants awaiting traversal: the first `st_len` entries of
    /// `st_pending`, in grant order (at most one per input port).
    st_len: u8,
    /// `true` once a link of this router has died (set by the network
    /// when a scheduled dead link fires; links never heal).
    /// Degraded routers take no part in circuits: reservations are
    /// refused and bypasses forced to the packet pipeline (DESIGN.md
    /// §10).
    degraded: bool,
    /// Who holds each output VC, by slot: VA's grant, or a circuit
    /// stream's head on a circuit VC. (Its credits are on the network's
    /// credit wires, which the router reads through its sink.)
    owner: [Owner; VC_INDEX_BITS],
    st_pending: [StGrant; PORTS],
    /// The arbiters, by port.
    arbiters: [PortArbiters; PORTS],
    pub(crate) activity: Activity,
    /// The input VCs, by slot: control words and flit ring, a line each.
    vcs: Vec<InputVc>,
    /// Flits that found their VC's ring full, as `(slot, flit)` in
    /// arrival order. Growable, because one bound cannot be proven: the
    /// complete-mode circuit VC is uncredited, so a torn circuit's
    /// fallen-back stream is bounded by its packet's length, not by
    /// [`BUFFER_DEPTH`].
    spill: Vec<(u8, Flit)>,
    pub(crate) circuits: RouterCircuits,
    /// Per input port, bypass flits that found their output taken this
    /// cycle or their output circuit VC held by another stream, or
    /// arrived while an earlier flit is still queued.
    bypass_retry: Vec<VecDeque<Flit>>,
}

/// Wiring, [`State`] and scratch: the [`OccupancyIndex`] is derived
/// from the state; `out_busy` is dead at the tick boundaries where
/// snapshots are taken, so a router the worklist skipped snapshots the
/// same as a ticked one (the skip law). Declaration order is memory
/// order: the first line is all an idle test or the top of a tick reads.
#[repr(C)]
pub(crate) struct Router {
    occ: OccupancyIndex,
    /// Crossbar outputs used this cycle, as a mask over output ports
    /// (circuits have priority, §4.3); cleared at the top of every tick.
    out_busy: u64,
    topology: Topology,
    /// Where trace events go; disabled by default.
    sink: TraceSink,
    /// Router id, which is its tile's.
    node: NodeId,
    /// VCs per port (`VcLayout::total()`), cached like the byte after
    /// it.
    vcs: u8,
    /// `mechanism.timed.is_timed()`.
    timed: bool,
    /// Bit `v`: VC `v` takes a credit per flit (`VcLayout::credited`).
    credited: u16,
    pub(crate) state: State,
    layout: VcLayout,
    mechanism: MechanismConfig,
}

const _: () = assert!(std::mem::offset_of!(Router, state) == 64);
const _: () = assert!(std::mem::size_of::<Router>() == 640);

impl Router {
    pub(crate) fn new(node: NodeId, cfg: &NocConfig) -> Self {
        let layout = cfg.vc_layout();
        let total = layout.total();
        let arbiters = PortArbiters {
            sa_in: RoundRobin::new(total),
            sa_out: RoundRobin::new(PORTS),
            va_out: RoundRobin::new(PORTS),
        };
        Self {
            occ: OccupancyIndex::default(),
            out_busy: 0,
            topology: cfg.topology,
            sink: TraceSink::default(),
            node,
            vcs: total as u8,
            timed: cfg.mechanism.timed.is_timed(),
            credited: (0..total)
                .filter(|&v| cfg.credited(v))
                .fold(0, |m, v| m | 1 << v),
            state: State {
                st_len: 0,
                degraded: false,
                owner: [Owner::Free; VC_INDEX_BITS],
                st_pending: [StGrant::default(); PORTS],
                arbiters: [arbiters; PORTS],
                activity: Activity::default(),
                vcs: vec![InputVc::default(); PORTS * total],
                spill: Vec::new(),
                circuits: RouterCircuits::new(
                    cfg.mechanism.mode,
                    cfg.mechanism.max_circuits_per_input,
                    cfg.mechanism.circuit_vcs().max(1),
                ),
                bypass_retry: (0..PORTS).map(|_| VecDeque::new()).collect(),
            },
            layout,
            mechanism: cfg.mechanism,
        }
    }

    pub(crate) fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// The slot of VC `(port, vc)`, on the input or the output side.
    fn slot(&self, port: usize, vc: usize) -> usize {
        port * usize::from(self.vcs) + vc
    }

    /// The `(port, vc)` a slot stands for.
    fn port_vc(&self, slot: usize) -> (usize, usize) {
        (slot / usize::from(self.vcs), slot % usize::from(self.vcs))
    }

    /// Every flit this router holds, with the input port it came in on
    /// (its `vc` field is the input VC), in no particular order.
    pub(crate) fn flits(&self) -> impl Iterator<Item = (usize, Flit)> + '_ {
        let vcs = usize::from(self.vcs);
        let buffered = (self.state.vcs.iter().enumerate())
            .flat_map(move |(slot, vc)| vc.flits().map(move |f| (slot / vcs, f)));
        let spilled = (self.state.spill.iter()).map(move |s| (usize::from(s.0) / vcs, s.1));
        let retrying = (self.state.bypass_retry.iter().enumerate())
            .flat_map(|(p, q)| q.iter().map(move |&f| (p, f)));
        buffered.chain(spilled).chain(retrying)
    }

    /// Appends a human-readable dump of this router's non-idle pipeline
    /// state (waiting VCs, bypass retry queues, held or draining output
    /// VCs with the credits home on `wires`) — used by wedge-diagnosis
    /// assertions to show *where* traffic stuck.
    pub(crate) fn debug_dump(&self, wires: &[CreditWire], packets: &Packets, out: &mut String) {
        use std::fmt::Write;
        for (i, vc) in self
            .state
            .vcs
            .iter()
            .enumerate()
            .filter(|(_, vc)| !vc.is_idle())
        {
            let (p, v) = self.port_vc(i);
            let head = vc
                .front()
                .map(|f| (packets[f.slot].id.0, f.kind(), f.rides()));
            writeln!(
                out,
                "  {:?} in[{p}][{v}] state={:?} since={} route={:?} out_vc={:?} buf={} head={:?}",
                self.node,
                vc.state,
                vc.state_since,
                vc.route,
                vc.out_vc,
                vc.len(),
                head
            )
            .ok();
        }
        for (p, q) in self.state.bypass_retry.iter().enumerate() {
            if !q.is_empty() {
                let items: Vec<_> = q
                    .iter()
                    .map(|f| (packets[f.slot].id.0, f.kind(), f.vc, f.rides()))
                    .collect();
                writeln!(out, "  {:?} bypass_retry[{p}]: {items:?}", self.node).ok();
            }
        }
        for o in 0..PORTS {
            let owned: Vec<_> = (0..self.layout.total())
                .map(|v| (v, self.slot(o, v)))
                .filter(|&(_, i)| !self.free_at(wires, i))
                .map(|(v, i)| {
                    let cr = self.home(wires, i);
                    match self.state.owner[i] {
                        Owner::Free => format!("vc{v}=Draining cr{cr}"),
                        owner => format!("vc{v}={owner:?} cr{cr}"),
                    }
                })
                .collect();
            if !owned.is_empty() {
                writeln!(out, "  {:?} out[{o}]: {owned:?}", self.node).ok();
            }
        }
        if self.state.st_len > 0 {
            writeln!(
                out,
                "  {:?} st_pending: {:?}",
                self.node,
                &self.state.st_pending[..self.state.st_len.into()]
            )
            .ok();
        }
    }

    /// Marks this router as an endpoint of a dead link; the network sets
    /// the flag when a scheduled dead link fires.
    pub(crate) fn set_degraded(&mut self, degraded: bool) {
        self.state.degraded = degraded;
    }

    /// The credits of output VC `slot` home at `now`: its wire's, or the
    /// whole buffer on an (uncredited) ejection port, which has no wire.
    fn home(&self, wires: &[CreditWire], slot: usize) -> u8 {
        wires.get(slot).map_or(BUFFER_DEPTH, |w| w.available())
    }

    /// `true` when output VC `slot` may be VC-allocated at `now`: no
    /// packet holds it and every credit of the downstream buffer is home.
    /// A VC the tail left whose credits are still on the way is draining.
    fn free_at(&self, wires: &[CreditWire], slot: usize) -> bool {
        self.state.owner[slot] == Owner::Free && self.home(wires, slot) == BUFFER_DEPTH
    }

    // The allocator's rules, each written once: the stages decide by them
    // and [`Router::waiters`] reports by them.

    /// `true` when a packet holding output VC `out_vc` of port `route` may
    /// send a flit at `now`: a credit is home, or it needs none — the
    /// ejection port and the circuit class, whose VCs reservations manage
    /// (fragmented gap traffic).
    fn may_send(&self, wires: &[CreditWire], route: usize, out_vc: usize) -> bool {
        route >= PORT_LOCAL
            || wires[self.slot(route, out_vc)].available() > 0
            || self.layout.is_circuit_vc(out_vc)
    }

    /// The first output VC of `out_port` that a packet of `vnet` bound for
    /// `dst` may be allocated at `now`: of its [`Router::allocatable`]
    /// class, and [`Router::free_at`].
    fn free_vc(
        &self,
        wires: &[CreditWire],
        out_port: usize,
        vnet: Vnet,
        dst: NodeId,
    ) -> Option<usize> {
        (self.allocatable(out_port, vnet, dst))
            .find(|&ovc| self.free_at(wires, self.slot(out_port, ovc)))
    }

    /// Runs one cycle. The flits reaching this router this cycle are
    /// `regs[p]` for each set bit `p` of `arrived` (its link registers as
    /// they hand them over), and `undos` the undos (drained in place so
    /// the caller can reuse the buffer); produced messages go straight
    /// onto `out`, and the router's credits are `out`'s wires, read at
    /// `now`. Flits are handles into `packets`; detoured heads route by
    /// `health`'s up*/down* table.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tick(
        &mut self,
        now: Cycle,
        arrived: u64,
        regs: &[Flit; PORTS],
        undos: &mut Vec<(CircuitKey, NodeId)>,
        packets: &mut Packets,
        health: &TopologyHealth,
        out: &mut impl LinkSink,
    ) {
        self.out_busy = 0;
        // The heads waiting since an earlier cycle: the ones VA may see.
        let ripe = self.occ.wait_va;

        // The undo information credits may carry (§4.4).
        if !undos.is_empty() {
            for (key, dst) in undos.drain(..) {
                self.process_undo(now, key, dst, out);
            }
        }

        if self.timed {
            // A few cycles of grace keep boundary-case replies (committed
            // at the very edge of their window) from losing their entries;
            // lookups are key-matched, so lingering entries are harmless.
            self.state.circuits.expire(now.saturating_sub(4));
        }

        // Input control: the parked flits first, in order per input VC,
        // then the arrivals; a riding flit looks its circuit up (§4.3).
        for port in bits(self.occ.retries) {
            self.retry(now, port, packets, health, out);
        }
        for port in bits(arrived) {
            let flit = regs[port];
            self.state.activity.circuit_lookups += u64::from(flit.rides());
            self.arrive(now, port, flit, packets, health, out);
        }

        self.stage_st(now, packets, out);
        self.stage_sa(now, packets, out);
        self.stage_va(now, ripe, packets, out);
        debug_assert_eq!(self.check_index(), Ok(()));
    }

    /// `true` while a tick with no arriving messages could still change
    /// state through the pipeline: flits are buffered, a switch grant or
    /// bypass retry is pending (three O(1) tests: the grant count and the
    /// index's flit count and retry mask) — the router's busy bit. A router
    /// neither busy nor [`Router::expires`] receiving nothing this cycle
    /// only clears `out_busy` and returns early from every stage — all
    /// no-ops — so the worklist may skip its tick.
    pub(crate) fn is_busy(&self) -> bool {
        self.state.st_len > 0 || self.occ.buffered > 0 || self.occ.retries != 0
    }

    /// `true` while a timed mechanism's table holds entries: the routers
    /// the worklist asks [`Router::expires`].
    pub(crate) fn holds_timed(&self) -> bool {
        self.timed && self.state.circuits.total_entries() > 0
    }

    /// `true` when a timed circuit entry is (over)due for expiry: `tick`
    /// expires entries at `now - 4`, so stay awake from the cycle that
    /// check starts firing.
    pub(crate) fn expires(&self, now: Cycle) -> bool {
        // The cheap test first: `next_expiry` scans every port's entries.
        let due = |end| now.saturating_sub(4) >= end;
        self.timed && self.state.circuits.next_expiry().is_some_and(due)
    }

    /// Undo handling: clear the local reservation and forward the undo
    /// towards the circuit destination (it rides credits, 1 cycle/hop).
    fn process_undo(&mut self, now: Cycle, key: CircuitKey, dst: NodeId, out: &mut impl LinkSink) {
        let port = match self.state.circuits.undo(key) {
            Some(entry) => {
                self.sink.emit(|| TraceEvent {
                    cycle: now,
                    kind: EventKind::CircuitTear {
                        node: self.node.0,
                        requestor: key.requestor.0,
                        block: key.block,
                    },
                });
                entry.out_port
            }
            // No reservation here (fragmented gap, or already expired):
            // keep following the reply path towards the destination.
            None => {
                if self.node == dst {
                    return;
                }
                self.topology.min_route_port(self.node, dst, Routing::Yx)
            }
        };
        if port < PORT_LOCAL {
            self.state.activity.credits += 1;
            out.undo(port, key, dst, now + Cycle::from(LINK_LATENCY));
        }
    }

    /// Starts undo propagation for the built prefix of a doomed circuit
    /// out of `port`, towards the requestor.
    fn start_undo(&mut self, now: Cycle, port: usize, key: CircuitKey, out: &mut impl LinkSink) {
        self.state.activity.credits += 1;
        out.undo(port, key, key.requestor, now + Cycle::from(LINK_LATENCY));
    }

    /// A flit arriving on `port` goes on now (see [`Router::bypass`]), or
    /// parks: when it must wait, or when its own VC has flits parked. A
    /// stream keeps its order, and one that holds an output never waits
    /// behind a head that waits for it.
    fn arrive(
        &mut self,
        now: Cycle,
        port: usize,
        flit: Flit,
        packets: &mut Packets,
        health: &TopologyHealth,
        out: &mut impl LinkSink,
    ) {
        let queue = &self.state.bypass_retry[port];
        let behind = self.occ.retries >> port & 1 == 1 && queue.iter().any(|f| f.vc == flit.vc);
        if behind || !self.bypass(now, port, flit, packets, health, out) {
            self.state.bypass_retry[port].push_back(flit);
            self.occ.retries |= 1 << port;
        }
    }

    /// The flits parked on `port`, oldest first: each input VC's go on
    /// until one of them must wait, and the other VCs' go on past it.
    fn retry(
        &mut self,
        now: Cycle,
        port: usize,
        packets: &mut Packets,
        health: &TopologyHealth,
        out: &mut impl LinkSink,
    ) {
        let (mut waiting, mut i) = (0u64, 0);
        while let Some(&flit) = self.state.bypass_retry[port].get(i) {
            if waiting >> flit.vc & 1 == 0 && self.bypass(now, port, flit, packets, health, out) {
                self.state.bypass_retry[port].remove(i);
            } else {
                waiting |= 1 << flit.vc;
                i += 1;
            }
        }
        if i == 0 {
            self.occ.retries &= !(1 << port);
        }
    }

    /// Input control's circuit branch (§4.3) for `flit`, in on `port`:
    /// with a usable [`Router::circuit`] it crosses now, unless a circuit
    /// took that output this cycle or another stream holds its output
    /// circuit VC (the wormhole rule: a head claims the VC, its tail frees
    /// it); without, it takes the pipeline, unless it is a head whose VC
    /// still drains an earlier packet. `false` if it must wait.
    fn bypass(
        &mut self,
        now: Cycle,
        port: usize,
        flit: Flit,
        packets: &mut Packets,
        health: &TopologyHealth,
        out: &mut impl LinkSink,
    ) -> bool {
        match self.circuit(port, flit, packets, out) {
            Some((entry, gvc)) => {
                let held = self.state.owner[self.slot(entry.out_port, gvc)];
                if self.out_busy >> entry.out_port & 1 == 1
                    || held != Owner::Free && held != Owner::Owned(port as u8, flit.vc)
                {
                    return false;
                }
                self.cross(now, port, flit, entry, gvc, packets, out);
            }
            // E.g. a circuit stream forced onto the pipeline by a degraded
            // router: its head waits, in order, rather than corrupt the
            // wormhole ahead of it.
            None if flit.is_head()
                && !self.state.vcs[self.slot(port, flit.vc.into())].is_idle() =>
            {
                return false;
            }
            None => self.buffer_flit(now, port, flit, packets, health),
        }
        true
    }

    /// The reservation riding `flit`, on input `port`, may cross on, and
    /// the output circuit VC it leaves on (the table numbers a fragmented
    /// circuit's VC below `circuit_vcs`, and every other circuit's 0). A
    /// degraded router, or a fragmented head whose downstream circuit VC
    /// could not hold its message, releases the reservation instead, and
    /// the flit takes the pipeline.
    fn circuit(
        &mut self,
        port: usize,
        flit: Flit,
        packets: &Packets,
        out: &mut impl LinkSink,
    ) -> Option<(CircuitEntry, usize)> {
        if !flit.rides() {
            return None;
        }
        let key = packets[flit.slot]
            .riding
            .expect("a riding flit's record names the circuit");
        // No reservation here: a fragmented gap, or a head that already
        // fell back and released the entry.
        let entry = *self.state.circuits.lookup(port, key)?;
        let gvc = self.layout.circuit_vc(usize::from(entry.vc));
        // Circuits are disabled while this router borders a dead region:
        // drop the local reservation, so it cannot leak — the tail that
        // would have released it now streams through the pipeline.
        let mut fall_back = self.state.degraded;
        if self.mechanism.mode == CircuitMode::Fragmented
            && flit.is_head()
            && entry.out_port < PORT_LOCAL
        {
            // Fragmented circuits keep buffers: the downstream circuit VC
            // must be able to hold the whole message in case its own
            // reservation there is missing (§4.2 "messages can always be
            // stored"), so a head needs it completely idle, all credits
            // home — the packet-switched draining rule.
            fall_back |= out.wires()[self.slot(entry.out_port, gvc)].available() < BUFFER_DEPTH;
        }
        if fall_back {
            self.release_circuit(port, key);
            return None;
        }
        Some((entry, gvc))
    }

    /// Gives the reservation of `key` at input `port` up before its tail
    /// crossed: a stream cut mid-way (a degraded onset, or the network's
    /// teardown) frees the output circuit VC its head claimed.
    pub(crate) fn release_circuit(&mut self, port: usize, key: CircuitKey) -> Option<CircuitEntry> {
        let entry = self.state.circuits.release(port, key)?;
        // An entry in use is its stream's from the head's claim on.
        if entry.in_use {
            self.state.owner[self.circuit_slot(entry)] = Owner::Free;
        }
        Some(entry)
    }

    /// The slot of the output circuit VC a flit crossing on `entry` takes.
    fn circuit_slot(&self, entry: CircuitEntry) -> usize {
        self.slot(
            entry.out_port,
            self.layout.circuit_vc(usize::from(entry.vc)),
        )
    }

    /// One-cycle circuit traversal, straight through the crossbar (§4.3),
    /// onto output circuit VC `(entry.out_port, gvc)`.
    #[allow(clippy::too_many_arguments)]
    fn cross(
        &mut self,
        now: Cycle,
        port: usize,
        mut flit: Flit,
        entry: CircuitEntry,
        gvc: usize,
        packets: &mut Packets,
        out: &mut impl LinkSink,
    ) {
        let key = entry.key;
        let out_slot = self.slot(entry.out_port, gvc);
        if flit.is_head() {
            self.state.owner[out_slot] = Owner::Owned(port as u8, flit.vc);
            self.state.circuits.begin_use(port, key);
            self.sink.emit(|| TraceEvent {
                cycle: now,
                kind: EventKind::CircuitBypass {
                    packet: packets[flit.slot].id.0,
                    node: self.node.0,
                },
            });
        }
        if flit.is_tail() {
            if flit.scrounger() && self.mechanism.scrounger_borrow {
                // Borrowing scrounger: the circuit survives for its own
                // reply. If an undo raced the borrow, the entry comes
                // back here — the undo already continued downstream, so
                // dropping it completes the teardown.
                self.state.circuits.end_use(port, key);
            } else {
                // The tail clears the built-circuit bit (§4.3);
                // consuming scroungers release the same way (DESIGN.md).
                self.state.circuits.release(port, key);
            }
            self.state.owner[out_slot] = Owner::Free;
        }
        // A bypassed flit never occupies the buffer slot its VC credit paid
        // for; return the credit immediately where the VC is credited.
        let in_vc = usize::from(flit.vc);
        if self.credited >> in_vc & 1 == 1 {
            self.state.activity.credits += 1;
            out.credit(port, in_vc, now + Cycle::from(LINK_LATENCY));
        }
        self.out_busy |= 1 << entry.out_port;
        self.state.activity.xbar_traversals += 1;
        flit.vc = gvc as u8;
        // Fragmented circuit VCs are buffered and credited; the bypass
        // consumes the downstream slot it may need at a gap router.
        if self.mechanism.mode == CircuitMode::Fragmented && entry.out_port < PORT_LOCAL {
            out.wires()[out_slot].take();
        }
        let arrive = if entry.out_port >= PORT_LOCAL {
            now + 1
        } else {
            self.state.activity.link_flits += 1;
            now + 1 + Cycle::from(LINK_LATENCY)
        };
        out.flit(entry.out_port, flit, arrive, packets);
    }

    /// Stage 1: buffer write and route computation.
    fn buffer_flit(
        &mut self,
        now: Cycle,
        port: usize,
        flit: Flit,
        packets: &Packets,
        health: &TopologyHealth,
    ) {
        let slot = self.slot(port, flit.vc.into());
        debug_assert!(!flit.is_head() || self.state.vcs[slot].is_idle());
        self.state.activity.buffer_writes += 1;
        if flit.is_head() {
            let p = &packets[flit.slot];
            let hop = (self.topology).route(self.node, port, p.dst, p.vnet, p.detour, health);
            let vc = &mut self.state.vcs[slot];
            vc.route = Some(hop as u8);
            vc.state = VcState::WaitVa;
            vc.state_since = now;
            vc.circuit_attempted = false;
            self.occ.wait_va |= 1 << slot;
        }
        if !self.state.vcs[slot].push(flit) {
            self.state.spill.push((slot as u8, flit));
        }
        self.occ.buffered += 1;
    }

    /// Takes the oldest flit out of the input VC at `slot`; the ring then
    /// takes over the VC's oldest spilled flit, if any.
    fn unbuffer(&mut self, slot: usize) -> Flit {
        let vc = &mut self.state.vcs[slot];
        let flit = vc.pop().expect("granted VC has a flit");
        self.occ.buffered -= 1;
        if !self.state.spill.is_empty() {
            let spilled = self
                .state
                .spill
                .iter()
                .position(|s| usize::from(s.0) == slot);
            if let Some(k) = spilled {
                vc.push(self.state.spill.remove(k).1);
            }
        }
        flit
    }

    /// Stage 4: switch traversal for last cycle's SA winners. Circuit
    /// bypasses processed earlier this cycle have already claimed their
    /// output ports (crossbar priority, §4.3); blocked grants retry.
    fn stage_st(&mut self, now: Cycle, packets: &mut Packets, out: &mut impl LinkSink) {
        // Blocked grants re-queue at the front of the list they are read
        // from, in order: never ahead of the read position.
        let granted = usize::from(std::mem::take(&mut self.state.st_len));
        for i in 0..granted {
            let g = self.state.st_pending[i];
            let (in_port, in_vc) = (usize::from(g.in_port), usize::from(g.in_vc));
            let slot = self.slot(in_port, in_vc);
            let vc = &self.state.vcs[slot];
            let route = usize::from(vc.route.expect("granted VC has a route"));
            let out_vc = usize::from(vc.out_vc.expect("granted VC has an output VC"));
            if self.out_busy >> route & 1 == 1 {
                self.state.st_pending[usize::from(self.state.st_len)] = g;
                self.state.st_len += 1;
                continue;
            }
            let mut flit = self.unbuffer(slot);
            let is_tail = flit.is_tail();
            if is_tail {
                self.state.vcs[slot].reset(now);
                self.occ.post_va &= !(1 << slot);
            }
            if flit.is_head() {
                self.sink.emit(|| TraceEvent {
                    cycle: now,
                    kind: EventKind::StageSt {
                        packet: packets[flit.slot].id.0,
                        node: self.node.0,
                    },
                });
            }
            self.state.activity.buffer_reads += 1;
            self.state.activity.xbar_traversals += 1;

            // Return the freed buffer slot upstream, where the VC is
            // credited (a stream fallen back off an uncredited circuit VC
            // returns none).
            if self.credited >> in_vc & 1 == 1 {
                self.state.activity.credits += 1;
                out.credit(in_port, in_vc, now + Cycle::from(LINK_LATENCY));
            }

            let out_slot = self.slot(route, out_vc);
            self.out_busy |= 1 << route;
            flit.vc = out_vc as u8;
            let arrive = if route >= PORT_LOCAL {
                now + 1
            } else {
                out.wires()[out_slot].take();
                self.state.activity.link_flits += 1;
                now + 1 + Cycle::from(LINK_LATENCY)
            };
            if is_tail {
                // Draining until its credits are home ([`Router::free_at`]).
                self.state.owner[out_slot] = Owner::Free;
            }
            out.flit(route, flit, arrive, packets);
        }
    }

    // The allocators cost what they decide: each walks the set bits of
    // its requests, a lone request passes the same arbiter and grant
    // code as contended ones, and an idle stage returns at once.

    /// Stage 3: two-phase round-robin switch allocation; winners traverse
    /// the crossbar next cycle.
    fn stage_sa(&mut self, now: Cycle, packets: &Packets, out: &mut impl LinkSink) {
        // Inputs with a grant still pending ST cannot be granted again.
        let mut live = self.occ.post_va;
        for g in &self.state.st_pending[..self.state.st_len.into()] {
            live &= !self.port_mask(g.in_port.into());
        }
        if live == 0 {
            return;
        }
        let wires = &*out.wires();
        if live & (live - 1) == 0 {
            // One VC: phase 1's nominee is phase 2's only contender.
            let (p, v) = self.port_vc(live.trailing_zeros() as usize);
            if let Some(route) = self.sa_request(now, wires, p, v) {
                self.state.arbiters[p].sa_in.grant_mask(1 << v);
                self.state.arbiters[route].sa_out.grant_mask(1 << p);
                self.sa_grant(now, p, v, packets);
            }
            return;
        }
        // Phase 1: each input port holding a post-VA VC nominates one.
        // `wanted` collects the output ports some nominee routes to, and
        // `contend` per output port the input ports asking for it.
        let (mut wanted, mut contend, mut nominee) = (0u64, [0u8; PORTS], [0u8; PORTS]);
        while live != 0 {
            let (p, _) = self.port_vc(live.trailing_zeros() as usize);
            let port_vcs = self.port_bits(live, p);
            live &= !self.port_mask(p);
            let mut requests = 0u64;
            for v in bits(port_vcs) {
                requests |= u64::from(self.sa_request(now, wires, p, v).is_some()) << v;
            }
            if let Some(v) = self.state.arbiters[p].sa_in.grant_mask(requests) {
                let route = self.sa_request(now, wires, p, v).expect("the nominee asks");
                nominee[p] = v as u8;
                contend[route] |= 1 << p;
                wanted |= 1 << route;
            }
        }
        // Phase 2: each requested output port grants one nominee.
        for o in bits(wanted) {
            let winner = (self.state.arbiters[o].sa_out.grant_mask(contend[o].into()))
                .expect("a nominee asks for its route");
            self.sa_grant(now, winner, nominee[winner].into(), packets);
        }
    }

    /// SA's request line from the post-VA VC `(p, v)`: its route when it
    /// has reached the stage, holds a flit and [`Router::may_send`].
    fn sa_request(&self, now: Cycle, wires: &[CreditWire], p: usize, v: usize) -> Option<usize> {
        let vc = &self.state.vcs[self.slot(p, v)];
        let stage_ok = match vc.state {
            VcState::WaitSa => vc.state_since < now,
            VcState::Active => true,
            _ => false,
        };
        if !stage_ok || vc.len() == 0 {
            return None;
        }
        let route = usize::from(vc.route.expect("post-VA VC has a route"));
        let out_vc = usize::from(vc.out_vc.expect("post-VA VC has an output VC"));
        self.may_send(wires, route, out_vc).then_some(route)
    }

    /// SA's grant to input VC `(p, v)`: it traverses the crossbar next
    /// cycle.
    fn sa_grant(&mut self, now: Cycle, p: usize, v: usize, packets: &Packets) {
        let slot = self.slot(p, v);
        if self.state.vcs[slot].state == VcState::WaitSa {
            self.advance(now, slot, VcState::Active, packets);
        }
        self.state.activity.sw_allocs += 1;
        self.state.st_pending[usize::from(self.state.st_len)] = StGrant {
            in_port: p as u8,
            in_vc: v as u8,
        };
        self.state.st_len += 1;
    }

    /// Stage 2: VC allocation — and, in parallel, the reactive-circuit
    /// reservation for request packets (§4.1). `ripe` are the heads that
    /// were waiting before this cycle: a head is never allocated on the
    /// cycle it arrives.
    fn stage_va(&mut self, now: Cycle, ripe: u64, packets: &mut Packets, out: &mut impl LinkSink) {
        if ripe == 0 {
            return;
        }
        debug_assert_eq!(ripe & !self.occ.wait_va, 0, "a ripe head left VA early");
        // Circuit reservations happen on the first VA attempt, whether or
        // not the VC wins allocation this cycle. The same pass groups the
        // requesting input ports by output port.
        let (mut wanted, mut contend) = (0u64, [0u8; PORTS]);
        for slot in bits(ripe) {
            let vc = &self.state.vcs[slot];
            let route = usize::from(vc.route.expect("WaitVa VC has a route"));
            let (p, _) = self.port_vc(slot);
            if !vc.circuit_attempted {
                self.attempt_reservation(now, p, slot, packets, out);
            }
            contend[route] |= 1 << p;
            wanted |= 1 << route;
        }
        // Phase 2: each requested output port grants the first input port,
        // in round-robin order, one of whose heads finds a free VC (a lone
        // request is the same grant).
        let wires = &*out.wires();
        for o in bits(wanted) {
            let mut asking = u64::from(contend[o]);
            while let Some(winner) = self.state.arbiters[o].va_out.grant_mask(asking) {
                if self.allocate_vc(now, o, winner, ripe, packets, wires) {
                    break;
                }
                asking &= !(1 << winner);
            }
        }
    }

    /// VA's data select: the heads of input port `winner` in `ripe` routed
    /// to output `o`, walked oldest first (lowest VC among equals), until
    /// one finds a free output VC of its class. (Considering only the
    /// oldest head would pass the whole input port over whenever its
    /// virtual network has no free output VC, and since the oldest never
    /// changes, younger heads behind it would wait forever — a
    /// head-of-line wait that can close a request/reply credit cycle into
    /// a hard deadlock under sustained load; see tests/echo_probe.rs.)
    fn allocate_vc(
        &mut self,
        now: Cycle,
        o: usize,
        winner: usize,
        ripe: u64,
        packets: &Packets,
        wires: &[CreditWire],
    ) -> bool {
        let inputs = &self.state.vcs[self.slot(winner, 0)..];
        let mut heads = self.port_bits(ripe, winner);
        heads &= !bits(heads).fold(0, |m, v| {
            m | u64::from(inputs[v].route != Some(o as u8)) << v
        });
        while let Some(v) = bits(heads).min_by_key(|&v| (inputs[v].state_since, v)) {
            heads &= !(1 << v);
            let head = inputs[v].front().expect("WaitVa VC holds its head");
            let packet = &packets[head.slot];
            let Some(ovc) = self.free_vc(wires, o, packet.vnet, packet.dst) else {
                continue;
            };
            self.state.owner[self.slot(o, ovc)] = Owner::Owned(winner as u8, v as u8);
            let slot = self.slot(winner, v);
            self.occ.wait_va &= !(1 << slot);
            self.occ.post_va |= 1 << slot;
            self.state.vcs[slot].out_vc = Some(ovc as u8);
            self.advance(now, slot, VcState::WaitSa, packets);
            self.state.activity.vc_allocs += 1;
            return true;
        }
        false
    }

    /// Moves input VC `slot` on to `state` at `now`, tracing its head's
    /// stage: VA on entering `WaitSa`, SA on entering `Active`.
    fn advance(&mut self, now: Cycle, slot: usize, state: VcState, packets: &Packets) {
        let vc = &mut self.state.vcs[slot];
        vc.state = state;
        vc.state_since = now;
        let head = vc.front().expect("an allocated VC holds its head");
        debug_assert!(head.is_head());
        let node = self.node.0;
        self.sink.emit(|| {
            let packet = packets[head.slot].id.0;
            let kind = match state {
                VcState::WaitSa => EventKind::StageVa { packet, node },
                _ => EventKind::StageSa { packet, node },
            };
            TraceEvent { cycle: now, kind }
        });
    }

    /// The output VCs of `out_port` a packet of `vnet` bound for `dst` may
    /// claim. Dateline deadlock avoidance: on wrap topologies a packet
    /// crossing a network link may only claim VCs of its dateline class,
    /// which breaks the dependency cycle the wraparound links would
    /// otherwise close.
    fn allocatable(&self, out_port: usize, vnet: Vnet, dst: NodeId) -> std::ops::Range<usize> {
        if self.topology.has_wrap() && out_port < PORT_LOCAL {
            let downstream = self
                .topology
                .neighbor(self.node, out_port)
                .expect("network port leads to a neighbor");
            let class = self.topology.vc_class(downstream, dst, out_port);
            self.layout.allocatable_class_vcs(vnet, class as u8)
        } else {
            self.layout.allocatable_vcs(vnet)
        }
    }

    /// `port`'s slice of an index mask, shifted down to bit 0 = VC 0.
    fn port_bits(&self, mask: u64, port: usize) -> u64 {
        (mask >> (port * usize::from(self.vcs))) & ((1 << self.vcs) - 1)
    }

    /// The index mask of `port`'s VCs.
    fn port_mask(&self, port: usize) -> u64 {
        ((1 << self.vcs) - 1) << (port * usize::from(self.vcs))
    }

    /// The [`OccupancyIndex`] `state` implies — the one scratch field that
    /// outlives a tick.
    fn rebuild_scratch(state: &State) -> OccupancyIndex {
        let State {
            vcs,
            spill,
            bypass_retry,
            st_len: _,
            st_pending: _,
            owner: _,
            circuits: _,
            arbiters: _,
            degraded: _,
            activity: _,
        } = state;
        let mut occ = OccupancyIndex::default();
        for (slot, vc) in vcs.iter().enumerate() {
            match vc.state {
                VcState::Idle => {}
                VcState::WaitVa => occ.wait_va |= 1 << slot,
                VcState::WaitSa | VcState::Active => occ.post_va |= 1 << slot,
            }
            occ.buffered += vc.len();
        }
        occ.buffered += spill.len();
        for (port, queue) in bypass_retry.iter().enumerate() {
            occ.retries |= u64::from(!queue.is_empty()) << port;
        }
        occ
    }

    /// Checks the incrementally maintained [`OccupancyIndex`] against a
    /// fresh [`Router::rebuild_scratch`], that every held output circuit
    /// VC names a stream crossing to it — an entry in use at the holder's
    /// input port — and that only a full ring spills.
    pub(crate) fn check_index(&self) -> Result<(), String> {
        let derived = Self::rebuild_scratch(&self.state);
        if self.occ != derived {
            return Err(format!(
                "{:?}: occupancy index {:x?} but the VC states give {:x?}",
                self.node, self.occ, derived
            ));
        }
        for (slot, &owner) in self.state.owner.iter().enumerate() {
            let Owner::Owned(p, _) = owner else { continue };
            if !self.layout.is_circuit_vc(self.port_vc(slot).1) {
                continue;
            }
            let entries = self.state.circuits.stale_entries(0, 0);
            let streaming = |(q, e, _): &(usize, CircuitEntry, Cycle)| {
                *q == usize::from(p) && e.in_use && self.circuit_slot(*e) == slot
            };
            if !entries.iter().any(streaming) {
                return Err(format!(
                    "{:?}: output VC slot {slot} held by {owner:?} with no stream in use",
                    self.node
                ));
            }
        }
        match self
            .state
            .spill
            .iter()
            .find(|s| self.state.vcs[usize::from(s.0)].len() < input::RING)
        {
            Some(s) => Err(format!(
                "{:?}: VC slot {} spilled past a free ring entry",
                self.node, s.0
            )),
            None => Ok(()),
        }
    }

    /// Number of flits buffered across all input VCs (occupancy telemetry
    /// and whitebox tests).
    pub(crate) fn buffered_flits(&self) -> usize {
        self.occ.buffered
    }

    /// The §4.1 reservation: while the request head sits in VA, write the
    /// reply's circuit into this router's tables. `p` is the input port
    /// of the VC at `slot`.
    fn attempt_reservation(
        &mut self,
        now: Cycle,
        p: usize,
        slot: usize,
        packets: &mut Packets,
        out: &mut impl LinkSink,
    ) {
        let vc = &mut self.state.vcs[slot];
        vc.circuit_attempted = true;
        let route = usize::from(vc.route.expect("WaitVa VC has a route"));
        let head = vc.front().expect("WaitVa VC holds its head");
        let packet = &mut packets[head.slot];
        let dst = packet.dst;
        let Some(handle) = packet.circuit.as_mut().filter(|h| !h.failed) else {
            return;
        };
        let key = handle.key;
        // Reply direction through this router: it arrives from where the
        // request is going and leaves where the request came from.
        let in_port_reply = route;
        let out_port_reply = p;
        // A degraded router refuses reservations outright, and circuit
        // reservations never span a wraparound link: a reply streaming
        // through the bypass would skip the dateline VC switch and close
        // the channel-dependency cycle the dateline exists to break.
        let refused = self.state.degraded
            || self.topology.is_wrap_hop(self.node, in_port_reply)
            || self.topology.is_wrap_hop(self.node, out_port_reply);
        if !refused {
            let h_req = self.topology.distance(self.node, dst);
            let (window, max_extra_shift, nominal, slack) = match handle.timing {
                Some(t) => {
                    let nominal = nominal_inject(now, h_req, handle.turnaround)
                        + Cycle::from(INJECT_OVERHEAD);
                    let slack = self.mechanism.timed.slack(handle.path_hops);
                    // `nominal` is the reply's *injection* time at its NI; it
                    // occupies its first router one NI→router link later.
                    let first = nominal + Cycle::from(LINK_LATENCY);
                    let w = router_window(first, t.shift, h_req, handle.reply_flits, slack);
                    (Some(w), t.max_shift - t.shift, nominal, slack)
                }
                None => (None, 0, 0, 0),
            };

            let req = ReserveRequest {
                key,
                source: handle.source,
                in_port: in_port_reply,
                out_port: out_port_reply,
                window,
                max_extra_shift,
            };
            // Stamp the table's clock so leak detection can age the entry.
            // Done here rather than once per tick so the clock is a function
            // of the reservations alone — the same whether or not the event
            // kernel skipped this router's idle ticks.
            self.state.circuits.note_now(now);
            match self.state.circuits.try_reserve(&req) {
                Ok(outcome) => {
                    handle.built_hops += 1;
                    self.state.activity.circuit_writes += 1;
                    self.sink.emit(|| TraceEvent {
                        cycle: now,
                        kind: EventKind::CircuitReserve {
                            node: self.node.0,
                            requestor: key.requestor.0,
                            block: key.block,
                        },
                    });
                    if let Some(t) = handle.timing.as_mut() {
                        t.shift += outcome.extra_shift;
                        t.narrow(nominal, slack);
                        if !t.feasible() {
                            // A delayed request can no longer meet the earlier
                            // routers' windows: doom the circuit now.
                            handle.failed = true;
                            self.process_undo(now, key, key.requestor, out);
                        }
                    }
                    return;
                }
                Err(_) => {
                    self.sink.emit(|| TraceEvent {
                        cycle: now,
                        kind: EventKind::CircuitConflict {
                            node: self.node.0,
                            requestor: key.requestor.0,
                            block: key.block,
                        },
                    });
                }
            }
        }
        // Refused or in conflict: a complete circuit is doomed and its
        // built prefix undone; a fragmented one keeps the prefix and tries
        // again at the next hop (§4.2), and an ideal one, which never
        // conflicts, gains a gap here.
        if self.mechanism.mode == CircuitMode::Complete {
            handle.failed = true;
            if handle.built_hops > 0 {
                self.start_undo(now, out_port_reply, key, out);
            }
        }
    }

    /// Reports every input VC that is blocked on a channel resource,
    /// with the exact resources it waits on — this router's slice of
    /// the network-level wait-for graph (deadlock diagnosis). It asks the
    /// allocator's own rules, reading the router's credit `wires` at
    /// `now`: a post-VA VC is blocked when its output VC may not send
    /// ([`Router::may_send`]); a `WaitVa` VC is blocked when its class
    /// has no free VC ([`Router::free_vc`]). Only runs on the cold
    /// watchdog path, so it allocates freely.
    pub(crate) fn waiters(
        &self,
        now: Cycle,
        packets: &Packets,
        wires: &[CreditWire],
        out: &mut Vec<VcWaiter>,
    ) {
        for (slot, vc) in self.state.vcs.iter().enumerate() {
            // A VC waits with a head or body in it and a route; ejection
            // waits never close a channel cycle.
            let (Some(route @ 0..PORT_LOCAL), Some(front)) =
                (vc.route.map(usize::from), vc.front())
            else {
                continue;
            };
            let (p, v) = self.port_vc(slot);
            let packet = &packets[front.slot];
            let out_vc = vc.out_vc.map(usize::from);
            let mut edges = Vec::new();
            let credits = match out_vc {
                Some(ov) => {
                    if !self.may_send(wires, route, ov) {
                        edges.push(WaitEdge::Downstream { out_vc: ov });
                    }
                    u32::from(wires[self.slot(route, ov)].available())
                }
                None => {
                    let (vnet, dst) = (packet.vnet, packet.dst);
                    if vc.state == VcState::WaitVa
                        && self.free_vc(wires, route, vnet, dst).is_none()
                    {
                        for ovc in self.allocatable(route, vnet, dst) {
                            edges.push(match self.state.owner[self.slot(route, ovc)] {
                                Owner::Owned(hp, hv) => WaitEdge::Local {
                                    in_port: hp.into(),
                                    vc: hv.into(),
                                },
                                Owner::Free => WaitEdge::Downstream { out_vc: ovc },
                            });
                        }
                    }
                    0
                }
            };
            if edges.is_empty() {
                continue;
            }
            edges.sort_unstable();
            edges.dedup();
            let held_by_circuit = self
                .state
                .circuits
                .stale_entries(now, 0)
                .into_iter()
                .find(|(_, e, _)| e.out_port == route)
                .map(|(_, e, _)| e.key);
            out.push(VcWaiter {
                in_port: p,
                vc: v,
                packet: Some(packet.id),
                wants_port: route,
                out_vc,
                credits,
                held_by_circuit,
                edges,
            });
        }
    }
}

rcsim_core::stateful!(Router => State, occ = Router::rebuild_scratch);

/// How one blocked input VC waits on another resource, as reported by
/// [`Router::waiters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum WaitEdge {
    /// Waits for a same-router input VC to finish streaming: the wanted
    /// output VC is owned by it.
    Local {
        /// Input port of the owning VC.
        in_port: usize,
        /// VC index of the owning VC.
        vc: usize,
    },
    /// Waits for the downstream input VC to drain: the wanted output VC
    /// has no credits left, or is draining back to idle.
    Downstream {
        /// The output VC waited on (equals the downstream input VC).
        out_vc: usize,
    },
}

/// One blocked input VC and everything it waits on — a node of the
/// network's wait-for graph plus its outgoing edges.
#[derive(Debug, Clone)]
pub(crate) struct VcWaiter {
    /// Input port of the blocked VC.
    pub in_port: usize,
    /// VC index of the blocked VC.
    pub vc: usize,
    /// Head packet buffered in it.
    pub packet: Option<PacketId>,
    /// Output port the route computation picked.
    pub wants_port: usize,
    /// Allocated output VC, if VC allocation already succeeded.
    pub out_vc: Option<usize>,
    /// Credits left on the allocated output VC (0 when credit-blocked
    /// or still waiting for allocation).
    pub credits: u32,
    /// Circuit reservation pinning the wanted output port, if any.
    pub held_by_circuit: Option<CircuitKey>,
    /// Everything this VC is blocked behind (never empty).
    pub edges: Vec<WaitEdge>,
}

#[cfg(test)]
mod tests {
    use super::reference::RefRouter;
    use super::*;
    use crate::flit::{Packet, PacketSpec};
    use rcsim_core::{
        MechanismConfig, MessageClass, Stateful, Topology, PORT_EAST, PORT_NORTH, PORT_SOUTH,
        PORT_WEST,
    };

    /// One recorded [`LinkSink`] call, argument for argument.
    #[derive(Debug, Clone, PartialEq)]
    pub(super) enum Outgoing {
        Flit(usize, Flit, Cycle),
        Credit(usize, usize, Cycle),
        Undo(usize, CircuitKey, NodeId, Cycle),
    }

    /// The sink a lone router ticks into: its calls are recorded in `sent`,
    /// and `wires` are the router's own credit wires, which only the test
    /// refills.
    #[derive(Debug, Clone)]
    pub(super) struct Recorder {
        pub(super) sent: Vec<Outgoing>,
        pub(super) wires: Vec<CreditWire>,
    }

    impl Recorder {
        /// A sink whose every output VC of `cfg`'s routers has all its
        /// credits home.
        pub(super) fn new(cfg: &NocConfig) -> Self {
            let slots = PORTS * cfg.vc_layout().total();
            Recorder {
                sent: Vec::new(),
                wires: vec![CreditWire::full(BUFFER_DEPTH); slots],
            }
        }
    }

    /// `arrivals` (one flit a port, in port order) as a router's link
    /// registers hand them to a tick: the mask of full ports and the
    /// registers.
    pub(super) fn registers(arrivals: &[(usize, Flit)]) -> (u64, [Flit; PORTS]) {
        let mut regs = [Flit::default(); PORTS];
        let full = arrivals.iter().fold(0, |full, &(p, f)| {
            assert!(full >> p == 0, "one flit per port, in port order");
            regs[p] = f;
            full | 1 << p
        });
        (full, regs)
    }

    impl LinkSink for Recorder {
        fn flit(&mut self, port: usize, flit: Flit, arrive: Cycle, _: &mut Packets) {
            self.sent.push(Outgoing::Flit(port, flit, arrive));
        }

        fn credit(&mut self, port: usize, vc: usize, arrive: Cycle) {
            self.sent.push(Outgoing::Credit(port, vc, arrive));
        }

        fn undo(&mut self, port: usize, key: CircuitKey, dst: NodeId, arrive: Cycle) {
            self.sent.push(Outgoing::Undo(port, key, dst, arrive));
        }

        fn wires(&mut self) -> &mut [CreditWire] {
            &mut self.wires
        }
    }

    /// What the scenarios below need of a router, so each runs on the
    /// production [`Router`] and on the reference alike.
    pub(super) trait UnderTest {
        fn build(node: NodeId, cfg: &NocConfig) -> Self;
        fn step(
            &mut self,
            now: Cycle,
            arrivals: &mut Vec<(usize, Flit)>,
            undos: &mut Vec<(CircuitKey, NodeId)>,
            packets: &mut Packets,
            out: &mut Recorder,
        );
        fn circuits(&mut self) -> &mut RouterCircuits;
        fn buffered(&self) -> usize;
        /// Flits in the spill list, which only the production router has.
        fn spilled(&self) -> Option<usize> {
            None
        }
        /// The production router's occupancy index agrees with its state.
        fn check_index(&self) -> Result<(), String> {
            Ok(())
        }
    }

    impl UnderTest for Router {
        fn build(node: NodeId, cfg: &NocConfig) -> Self {
            Router::new(node, cfg)
        }

        fn step(
            &mut self,
            now: Cycle,
            arrivals: &mut Vec<(usize, Flit)>,
            undos: &mut Vec<(CircuitKey, NodeId)>,
            packets: &mut Packets,
            out: &mut Recorder,
        ) {
            let (arrived, regs) = registers(&std::mem::take(arrivals));
            let health = TopologyHealth::new();
            self.tick(now, arrived, &regs, undos, packets, &health, out);
        }

        fn circuits(&mut self) -> &mut RouterCircuits {
            &mut self.state.circuits
        }

        fn buffered(&self) -> usize {
            self.buffered_flits()
        }

        fn spilled(&self) -> Option<usize> {
            Some(self.state.spill.len())
        }

        fn check_index(&self) -> Result<(), String> {
            Router::check_index(self)
        }
    }

    /// A lone router and the sink it ticks into.
    struct Lone<R> {
        router: R,
        sink: Recorder,
    }

    /// Router n5 = (1,1) of a 4×4 mesh, whose four neighbours exist.
    fn router<R: UnderTest>(mechanism: MechanismConfig) -> Lone<R> {
        let mesh = Topology::mesh(4, 4).expect("valid");
        let cfg = NocConfig::paper_baseline(mesh, mechanism);
        Lone {
            router: R::build(NodeId(5), &cfg),
            sink: Recorder::new(&cfg),
        }
    }

    /// Files a `len`-flit packet of `class` from n4 to `dst`, block 0x40.
    fn packet(packets: &mut Packets, class: MessageClass, dst: u16, len: u32) -> u32 {
        let id = PacketId(packets.records().slots() as u64 + 1);
        let spec = PacketSpec::new(NodeId(4), NodeId(dst), class).with_block(0x40);
        packets.insert(Packet::new(id, &spec, len, 0))
    }

    /// A request to n6 = (2,1) — East of n5 — and its flits on VC 0.
    fn request(packets: &mut Packets, len: u32) -> Vec<Flit> {
        let slot = packet(packets, MessageClass::L1Request, 6, len);
        (0..len as u16)
            .map(|seq| Flit::new(slot, seq, len, 0, 0))
            .collect()
    }

    /// Ticks `r` at `now` with `arrivals`, handed over in port order as a
    /// calendar cell holds them.
    fn tick<R: UnderTest>(
        r: &mut Lone<R>,
        now: Cycle,
        packets: &mut Packets,
        mut arrivals: Vec<(usize, Flit)>,
    ) -> Vec<Outgoing> {
        arrivals.sort_by_key(|&(port, _)| port);
        let Lone { router, sink } = r;
        router.step(now, &mut arrivals, &mut Vec::new(), packets, sink);
        std::mem::take(&mut sink.sent)
    }

    /// The Table 4 pipeline takes exactly four cycles in the router: a
    /// head arriving at cycle 0 departs on the link during the tick at
    /// cycle 3 (RC@0, VA@1, SA@2, ST@3).
    #[test]
    fn single_flit_takes_four_router_cycles() {
        fn run<R: UnderTest>() -> Vec<Outgoing> {
            let mut r = router::<R>(MechanismConfig::baseline());
            let mut packets = Packets::default();
            // Head-tail toward n6, arriving from the West.
            let f = request(&mut packets, 1)[0];
            let out = tick(&mut r, 0, &mut packets, vec![(PORT_WEST, f)]);
            assert!(out.is_empty(), "cycle 0: buffered + route computed");
            assert!(
                tick(&mut r, 1, &mut packets, vec![]).is_empty(),
                "cycle 1: VC allocation"
            );
            assert!(
                tick(&mut r, 2, &mut packets, vec![]).is_empty(),
                "cycle 2: switch allocation"
            );
            let out = tick(&mut r, 3, &mut packets, vec![]);
            let sent = out
                .iter()
                .find_map(|o| match o {
                    Outgoing::Flit(port, _, arrive) => Some((*port, *arrive)),
                    _ => None,
                })
                .expect("cycle 3: switch traversal");
            assert_eq!(sent.0, PORT_EAST);
            assert_eq!(sent.1, 3 + 2, "one ST cycle + one link cycle");
            // The freed buffer slot returns upstream as a credit.
            assert!(out
                .iter()
                .any(|o| matches!(o, Outgoing::Credit(PORT_WEST, 0, _))));
            assert_eq!(r.router.buffered(), 0);
            out
        }
        assert_eq!(run::<Router>(), run::<RefRouter>());
    }

    /// Body flits stream one per cycle behind the head.
    #[test]
    fn multiflit_streams_at_one_per_cycle() {
        fn run<R: UnderTest>() -> Vec<Outgoing> {
            let mut r = router::<R>(MechanismConfig::baseline());
            let mut packets = Packets::default();
            let flits = request(&mut packets, 5);
            let (mut sent, mut departures) = (Vec::new(), Vec::new());
            for now in 0..16u64 {
                let arrivals = flits.get(now as usize).map(|&f| (PORT_WEST, f));
                let out = tick(&mut r, now, &mut packets, arrivals.into_iter().collect());
                for o in &out {
                    if let Outgoing::Flit(..) = o {
                        departures.push(now);
                    }
                }
                sent.extend(out);
            }
            // Head departs at cycle 3 (after RC/VA/SA); the other four flits
            // stream back-to-back behind it.
            assert_eq!(departures, vec![3, 4, 5, 6, 7], "1 flit/cycle streaming");
            assert_eq!(r.router.buffered(), 0);
            sent
        }
        assert_eq!(run::<Router>(), run::<RefRouter>());
    }

    /// A VC asked to hold more flits than its ring — what an uncredited
    /// circuit VC can be asked to hold — keeps them in arrival order
    /// while its output has no credit: the production router spills the
    /// overflow past a full ring, index intact every cycle, and streams
    /// them out in that order once credits return.
    #[test]
    fn a_buffer_deeper_than_its_ring_spills_in_order() {
        fn run<R: UnderTest>() -> Vec<Outgoing> {
            let mut r = router::<R>(MechanismConfig::baseline());
            let mut packets = Packets::default();
            let len = 2 * input::RING + 1;
            let flits = request(&mut packets, len as u32);
            let mut sent = Vec::new();
            for (now, &f) in (0..).zip(&flits) {
                sent.extend(tick(&mut r, now, &mut packets, vec![(PORT_WEST, f)]));
                assert_eq!(r.router.check_index(), Ok(()));
                if now == 1 {
                    // VC allocation is done: take every credit away.
                    r.sink.wires.fill(CreditWire::full(0));
                }
            }
            assert_eq!(r.router.buffered(), len);
            if let Some(spilled) = r.router.spilled() {
                assert_eq!(spilled, len - input::RING);
            }
            let mut seqs = Vec::new();
            for now in len as Cycle..4 * len as Cycle {
                // The downstream buffer is as deep as it needs to be.
                r.sink.wires.fill(CreditWire::full(u8::MAX));
                let out = tick(&mut r, now, &mut packets, vec![]);
                assert_eq!(r.router.check_index(), Ok(()));
                for o in &out {
                    if let Outgoing::Flit(_, f, _) = o {
                        seqs.push(f.seq);
                    }
                }
                sent.extend(out);
            }
            assert_eq!(seqs, (0..len as u16).collect::<Vec<_>>());
            assert_eq!(r.router.buffered(), 0);
            assert!(matches!(r.router.spilled(), None | Some(0)));
            sent
        }
        assert_eq!(run::<Router>(), run::<RefRouter>());
    }

    /// Two heads contending for one output port: switch allocation
    /// serializes them round-robin; both eventually depart.
    #[test]
    fn output_contention_is_arbitrated() {
        fn run<R: UnderTest>() -> Vec<Outgoing> {
            let mut r = router::<R>(MechanismConfig::baseline());
            let mut packets = Packets::default();
            let a = request(&mut packets, 1)[0];
            let b = request(&mut packets, 1)[0];
            let arrivals = vec![(PORT_WEST, a), (PORT_NORTH, b)];
            let mut sent = tick(&mut r, 0, &mut packets, arrivals);
            let mut departures = 0;
            for now in 1..10 {
                let out = tick(&mut r, now, &mut packets, vec![]);
                for o in &out {
                    if let Outgoing::Flit(port, ..) = o {
                        assert_eq!(*port, PORT_EAST);
                        departures += 1;
                    }
                }
                sent.extend(out);
            }
            assert_eq!(departures, 2, "both packets cross, serialized");
            sent
        }
        assert_eq!(run::<Router>(), run::<RefRouter>());
    }

    /// A request head reserves the reply circuit during its VA cycle,
    /// with the reply's ports mirrored from the request's.
    #[test]
    fn reservation_happens_at_va_with_mirrored_ports() {
        fn run<R: UnderTest>() -> Vec<Outgoing> {
            let mut r = router::<R>(MechanismConfig::complete());
            let mut packets = Packets::default();
            let f = request(&mut packets, 1)[0];
            packets[f.slot].circuit = Some(rcsim_core::circuit::CircuitHandle::new(
                NodeId(4),
                0x40,
                NodeId(6),
                2,
                5,
                7,
            ));
            let mut sent = tick(&mut r, 0, &mut packets, vec![(PORT_WEST, f)]);
            assert_eq!(r.router.circuits().total_entries(), 0, "not during RC");
            sent.extend(tick(&mut r, 1, &mut packets, vec![]));
            assert_eq!(
                r.router.circuits().total_entries(),
                1,
                "reserved in parallel with VA"
            );
            assert_eq!(
                packets[f.slot].circuit.map(|h| h.built_hops),
                Some(1),
                "the record's handle counts the hop"
            );
            // Reply arrives from where the request went (East) and leaves
            // where it came from (West).
            let key = rcsim_core::circuit::CircuitKey {
                requestor: NodeId(4),
                block: 0x40,
            };
            let e = r
                .router
                .circuits()
                .lookup(PORT_EAST, key)
                .expect("entry at East input");
            assert_eq!(e.out_port, PORT_WEST);
            sent
        }
        assert_eq!(run::<Router>(), run::<RefRouter>());
    }

    /// The allocator's rules are one set: on output VCs set by hand —
    /// owned, draining, free with every credit home, circuit class — the
    /// deadlock diagnoser's `waiters` calls blocked exactly the VCs a VA
    /// and SA tick leaves where they were.
    #[test]
    fn waiters_and_the_allocators_block_the_same_vcs() {
        let Lone {
            router: mut r,
            mut sink,
        } = router::<Router>(MechanismConfig::complete());
        let mut packets = Packets::default();
        let circuit_vc = r.layout.circuit_vc(0);
        // (input port, VC, class, route, state, output VC held).
        let vcs = [
            // Post-VA on a request VC with no credit home: blocked.
            (
                PORT_WEST,
                0,
                MessageClass::L1Request,
                PORT_EAST,
                VcState::WaitSa,
                Some(0),
            ),
            // Post-VA on the circuit class with no credit home: sends.
            (
                PORT_NORTH,
                circuit_vc,
                MessageClass::L2Reply,
                PORT_SOUTH,
                VcState::WaitSa,
                Some(circuit_vc),
            ),
            // A request head whose two output VCs are owned and draining:
            // blocked.
            (
                PORT_SOUTH,
                1,
                MessageClass::L1Request,
                PORT_NORTH,
                VcState::WaitVa,
                None,
            ),
            // A reply head whose one reply VC is free, credits home: wins.
            (
                PORT_EAST,
                2,
                MessageClass::L2Reply,
                PORT_WEST,
                VcState::WaitVa,
                None,
            ),
        ];
        for (port, v, class, route, state, out_vc) in vcs {
            let slot = packet(&mut packets, class, 0, 1);
            let in_slot = r.slot(port, v);
            let vc = &mut r.state.vcs[in_slot];
            assert!(vc.push(Flit::new(slot, 0, 1, v as u8, 0)));
            (vc.state, vc.route, vc.out_vc) = (state, Some(route as u8), out_vc.map(|o| o as u8));
            vc.circuit_attempted = true;
            if let Some(o) = out_vc {
                // VA never grants a circuit VC; only a bypass stream holds
                // one, and `check_index` asks for its circuit entry.
                if !r.layout.is_circuit_vc(o) {
                    r.state.owner[r.slot(route, o)] = Owner::Owned(port as u8, v as u8);
                }
                sink.wires[r.slot(route, o)] = CreditWire::full(0);
            }
        }
        r.state.owner[r.slot(PORT_NORTH, 0)] = Owner::Owned(PORT_EAST as u8, 1);
        sink.wires[r.slot(PORT_NORTH, 1)] = CreditWire::full(BUFFER_DEPTH - 1);
        r.occ = Router::rebuild_scratch(&r.state);

        let mut waiters = Vec::new();
        r.waiters(1, &packets, &sink.wires, &mut waiters);
        let blocked: Vec<_> = (waiters.iter())
            .map(|w| (w.in_port, w.vc, w.edges.clone()))
            .collect();
        let local = WaitEdge::Local {
            in_port: PORT_EAST,
            vc: 1,
        };
        let downstream = |out_vc| WaitEdge::Downstream { out_vc };
        assert_eq!(
            blocked,
            [
                (PORT_SOUTH, 1, vec![local, downstream(1)]),
                (PORT_WEST, 0, vec![downstream(0)]),
            ]
        );

        let health = TopologyHealth::new();
        let regs = [Flit::default(); PORTS];
        r.tick(
            1,
            0,
            &regs,
            &mut Vec::new(),
            &mut packets,
            &health,
            &mut sink,
        );
        let state = |port, v| r.state.vcs[r.slot(port, v)].state;
        assert_eq!(state(PORT_WEST, 0), VcState::WaitSa, "SA passes it over");
        assert_eq!(
            state(PORT_NORTH, circuit_vc),
            VcState::Active,
            "SA grants it"
        );
        assert_eq!(state(PORT_SOUTH, 1), VcState::WaitVa, "VA passes it over");
        assert_eq!(state(PORT_EAST, 2), VcState::WaitSa, "VA grants it");
    }

    /// Reserves the circuit of requestor n4's block 0x40 through `r`, in
    /// from the East and out to the West.
    fn reserve_east_west<R: UnderTest>(r: &mut Lone<R>) -> CircuitKey {
        let key = rcsim_core::circuit::CircuitKey {
            requestor: NodeId(4),
            block: 0x40,
        };
        r.router
            .circuits()
            .try_reserve(&ReserveRequest {
                key,
                source: NodeId(6),
                in_port: PORT_EAST,
                out_port: PORT_WEST,
                window: None,
                max_extra_shift: 0,
            })
            .expect("reservation succeeds");
        key
    }

    /// A reply flit with a matching reservation crosses in the arrival
    /// cycle (1-cycle bypass) and releases the circuit at its tail.
    #[test]
    fn bypass_crosses_in_one_cycle_and_releases() {
        fn run<R: UnderTest>() -> Vec<Outgoing> {
            let mut r = router::<R>(MechanismConfig::complete());
            let key = reserve_east_west(&mut r);
            let mut packets = Packets::default();
            let slot = packet(&mut packets, MessageClass::L2Reply, 4, 1);
            packets[slot].riding = Some(key);
            let f = Flit::new(slot, 0, 1, 3, Flit::RIDES);
            let out = tick(&mut r, 10, &mut packets, vec![(PORT_EAST, f)]);
            let (port, arrive) = out
                .iter()
                .find_map(|o| match o {
                    Outgoing::Flit(port, _, arrive) => Some((*port, *arrive)),
                    _ => None,
                })
                .expect("bypass departs the same cycle");
            assert_eq!(port, PORT_WEST);
            assert_eq!(arrive, 12, "1 router cycle + 1 link cycle");
            assert_eq!(
                r.router.circuits().total_entries(),
                0,
                "tail released the circuit"
            );
            assert_eq!(r.router.buffered(), 0, "bypassed flits are never stored");
            out
        }
        assert_eq!(run::<Router>(), run::<RefRouter>());
    }

    /// Two ideal circuits in from the East and out to the West: stream A
    /// rides in on a reply VC (its previous router fell back to the
    /// pipeline) and claims the West circuit VC; B's head, on the circuit
    /// VC, finds it held and parks. A's body and tail, on their own VC,
    /// do not queue behind B, so A's tail frees the VC and B follows.
    #[test]
    fn a_held_output_waits_only_for_its_holders_tail() {
        fn run<R: UnderTest>() -> Vec<Outgoing> {
            let mut r = router::<R>(MechanismConfig::ideal());
            let key_a = reserve_east_west(&mut r);
            let key_b = CircuitKey {
                block: 0x80,
                ..key_a
            };
            r.router
                .circuits()
                .try_reserve(&ReserveRequest {
                    key: key_b,
                    source: NodeId(6),
                    in_port: PORT_EAST,
                    out_port: PORT_WEST,
                    window: None,
                    max_extra_shift: 0,
                })
                .expect("an ideal reservation never fails");
            let mut packets = Packets::default();
            let (a, b) = (
                packet(&mut packets, MessageClass::L2Reply, 4, 3),
                packet(&mut packets, MessageClass::L2Reply, 4, 1),
            );
            packets[a].riding = Some(key_a);
            packets[b].riding = Some(key_b);
            let feed = [
                Flit::new(a, 0, 3, 2, Flit::RIDES),
                Flit::new(b, 0, 1, 3, Flit::RIDES),
                Flit::new(a, 1, 3, 2, Flit::RIDES),
                Flit::new(a, 2, 3, 2, Flit::RIDES),
            ];
            let mut sent = Vec::new();
            for now in 10..20u64 {
                let arrival = feed.get(now as usize - 10).map(|&f| (PORT_EAST, f));
                sent.extend(tick(
                    &mut r,
                    now,
                    &mut packets,
                    arrival.into_iter().collect(),
                ));
            }
            let tails: Vec<u32> = (sent.iter())
                .filter_map(|o| match o {
                    Outgoing::Flit(PORT_WEST, f, _) if f.is_tail() => Some(f.slot),
                    _ => None,
                })
                .collect();
            assert_eq!(tails, vec![a, b], "both tails leave, A's first");
            assert_eq!(r.router.circuits().total_entries(), 0);
            sent
        }
        assert_eq!(run::<Router>(), run::<RefRouter>());
    }

    /// An undo notification removes the local entry and is forwarded
    /// towards the circuit destination.
    #[test]
    fn undo_propagates_towards_destination() {
        fn run<R: UnderTest>() -> Vec<Outgoing> {
            let mut r = router::<R>(MechanismConfig::complete());
            let key = reserve_east_west(&mut r);
            let Lone { router, sink } = &mut r;
            let undos = &mut vec![(key, NodeId(4))];
            router.step(5, &mut Vec::new(), undos, &mut Packets::default(), sink);
            assert_eq!(r.router.circuits().total_entries(), 0);
            assert!(r
                .sink
                .sent
                .iter()
                .any(|o| matches!(o, Outgoing::Undo(PORT_WEST, ..))));
            r.sink.sent
        }
        assert_eq!(run::<Router>(), run::<RefRouter>());
    }

    /// The flat control state round-trips and the occupancy index is
    /// scratch: it is not in the snapshot, a restore rebuilds it, and a
    /// router restored mid-packet — one VC streaming, one still waiting
    /// for VC allocation behind it — continues exactly like the
    /// uninterrupted one, and like the reference.
    #[test]
    fn restore_rebuilds_the_index_and_continues_identically() {
        let mut packets = Packets::default();
        let flits = request(&mut packets, 5);
        let rival = packet(&mut packets, MessageClass::L1Request, 6, 1);
        let arrivals_at = |now: Cycle| {
            let mut arrivals = Vec::new();
            if let Some(&f) = flits.get(now as usize) {
                arrivals.push((PORT_WEST, f));
            }
            if now == 4 {
                arrivals.push((PORT_NORTH, Flit::new(rival, 0, 1, 1, 0)));
            }
            arrivals
        };
        let json = |r: &Lone<Router>| serde_json::to_string(&r.router.state).expect("serializes");

        let mut reference = router::<RefRouter>(MechanismConfig::baseline());
        let mut uninterrupted = router::<Router>(MechanismConfig::baseline());
        for now in 0..5 {
            tick(&mut reference, now, &mut packets.clone(), arrivals_at(now));
            tick(&mut uninterrupted, now, &mut packets, arrivals_at(now));
        }
        let occ = uninterrupted.router.occ;
        assert!(occ.post_va != 0 && occ.wait_va != 0);
        assert!(
            !json(&uninterrupted).contains("wait_va"),
            "the index must stay out of the snapshot"
        );
        let snap: State = serde_json::from_str(&json(&uninterrupted)).expect("deserializes");
        // Flat state: one input VC per slot (5 ports × 4 VCs), nothing
        // nested.
        assert_eq!(snap.vcs.len(), 20);
        assert!(snap.owner[..20].contains(&Owner::Owned(PORT_WEST as u8, 0)));

        let mut restored = router::<Router>(MechanismConfig::baseline());
        restored.router.restore(&snap);
        // The credits are the network's state, beside the router's.
        restored.sink.wires.clone_from(&uninterrupted.sink.wires);
        reference.sink.wires.clone_from(&uninterrupted.sink.wires);
        assert_eq!(restored.router.occ, uninterrupted.router.occ);
        assert_eq!(restored.router.check_index(), Ok(()));
        assert_eq!(json(&restored), json(&uninterrupted));

        for now in 5..16 {
            let sent = tick(
                &mut uninterrupted,
                now,
                &mut packets.clone(),
                arrivals_at(now),
            );
            let oracle = tick(&mut reference, now, &mut packets.clone(), arrivals_at(now));
            assert_eq!(oracle, sent, "reference, cycle {now}");
            assert_eq!(
                tick(&mut restored, now, &mut packets, arrivals_at(now)),
                sent,
                "cycle {now}"
            );
            assert_eq!(json(&restored), json(&uninterrupted), "cycle {now}");
        }
        assert_eq!(restored.router.buffered_flits(), 0);
        assert_eq!(restored.router.occ, OccupancyIndex::default());
    }
}
