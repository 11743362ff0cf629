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
mod input;

use crate::config::{NocConfig, VcLayout};
use crate::credit::CreditWire;
use crate::flit::{Flit, PacketId, Packets};
use crate::links::LinkSink;
use crate::stats::Activity;
use alloc::RoundRobin;
use input::{InputVc, VcState};
use rcsim_core::circuit::timing::{nominal_inject, router_window};
use rcsim_core::circuit::{CircuitKey, ReserveRequest, RouterCircuits};
use rcsim_core::routing::Routing;
use rcsim_core::table4::{BUFFER_DEPTH, INJECT_OVERHEAD, LINK_LATENCY, REQ_VCS};
use rcsim_core::{CircuitMode, Cycle, MechanismConfig, NodeId, Topology, Vnet, PORT_LOCAL};
use rcsim_trace::{EventKind, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How one output VC is held by a packet. A VC no packet holds is free
/// for VC allocation once all its credits are home
/// ([`Router::allocatable_now`]); until then it is draining.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
enum Owner {
    /// Held by no packet.
    #[default]
    Free,
    /// Held by a packet streaming from `(in_port, in_vc)`.
    Owned(u8, u8),
}

/// Outcome of checking whether a circuit-tagged flit can bypass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BypassCheck {
    /// Reservation present and the crossbar output is free: go.
    Ready,
    /// Reservation present but the output is in use this cycle: retry.
    Busy,
    /// No usable reservation: take the normal four-stage pipeline.
    Pipeline,
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
/// per-VC arrays: a router may have at most this many input VCs (`ports ×
/// VcLayout::total()`), which [`NocConfig::validate`] enforces.
pub(crate) const VC_INDEX_BITS: usize = u64::BITS as usize;

/// Capacity of the router's per-port arrays. Every port has the
/// [`REQ_VCS`] request VCs and at least two reply VCs, so the
/// [`VC_INDEX_BITS`] bound [`NocConfig::validate`] enforces allows at most
/// this many ports; the paper's mesh router has 5.
pub(crate) const MAX_PORTS: usize = VC_INDEX_BITS / (REQ_VCS + 2);

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
/// everything per port at slot `port`, in arrays of [`MAX_PORTS`] entries,
/// all inside the router itself, each entry as narrow as
/// [`NocConfig::validate`] lets it be. They serialize
/// whole: the entries past the last slot (or port) are never touched, so
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
    /// Who holds each output VC, by slot. (Its credits are on the
    /// network's credit wires, which the router reads through its sink.)
    owner: [Owner; VC_INDEX_BITS],
    st_pending: [StGrant; MAX_PORTS],
    /// The arbiters, by port.
    arbiters: [PortArbiters; MAX_PORTS],
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
    /// Per input port, bypass flits that lost a same-cycle output conflict
    /// (ideal mode) or arrived while an earlier flit of the same stream is
    /// still queued.
    bypass_retry: Vec<VecDeque<Flit>>,
}

/// Wiring, [`State`] and scratch: the [`OccupancyIndex`] is derived
/// from the state; the rest of the scratch is dead at the tick boundaries
/// where snapshots are taken, so a router the worklist skipped snapshots
/// the same as a ticked one (the skip law). Declaration order
/// is memory order: the first line is all an idle test or the top of a
/// tick reads.
#[repr(C)]
pub(crate) struct Router {
    occ: OccupancyIndex,
    /// Crossbar outputs used this cycle, as a mask over output ports
    /// (circuits have priority, §4.3); cleared at the top of every tick.
    out_busy: u64,
    topology: Topology,
    /// Where trace events go; disabled by default.
    sink: TraceSink,
    /// Router id (`0..Topology::routers()`; equals the tile id only when
    /// the concentration is 1).
    node: NodeId,
    /// Ports per router (`Topology::ports()`) and VCs per port
    /// (`VcLayout::total()`), cached like the two bytes after them.
    ports: u8,
    vcs: u8,
    /// `mechanism.timed.is_timed()`.
    timed: bool,
    /// The first circuit-class VC (`vcs` when there is none).
    circuit_vc0: u8,
    /// Per output port, the input ports requesting it in the current
    /// SA/VA sweep, as a mask; all zero between sweeps.
    contend: [u64; MAX_PORTS],
    /// The VC each input port nominated in [`Router::stage_sa`] phase 1
    /// (meaningful only for ports that nominated this tick).
    sa_nominee: [u8; MAX_PORTS],
    pub(crate) state: State,
    /// Reused candidate list for the VC-allocation sweep.
    va_scratch: Vec<(Cycle, usize, Vnet, NodeId)>,
    layout: VcLayout,
    mechanism: MechanismConfig,
}

const _: () = assert!(std::mem::offset_of!(Router, contend) == 64);
const _: () = assert!(std::mem::size_of::<Router>() <= 896);

impl Router {
    pub(crate) fn new(node: NodeId, cfg: &NocConfig) -> Self {
        let layout = cfg.vc_layout();
        let total = layout.total();
        let ports = cfg.topology.ports();
        assert!(
            ports * total <= VC_INDEX_BITS && ports <= MAX_PORTS,
            "NocConfig::validate bounds the input VCs per router"
        );
        let arbiters = PortArbiters {
            sa_in: RoundRobin::new(total),
            sa_out: RoundRobin::new(ports),
            va_out: RoundRobin::new(ports),
        };
        Self {
            occ: OccupancyIndex::default(),
            out_busy: 0,
            topology: cfg.topology,
            sink: TraceSink::default(),
            node,
            ports: ports as u8,
            vcs: total as u8,
            timed: cfg.mechanism.timed.is_timed(),
            circuit_vc0: (total - layout.circuit_vcs) as u8,
            contend: [0; MAX_PORTS],
            sa_nominee: [0; MAX_PORTS],
            state: State {
                st_len: 0,
                degraded: false,
                owner: [Owner::Free; VC_INDEX_BITS],
                st_pending: [StGrant::default(); MAX_PORTS],
                arbiters: [arbiters; MAX_PORTS],
                activity: Activity::default(),
                vcs: vec![InputVc::default(); ports * total],
                spill: Vec::new(),
                circuits: RouterCircuits::with_ports(
                    cfg.mechanism.mode,
                    cfg.mechanism.max_circuits_per_input,
                    cfg.mechanism.circuit_vcs().max(1),
                    ports,
                ),
                bypass_retry: (0..ports).map(|_| VecDeque::new()).collect(),
            },
            va_scratch: Vec::with_capacity(total),
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
    /// state at `now` (waiting VCs, bypass retry queues, held or draining
    /// output VCs with the credits home on `wires`) — used by
    /// wedge-diagnosis assertions to show *where* traffic stuck.
    pub(crate) fn debug_dump(
        &self,
        now: Cycle,
        wires: &[CreditWire],
        packets: &Packets,
        out: &mut String,
    ) {
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
        for o in 0..usize::from(self.ports) {
            let owned: Vec<_> = (0..self.layout.total())
                .map(|v| (v, self.slot(o, v)))
                .filter(|&(_, i)| !self.free_at(now, wires, i))
                .map(|(v, i)| {
                    let cr = self.home(now, wires, i);
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
    fn home(&self, now: Cycle, wires: &[CreditWire], slot: usize) -> u8 {
        wires.get(slot).map_or(BUFFER_DEPTH, |w| w.available(now))
    }

    /// `true` when output VC `slot` may be VC-allocated at `now`: no
    /// packet holds it and every credit of the downstream buffer is home.
    /// A VC the tail left whose credits are still on the way is draining.
    fn free_at(&self, now: Cycle, wires: &[CreditWire], slot: usize) -> bool {
        self.state.owner[slot] == Owner::Free && self.home(now, wires, slot) == BUFFER_DEPTH
    }

    /// Runs one cycle. `arrivals` and `undos` are the messages reaching
    /// this router this cycle, as its link registers hand them over
    /// (drained in place so the caller can reuse the buffers); produced
    /// messages go straight onto `out`, and the router's credits are
    /// `out`'s wires, read at `now`. Flits are handles into `packets`.
    pub(crate) fn tick(
        &mut self,
        now: Cycle,
        arrivals: &mut Vec<(usize, Flit)>,
        undos: &mut Vec<(CircuitKey, NodeId)>,
        packets: &mut Packets,
        out: &mut impl LinkSink,
    ) {
        self.out_busy = 0;

        // The undo information credits may carry (§4.4).
        for (key, dst) in undos.drain(..) {
            self.process_undo(now, key, dst, out);
        }

        if self.timed {
            // A few cycles of grace keep boundary-case replies (committed
            // at the very edge of their window) from losing their entries;
            // lookups are key-matched, so lingering entries are harmless.
            self.state.circuits.expire(now.saturating_sub(4));
        }

        // Retry queued bypass flits (in order per input), then arrivals.
        self.drain_bypass_retries(now, packets, out);
        for (port, flit) in arrivals.drain(..) {
            self.receive(now, port, flit, packets, out);
        }

        self.stage_st(now, packets, out);
        self.stage_sa(now, packets, out.wires());
        self.stage_va(now, packets, out);
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
                if self.node == self.topology.router_of(dst) {
                    return;
                }
                self.topology.next_hop_port(self.node, dst, Routing::Yx)
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

    fn drain_bypass_retries(&mut self, now: Cycle, packets: &mut Packets, out: &mut impl LinkSink) {
        for p in bits(self.occ.retries) {
            // Decide on the queue head in place; pop only to act.
            while let Some(&front) = self.state.bypass_retry[p].front() {
                match self.bypass_check(now, p, front, packets, out.wires()) {
                    BypassCheck::Ready => {
                        let flit = self.pop_retry(p);
                        self.execute_bypass(now, p, flit, packets, out);
                    }
                    BypassCheck::Busy => break,
                    BypassCheck::Pipeline => {
                        if front.is_head()
                            && !self.state.vcs[self.slot(p, front.vc.into())].is_idle()
                        {
                            // The fallback VC is still draining an earlier
                            // packet: hold the stream here (in order) until
                            // it idles instead of corrupting the wormhole.
                            break;
                        }
                        let flit = self.pop_retry(p);
                        self.buffer_flit(now, p, flit, packets);
                    }
                }
            }
        }
    }

    fn push_retry(&mut self, port: usize, flit: Flit) {
        self.state.bypass_retry[port].push_back(flit);
        self.occ.retries |= 1 << port;
    }

    fn pop_retry(&mut self, port: usize) -> Flit {
        let queue = &mut self.state.bypass_retry[port];
        let flit = queue.pop_front().expect("caller saw the queue head");
        if queue.is_empty() {
            self.occ.retries &= !(1 << port);
        }
        flit
    }

    /// Whether `flit`, arrived on `port`, can take the bypass path right
    /// now: it must ride a circuit (the key is in its packet's record)
    /// that is reserved here.
    fn bypass_check(
        &mut self,
        now: Cycle,
        port: usize,
        flit: Flit,
        packets: &Packets,
        wires: &[CreditWire],
    ) -> BypassCheck {
        if !flit.rides() {
            return BypassCheck::Pipeline;
        }
        let key = packets[flit.slot]
            .riding
            .expect("a riding flit's record names the circuit");
        if self.state.degraded {
            // Circuits are disabled while this router borders a dead
            // region: drop the local reservation (if any, so it cannot
            // leak — the tail that would have released it now streams
            // through the pipeline) and fall back.
            self.state.circuits.release(port, key);
            return BypassCheck::Pipeline;
        }
        let Some(entry) = self.state.circuits.lookup(port, key).copied() else {
            // No reservation here: a fragmented gap, or a head that
            // already fell back and released the entry.
            return BypassCheck::Pipeline;
        };
        if self.mechanism.mode == CircuitMode::Fragmented
            && flit.is_head()
            && entry.out_port < PORT_LOCAL
        {
            // Fragmented circuits keep buffers: the downstream circuit VC
            // must be able to hold the whole message in case its own
            // reservation there is missing (§4.2 "messages can always be
            // stored"). Without that guarantee the message takes the
            // pipeline here instead, and the local reservation is freed.
            let gvc = self
                .layout
                .circuit_vc(entry.vc as usize % self.layout.circuit_vcs);
            // A head needs the downstream VC completely idle (all credits
            // home), like the packet-switched draining rule.
            if wires[self.slot(entry.out_port, gvc)].available(now) < BUFFER_DEPTH {
                self.state.circuits.release(port, key);
                return BypassCheck::Pipeline;
            }
        }
        if self.out_busy >> entry.out_port & 1 == 1 {
            // Ideal mode resolves collisions per cycle (§4.8); fragmented
            // circuits may share an output port through different circuit
            // VCs. The complete-circuit conflict rules make this
            // unreachable for `Complete`.
            debug_assert!(
                self.mechanism.mode != CircuitMode::None,
                "baseline never bypasses"
            );
            return BypassCheck::Busy;
        }
        BypassCheck::Ready
    }

    /// Arrival processing: circuit check first (§4.3), else stage 1
    /// (buffer write + route computation).
    fn receive(
        &mut self,
        now: Cycle,
        port: usize,
        flit: Flit,
        packets: &mut Packets,
        out: &mut impl LinkSink,
    ) {
        if flit.rides() {
            self.state.activity.circuit_lookups += 1;
            // Keep stream order: if earlier flits of this input are already
            // queued for retry, queue behind them.
            if self.occ.retries >> port & 1 == 1 {
                self.push_retry(port, flit);
                return;
            }
            match self.bypass_check(now, port, flit, packets, out.wires()) {
                BypassCheck::Ready => {
                    self.execute_bypass(now, port, flit, packets, out);
                    return;
                }
                BypassCheck::Busy => {
                    self.push_retry(port, flit);
                    return;
                }
                BypassCheck::Pipeline => {}
            }
        }
        self.buffer_flit(now, port, flit, packets);
    }

    /// One-cycle circuit traversal: straight through the crossbar (§4.3).
    fn execute_bypass(
        &mut self,
        now: Cycle,
        port: usize,
        mut flit: Flit,
        packets: &mut Packets,
        out: &mut impl LinkSink,
    ) {
        let packet = &packets[flit.slot];
        let key = packet.riding.expect("bypass requires a circuit key");
        let entry = *self
            .state
            .circuits
            .lookup(port, key)
            .expect("caller checked the entry exists");
        if flit.is_head() {
            self.state.circuits.begin_use(port, key);
            self.sink.emit(|| TraceEvent {
                cycle: now,
                kind: EventKind::CircuitBypass {
                    packet: packet.id.0,
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
        }
        // A bypassed flit never occupies the buffer slot its VC credit paid
        // for; return the credit immediately (not needed on the bufferless
        // complete-mode circuit VC, whose flits are uncredited).
        let in_vc = usize::from(flit.vc);
        if !self.layout.is_circuit_vc(in_vc) || self.mechanism.circuit_vc_buffered() {
            self.state.activity.credits += 1;
            out.credit(port, in_vc, now + Cycle::from(LINK_LATENCY));
        }
        self.out_busy |= 1 << entry.out_port;
        self.state.activity.xbar_traversals += 1;
        if self.layout.circuit_vcs > 0 {
            let out_vc = self
                .layout
                .circuit_vc(entry.vc as usize % self.layout.circuit_vcs);
            flit.vc = out_vc as u8;
        }
        // Fragmented circuit VCs are buffered and credited; the bypass
        // consumes the downstream slot it may need at a gap router.
        if self.mechanism.mode == CircuitMode::Fragmented && entry.out_port < PORT_LOCAL {
            out.wires()[self.slot(entry.out_port, flit.vc.into())].take(now);
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
    fn buffer_flit(&mut self, now: Cycle, port: usize, flit: Flit, packets: &Packets) {
        let slot = self.slot(port, flit.vc.into());
        if flit.is_head() && !self.state.vcs[slot].is_idle() {
            // A head whose fallback VC is still draining an earlier
            // packet — e.g. a circuit stream forced onto the pipeline when
            // a dead link made this router degraded. It must
            // wait, not corrupt the wormhole: park it with the bypass
            // retries ([`Router::drain_bypass_retries`] holds it until
            // the VC idles, and the non-empty queue keeps its body flits
            // behind it in arrival order).
            self.push_retry(port, flit);
            return;
        }
        self.state.activity.buffer_writes += 1;
        if flit.is_head() {
            // Detoured packets follow the source route recorded for them
            // (DESIGN.md §10); everything else routes DOR.
            let packet = &packets[flit.slot];
            let routing = Routing::for_vnet(packet.vnet);
            let hop = packet
                .path
                .as_deref()
                .and_then(|p| self.topology.next_hop_on_path(p, self.node, packet.dst))
                .unwrap_or_else(|| self.topology.next_hop_port(self.node, packet.dst, routing));
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

            // Return the freed buffer slot upstream.
            self.state.activity.credits += 1;
            out.credit(in_port, in_vc, now + Cycle::from(LINK_LATENCY));

            let out_slot = self.slot(route, out_vc);
            self.out_busy |= 1 << route;
            flit.vc = out_vc as u8;
            let arrive = if route >= PORT_LOCAL {
                now + 1
            } else {
                out.wires()[out_slot].take(now);
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

    /// Stage 3: two-phase round-robin switch allocation; winners traverse
    /// the crossbar next cycle.
    fn stage_sa(&mut self, now: Cycle, packets: &Packets, wires: &[CreditWire]) {
        if self.occ.post_va == 0 {
            return;
        }
        // Inputs with a grant still pending ST cannot be granted again.
        let blocked = self.state.st_pending[..self.state.st_len.into()]
            .iter()
            .fold(0u64, |m, g| m | 1 << g.in_port);
        // Phase 1: each input port holding a post-VA VC nominates one.
        // `wanted` collects the output ports some nominee routes to.
        let mut wanted = 0u64;
        for p in 0..usize::from(self.ports) {
            let port_vcs = self.port_bits(self.occ.post_va, p);
            if port_vcs == 0 || blocked >> p & 1 == 1 {
                continue;
            }
            let mut requests = 0u64;
            for v in bits(port_vcs) {
                let vc = &self.state.vcs[self.slot(p, v)];
                let stage_ok = match vc.state {
                    VcState::WaitSa => vc.state_since < now,
                    VcState::Active => true,
                    _ => false,
                };
                if !stage_ok || vc.len() == 0 {
                    continue;
                }
                let route = usize::from(vc.route.expect("post-VA VC has a route"));
                let out_vc = usize::from(vc.out_vc.expect("post-VA VC has an output VC"));
                let credit_ok = route >= PORT_LOCAL
                    || wires[self.slot(route, out_vc)].available(now) > 0
                    // Circuit-class VCs are reservation-managed, not
                    // credited (fragmented gap traffic).
                    || out_vc >= usize::from(self.circuit_vc0);
                if credit_ok {
                    requests |= 1 << v;
                }
            }
            if let Some(v) = self.state.arbiters[p].sa_in.grant_mask(requests) {
                let route = self.state.vcs[self.slot(p, v)]
                    .route
                    .expect("post-VA VC has a route");
                self.sa_nominee[p] = v as u8;
                self.contend[usize::from(route)] |= 1 << p;
                wanted |= 1 << route;
            }
        }
        // Phase 2: each requested output port picks one input.
        for out_port in bits(wanted) {
            let contenders = std::mem::take(&mut self.contend[out_port]);
            let winner = self.state.arbiters[out_port]
                .sa_out
                .grant_mask(contenders)
                .expect("a nominee routes to every wanted output");
            let v = self.sa_nominee[winner];
            let slot = self.slot(winner, v.into());
            let vc = &mut self.state.vcs[slot];
            if vc.state == VcState::WaitSa {
                vc.state = VcState::Active;
                vc.state_since = now;
                let head = vc.front().expect("granted VC holds a flit");
                if head.is_head() {
                    self.sink.emit(|| TraceEvent {
                        cycle: now,
                        kind: EventKind::StageSa {
                            packet: packets[head.slot].id.0,
                            node: self.node.0,
                        },
                    });
                }
            }
            self.state.activity.sw_allocs += 1;
            self.state.st_pending[usize::from(self.state.st_len)] = StGrant {
                in_port: winner as u8,
                in_vc: v,
            };
            self.state.st_len += 1;
        }
    }

    /// Stage 2: VC allocation — and, in parallel, the reactive-circuit
    /// reservation for request packets (§4.1).
    fn stage_va(&mut self, now: Cycle, packets: &mut Packets, out: &mut impl LinkSink) {
        if self.occ.wait_va == 0 {
            return;
        }
        // Circuit reservations happen on the first VA attempt, whether or
        // not the VC wins allocation this cycle. The same pass groups the
        // requesting input ports by output port.
        let mut wanted = 0u64;
        for slot in bits(self.occ.wait_va) {
            let vc = &self.state.vcs[slot];
            if vc.state_since >= now {
                continue;
            }
            let route = usize::from(vc.route.expect("WaitVa VC has a route"));
            let p = slot / usize::from(self.vcs);
            if !vc.circuit_attempted {
                self.attempt_reservation(now, p, slot, packets, out);
            }
            self.contend[route] |= 1 << p;
            wanted |= 1 << route;
        }

        // Two-phase allocation: one grant per requested output port per
        // cycle, round-robin over the requesting input ports.
        let wires = &*out.wires();
        for out_port in bits(wanted) {
            let mut tried = std::mem::take(&mut self.contend[out_port]);
            // Check a free output VC exists for at least one contender
            // class; pick the winner first (RR), then the VC.
            let mut granted = false;
            while !granted {
                let Some(winner) = self.state.arbiters[out_port].va_out.grant_mask(tried) else {
                    break;
                };
                tried &= !(1 << winner);
                // The winning input port's WaitVa VCs for this output,
                // walked in age order: the first candidate that can
                // actually be allocated wins. (Considering only the
                // oldest VC would pass the whole input port over whenever
                // that VC's virtual network has no free output VC, and
                // since the oldest VC never changes, younger VCs behind it
                // would wait forever — a head-of-line wait that can close
                // a request/reply credit cycle into a hard deadlock under
                // sustained load; see tests/echo_probe.rs.)
                let mut candidates = std::mem::take(&mut self.va_scratch);
                candidates.clear();
                let inputs = &self.state.vcs[self.slot(winner, 0)..];
                candidates.extend(
                    bits(self.port_bits(self.occ.wait_va, winner))
                        .map(|v| (v, &inputs[v]))
                        .filter(|(_, vc)| vc.state_since < now && vc.route == Some(out_port as u8))
                        .map(|(v, vc)| {
                            let head = vc.front().expect("WaitVa VC holds its head");
                            let packet = &packets[head.slot];
                            (vc.state_since, v, packet.vnet, packet.dst)
                        }),
                );
                candidates.sort_unstable_by_key(|&(since, v, _, _)| (since, v));
                for &(_, v, vnet, dst) in &candidates {
                    let free_vc = self
                        .allocatable(out_port, vnet, dst)
                        .find(|&ovc| self.free_at(now, wires, self.slot(out_port, ovc)));
                    if let Some(ovc) = free_vc {
                        self.state.owner[self.slot(out_port, ovc)] =
                            Owner::Owned(winner as u8, v as u8);
                        let slot = self.slot(winner, v);
                        self.occ.wait_va &= !(1 << slot);
                        self.occ.post_va |= 1 << slot;
                        let vc = &mut self.state.vcs[slot];
                        vc.out_vc = Some(ovc as u8);
                        vc.state = VcState::WaitSa;
                        vc.state_since = now;
                        let head = vc.front().expect("WaitVa VC holds its head");
                        self.sink.emit(|| TraceEvent {
                            cycle: now,
                            kind: EventKind::StageVa {
                                packet: packets[head.slot].id.0,
                                node: self.node.0,
                            },
                        });
                        self.state.activity.vc_allocs += 1;
                        granted = true;
                        break;
                    }
                }
                self.va_scratch = candidates;
            }
        }
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
            let class = self
                .topology
                .vc_class(downstream, self.topology.router_of(dst), out_port);
            self.layout.allocatable_class_vcs(vnet, class as u8)
        } else {
            self.layout.allocatable_vcs(vnet)
        }
    }

    /// `port`'s slice of an index mask, shifted down to bit 0 = VC 0.
    fn port_bits(&self, mask: u64, port: usize) -> u64 {
        (mask >> (port * usize::from(self.vcs))) & ((1 << self.vcs) - 1)
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
    /// fresh [`Router::rebuild_scratch`], and that only a full ring
    /// spills.
    pub(crate) fn check_index(&self) -> Result<(), String> {
        let derived = Self::rebuild_scratch(&self.state);
        if self.occ != derived {
            return Err(format!(
                "{:?}: occupancy index {:x?} but the VC states give {:x?}",
                self.node, self.occ, derived
            ));
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
        let Some(handle) = packet.circuit.as_mut() else {
            return;
        };
        if handle.failed {
            return;
        }
        let key = handle.key;
        // Reply direction through this router: it arrives from where the
        // request is going and leaves where the request came from.
        let in_port_reply = route;
        let out_port_reply = p;
        // A degraded router refuses reservations outright, and circuit
        // reservations never span a wraparound link: a reply streaming
        // through the bypass would skip the dateline VC switch and close
        // the channel-dependency cycle the dateline exists to break.
        // Either way complete circuits are doomed like any reservation
        // conflict, while fragmented and ideal ones simply gain a gap
        // here.
        if self.state.degraded
            || self.topology.is_wrap_hop(self.node, in_port_reply)
            || self.topology.is_wrap_hop(self.node, out_port_reply)
        {
            if self.mechanism.mode == CircuitMode::Complete {
                handle.failed = true;
                if handle.built_hops > 0 {
                    self.start_undo(now, out_port_reply, key, out);
                }
            }
            return;
        }
        let h_req = self
            .topology
            .distance(self.node, self.topology.router_of(dst));

        let (window, max_extra_shift, nominal, slack) = match handle.timing {
            Some(t) => {
                let nominal =
                    nominal_inject(now, h_req, handle.turnaround) + Cycle::from(INJECT_OVERHEAD);
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
                match self.mechanism.mode {
                    CircuitMode::Complete => {
                        handle.failed = true;
                        if handle.built_hops > 0 {
                            self.start_undo(now, out_port_reply, key, out);
                        }
                    }
                    // Fragmented circuits keep the partial prefix and try
                    // again at the next hop (§4.2).
                    CircuitMode::Fragmented => {}
                    CircuitMode::None | CircuitMode::Ideal => {
                        unreachable!("these modes never fail reservations")
                    }
                }
            }
        }
    }

    /// Reports every input VC that is blocked on a channel resource,
    /// with the exact resources it waits on — this router's slice of
    /// the network-level wait-for graph (deadlock diagnosis). Mirrors
    /// the allocator rules, reading the router's credit `wires` at `now`:
    /// a post-VA VC is blocked when its allocated output VC has no
    /// credits; a `WaitVa` VC is blocked when *no* VC in its allocatable
    /// class is free. Only runs on the cold watchdog path, so it
    /// allocates freely.
    pub(crate) fn waiters(
        &self,
        now: Cycle,
        packets: &Packets,
        wires: &[CreditWire],
        out: &mut Vec<VcWaiter>,
    ) {
        for (slot, vc) in self.state.vcs.iter().enumerate() {
            let (p, v) = self.port_vc(slot);
            if vc.is_idle() {
                continue;
            }
            let Some(route) = vc.route.map(usize::from) else {
                continue;
            };
            if route >= PORT_LOCAL {
                // Ejection waits never close a channel cycle.
                continue;
            }
            let Some(front) = vc.front() else {
                continue;
            };
            let packet = &packets[front.slot];
            let out_vc = vc.out_vc.map(usize::from);
            let mut edges = Vec::new();
            let credits = match out_vc {
                Some(ov) => {
                    let credits = u32::from(wires[self.slot(route, ov)].available(now));
                    if credits == 0 && !self.layout.is_circuit_vc(ov) {
                        edges.push(WaitEdge::Downstream { out_vc: ov });
                    }
                    credits
                }
                None => {
                    if vc.state == VcState::WaitVa {
                        let cands: Vec<usize> =
                            self.allocatable(route, packet.vnet, packet.dst).collect();
                        let slot = |ovc: usize| self.slot(route, ovc);
                        if cands
                            .iter()
                            .all(|&ovc| !self.free_at(now, wires, slot(ovc)))
                        {
                            for &ovc in &cands {
                                edges.push(match self.state.owner[slot(ovc)] {
                                    Owner::Owned(hp, hv) => WaitEdge::Local {
                                        in_port: hp.into(),
                                        vc: hv.into(),
                                    },
                                    Owner::Free => WaitEdge::Downstream { out_vc: ovc },
                                });
                            }
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
    use super::*;
    use crate::flit::{Packet, PacketSpec};
    use rcsim_core::{
        MechanismConfig, MessageClass, Stateful, Topology, PORT_EAST, PORT_NORTH, PORT_WEST,
    };

    /// One recorded [`LinkSink`] call, argument for argument.
    #[derive(Debug, Clone, PartialEq)]
    enum Outgoing {
        Flit(usize, Flit, Cycle),
        Credit(usize, usize, Cycle),
        Undo(usize, CircuitKey, NodeId, Cycle),
    }

    /// The sink a lone router ticks into: its calls are recorded in `sent`,
    /// and `wires` are the router's own credit wires, which nothing
    /// downstream ever refills.
    #[derive(Debug, Clone)]
    struct Recorder {
        sent: Vec<Outgoing>,
        wires: Vec<CreditWire>,
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

    /// A lone router and the sink it ticks into.
    struct Lone {
        router: Router,
        sink: Recorder,
    }

    impl std::ops::Deref for Lone {
        type Target = Router;
        fn deref(&self) -> &Router {
            &self.router
        }
    }

    impl std::ops::DerefMut for Lone {
        fn deref_mut(&mut self) -> &mut Router {
            &mut self.router
        }
    }

    fn router(mechanism: MechanismConfig) -> Lone {
        let mesh = Topology::mesh(4, 4).expect("valid");
        let cfg = NocConfig::paper_baseline(mesh, mechanism);
        let slots = mesh.ports() * cfg.vc_layout().total();
        Lone {
            // Router at n5 = (1,1): all four neighbours exist.
            router: Router::new(NodeId(5), &cfg),
            sink: Recorder {
                sent: Vec::new(),
                wires: vec![CreditWire::full(BUFFER_DEPTH); slots],
            },
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

    fn tick(
        r: &mut Lone,
        now: Cycle,
        packets: &mut Packets,
        mut arrivals: Vec<(usize, Flit)>,
    ) -> Vec<Outgoing> {
        let Lone { router, sink } = r;
        router.tick(now, &mut arrivals, &mut Vec::new(), packets, sink);
        std::mem::take(&mut sink.sent)
    }

    /// The Table 4 pipeline takes exactly four cycles in the router: a
    /// head arriving at cycle 0 departs on the link during the tick at
    /// cycle 3 (RC@0, VA@1, SA@2, ST@3).
    #[test]
    fn single_flit_takes_four_router_cycles() {
        let mut r = router(MechanismConfig::baseline());
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
        assert_eq!(r.buffered_flits(), 0);
    }

    /// Body flits stream one per cycle behind the head.
    #[test]
    fn multiflit_streams_at_one_per_cycle() {
        let mut r = router(MechanismConfig::baseline());
        let mut packets = Packets::default();
        let flits = request(&mut packets, 5);
        let mut departures = Vec::new();
        for now in 0..16u64 {
            let arrivals = flits.get(now as usize).map(|&f| (PORT_WEST, f));
            for o in tick(&mut r, now, &mut packets, arrivals.into_iter().collect()) {
                if let Outgoing::Flit(..) = o {
                    departures.push(now);
                }
            }
        }
        // Head departs at cycle 3 (after RC/VA/SA); the other four flits
        // stream back-to-back behind it.
        assert_eq!(departures, vec![3, 4, 5, 6, 7], "1 flit/cycle streaming");
        assert_eq!(r.buffered_flits(), 0);
    }

    /// A VC buffer deeper than its ring — what an uncredited circuit VC
    /// can be asked to hold — spills, keeps arrival order across ring and
    /// spill, and drains back to nothing.
    #[test]
    fn a_buffer_deeper_than_its_ring_spills_in_order() {
        let mut r = router(MechanismConfig::baseline());
        let mut packets = Packets::default();
        let len = 2 * input::RING as u32 + 1;
        let flits = request(&mut packets, len);
        // Hold the output busy so nothing leaves while the flits pile up.
        for now in 0..u64::from(len) {
            tick(
                &mut r,
                now,
                &mut packets,
                vec![(PORT_WEST, flits[now as usize])],
            );
            r.state.st_len = 0;
        }
        assert_eq!(r.buffered_flits(), len as usize);
        assert_eq!(r.state.spill.len(), len as usize - input::RING);
        assert_eq!(r.check_index(), Ok(()));
        let mut seqs = Vec::new();
        for now in u64::from(len)..u64::from(4 * len) {
            // The downstream buffer is as deep as it needs to be.
            r.sink.wires.fill(CreditWire::full(u8::MAX));
            for o in tick(&mut r, now, &mut packets, vec![]) {
                if let Outgoing::Flit(_, f, _) = o {
                    seqs.push(f.seq);
                }
            }
            assert_eq!(r.check_index(), Ok(()));
        }
        assert_eq!(seqs, (0..len as u16).collect::<Vec<_>>());
        assert!(r.state.spill.is_empty() && r.buffered_flits() == 0);
    }

    /// The flat control state round-trips and the occupancy index is
    /// scratch: it is not in the snapshot, a restore rebuilds it, and a
    /// router restored mid-packet — one VC streaming, one still waiting
    /// for VC allocation behind it — continues exactly like the
    /// uninterrupted one.
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
        let json = |r: &Lone| serde_json::to_string(&r.state).expect("serializes");

        let mut uninterrupted = router(MechanismConfig::baseline());
        for now in 0..5 {
            tick(&mut uninterrupted, now, &mut packets, arrivals_at(now));
        }
        assert!(uninterrupted.occ.post_va != 0 && uninterrupted.occ.wait_va != 0);
        assert!(
            !json(&uninterrupted).contains("wait_va"),
            "the index must stay out of the snapshot"
        );
        let snap: State = serde_json::from_str(&json(&uninterrupted)).expect("deserializes");
        // Flat state: one input VC per slot (5 ports × 4 VCs), nothing
        // nested.
        assert_eq!(snap.vcs.len(), 20);
        assert!(snap.owner[..20].contains(&Owner::Owned(PORT_WEST as u8, 0)));

        let mut restored = router(MechanismConfig::baseline());
        restored.restore(&snap);
        // The credits are the network's state, beside the router's.
        restored.sink.wires.clone_from(&uninterrupted.sink.wires);
        assert_eq!(restored.occ, uninterrupted.occ);
        assert_eq!(restored.check_index(), Ok(()));
        assert_eq!(json(&restored), json(&uninterrupted));

        for now in 5..16 {
            assert_eq!(
                tick(&mut restored, now, &mut packets.clone(), arrivals_at(now)),
                tick(&mut uninterrupted, now, &mut packets, arrivals_at(now)),
                "cycle {now}"
            );
            assert_eq!(json(&restored), json(&uninterrupted), "cycle {now}");
        }
        assert_eq!(restored.buffered_flits(), 0);
        assert_eq!(restored.occ, OccupancyIndex::default());
    }

    /// Two heads contending for one output port: switch allocation
    /// serializes them round-robin; both eventually depart.
    #[test]
    fn output_contention_is_arbitrated() {
        let mut r = router(MechanismConfig::baseline());
        let mut packets = Packets::default();
        let a = request(&mut packets, 1)[0];
        let b = request(&mut packets, 1)[0];
        let _ = tick(
            &mut r,
            0,
            &mut packets,
            vec![(PORT_WEST, a), (PORT_NORTH, b)],
        );
        let mut departures = 0;
        for now in 1..10 {
            for o in tick(&mut r, now, &mut packets, vec![]) {
                if let Outgoing::Flit(port, ..) = o {
                    assert_eq!(port, PORT_EAST);
                    departures += 1;
                }
            }
        }
        assert_eq!(departures, 2, "both packets cross, serialized");
    }

    /// A request head reserves the reply circuit during its VA cycle,
    /// with the reply's ports mirrored from the request's.
    #[test]
    fn reservation_happens_at_va_with_mirrored_ports() {
        let mut r = router(MechanismConfig::complete());
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
        let _ = tick(&mut r, 0, &mut packets, vec![(PORT_WEST, f)]);
        assert_eq!(r.state.circuits.total_entries(), 0, "not during RC");
        let _ = tick(&mut r, 1, &mut packets, vec![]);
        assert_eq!(
            r.state.circuits.total_entries(),
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
            .state
            .circuits
            .lookup(PORT_EAST, key)
            .expect("entry at East input");
        assert_eq!(e.out_port, PORT_WEST);
    }

    /// A reply flit with a matching reservation crosses in the arrival
    /// cycle (1-cycle bypass) and releases the circuit at its tail.
    #[test]
    fn bypass_crosses_in_one_cycle_and_releases() {
        let mut r = router(MechanismConfig::complete());
        let key = rcsim_core::circuit::CircuitKey {
            requestor: NodeId(4),
            block: 0x40,
        };
        r.state
            .circuits
            .try_reserve(&ReserveRequest {
                key,
                source: NodeId(6),
                in_port: PORT_EAST,
                out_port: PORT_WEST,
                window: None,
                max_extra_shift: 0,
            })
            .expect("reservation succeeds");
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
            r.state.circuits.total_entries(),
            0,
            "tail released the circuit"
        );
        assert_eq!(r.buffered_flits(), 0, "bypassed flits are never stored");
    }

    /// An undo notification removes the local entry and is forwarded
    /// towards the circuit destination.
    #[test]
    fn undo_propagates_towards_destination() {
        let mut r = router(MechanismConfig::complete());
        let key = rcsim_core::circuit::CircuitKey {
            requestor: NodeId(4),
            block: 0x40,
        };
        r.state
            .circuits
            .try_reserve(&ReserveRequest {
                key,
                source: NodeId(6),
                in_port: PORT_EAST,
                out_port: PORT_WEST,
                window: None,
                max_extra_shift: 0,
            })
            .expect("reservation succeeds");
        let Lone { router, sink } = &mut r;
        let undos = &mut vec![(key, NodeId(4))];
        router.tick(5, &mut Vec::new(), undos, &mut Packets::default(), sink);
        assert_eq!(r.state.circuits.total_entries(), 0);
        assert!(r
            .sink
            .sent
            .iter()
            .any(|o| matches!(o, Outgoing::Undo(PORT_WEST, ..))));
    }
}
