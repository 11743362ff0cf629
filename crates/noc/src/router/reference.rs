#![cfg(test)]
//! `RefRouter`: the router of §3 (Table 4's four stages) and §4.1–4.4 (the
//! reservation at VC allocation, the one-cycle bypass, the undo) in its
//! plainest form — a queue per input VC, a state word per input VC, an
//! owner per output VC, and every stage a scan over `ports × VCs`, ticked
//! every cycle. It is the oracle the production [`Router`](super::Router)
//! is held to flit for flit and cycle for cycle (`differential.rs`), so it
//! shares nothing with it but the medium — the packet table, the credit
//! wires, the link sink — and what has an oracle of its own: the routing
//! function, the circuit table and the VC layout.
//!
//! It models every router path of the paper's ten versions: the
//! baseline; fragmented circuits (§4.2); complete circuits, untimed or
//! timed (§4.7), with the scroungers of §4.5 borrowing or consuming a
//! foreign circuit; and ideal circuits (§4.8) — on healthy links or after
//! a degraded onset (DESIGN.md §10). Every output VC, a circuit VC too,
//! is held from its packet's head to its tail, `bsg_wormhole_router`'s
//! rule (SNIPPETS.md §2): an ideal circuit never fails, so two of them may
//! meet at one output circuit VC, and the later head waits for the
//! earlier tail.

use super::tests::Recorder;
use crate::config::{NocConfig, VcLayout};
use crate::credit::CreditWire;
use crate::flit::{Flit, Packets};
use crate::links::LinkSink;
use crate::stats::Activity;
use rcsim_core::circuit::timing::TimeWindow;
use rcsim_core::circuit::{CircuitEntry, CircuitKey, ReserveRequest, RouterCircuits};
use rcsim_core::routing::Routing;
use rcsim_core::table4::{
    BUFFER_DEPTH, BYPASS_STAGES, INJECT_OVERHEAD, LINK_LATENCY, PIPELINE_STAGES,
};
use rcsim_core::{CircuitMode, Cycle, MechanismConfig, NodeId, Topology, TopologyHealth};
use rcsim_core::{PORTS, PORT_LOCAL};
use rcsim_trace::{EventKind, TraceEvent, TraceSink};
use std::collections::VecDeque;

/// Where an input VC's packet is in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Idle,
    /// Head buffered and routed; waiting for an output VC.
    WaitVa,
    /// Output VC held; waiting for the head's switch grant.
    WaitSa,
    /// Head granted; the rest of the packet streams.
    Active,
}

/// One input VC: its flits, oldest first, and its pipeline state.
#[derive(Debug, Clone)]
struct InVc {
    flits: VecDeque<Flit>,
    stage: Stage,
    /// Cycle `stage` was entered: a stage fires one cycle later at the
    /// earliest.
    since: Cycle,
    route: Option<usize>,
    out_vc: Option<usize>,
    /// The head's circuit reservation was tried (once, at its first VA
    /// request).
    reserved: bool,
}

impl InVc {
    /// A new head may enter: no packet holds the VC.
    fn idle(&self) -> bool {
        self.stage == Stage::Idle && self.flits.is_empty()
    }
}

/// Cycles a timed entry outlives its window, so that a reply starting at
/// the window's very end still finds it: the expiry runs at `now − 4`.
const EXPIRY_GRACE: Cycle = 4;

/// A round-robin arbiter: the first requester at or after the pointer
/// wins, and the pointer moves just past the winner.
#[derive(Debug, Clone, Copy)]
struct Rr {
    next: usize,
}

impl Rr {
    fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        let n = requests.len();
        let winner = (0..n).map(|k| (self.next + k) % n).find(|&i| requests[i])?;
        self.next = (winner + 1) % n;
        Some(winner)
    }
}

/// How often the traffic reached each contended corner of the router.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Coverage {
    /// Output ports two or more input ports asked for in one VA cycle.
    pub va_conflicts: u64,
    /// Output ports two or more nominees asked for in one SA cycle.
    pub sa_conflicts: u64,
    /// Heads held back by credits not yet home: a ready VC with an empty
    /// count in SA, or a head whose only unowned output VCs are still
    /// draining in VA.
    pub credit_stalls: u64,
    /// Flits that crossed on a circuit.
    pub bypasses: u64,
    /// Flits parked in a bypass-retry queue.
    pub bypass_retries: u64,
    /// Riding flits that waited because another stream held their output
    /// circuit VC.
    pub held_waits: u64,
    /// Scrounger heads that crossed on a foreign circuit.
    pub scroungers: u64,
    /// Timed entries that expired unused.
    pub expiries: u64,
    /// Riding flits that took the pipeline: no reservation here (a gap,
    /// or one undone or released), or one this router gave back.
    pub fallbacks: u64,
    /// Undos processed.
    pub undos: u64,
}

/// What a riding flit does this cycle.
enum Bypass {
    /// Cross now through the circuit's output.
    Go(CircuitEntry),
    /// The circuit's output is taken this cycle, or another stream holds
    /// its output circuit VC: retry next cycle.
    Wait,
    /// No circuit here: take the four-stage pipeline.
    Pipeline,
}

pub(crate) struct RefRouter {
    node: NodeId,
    topology: Topology,
    layout: VcLayout,
    mechanism: MechanismConfig,
    sink: TraceSink,
    /// `inputs[port][vc]`.
    inputs: Vec<Vec<InVc>>,
    /// `owner[port][vc]`: the input VC holding output VC `(port, vc)`.
    owner: Vec<Vec<Option<(usize, usize)>>>,
    sa_in: Vec<Rr>,
    sa_out: Vec<Rr>,
    va_out: Vec<Rr>,
    /// Switch grants `(in_port, in_vc)` awaiting traversal, in grant order.
    grants: Vec<(usize, usize)>,
    /// Per input port, flits waiting to retry the bypass (or, for a head,
    /// for its VC to idle), in arrival order. A VC whose oldest flit waits
    /// holds back only its own, so a stream that holds an output never
    /// waits behind one that waits for it.
    retry: Vec<VecDeque<Flit>>,
    /// A link of this router died: it takes no part in circuits.
    degraded: bool,
    pub(crate) circuits: RouterCircuits,
    pub(crate) activity: Activity,
    pub(crate) coverage: Coverage,
}

impl RefRouter {
    pub(crate) fn new(node: NodeId, cfg: &NocConfig) -> Self {
        let mechanism = cfg.mechanism;
        let layout = cfg.vc_layout();
        let vcs = layout.total();
        let idle = InVc {
            flits: VecDeque::new(),
            stage: Stage::Idle,
            since: 0,
            route: None,
            out_vc: None,
            reserved: false,
        };
        let rr = vec![Rr { next: 0 }; PORTS];
        RefRouter {
            node,
            topology: cfg.topology,
            layout,
            mechanism,
            sink: TraceSink::default(),
            inputs: vec![vec![idle; vcs]; PORTS],
            owner: vec![vec![None; vcs]; PORTS],
            sa_in: rr.clone(),
            sa_out: rr.clone(),
            va_out: rr,
            grants: Vec::new(),
            retry: vec![VecDeque::new(); PORTS],
            degraded: false,
            circuits: RouterCircuits::new(
                mechanism.mode,
                mechanism.max_circuits_per_input,
                mechanism.circuit_vcs().max(1),
            ),
            activity: Activity::default(),
            coverage: Coverage::default(),
        }
    }

    pub(crate) fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// A link of this router died (DESIGN.md §10); links never heal.
    pub(crate) fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
    }

    pub(crate) fn buffered_flits(&self) -> usize {
        self.inputs.iter().flatten().map(|vc| vc.flits.len()).sum()
    }

    /// `true` while a flit is buffered, granted or parked.
    pub(crate) fn holds_flits(&self) -> bool {
        self.buffered_flits() > 0
            || !self.grants.is_empty()
            || self.retry.iter().any(|q| !q.is_empty())
    }

    fn emit(&self, now: Cycle, kind: EventKind) {
        self.sink.emit(|| TraceEvent { cycle: now, kind });
    }

    /// Credits of output VC `(port, vc)` home at `now`; the ejection port
    /// is uncredited.
    fn home(&self, wires: &[CreditWire], port: usize, vc: usize) -> u8 {
        let wire = wires.get(port * self.layout.total() + vc);
        wire.map_or(BUFFER_DEPTH, |w| w.available())
    }

    /// One cycle, in the order the hardware resolves it: undos on the
    /// credit wires, the expiry of timed entries whose window has passed,
    /// the bypass retries and then the arrivals (a circuit claims its
    /// output before the pipeline does), then ST, SA and VA.
    pub(crate) fn tick(
        &mut self,
        now: Cycle,
        arrivals: &mut Vec<(usize, Flit)>,
        undos: &mut Vec<(CircuitKey, NodeId)>,
        packets: &mut Packets,
        health: &TopologyHealth,
        out: &mut impl LinkSink,
    ) {
        let mut taken = [false; PORTS];
        for (key, dst) in undos.drain(..) {
            self.undo(now, key, dst, out);
        }
        if self.mechanism.timed.is_timed() {
            // An entry lives `EXPIRY_GRACE` cycles past its window, so a
            // reply that starts at the window's very end still finds it.
            let expired = self.circuits.expire(now.saturating_sub(EXPIRY_GRACE));
            self.coverage.expiries += expired as u64;
        }
        for p in 0..PORTS {
            // Each input VC's parked flits retry in order, up to the first
            // that still waits.
            let mut waits = vec![false; self.layout.total()];
            let mut kept = VecDeque::new();
            for flit in std::mem::take(&mut self.retry[p]) {
                let v = usize::from(flit.vc);
                if waits[v] {
                    kept.push_back(flit);
                    continue;
                }
                match self.bypass(p, flit, packets, out.wires(), &taken) {
                    Bypass::Go(entry) => self.cross(now, p, flit, entry, &mut taken, packets, out),
                    Bypass::Pipeline if !flit.is_head() || self.inputs[p][v].idle() => {
                        self.write(now, p, flit, packets, health)
                    }
                    Bypass::Wait | Bypass::Pipeline => {
                        waits[v] = true;
                        kept.push_back(flit);
                    }
                }
            }
            self.retry[p] = kept;
        }
        for (p, flit) in arrivals.drain(..) {
            self.arrive(now, p, flit, &mut taken, packets, health, out);
        }
        self.traverse(now, &mut taken, packets, out);
        self.switch_allocate(now, packets, out.wires());
        self.vc_allocate(now, packets, out);
    }

    fn park(&mut self, port: usize, flit: Flit) {
        self.coverage.bypass_retries += 1;
        self.retry[port].push_back(flit);
    }

    /// §4.3: a flit tagged to ride looks its circuit up on arrival.
    #[allow(clippy::too_many_arguments)]
    fn arrive(
        &mut self,
        now: Cycle,
        port: usize,
        flit: Flit,
        taken: &mut [bool; PORTS],
        packets: &mut Packets,
        health: &TopologyHealth,
        out: &mut impl LinkSink,
    ) {
        if flit.rides() {
            self.activity.circuit_lookups += 1;
        }
        // A stream keeps its order: a flit never passes its own VC's
        // parked flits, and passes any other VC's.
        if self.retry[port].iter().any(|f| f.vc == flit.vc) {
            return self.park(port, flit);
        }
        if flit.rides() {
            match self.bypass(port, flit, packets, out.wires(), taken) {
                Bypass::Go(entry) => {
                    return self.cross(now, port, flit, entry, taken, packets, out)
                }
                Bypass::Wait => return self.park(port, flit),
                Bypass::Pipeline => {}
            }
        }
        self.write(now, port, flit, packets, health);
    }

    /// Whether a riding flit finds a circuit it may take. A reservation
    /// is given back instead (§4.2, DESIGN.md §10) at a degraded router,
    /// which takes no part in circuits, and by a fragmented head whose
    /// next router might lack the reservation: its message must fit in
    /// the circuit VC there, so every credit of that VC must be home. A
    /// stream given back mid-way frees the output circuit VC its head
    /// held. A circuit whose output circuit VC another stream holds
    /// waits for that stream's tail.
    fn bypass(
        &mut self,
        port: usize,
        flit: Flit,
        packets: &Packets,
        wires: &[CreditWire],
        taken: &[bool; PORTS],
    ) -> Bypass {
        let Some(key) = packets[flit.slot].riding.filter(|_| flit.rides()) else {
            return Bypass::Pipeline;
        };
        let Some(&entry) = self.circuits.lookup(port, key) else {
            return Bypass::Pipeline;
        };
        let next_router = entry.out_port != PORT_LOCAL;
        let may_lack = self.mechanism.mode == CircuitMode::Fragmented && flit.is_head();
        let room = !(next_router && may_lack)
            || self.home(wires, entry.out_port, self.circuit_vc(entry)) == BUFFER_DEPTH;
        let (o, g) = (entry.out_port, self.circuit_vc(entry));
        let holder = self.owner[o][g];
        if self.degraded || !room {
            self.circuits.release(port, key);
            if entry.in_use {
                self.owner[o][g] = None;
            }
            Bypass::Pipeline
        } else if holder.is_some_and(|h| h != (port, usize::from(flit.vc))) {
            self.coverage.held_waits += 1;
            Bypass::Wait
        } else if taken[o] {
            Bypass::Wait
        } else {
            Bypass::Go(entry)
        }
    }

    /// The VC a flit crossing on `entry` leaves on.
    fn circuit_vc(&self, entry: CircuitEntry) -> usize {
        let circuit_vcs = self.layout.circuit_vcs;
        self.layout.circuit_vc(usize::from(entry.vc) % circuit_vcs)
    }

    /// The one-cycle circuit traversal.
    #[allow(clippy::too_many_arguments)]
    fn cross(
        &mut self,
        now: Cycle,
        port: usize,
        mut flit: Flit,
        entry: CircuitEntry,
        taken: &mut [bool; PORTS],
        packets: &mut Packets,
        out: &mut impl LinkSink,
    ) {
        self.coverage.bypasses += 1;
        let key = entry.key;
        let in_vc = usize::from(flit.vc);
        let (o, g) = (entry.out_port, self.circuit_vc(entry));
        if flit.is_head() {
            self.owner[o][g] = Some((port, in_vc));
            self.circuits.begin_use(port, key);
            self.coverage.scroungers += u64::from(flit.scrounger());
            let packet = packets[flit.slot].id.0;
            let node = self.node.0;
            self.emit(now, EventKind::CircuitBypass { packet, node });
        }
        if flit.is_tail() {
            // §4.5: a borrowing scrounger leaves the circuit to its own
            // reply; a consuming one, like the own reply, tears it down.
            if flit.scrounger() && self.mechanism.scrounger_borrow {
                self.circuits.end_use(port, key);
            } else {
                self.circuits.release(port, key);
            }
            self.owner[o][g] = None;
        }
        if self.layout.credited(in_vc, self.mechanism.mode) {
            self.activity.credits += 1;
            out.credit(port, in_vc, now + Cycle::from(LINK_LATENCY));
        }
        taken[o] = true;
        self.activity.xbar_traversals += 1;
        flit.vc = g as u8;
        if self.mechanism.mode == CircuitMode::Fragmented && entry.out_port != PORT_LOCAL {
            // §4.2: the circuit VC there is buffered and credited.
            out.wires()[entry.out_port * self.layout.total() + usize::from(flit.vc)].take();
        }
        let arrive = self.leave(now, entry.out_port);
        out.flit(entry.out_port, flit, arrive, packets);
    }

    /// When a flit crossing the crossbar at `now` through `port` arrives.
    fn leave(&mut self, now: Cycle, port: usize) -> Cycle {
        if port == PORT_LOCAL {
            return now + 1;
        }
        self.activity.link_flits += 1;
        now + 1 + Cycle::from(LINK_LATENCY)
    }

    /// Stage 1: buffer write, and route computation for a head.
    fn write(
        &mut self,
        now: Cycle,
        port: usize,
        flit: Flit,
        packets: &Packets,
        health: &TopologyHealth,
    ) {
        let v = usize::from(flit.vc);
        if flit.is_head() && !self.inputs[port][v].idle() {
            return self.park(port, flit);
        }
        self.coverage.fallbacks += u64::from(flit.rides());
        self.activity.buffer_writes += 1;
        if flit.is_head() {
            let p = &packets[flit.slot];
            let route = (self.topology).route(self.node, port, p.dst, p.vnet, p.detour, health);
            let vc = &mut self.inputs[port][v];
            vc.route = Some(route);
            vc.stage = Stage::WaitVa;
            vc.since = now;
            vc.reserved = false;
        }
        self.inputs[port][v].flits.push_back(flit);
    }

    /// Stage 4: last cycle's switch grants cross, unless a circuit took
    /// their output this cycle (then they retry next cycle).
    fn traverse(
        &mut self,
        now: Cycle,
        taken: &mut [bool; PORTS],
        packets: &mut Packets,
        out: &mut impl LinkSink,
    ) {
        for (ip, iv) in std::mem::take(&mut self.grants) {
            let vc = &mut self.inputs[ip][iv];
            let (route, ovc) = (vc.route.expect("routed"), vc.out_vc.expect("allocated"));
            if taken[route] {
                self.grants.push((ip, iv));
                continue;
            }
            let mut flit = vc.flits.pop_front().expect("a granted VC holds a flit");
            if flit.is_tail() {
                (vc.stage, vc.since, vc.route, vc.out_vc) = (Stage::Idle, now, None, None);
                self.owner[route][ovc] = None;
            }
            if flit.is_head() {
                let packet = packets[flit.slot].id.0;
                let node = self.node.0;
                self.emit(now, EventKind::StageSt { packet, node });
            }
            self.activity.buffer_reads += 1;
            self.activity.xbar_traversals += 1;
            if self.layout.credited(iv, self.mechanism.mode) {
                self.activity.credits += 1;
                out.credit(ip, iv, now + Cycle::from(LINK_LATENCY));
            }
            taken[route] = true;
            flit.vc = ovc as u8;
            if route != PORT_LOCAL {
                out.wires()[route * self.layout.total() + ovc].take();
            }
            let arrive = self.leave(now, route);
            out.flit(route, flit, arrive, packets);
        }
    }

    /// Stage 3: each input port without a pending grant nominates one of
    /// its ready VCs; each output port grants one nominee.
    fn switch_allocate(&mut self, now: Cycle, packets: &Packets, wires: &[CreditWire]) {
        let vcs = self.layout.total();
        let mut nominee = [None; PORTS];
        for (p, nominated) in nominee.iter_mut().enumerate() {
            if self.grants.iter().any(|&(ip, _)| ip == p) {
                continue;
            }
            let mut ready = vec![false; vcs];
            for (v, r) in ready.iter_mut().enumerate() {
                let vc = &self.inputs[p][v];
                let staged = match vc.stage {
                    Stage::WaitSa => vc.since < now,
                    Stage::Active => true,
                    Stage::Idle | Stage::WaitVa => false,
                };
                if !staged || vc.flits.is_empty() {
                    continue;
                }
                let (route, ovc) = (vc.route.expect("routed"), vc.out_vc.expect("allocated"));
                // Circuit-class VCs are reservation-managed, not credited.
                *r = route == PORT_LOCAL
                    || self.layout.is_circuit_vc(ovc)
                    || self.home(wires, route, ovc) > 0;
                self.coverage.credit_stalls += u64::from(!*r);
            }
            *nominated = self.sa_in[p]
                .grant(&ready)
                .map(|v| (v, self.inputs[p][v].route));
        }
        for o in 0..PORTS {
            let asks = nominee.map(|n| n.is_some_and(|(_, route)| route == Some(o)));
            self.coverage.sa_conflicts += u64::from(asks.iter().filter(|&&a| a).count() > 1);
            let Some(w) = self.sa_out[o].grant(&asks) else {
                continue;
            };
            let v = nominee[w].expect("a winner nominated").0;
            let vc = &mut self.inputs[w][v];
            if vc.stage == Stage::WaitSa {
                vc.stage = Stage::Active;
                vc.since = now;
                let head = *vc.flits.front().expect("a granted VC holds a flit");
                if head.is_head() {
                    let packet = packets[head.slot].id.0;
                    let node = self.node.0;
                    self.emit(now, EventKind::StageSa { packet, node });
                }
            }
            self.activity.sw_allocs += 1;
            self.grants.push((w, v));
        }
    }

    /// Stage 2: VC allocation, with the §4.1 reservation beside a head's
    /// first request. Each output port grants one input port per cycle;
    /// the winner's heads for it try, oldest first, until one finds a
    /// free output VC of its class, else the next input port is tried.
    #[allow(clippy::needless_range_loop)]
    fn vc_allocate(&mut self, now: Cycle, packets: &mut Packets, out: &mut impl LinkSink) {
        let vcs = self.layout.total();
        let mut asks = [[false; PORTS]; PORTS];
        for p in 0..PORTS {
            for v in 0..vcs {
                let vc = &self.inputs[p][v];
                if vc.stage != Stage::WaitVa || vc.since >= now {
                    continue;
                }
                let route = vc.route.expect("routed");
                if !vc.reserved {
                    self.reserve(now, p, v, packets, out);
                }
                asks[route][p] = true;
            }
        }
        let wires = &*out.wires();
        let mut stalls = 0;
        for (o, mut asking) in asks.into_iter().enumerate() {
            self.coverage.va_conflicts += u64::from(asking.iter().filter(|&&a| a).count() > 1);
            while let Some(w) = self.va_out[o].grant(&asking) {
                asking[w] = false;
                let inputs = &self.inputs[w];
                let mut heads: Vec<usize> = (0..vcs)
                    .filter(|&v| {
                        let vc = &inputs[v];
                        vc.stage == Stage::WaitVa && vc.since < now && vc.route == Some(o)
                    })
                    .collect();
                heads.sort_by_key(|&v| inputs[v].since);
                let won = heads.into_iter().find_map(|v| {
                    let head = &packets[inputs[v].flits.front().expect("a head").slot];
                    let mut class = self.layout.allocatable_vcs(head.vnet);
                    if self.topology.has_wrap() && o != PORT_LOCAL {
                        let next = self.topology.neighbor(self.node, o).expect("a neighbour");
                        let dateline = self.topology.vc_class(next, head.dst, o);
                        class = self.layout.allocatable_class_vcs(head.vnet, dateline as u8);
                    }
                    let unowned = class.filter(|&ovc| self.owner[o][ovc].is_none());
                    let mut draining = false;
                    let free = unowned.into_iter().find(|&ovc| {
                        let home = self.home(wires, o, ovc) == BUFFER_DEPTH;
                        draining |= !home;
                        home
                    });
                    stalls += u64::from(free.is_none() && draining);
                    free.map(|ovc| (v, ovc))
                });
                if let Some((v, ovc)) = won {
                    self.owner[o][ovc] = Some((w, v));
                    let vc = &mut self.inputs[w][v];
                    vc.out_vc = Some(ovc);
                    vc.stage = Stage::WaitSa;
                    vc.since = now;
                    let packet = packets[vc.flits.front().expect("a head").slot].id.0;
                    let node = self.node.0;
                    self.emit(now, EventKind::StageVa { packet, node });
                    self.activity.vc_allocs += 1;
                    break;
                }
            }
        }
        self.coverage.credit_stalls += stalls;
    }

    /// §4.1: the request head at `(p, v)` reserves its reply's circuit —
    /// in through the request's output, out through its input. A
    /// complete circuit that cannot be reserved is doomed, and its built
    /// prefix undone; a fragmented one keeps its prefix and tries again
    /// at the next router (§4.2). A timed circuit (§4.7) reserves the
    /// cycles its reply will cross here, by `timing.rs`'s formula; one
    /// whose windows along the path no longer meet is doomed here, and
    /// the entry it just wrote is undone with its prefix.
    fn reserve(
        &mut self,
        now: Cycle,
        p: usize,
        v: usize,
        packets: &mut Packets,
        out: &mut impl LinkSink,
    ) {
        let vc = &mut self.inputs[p][v];
        vc.reserved = true;
        let route = vc.route.expect("routed");
        let packet = &mut packets[vc.flits.front().expect("a head").slot];
        let dst = packet.dst;
        let Some(handle) = packet.circuit.as_mut().filter(|h| !h.failed) else {
            return;
        };
        let key = handle.key;
        // `timing.rs`: the reply leaves its NI at `n_R + shift`, where
        // `n_R = now + 5·h + turnaround + INJECT_OVERHEAD` and `h` is the
        // request's hops still to go, which are the reply's hops back to
        // here; it reaches its first router one link later and this one
        // `2·h` cycles after that, and holds it for its flits plus the
        // policy's slack.
        let slack = self.mechanism.timed.slack(handle.path_hops);
        let timed = handle.timing.map(|t| {
            let h = Cycle::from(self.topology.distance(self.node, dst));
            let overhead = Cycle::from(handle.turnaround + INJECT_OVERHEAD);
            let nominal = now + Cycle::from(PIPELINE_STAGES + LINK_LATENCY) * h + overhead;
            let first = nominal + Cycle::from(LINK_LATENCY + t.shift);
            let start = first + Cycle::from(BYPASS_STAGES + LINK_LATENCY) * h;
            let end = start + Cycle::from(handle.reply_flits + slack);
            (nominal, TimeWindow::new(start, end), t.max_shift - t.shift)
        });
        let (requestor, block, node) = (key.requestor.0, key.block, self.node.0);
        // A degraded router refuses every reservation (DESIGN.md §10).
        let doomed = if self.degraded
            || self.topology.is_wrap_hop(self.node, route)
            || self.topology.is_wrap_hop(self.node, p)
        {
            true
        } else {
            let req = ReserveRequest {
                key,
                source: handle.source,
                in_port: route,
                out_port: p,
                window: timed.map(|(_, window, _)| window),
                max_extra_shift: timed.map_or(0, |(.., delay)| delay),
            };
            self.circuits.note_now(now);
            match self.circuits.try_reserve(&req) {
                Ok(outcome) => {
                    handle.built_hops += 1;
                    self.activity.circuit_writes += 1;
                    let reserved = EventKind::CircuitReserve {
                        node,
                        requestor,
                        block,
                    };
                    self.emit(now, reserved);
                    if let (Some(t), Some((nominal, ..))) = (handle.timing.as_mut(), timed) {
                        // A delay variant may have slid the window later.
                        t.shift += outcome.extra_shift;
                        t.narrow(nominal, slack);
                        if !t.feasible() {
                            handle.failed = true;
                            self.undo(now, key, key.requestor, out);
                        }
                    }
                    false
                }
                Err(_) => {
                    let conflict = EventKind::CircuitConflict {
                        node,
                        requestor,
                        block,
                    };
                    self.emit(now, conflict);
                    true
                }
            }
        };
        if doomed && self.mechanism.mode == CircuitMode::Complete {
            handle.failed = true;
            if handle.built_hops > 0 {
                self.activity.credits += 1;
                out.undo(p, key, key.requestor, now + Cycle::from(LINK_LATENCY));
            }
        }
    }

    /// §4.4: an undo tears the local entry down and follows the reply
    /// path on towards the requestor.
    fn undo(&mut self, now: Cycle, key: CircuitKey, dst: NodeId, out: &mut impl LinkSink) {
        self.coverage.undos += 1;
        let port = match self.circuits.undo(key) {
            Some(entry) => {
                let (node, requestor, block) = (self.node.0, key.requestor.0, key.block);
                self.emit(
                    now,
                    EventKind::CircuitTear {
                        node,
                        requestor,
                        block,
                    },
                );
                entry.out_port
            }
            None if self.node == dst => return,
            None => self.topology.min_route_port(self.node, dst, Routing::Yx),
        };
        if port != PORT_LOCAL {
            self.activity.credits += 1;
            out.undo(port, key, dst, now + Cycle::from(LINK_LATENCY));
        }
    }
}

/// So the router's scenario tests run on the reference too.
impl super::tests::UnderTest for RefRouter {
    fn build(node: NodeId, cfg: &NocConfig) -> Self {
        RefRouter::new(node, cfg)
    }

    fn step(
        &mut self,
        now: Cycle,
        arrivals: &mut Vec<(usize, Flit)>,
        undos: &mut Vec<(CircuitKey, NodeId)>,
        packets: &mut Packets,
        out: &mut Recorder,
    ) {
        self.tick(now, arrivals, undos, packets, &TopologyHealth::new(), out);
    }

    fn circuits(&mut self) -> &mut RouterCircuits {
        &mut self.circuits
    }

    fn buffered(&self) -> usize {
        self.buffered_flits()
    }
}
