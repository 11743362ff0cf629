//! The whole network: routers, links, NIs and the cycle loop — plus the
//! fault-injection hooks (flits and credits crossing inter-router links,
//! circuit tables, input ports) and the always-on progress watchdog.

use crate::calendar::Calendar;
use crate::config::NocConfig;
use crate::credit::CreditWires;
use crate::fault::{self, DeadLinkEvent, FaultConfig, FaultState, FaultStats};
use crate::flit::{Delivered, Flit, Packet, PacketId, PacketSpec, Packets};
use crate::health::{
    AdaptiveReport, DeadlockReport, HealthReport, LeakedCircuit, StuckMessage, LEAK_AGE,
    MAX_REPORT_ENTRIES, STALL_WINDOW,
};
use crate::ingress::{
    self, Admission, IngressConfig, IngressState, OverloadReport, ReleasedArrival, ShedArrival,
};
use crate::links::{opposite_port, Links, NiLink, Probe};
use crate::ni::{self, Ni, NiOut};
use crate::router::{self, bits, Router};
use crate::stats::{CircuitOutcome, NocStats};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::table4::BUFFER_DEPTH;
use rcsim_core::{
    skip_law, superset_law, ConfigError, Cycle, KernelMode, NodeId, StateSet, Stateful,
    TopologyHealth, Vnet, PORTS, PORT_LOCAL,
};
use rcsim_trace::{ClassLabel, EventKind, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A whole-network occupancy snapshot, taken between cycles. Feeds the
/// trace layer's periodic `EpochSample` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkTelemetry {
    /// Live circuit-table entries across all routers.
    pub circuit_entries: u64,
    /// Flits sitting in router input VC buffers.
    pub buffered_flits: u64,
    /// Packets queued or streaming at the NIs.
    pub ni_backlog: u64,
}

/// The cycle loop's arena and the worklist's busy bits. Taken out of
/// `self` in [`Network::tick`] (sidestepping borrow conflicts) and put
/// back at the end, so the steady-state loop performs no per-flit heap
/// allocation.
#[derive(Debug, Default)]
struct Scratch {
    ni_out: NiOut,
    undos: Vec<(CircuitKey, NodeId)>,
    /// The ingress edges' NI backlogs and the arrivals shed, gathered
    /// every cycle by [`Network::drain_ingress`].
    backlogs: Vec<usize>,
    shed: Vec<ShedArrival>,
    /// Bitsets (bit `i % 64` of word `i / 64`): the NIs whose
    /// `is_active()` and the routers whose `is_busy()` held after their
    /// last tick or an outside mutation, and the routers holding timed
    /// circuit entries. Rebuilt from the predicates on restore.
    ni_busy: Vec<u64>,
    router_busy: Vec<u64>,
    timed: Vec<u64>,
}

/// The bitset over `0..n` whose bit `i` is `on(i)`.
fn bitset(n: usize, on: impl Fn(usize) -> bool) -> Vec<u64> {
    let mut set = vec![0; n.div_ceil(64)];
    for i in (0..n).filter(|&i| on(i)) {
        set[i / 64] |= 1 << (i % 64);
    }
    set
}

/// The bits of word `w` of a bitset over `0..n` that stand for members.
fn word_mask(n: usize, w: usize) -> u64 {
    u64::MAX >> (64 * (w + 1)).saturating_sub(n)
}

/// A mesh NoC instance.
///
/// Drive it with [`Network::tick`]; submit packets with
/// [`Network::inject`]; collect arrivals with [`Network::take_delivered`].
/// See the crate docs for a complete example.
///
/// Fault injection is enabled with [`Network::with_faults`]; liveness is
/// observable at any time through [`Network::health`] and
/// [`Network::stalled`]. The watchdog bookkeeping is always on and purely
/// observational, so it never perturbs the simulation.
pub struct Network {
    // Wiring.
    cfg: NocConfig,
    /// Each router's neighbour per network port ([`Topology::neighbor`],
    /// tabulated once: [`Links`] asks for every message).
    neighbors: Vec<[Option<NodeId>; PORT_LOCAL]>,
    /// The configuration's dead links, sorted by onset: applied densely
    /// at the top of the cycle loop, so skipping a component never moves
    /// an onset.
    fault_schedule: Vec<DeadLinkEvent>,
    /// The benchmark's stub (see [`KernelMode`]).
    kernel: KernelMode,
    /// Where trace events go; [`TraceSink::Disabled`] by default.
    sink: TraceSink,

    // Components, each with a state of its own.
    routers: Vec<Router>,
    nis: Vec<Ni>,
    /// `Some` only when the fault configuration can actually fire — a
    /// fault-free network carries no fault state at all, which is what
    /// makes `FaultConfig::none()` bit-identical to no fault layer.
    faults: Option<FaultState>,
    /// Open-loop edge ingress (bounded queues + admission control);
    /// `None` unless [`Network::configure_ingress`] was called, so
    /// closed-loop runs carry no ingress state at all.
    ingress: Option<Box<IngressState>>,

    state: State,

    // Scratch.
    scratch: Scratch,
}

/// The network's own state (DESIGN.md §13).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct State {
    /// Every injected, not yet resolved packet (src == dst traffic never
    /// enters the network and is not tracked): what the flits below, the
    /// NI queues and the retry list refer to by slot, and the raw
    /// material for per-message watchdog ages.
    packets: Packets,
    /// Messages in flight towards each router.
    router_links: Calendar,
    /// Messages in flight towards each NI (all on port 0).
    ni_links: Calendar,
    /// The credit return of every router output VC and NI injection VC.
    credits: CreditWires,
    /// Packets fully received and not yet taken, with the tile that
    /// received them, in arrival order: one queue for the whole network.
    delivered: Vec<(NodeId, Delivered)>,
    stats: NocStats,
    now: Cycle,
    next_packet: u64,
    /// The live dead-link set, updated as the scheduled dead links in
    /// [`Network::fault_schedule`] fire. Routing and the NIs consult it;
    /// a healthy map costs one boolean check per packet.
    topo: TopologyHealth,
    /// First not-yet-applied entry of `fault_schedule`.
    fault_cursor: usize,
    /// Scheduled end-to-end retransmissions: (due cycle, slot, packet).
    retry_queue: Vec<(Cycle, u32, PacketId)>,
    /// Circuits hit by dead-link teardown; consumed when their reply
    /// is delivered to reclassify it as `FaultDegraded`.
    faulted_circuits: StateSet<CircuitKey>,
    /// Last cycle any flit moved (arrived, ejected or was delivered).
    last_progress: Cycle,
}

impl Network {
    /// Builds the network for a configuration, without fault injection.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] of
    /// [`MechanismConfig::validate`](rcsim_core::MechanismConfig::validate)
    /// when the mechanism is internally inconsistent.
    pub fn new(cfg: NocConfig) -> Result<Self, ConfigError> {
        Network::with_faults(cfg, FaultConfig::none())
    }

    /// Builds the network with a fault-injection configuration. Passing
    /// [`FaultConfig::none`] is exactly equivalent to [`Network::new`].
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] of
    /// [`MechanismConfig::validate`](rcsim_core::MechanismConfig::validate)
    /// or [`FaultConfig::validate`].
    pub fn with_faults(cfg: NocConfig, faults: FaultConfig) -> Result<Self, ConfigError> {
        cfg.mechanism.validate()?;
        faults.validate(&cfg.topology)?;
        let tiles = cfg.topology.nodes();
        let routers_n = cfg.topology.routers();
        let faulted = !faults.is_none();
        let mut fault_schedule = faults.dead_links;
        fault_schedule.sort_by_key(|e| e.at);
        Ok(Self {
            cfg,
            neighbors: cfg
                .topology
                .iter_routers()
                .map(|id| std::array::from_fn(|port| cfg.topology.neighbor(id, port)))
                .collect(),
            fault_schedule,
            kernel: KernelMode::Event,
            sink: TraceSink::default(),
            routers: cfg
                .topology
                .iter_routers()
                .map(|id| Router::new(id, &cfg))
                .collect(),
            nis: cfg
                .topology
                .iter_routers()
                .map(|id| Ni::new(id, &cfg))
                .collect(),
            faults: faulted.then(|| FaultState::new(routers_n)),
            ingress: None,
            state: State {
                packets: Packets::default(),
                router_links: Calendar::new(routers_n, PORTS),
                ni_links: Calendar::new(tiles, 1),
                credits: CreditWires::new(&cfg),
                delivered: Vec::new(),
                stats: NocStats::default(),
                now: 0,
                next_packet: 0,
                topo: TopologyHealth::new(),
                fault_cursor: 0,
                retry_queue: Vec::new(),
                faulted_circuits: StateSet::default(),
                last_progress: 0,
            },
            scratch: Scratch {
                ni_busy: vec![0; tiles.div_ceil(64)],
                router_busy: vec![0; routers_n.div_ceil(64)],
                timed: vec![0; routers_n.div_ceil(64)],
                ..Scratch::default()
            },
        })
    }

    /// Does nothing; the `[benchmark]` PR retiring `core.shard.*` drops it and its calls.
    pub fn set_shards(&mut self, _shards: usize) {}

    /// The benchmark's stub (see [`KernelMode`]): the dense mode visits
    /// every component in release builds too, unchecked.
    pub fn set_kernel(&mut self, kernel: KernelMode) {
        self.kernel = kernel;
    }

    /// Installs a trace sink, fanning it out to every NI and router so the
    /// whole fabric records into one shared event log. Pass
    /// [`TraceSink::Disabled`] to turn tracing back off.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        for ni in &mut self.nis {
            ni.set_trace_sink(sink.clone());
        }
        for r in &mut self.routers {
            r.set_trace_sink(sink.clone());
        }
        self.sink = sink;
    }

    /// The occupancy snapshot the trace layer samples once per epoch.
    pub fn telemetry(&self) -> NetworkTelemetry {
        NetworkTelemetry {
            circuit_entries: self
                .routers
                .iter()
                .map(|r| r.state.circuits.total_entries() as u64)
                .sum(),
            buffered_flits: self.routers.iter().map(|r| r.buffered_flits() as u64).sum(),
            ni_backlog: self.nis.iter().map(|ni| ni.backlog() as u64).sum(),
        }
    }

    /// Installs the open-loop ingress layer at `edges` (bounded queues,
    /// token-bucket admission, shed timeouts — see [`IngressConfig`]).
    /// Until this is called, [`Network::offer_external`] panics and the
    /// network carries no ingress state.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or names a node outside the mesh.
    pub fn configure_ingress(&mut self, cfg: IngressConfig, edges: Vec<NodeId>) {
        assert!(!edges.is_empty(), "ingress needs at least one edge node");
        for e in &edges {
            assert!(
                e.index() < self.cfg.topology.nodes(),
                "ingress edge {e} outside mesh"
            );
        }
        self.ingress = Some(Box::new(IngressState::new(cfg, edges)));
    }

    /// Offers one external arrival at ingress edge `edge`, destined for
    /// `dst` with external block address `block`. Returns the typed
    /// admission outcome; rejected clients should re-offer no sooner than
    /// the returned `retry_after`. Emits an `ingress_admit` or
    /// `ingress_reject` trace event either way — refusal is never silent.
    ///
    /// # Panics
    ///
    /// Panics when no ingress layer is configured or `edge` is not one of
    /// its edges.
    pub fn offer_external(&mut self, edge: NodeId, dst: NodeId, block: u64) -> Admission {
        let now = self.state.now;
        let ingress = self
            .ingress
            .as_mut()
            .expect("configure_ingress before offer_external");
        let outcome = ingress.offer(now, edge, dst, block);
        self.sink.emit(|| rcsim_trace::TraceEvent {
            cycle: now,
            kind: match outcome {
                Admission::Admitted { depth } => EventKind::IngressAdmit {
                    node: edge.0,
                    depth,
                },
                Admission::Rejected {
                    reason,
                    retry_after,
                } => EventKind::IngressReject {
                    node: edge.0,
                    queue_full: reason == crate::ingress::RejectReason::QueueFull,
                    retry_after,
                },
            },
        });
        outcome
    }

    /// One cycle of ingress service, to be called once per cycle *before*
    /// [`Network::tick`]: refills token buckets, sheds queue heads older
    /// than the shed timeout (emitting `ingress_shed` events), and
    /// releases at most one arrival per edge whose NI backlog is under
    /// the backpressure threshold. Released arrivals are appended to
    /// `out`; the caller injects them this same cycle. A no-op when no
    /// ingress layer is configured.
    pub fn drain_ingress(&mut self, out: &mut Vec<ReleasedArrival>) {
        let Some(mut ingress) = self.ingress.take() else {
            return;
        };
        let Scratch { backlogs, shed, .. } = &mut self.scratch;
        backlogs.clear();
        let backlog = |e: &NodeId| self.nis[e.index()].backlog();
        backlogs.extend(ingress.edge_nodes().iter().map(backlog));
        shed.clear();
        ingress.drain(self.state.now, backlogs, out, shed);
        self.ingress = Some(ingress);
        for s in &self.scratch.shed {
            self.sink.emit(|| rcsim_trace::TraceEvent {
                cycle: self.state.now,
                kind: EventKind::IngressShed {
                    node: s.edge.0,
                    waited: s.waited,
                },
            });
        }
    }

    /// The cumulative ingress ledger (all-zero when no ingress layer is
    /// configured).
    pub fn overload_report(&self) -> OverloadReport {
        self.ingress
            .as_ref()
            .map(|i| i.report())
            .unwrap_or_default()
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.state.now
    }

    /// Submits a packet at its source NI. Returns the packet id and, for
    /// replies, whether the packet committed to riding its own complete
    /// circuit — the condition under which the protocol may eliminate the
    /// `L1_DATA_ACK` (§4.6).
    ///
    /// A packet with `src == dst` never enters the network: it is
    /// delivered directly on the next cycle (tile-local traffic).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` are outside the mesh, or if the packet's
    /// length ([`PacketSpec::with_flits`]) is zero — a head no tail
    /// follows would hold its VCs forever — or more than `u16::MAX`.
    pub fn inject(&mut self, spec: PacketSpec) -> (PacketId, bool) {
        assert!(
            spec.src.index() < self.cfg.topology.nodes(),
            "src out of range"
        );
        assert!(
            spec.dst.index() < self.cfg.topology.nodes(),
            "dst out of range"
        );
        let len = spec.flits_override.unwrap_or_else(|| spec.class.flits());
        assert!(
            (1..=u32::from(u16::MAX)).contains(&len),
            "packet length out of range"
        );
        let id = PacketId(self.state.next_packet);
        self.state.next_packet += 1;
        self.sink.emit(|| rcsim_trace::TraceEvent {
            cycle: self.state.now,
            kind: EventKind::NiEnqueue {
                packet: id.0,
                src: spec.src.0,
                dst: spec.dst.0,
                class: ClassLabel(spec.class.label()),
            },
        });
        if spec.src == spec.dst {
            // Tile-local traffic never enters the network; record its
            // ejection here so the lifecycle invariant (one terminal event
            // per enqueue) holds for every packet.
            self.sink.emit(|| rcsim_trace::TraceEvent {
                cycle: self.state.now + 1,
                kind: EventKind::NiEject {
                    packet: id.0,
                    node: spec.dst.0,
                    rode_circuit: false,
                    retries: 0,
                },
            });
            let local = Delivered {
                packet: id,
                src: spec.src,
                dst: spec.dst,
                class: spec.class,
                block: spec.block,
                token: spec.token,
                created_at: self.state.now,
                injected_at: self.state.now,
                delivered_at: self.state.now + 1,
                circuit: None,
                rode_circuit: false,
            };
            self.deliver(spec.dst.index(), local);
            return (id, false);
        }
        let now = self.state.now;
        let slot = self.state.packets.insert(Packet::new(id, &spec, len, now));
        let committed = self.ni_mut(spec.src.index(), |ni, st| {
            ni.enqueue(&spec, slot, &mut st.packets[slot], now, &mut st.stats)
        });
        (id, committed)
    }

    /// Tears down an unused circuit whose origin is `node`'s NI — the
    /// protocol calls this when the L2 forwards a request to an owning L1
    /// instead of replying itself (§4.4). Returns `false` when no such
    /// circuit is registered.
    pub fn undo_circuit(&mut self, node: NodeId, key: CircuitKey) -> bool {
        self.ni_mut(node.index(), |ni, st| ni.undo_circuit(key, &mut st.stats))
    }

    /// Applies a mutation from outside the tick loop to NI `i` and puts it
    /// on the worklist if that left it active: the one way such a mutation
    /// reaches an NI, so its busy bit stays `is_active()`.
    fn ni_mut<R>(&mut self, i: usize, f: impl FnOnce(&mut Ni, &mut State) -> R) -> R {
        let r = f(&mut self.nis[i], &mut self.state);
        self.scratch.ni_busy[i / 64] |= u64::from(self.nis[i].is_active()) << (i % 64);
        r
    }

    /// `true` when `node`'s NI holds a fully built circuit origin for
    /// `key` (diagnostic / test helper).
    pub fn has_circuit_origin(&self, node: NodeId, key: CircuitKey) -> bool {
        self.nis[node.index()].has_origin(key)
    }

    /// Records an `L1_DATA_ACK` eliminated by the protocol (§4.6) so the
    /// Figure 6 outcome breakdown stays complete.
    pub fn record_eliminated_ack(&mut self) {
        self.state
            .stats
            .record_outcome(crate::stats::CircuitOutcome::Eliminated);
    }

    /// Records a reply outcome classified by the protocol layer (e.g. the
    /// logical reply of a forwarded transaction whose circuit had already
    /// failed mid-path and so was never registered at an NI).
    pub fn record_reply_outcome(&mut self, outcome: crate::stats::CircuitOutcome) {
        self.state.stats.record_outcome(outcome);
    }

    /// Hands a fully received packet to the delivery queue.
    fn deliver(&mut self, tile: usize, d: Delivered) {
        self.state.delivered.push((NodeId(tile as u16), d));
    }

    /// Packets fully received at `node` since the last call, in arrival
    /// order.
    pub fn take_delivered(&mut self, node: NodeId) -> Vec<Delivered> {
        (self.state.delivered.extract_if(.., |(at, _)| *at == node))
            .map(|(_, d)| d)
            .collect()
    }

    /// Moves the packets fully received anywhere since the last call onto
    /// the end of `out`, as `(node, packet)` pairs in tile order, each
    /// tile's in arrival order. Both queues keep their capacity, so a warm
    /// caller that reuses `out` takes its deliveries without allocating.
    pub fn drain_delivered(&mut self, out: &mut Vec<(NodeId, Delivered)>) {
        self.state.delivered.sort_by_key(|&(node, _)| node);
        out.append(&mut self.state.delivered);
    }

    /// [`Network::drain_delivered`] into a fresh `Vec`.
    pub fn take_all_delivered(&mut self) -> Vec<(NodeId, Delivered)> {
        let mut out = Vec::new();
        self.drain_delivered(&mut out);
        out
    }

    /// Advances the network by one clock cycle.
    ///
    /// The NI and router loops each walk a worklist — word by word, set
    /// bits in ascending order — of the components with something due on
    /// their links or busy (see [`Ni::is_active`] / [`Router::is_busy`]
    /// for the no-op argument). Debug builds take each component left off
    /// it through the two laws of DESIGN.md §9 ([`Network::ni_laws`],
    /// `router_laws`) instead of skipping it.
    pub fn tick(&mut self) {
        let now = self.state.now;
        let topology = self.cfg.topology;
        let dense = self.kernel == KernelMode::Dense;
        let mut moved = false;

        // Credits due land first: every wire read this cycle holds them.
        self.state.credits.land(now);

        // Scheduled dead-link onsets fire next, before anything moves this
        // cycle: they are dense.
        self.process_fault_onsets(now);

        // Due end-to-end retransmissions re-enter their source NI.
        while let Some(k) = self.state.retry_queue.iter().position(|r| r.0 <= now) {
            let (_, slot, id) = self.state.retry_queue.remove(k);
            if let Some(src) = self.state.packets.open_mut(slot, id).map(|rec| rec.src) {
                self.ni_mut(src.index(), |ni, st| {
                    ni.reenqueue_retry(slot, &mut st.packets[slot], now);
                });
            }
        }
        let mut s = std::mem::take(&mut self.scratch);

        // NIs first: they consume flits produced last cycle and inject at
        // most one flit each into their router's local port.
        for w in 0..s.ni_busy.len() {
            let due = self.state.ni_links.due_word(now, w);
            let work = due | s.ni_busy[w];
            let all = word_mask(topology.nodes(), w);
            let visit = if dense { all } else { work };
            if cfg!(debug_assertions) {
                for b in bits(all & !visit) {
                    self.ni_laws(64 * w + b, now);
                }
            }
            s.ni_busy[w] &= !visit;
            for b in bits(visit) {
                let (i, ni) = (64 * w + b, &mut self.nis[64 * w + b]);
                let mut ejected = None;
                if due >> b & 1 == 1 {
                    let mut reg = [Flit::default()];
                    let full = self.state.ni_links.take(i, now, &mut reg, &mut s.undos);
                    debug_assert!(s.undos.is_empty(), "no undo reaches an NI");
                    ejected = (full != 0).then_some(reg[0]);
                }
                moved |= ejected.is_some();
                s.ni_out.clear();
                let injected = ni.tick(
                    now,
                    ejected,
                    &self.state.topo,
                    &mut self.state.packets,
                    &mut s.ni_out,
                    &mut NiLink {
                        now,
                        router: i,
                        links: &mut self.state.router_links,
                        wires: self.state.credits.ni_mut(i),
                    },
                );
                s.ni_busy[w] |= u64::from(ni.is_active()) << b;
                moved |= injected || !s.ni_out.delivered.is_empty();
                self.settle_ni(i, now, &mut s.ni_out);
            }
        }

        // Routers, each writing its output straight onto the links. A
        // timed entry's expiry is a time, not a bit: the routers holding
        // one are asked.
        let (routers, packets, mut links) = self.links(now);
        for w in 0..s.router_busy.len() {
            let due = links.router_links.due_word(now, w);
            let mut work = due | s.router_busy[w];
            for b in bits(s.timed[w] & !work) {
                work |= u64::from(routers[64 * w + b].expires(now)) << b;
            }
            let all = word_mask(routers.len(), w);
            let visit = if dense { all } else { work };
            if cfg!(debug_assertions) {
                for b in bits(all & !visit) {
                    router_laws(64 * w + b, now, &mut routers[64 * w + b], packets, &links);
                }
            }
            s.router_busy[w] &= !visit;
            s.timed[w] &= !visit;
            for b in bits(visit) {
                let (i, router) = (64 * w + b, &mut routers[64 * w + b]);
                let (mut arrived, mut regs) = (0, [Flit::default(); PORTS]);
                if due >> b & 1 == 1 {
                    arrived = links.router_links.take(i, now, &mut regs, &mut s.undos);
                }
                moved |= arrived != 0;
                links.from = NodeId(i as u16);
                let (topo, undos) = (links.topo, &mut s.undos);
                router.tick(now, arrived, &regs, undos, packets, topo, &mut links);
                links.settle(packets);
                s.router_busy[w] |= u64::from(router.is_busy()) << b;
                s.timed[w] |= u64::from(router.holds_timed()) << b;
            }
        }

        if moved {
            self.state.last_progress = now;
        }
        self.state.stats.cycles += 1;
        self.state.now = now + 1;
        self.scratch = s;
    }

    /// The two laws on NI `i`, left off the worklist at `now` (DESIGN.md
    /// §9): it has no work, and a tick into a [`Probe`] leaves it as it was.
    fn ni_laws(&mut self, i: usize, now: Cycle) {
        let (ni, state, sink) = (&mut self.nis[i], &mut self.state, &self.sink);
        superset_law("NI", i, now, !ni.is_active());
        skip_law("NI", i, now, ni, |ni| {
            let (mut probe, mut out) = (Probe::new(state.credits.ni(i), sink), NiOut::default());
            let (topo, packets) = (&state.topo, &mut state.packets);
            let injected = ni.tick(now, None, topo, packets, &mut out, &mut probe);
            !injected && out == NiOut::default() && probe.quiet()
        });
    }

    /// Accounts one NI's tick (the NI itself is statistics-free, see
    /// [`Ni::tick`]) in a fixed per-NI order: the at-most-one counted
    /// injection, reroutes, then deliveries in ejection order. Called NI
    /// by NI in tile order, which fixes the f64 accumulation order of
    /// every statistic and the order of the trace.
    fn settle_ni(&mut self, tile: usize, now: Cycle, out: &mut NiOut) {
        if let Some((class, len)) = out.injection.take() {
            self.state.stats.record_injection(class, len);
        }
        if let Some(fs) = self.faults.as_mut() {
            fs.state.stats.packets_rerouted += out.reroutes;
        }
        for (slot, mut d) in out.delivered.drain(..) {
            self.state.stats.record_delivery(
                d.class,
                d.injected_at - d.created_at,
                d.delivered_at - d.injected_at,
            );
            let retries = self.note_delivered(slot, &mut d);
            self.sink.emit(|| rcsim_trace::TraceEvent {
                cycle: now,
                kind: EventKind::NiEject {
                    packet: d.packet.0,
                    node: d.dst.0,
                    rode_circuit: d.rode_circuit,
                    retries,
                },
            });
            self.deliver(tile, d);
        }
    }

    /// Splits the network into its routers, the packet table and the link
    /// sink over everything a router's output can reach.
    fn links(&mut self, now: Cycle) -> (&mut [Router], &mut Packets, Links<'_>) {
        let links = Links {
            now,
            from: NodeId(0),
            cfg: &self.cfg,
            neighbors: &self.neighbors,
            router_links: &mut self.state.router_links,
            ni_links: &mut self.state.ni_links,
            credits: &mut self.state.credits,
            topo: &self.state.topo,
            degraded: self.state.topo.is_degraded(),
            faults: &mut self.faults,
            retry_queue: &mut self.state.retry_queue,
            dropped_packets: &mut self.state.stats.dropped_packets,
            sink: &self.sink,
            lost: Vec::new(),
        };
        (&mut self.routers, &mut self.state.packets, links)
    }

    /// Watchdog bookkeeping at delivery: closes the packet's outstanding
    /// record and, when a committed circuit ride was hit by a fault along
    /// the way (retransmitted, or its circuit torn down by a dead link),
    /// reclassifies its Figure 6 outcome as `FaultDegraded` and keeps the
    /// delivery's `rode_circuit` flag consistent with the sender's §4.6
    /// NoAck commitment. Returns the packet's end-to-end retry count.
    fn note_delivered(&mut self, slot: u32, d: &mut Delivered) -> u32 {
        let rec = &self.state.packets[slot];
        let (committed, retries) = (rec.committed, rec.retries);
        // Empty without faults: then no key is hashed.
        let faulted = &mut self.state.faulted_circuits;
        let key_faulted = rec
            .circuit_key
            .is_some_and(|k| !faulted.is_empty() && faulted.remove(&k));
        self.state.packets.close(slot);
        if committed && (retries > 0 || key_faulted) {
            self.state
                .stats
                .reclassify_outcome(CircuitOutcome::OnCircuit, CircuitOutcome::FaultDegraded);
            // The sender committed to the NoAck condition; the receiver
            // must still elide its ack even though the reply limped home.
            d.rode_circuit = true;
        }
        retries
    }

    /// Applies every dead-link onset due this cycle: updates the
    /// topology-health map, marks the link's two routers degraded, emits
    /// the fault trace event, and tears down every circuit whose reply
    /// path crosses a dead link. Dense, so skipping idle components never
    /// moves an onset.
    ///
    /// A degraded router takes no part in circuits — reservations are
    /// refused and bypasses forced to the packet pipeline — so reactive
    /// traffic beside a dead link falls back to plain packet switching
    /// (DESIGN.md §10). Dead links never heal, so neither does the flag.
    fn process_fault_onsets(&mut self, now: Cycle) {
        while let Some(&DeadLinkEvent { a, b, at }) =
            self.fault_schedule.get(self.state.fault_cursor)
        {
            if at > now {
                break;
            }
            self.state.fault_cursor += 1;
            self.state.topo.kill_link(&self.cfg.topology, a, b);
            self.sink.emit(|| rcsim_trace::TraceEvent {
                cycle: now,
                kind: EventKind::LinkDead { a: a.0, b: b.0 },
            });
            self.routers[a.index()].set_degraded(true);
            self.routers[b.index()].set_degraded(true);
            self.teardown_circuits(now);
        }
    }

    /// Fault-onset circuit recovery: removes every circuit-table entry —
    /// at every router and input port — belonging to a circuit whose
    /// reply would now detour (its YX path from the circuit's source to
    /// its requestor is not both healthy and up*/down*-legal), and purges
    /// the matching NI origins. A reply already committed to a
    /// torn circuit limps home through the pipeline and is reclassified
    /// `FaultDegraded` on delivery; one not yet enqueued finds its origin
    /// gone and records `TornDown`.
    fn teardown_circuits(&mut self, now: Cycle) {
        let topology = self.cfg.topology;
        // Ordered, so the `CircuitTear` trace events are too.
        let health = &self.state.topo;
        let doomed: BTreeSet<CircuitKey> = (self.routers.iter())
            .flat_map(|r| r.state.circuits.stale_entries(now, 0))
            .filter(|(_, e, _)| health.detours(&topology, e.source, e.key.requestor, Vnet::Reply))
            .map(|(_, e, _)| e.key)
            .collect();
        if doomed.is_empty() {
            return;
        }
        for i in 0..topology.routers() {
            for key in &doomed {
                for p in 0..PORTS {
                    if self.routers[i].release_circuit(p, *key).is_some() {
                        self.sink.emit(|| rcsim_trace::TraceEvent {
                            cycle: now,
                            kind: EventKind::CircuitTear {
                                node: i as u16,
                                requestor: key.requestor.0,
                                block: key.block,
                            },
                        });
                    }
                }
            }
        }
        for ni in &mut self.nis {
            ni.purge_origins(&doomed);
        }
        if let Some(fs) = self.faults.as_mut() {
            fs.state.stats.circuits_torn += doomed.len() as u64;
        }
        self.state.faulted_circuits.extend(doomed.iter().copied());
    }

    /// Zeroes every statistic (latencies, outcomes, activity, table
    /// counters, cycle count) without disturbing in-flight traffic —
    /// called at the end of a warm-up phase.
    pub fn reset_stats(&mut self) {
        self.state.stats = NocStats::default();
        for r in &mut self.routers {
            r.state.activity = Default::default();
            r.state.circuits.reset_stats();
        }
    }

    /// A snapshot of all statistics, including per-router activity and
    /// circuit-table counters.
    pub fn stats(&self) -> NocStats {
        let mut s = self.state.stats.clone();
        for r in &self.routers {
            s.activity.merge(&r.state.activity);
            s.tables.merge(r.state.circuits.stats());
        }
        s
    }

    /// `true` when nothing is queued or travelling. Packets abandoned by
    /// the fault layer after exhausting their retries count as resolved
    /// once the flits of their lost copies have drained.
    pub fn is_quiescent(&self) -> bool {
        self.state.packets.records().occupied() == 0
            && self.nis.iter().all(|ni| ni.backlog() == 0)
            && !self.state.router_links.carries_traffic()
            && !self.state.ni_links.carries_traffic()
            && self.state.retry_queue.is_empty()
            && self.ingress.as_ref().is_none_or(|i| i.queued() == 0)
            && self.state.stats.total_injected()
                == self.state.stats.total_delivered() + self.state.stats.dropped_packets
    }

    /// `true` when packets are in flight but no flit has moved for at
    /// least [`STALL_WINDOW`] cycles — a deadlock (e.g. lost credits)
    /// or total livelock.
    pub fn stalled(&self) -> bool {
        self.state.packets.in_flight() > 0
            && self.state.now.saturating_sub(self.state.last_progress) >= STALL_WINDOW
    }

    /// The fault-injection counters (all zero when faults are disabled).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map(|f| f.state.stats.clone())
            .unwrap_or_default()
    }

    /// Human-readable dump of every router's non-idle pipeline state and
    /// every NI backlog. Tests print this next to [`Network::health`] when
    /// a drain assertion fails, so a wedge report shows exactly which VCs
    /// and credits are stuck (see `tests/echo_probe.rs`).
    #[doc(hidden)]
    pub fn debug_dump(&self) -> String {
        let mut s = String::new();
        for (i, r) in self.routers.iter().enumerate() {
            let wires = self.state.credits.router(i);
            r.debug_dump(wires, &self.state.packets, &mut s);
        }
        for (i, ni) in self.nis.iter().enumerate() {
            if ni.backlog() > 0 {
                use std::fmt::Write;
                writeln!(s, "  ni[{i}] backlog={}", ni.backlog()).ok();
            }
        }
        s
    }

    /// Recomputes every derived quantity — each router's VC occupancy
    /// index (DESIGN.md §13), the worklist's busy bits (timed bits: a
    /// superset) — from the state it mirrors, checks the packet table's
    /// laws (every flit handle anywhere names a held record, each record's
    /// `in_fabric` is the number of its flits out there, a closed record
    /// with none left is gone, no copy delivers more flits than the packet
    /// has, the open count is a recount) and reports the first mismatch.
    /// Debug builds assert the router part on every router tick; tests
    /// call this in release builds too.
    ///
    /// # Errors
    ///
    /// Returns a description of the first stale index or broken law.
    pub fn check_index(&self) -> Result<(), String> {
        for r in &self.routers {
            r.check_index()?;
        }
        let (nis, routers, s) = (&self.nis, &self.routers, &self.scratch);
        let timed = bitset(routers.len(), |i| routers[i].holds_timed());
        if s.ni_busy != bitset(nis.len(), |i| nis[i].is_active())
            || s.router_busy != bitset(routers.len(), |i| routers[i].is_busy())
            || s.timed
                .iter()
                .zip(&timed)
                .any(|(have, need)| need & !have != 0)
        {
            return Err("a busy bit is not its component's predicate".into());
        }
        let packets = self.state.packets.records();
        let mut out_there = vec![0u32; packets.slots()];
        let mut count = |slot: u32, flits: u32, holder: &str| {
            let free = || format!("{holder} names packet slot {slot}, which is free");
            packets.get(slot).ok_or_else(free)?;
            out_there[slot as usize] += flits;
            Ok::<(), String>(())
        };
        for (_, f) in self.routers.iter().flat_map(Router::flits) {
            count(f.slot, 1, "a router")?;
        }
        for (_, _, f) in self.state.router_links.flits() {
            count(f.slot, 1, "a router's link register")?;
        }
        for (_, _, f) in self.state.ni_links.flits() {
            count(f.slot, 1, "an NI's link register")?;
        }
        for ni in &self.nis {
            for (slot, sent) in ni.copies() {
                let unsent = sent.map_or(0, |sent| packets.get(slot).map_or(0, |p| p.len - sent));
                count(slot, unsent, "an NI")?;
            }
        }
        for (slot, p) in packets.iter() {
            let out_there = out_there[slot as usize];
            if p.in_fabric != out_there || (p.closed && out_there == 0) || p.received > p.len {
                return Err(format!(
                    "{:?} (slot {slot}, closed: {}): {} of {} flits received, {} counted in \
                     the fabric, {out_there} there",
                    p.id, p.closed, p.received, p.len, p.in_fabric
                ));
            }
        }
        let open = packets.iter().filter(|(_, p)| !p.closed).count();
        if open != self.state.packets.in_flight() {
            return Err(format!("{open} open packet records, not the count"));
        }
        self.check_credits()
    }

    /// Credit conservation (DESIGN.md §6b), for every credited VC of every
    /// link into a router: the credits on the upstream wire — home at
    /// `now` or still on the way — plus the flits the VC's buffer holds
    /// (ring, spill and bypass-retry queue), the flits on the link towards
    /// it make the buffer depth.
    fn check_credits(&self) -> Result<(), String> {
        let (topology, now, credits) = (self.cfg.topology, self.state.now, &self.state.credits);
        let vcs = self.cfg.vc_layout().total();
        let slots = PORTS * vcs;
        let mut owed = vec![0u32; self.routers.len() * slots];
        let held = (self.routers.iter().enumerate())
            .flat_map(|(i, r)| r.flits().map(move |(port, f)| (i, port, f)));
        for (i, port, f) in held.chain(self.state.router_links.flits()) {
            owed[i * slots + port * vcs + usize::from(f.vc)] += 1;
        }
        for (i, id) in topology.iter_routers().enumerate() {
            for port in 0..PORTS {
                let up = if port < PORT_LOCAL {
                    let Some(up) = self.neighbors[i][port] else {
                        continue;
                    };
                    Some(up.index())
                } else {
                    None
                };
                for vc in 0..vcs {
                    let slot = match up {
                        Some(up) => credits.router_slot(up, opposite_port(port), vc),
                        None => credits.ni_slot(i, vc),
                    };
                    let flits = owed[i * slots + port * vcs + vc];
                    let (home, on_wire) = (credits.wire(slot).available(), credits.in_flight(slot));
                    let sum = u32::from(home) + u32::from(on_wire) + flits;
                    if credits.credited(vc) && sum != u32::from(BUFFER_DEPTH) {
                        return Err(format!(
                            "credits of {id}/in{port} vc{vc} at {now}: {home} home + {on_wire} on \
                             the wire + {flits} flits is not the depth {BUFFER_DEPTH}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The packet table's size: records open (packets injected and not
    /// yet delivered or abandoned), records held (open, or closed with
    /// flits still draining) and the most ever held at once — slots are
    /// reused, so the last stays far below the packets injected.
    #[doc(hidden)]
    pub fn packet_records(&self) -> (usize, usize, usize) {
        let packets = &self.state.packets;
        (
            packets.in_flight(),
            packets.records().occupied(),
            packets.records().slots(),
        )
    }

    /// Assembles a structured liveness snapshot: stall state, in-flight
    /// and queued traffic, the oldest stuck messages, suspected
    /// circuit-table leaks and the fault counters. Purely observational
    /// and deterministic (messages are ordered by age, then packet id).
    pub fn health(&self) -> HealthReport {
        let mut msgs: Vec<StuckMessage> = self
            .state
            .packets
            .records()
            .iter()
            .filter(|(_, rec)| !rec.closed)
            .map(|(_, rec)| StuckMessage {
                packet: rec.id,
                src: rec.src,
                dst: rec.final_dst(),
                class: rec.class,
                age: self.state.now.saturating_sub(rec.created_at),
                retries: rec.retries,
            })
            .collect();
        msgs.sort_by_key(|m| (std::cmp::Reverse(m.age), m.packet));
        let oldest_age = msgs.first().map(|m| m.age);
        msgs.truncate(MAX_REPORT_ENTRIES);

        let mut leaked = Vec::new();
        'scan: for (i, r) in self.routers.iter().enumerate() {
            for (in_port, e, age) in r
                .state
                .circuits
                .stale_entries(self.state.now.saturating_sub(1), LEAK_AGE)
            {
                if leaked.len() >= MAX_REPORT_ENTRIES {
                    break 'scan;
                }
                leaked.push(LeakedCircuit {
                    node: NodeId(i as u16),
                    in_port,
                    key: e.key,
                    age,
                    in_use: e.in_use,
                });
            }
        }

        let mut dead_links = self.state.topo.dead_links_sorted();
        dead_links.truncate(MAX_REPORT_ENTRIES);

        HealthReport {
            cycle: self.state.now,
            stalled: self.stalled(),
            last_progress: self.state.last_progress,
            in_flight: self.state.packets.in_flight() as u64,
            ni_backlog: self.nis.iter().map(|ni| ni.backlog() as u64).sum(),
            quiescent: self.is_quiescent(),
            oldest_age,
            stuck_messages: msgs,
            leaked_circuits: leaked,
            faults: self.fault_stats(),
            dead_links,
            dead_routers: Vec::new(),
            l1_reissues: 0,
            overload: self.overload_report(),
            adaptive: AdaptiveReport::default(),
            deadlock: if self.stalled() {
                self.deadlock_report()
            } else {
                None
            },
        }
    }

    /// The wait-for-graph deadlock diagnoser: collects every router's
    /// blocked input VCs ([`Router::waiters`], routers in id order) and
    /// hands them to [`DeadlockReport::find`]. Returns `None` when no
    /// cycle exists, so a stall caused by livelock or lost credits is
    /// not misreported as a deadlock.
    pub fn deadlock_report(&self) -> Option<Box<DeadlockReport>> {
        let mut waiters = Vec::new();
        let mut buf = Vec::new();
        for (r, id) in self.routers.iter().zip(self.cfg.topology.iter_routers()) {
            let wires = self.state.credits.router(id.index());
            r.waiters(self.state.now, &self.state.packets, wires, &mut buf);
            waiters.extend(buf.drain(..).map(|w| (id, w)));
        }
        DeadlockReport::find(
            &self.cfg.topology,
            self.cfg.vc_layout().total(),
            &waiters,
            MAX_REPORT_ENTRIES,
        )
    }

    /// Captures the network's state and its components' — every piece of
    /// dynamic state. Must be taken between ticks: the per-tick scratch
    /// is dead there.
    pub fn snapshot(&self) -> NetworkSnapshot {
        NetworkSnapshot {
            state: self.state.clone(),
            routers: self.routers.snapshot(),
            nis: self.nis.snapshot(),
            faults: self.faults.snapshot(),
            ingress: self.ingress.snapshot(),
        }
    }

    /// Overwrites this network's state, and its components', with a
    /// [`Network::snapshot`] of one built from the same configuration;
    /// wiring (routing, fault schedule, sinks) is
    /// kept. Panics as [`Stateful::restore`] does.
    pub fn restore(&mut self, snap: &NetworkSnapshot) {
        self.state.clone_from(&snap.state);
        self.state.topo.rebuild(&self.cfg.topology);
        self.routers.restore(&snap.routers);
        self.nis.restore(&snap.nis);
        self.faults.restore(&snap.faults);
        self.ingress.restore(&snap.ingress);
        let (routers, nis) = (&self.routers, &self.nis);
        self.scratch.ni_busy = bitset(nis.len(), |i| nis[i].is_active());
        self.scratch.router_busy = bitset(routers.len(), |i| routers[i].is_busy());
        self.scratch.timed = bitset(routers.len(), |i| routers[i].holds_timed());
    }
}

/// The two laws on router `i`, left off the worklist at `now` (DESIGN.md
/// §9): it is neither busy nor expiring, and a tick into a [`Probe`]
/// leaves it as it was.
fn router_laws(i: usize, now: Cycle, router: &mut Router, packets: &mut Packets, links: &Links) {
    superset_law("router", i, now, !router.is_busy() && !router.expires(now));
    skip_law("router", i, now, router, |r| {
        let mut probe = Probe::new(links.credits.router(i), links.sink);
        let regs = [Flit::default(); PORTS];
        r.tick(
            now,
            0,
            &regs,
            &mut Vec::new(),
            packets,
            links.topo,
            &mut probe,
        );
        probe.quiet()
    });
}

/// A [`Network`]'s state and that of each of its components, captured
/// between ticks by [`Network::snapshot`] and re-applied with
/// [`Network::restore`] (DESIGN.md §13).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkSnapshot {
    state: State,
    routers: Vec<router::State>,
    nis: Vec<ni::State>,
    faults: Option<fault::State>,
    ingress: Option<ingress::State>,
}

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::{MechanismConfig, MessageClass, Topology};

    fn net(mechanism: MechanismConfig) -> Network {
        let mesh = Topology::mesh(4, 4).unwrap();
        Network::new(NocConfig::paper_baseline(mesh, mechanism)).unwrap()
    }

    fn run(net: &mut Network, cycles: u64) {
        for _ in 0..cycles {
            net.tick();
        }
    }

    #[test]
    fn single_packet_crosses_baseline() {
        let mut n = net(MechanismConfig::baseline());
        n.inject(PacketSpec::new(
            NodeId(0),
            NodeId(15),
            MessageClass::L1Request,
        ));
        run(&mut n, 60);
        let d = n.take_delivered(NodeId(15));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].src, NodeId(0));
        assert_eq!(d[0].class, MessageClass::L1Request);
        assert!(n.is_quiescent());
    }

    #[test]
    fn request_hop_latency_is_five_cycles() {
        // Uncontended: injection + 5 cycles/hop + ejection pipeline.
        let mut n = net(MechanismConfig::baseline());
        n.inject(PacketSpec::new(
            NodeId(0),
            NodeId(1),
            MessageClass::L1Request,
        ));
        run(&mut n, 40);
        let d = n.take_delivered(NodeId(1));
        assert_eq!(d.len(), 1);
        let lat1 = d[0].delivered_at - d[0].injected_at;

        let mut n = net(MechanismConfig::baseline());
        n.inject(PacketSpec::new(
            NodeId(0),
            NodeId(3),
            MessageClass::L1Request,
        ));
        run(&mut n, 60);
        let d = n.take_delivered(NodeId(3));
        let lat3 = d[0].delivered_at - d[0].injected_at;
        assert_eq!(
            lat3 - lat1,
            10,
            "each extra hop must cost 5 cycles (got {lat1} for 1 hop, {lat3} for 3)"
        );
    }

    #[test]
    fn local_delivery_bypasses_network() {
        let mut n = net(MechanismConfig::baseline());
        n.inject(PacketSpec::new(
            NodeId(5),
            NodeId(5),
            MessageClass::L1Request,
        ));
        let d = n.take_delivered(NodeId(5));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn multiflit_packet_arrives_whole() {
        let mut n = net(MechanismConfig::baseline());
        n.inject(PacketSpec::new(NodeId(0), NodeId(12), MessageClass::WbData));
        run(&mut n, 80);
        let d = n.take_delivered(NodeId(12));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].class, MessageClass::WbData);
    }

    /// A busy router whose worklist bit is lost is caught the first cycle
    /// it is skipped.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "superset law: router 0 at cycle 2")]
    fn a_busy_router_off_the_worklist_breaks_the_superset_law() {
        let mut n = net(MechanismConfig::baseline());
        n.inject(PacketSpec::new(
            NodeId(0),
            NodeId(15),
            MessageClass::L1Request,
        ));
        run(&mut n, 2);
        assert!(n.routers[0].is_busy());
        n.scratch.router_busy[0] &= !1;
        n.tick();
    }

    /// The same for an NI holding a packet.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "superset law: NI 3 at cycle 0")]
    fn an_active_ni_off_the_worklist_breaks_the_superset_law() {
        let mut n = net(MechanismConfig::baseline());
        n.inject(PacketSpec::new(
            NodeId(3),
            NodeId(12),
            MessageClass::L1Request,
        ));
        n.scratch.ni_busy[0] &= !(1 << 3);
        n.tick();
    }

    #[test]
    fn many_packets_all_arrive() {
        let mut n = net(MechanismConfig::baseline());
        let mut expected = [0usize; 16];
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s != d {
                    n.inject(
                        PacketSpec::new(NodeId(s), NodeId(d), MessageClass::L1Request)
                            .with_block((s as u64) << 16 | d as u64),
                    );
                    expected[d as usize] += 1;
                }
            }
        }
        run(&mut n, 3000);
        for d in 0..16u16 {
            assert_eq!(
                n.take_delivered(NodeId(d)).len(),
                expected[d as usize],
                "node {d}"
            );
        }
        assert!(n.is_quiescent());
    }
}
