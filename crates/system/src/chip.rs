//! Chip assembly: one tile per topology node (core + L1 + L2 bank +
//! router, plus a memory controller on four edge tiles — Figure 1),
//! wired to the cycle-accurate NoC through an adapter implementing the
//! protocol's [`Port`].

use crate::core_model::{self, Core, CoreAction};
use crate::open_loop::{self, OpenLoopConfig, OpenLoopState, EXT_TOKEN_BIT};
use crate::report::ExternalSummary;
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{
    skip_law, superset_law, ConfigError, Cycle, KernelMode, MechanismConfig, MessageClass, NodeId,
    Slab, StateSet, Stateful, Topology,
};
use rcsim_noc::{
    CircuitOutcome, Delivered, FaultConfig, HealthReport, Network, NetworkSnapshot, NocConfig,
    NocStats, PacketSpec,
};
use rcsim_protocol::{
    Access, L1Cache, L1CacheState, L2Bank, L2BankState, MemoryController, MemoryState, Msg, Port,
    ProtocolConfig,
};
use rcsim_trace::{EventKind, TraceEvent, TraceSink};
use rcsim_workload::{ArrivalState, Workload, WorkloadRng};
use serde::{Deserialize, Serialize};

/// Bridges the protocol state machines to the NoC: attaches circuit keys
/// to eligible replies, reports NoAck commits, forwards undos and keeps
/// the Figure 6 outcome accounting consistent (see DESIGN.md).
struct ChipPort<'a> {
    net: &'a mut Network,
    state: &'a mut State,
    node: NodeId,
    circuits_enabled: bool,
    track_undone: bool,
}

impl Port for ChipPort<'_> {
    fn now(&self) -> Cycle {
        self.net.now()
    }

    fn send(&mut self, msg: Msg, turnaround: u32) -> bool {
        let token = u64::from(self.state.payloads.insert(msg));
        let mut spec = PacketSpec::new(msg.src, msg.dst, msg.class)
            .with_block(msg.block)
            .with_token(token)
            .with_turnaround(turnaround);
        if msg.short {
            spec = spec.with_flits(1);
        }
        if self.circuits_enabled {
            if msg.class.is_reply() && msg.class.circuit_eligible() {
                let key = CircuitKey {
                    requestor: msg.dst,
                    block: msg.block,
                };
                if self.state.undone.remove(&key) {
                    // The §4.4 ablation already classified this reply as
                    // `undone` when the circuit was torn down at L2 miss.
                    spec = spec.without_outcome();
                } else {
                    spec = spec.with_circuit_key(key);
                }
            }
            if msg.class == MessageClass::L1ToL1 {
                // The forwarded transaction's circuit fate (undone or
                // failed) was recorded when the L2 forwarded the request.
                spec = spec.without_outcome();
            }
        }
        let (_, committed) = self.net.inject(spec);
        committed
    }

    fn undo_circuit(&mut self, key: CircuitKey) {
        if self.net.undo_circuit(self.node, key) {
            if self.track_undone {
                self.state.undone.insert(key);
            }
        } else if self.circuits_enabled {
            // The circuit had already failed mid-path: the transaction's
            // logical reply still belongs in the Figure 6 breakdown.
            self.net.record_reply_outcome(CircuitOutcome::Failed);
        }
    }

    fn record_eliminated_ack(&mut self) {
        self.net.record_eliminated_ack();
    }
}

/// The port a component left off the worklist ticks into under the skip
/// law (debug builds, DESIGN.md §9): it keeps nothing and counts what it
/// is handed, trace events included.
struct Probe<'a> {
    now: Cycle,
    sent: usize,
    sink: &'a TraceSink,
    events: u64,
}

impl<'a> Probe<'a> {
    fn new(now: Cycle, sink: &'a TraceSink) -> Self {
        let events = sink.emitted();
        Probe {
            now,
            sent: 0,
            sink,
            events,
        }
    }

    /// `true` while nothing was sent or traced.
    fn quiet(&self) -> bool {
        self.sent == 0 && self.sink.emitted() == self.events
    }
}

impl Port for Probe<'_> {
    fn now(&self) -> Cycle {
        self.now
    }

    fn send(&mut self, _: Msg, _: u32) -> bool {
        self.sent += 1;
        false
    }

    fn undo_circuit(&mut self, _: CircuitKey) {
        self.sent += 1;
    }

    fn record_eliminated_ack(&mut self) {
        self.sent += 1;
    }
}

/// The full chip multiprocessor.
pub struct Chip {
    // Wiring.
    topology: Topology,
    proto_cfg: ProtocolConfig,
    /// Where trace events go; disabled by default.
    sink: TraceSink,
    /// Cycles between whole-network occupancy samples (0 = never).
    trace_epoch: u64,
    /// The benchmark's stub (see [`KernelMode`]).
    kernel: KernelMode,
    /// Whether the mechanism builds circuits at all: fixed at construction.
    circuits_enabled: bool,

    // Components, each with a state of its own.
    net: Network,
    cores: Vec<Core>,
    l1s: Vec<L1Cache>,
    l2s: Vec<L2Bank>,
    /// The memory controller of each tile that has one, indexed by tile.
    mcs: Vec<Option<MemoryController>>,
    /// Open-loop external-traffic driver; `None` for closed-loop runs.
    open_loop: Option<Box<OpenLoopState>>,

    state: State,

    // Scratch.
    wake: Wake,
    /// The network's deliveries of the current tick, empty between ticks:
    /// reused, so a tick takes them without allocating.
    delivered: Vec<(NodeId, Delivered)>,
}

/// Per tile, the next cycle each of its components has anything to do:
/// what [`Chip::tick`] asks every cycle instead of the components
/// themselves. Exact between ticks — re-set wherever a component is
/// touched — and rebuilt from them by [`Chip::rebuild_scratch`].
struct Wake {
    /// [`Core::ready_at`].
    cores: Vec<Cycle>,
    /// The earlier of [`L2Bank::next_due`] and the tile's
    /// [`MemoryController::next_due`].
    banks: Vec<Cycle>,
}

/// The chip's own state (DESIGN.md §13): the glue between the protocol
/// and the network.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct State {
    /// The message behind each packet in flight; its slot is the token
    /// the packet carries.
    payloads: Slab<Msg>,
    /// Circuits the §4.4 ablation undid at L2 miss, until their reply.
    undone: StateSet<CircuitKey>,
}

impl Chip {
    /// Assembles a chip for a workload.
    ///
    /// # Errors
    ///
    /// Propagates mechanism-configuration validation errors.
    pub fn new(
        topology: Topology,
        mechanism: MechanismConfig,
        proto_cfg: ProtocolConfig,
        workload: &Workload,
    ) -> Result<Self, rcsim_core::ConfigError> {
        Chip::with_faults(
            topology,
            mechanism,
            proto_cfg,
            workload,
            FaultConfig::none(),
        )
    }

    /// Assembles a chip with a fault-injection configuration.
    /// `FaultConfig::none()` is exactly [`Chip::new`].
    ///
    /// # Errors
    ///
    /// Propagates mechanism-configuration validation errors.
    pub fn with_faults(
        topology: Topology,
        mechanism: MechanismConfig,
        mut proto_cfg: ProtocolConfig,
        workload: &Workload,
        faults: FaultConfig,
    ) -> Result<Self, rcsim_core::ConfigError> {
        mechanism.validate()?;
        assert_eq!(workload.cores(), topology.nodes(), "one thread per core");
        proto_cfg.eliminate_acks = mechanism.eliminate_acks;
        proto_cfg.undo_on_l2_miss = mechanism.undo_on_l2_miss;
        let net = Network::with_faults(NocConfig::paper_baseline(topology, mechanism), faults)?;
        let cores = (0..topology.nodes())
            .map(|i| Core::new(i as u16, workload.core_trace(i)))
            .collect();
        let l1s = topology
            .iter_routers()
            .map(|n| L1Cache::new(n, topology, proto_cfg.clone()))
            .collect();
        let l2s = topology
            .iter_routers()
            .map(|n| L2Bank::new(n, topology, proto_cfg.clone()))
            .collect();
        let mut mcs: Vec<Option<MemoryController>> = vec![None; topology.nodes()];
        for n in &proto_cfg.mc_tiles {
            mcs[n.index()] = Some(MemoryController::new(*n, proto_cfg.mem_latency));
        }
        let n = topology.nodes();
        let mut chip = Self {
            topology,
            proto_cfg,
            sink: TraceSink::default(),
            trace_epoch: 0,
            kernel: KernelMode::Event,
            circuits_enabled: mechanism.circuits_enabled(),
            net,
            cores,
            l1s,
            l2s,
            mcs,
            open_loop: None,
            state: State::default(),
            wake: Wake {
                cores: vec![Cycle::MAX; n],
                banks: vec![Cycle::MAX; n],
            },
            delivered: Vec::new(),
        };
        chip.rebuild_scratch();
        Ok(chip)
    }

    /// Re-derives every wake slot from the component it stands for.
    fn rebuild_scratch(&mut self) {
        for i in 0..self.cores.len() {
            self.wake.cores[i] = self.cores[i].ready_at();
            self.wake_bank(i);
        }
    }

    /// Re-sets tile `i`'s bank slot after its L2 bank or memory
    /// controller received or processed something.
    fn wake_bank(&mut self, i: usize) {
        let mc = self.mcs[i].as_ref().map_or(Cycle::MAX, |m| m.next_due());
        self.wake.banks[i] = self.l2s[i].next_due().min(mc);
    }

    /// Turns on open-loop external traffic: installs the bounded-ingress
    /// layer at the topology's ingress edge (the west router column; see
    /// [`Topology::edge_nodes`]) and seeds one arrival stream per edge
    /// node. Every other tile serves external requests. Call before the
    /// first [`Chip::tick`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::NoServerTiles`] when every tile is an edge tile (a
    /// grid one router wide), leaving none to serve.
    pub fn enable_open_loop(&mut self, cfg: OpenLoopConfig, seed: u64) -> Result<(), ConfigError> {
        let edges = self.topology.edge_nodes();
        let servers: Vec<NodeId> = self
            .topology
            .iter_routers()
            .filter(|n| !edges.contains(n))
            .collect();
        if servers.is_empty() {
            return Err(ConfigError::NoServerTiles);
        }
        self.open_loop = Some(Box::new(OpenLoopState::new(
            cfg,
            seed,
            edges,
            servers,
            self.circuits_enabled,
            &mut self.net,
        )));
        Ok(())
    }

    /// The external-traffic summary (all-zero for closed-loop chips).
    pub fn external_summary(&self) -> ExternalSummary {
        self.open_loop
            .as_ref()
            .map(|ol| ol.summary(&self.net))
            .unwrap_or_default()
    }

    /// The benchmark's stub (see [`KernelMode`]), for this chip and its
    /// network.
    pub(crate) fn set_kernel(&mut self, kernel: KernelMode) {
        self.kernel = kernel;
        self.net.set_kernel(kernel);
    }

    /// Installs a trace sink, fanned out to the network (NIs and routers)
    /// and every cache so the whole chip records into one shared event
    /// log. Pass [`TraceSink::Disabled`] to turn tracing back off.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.net.set_trace_sink(sink.clone());
        for l1 in &mut self.l1s {
            l1.set_trace_sink(sink.clone());
        }
        for l2 in &mut self.l2s {
            l2.set_trace_sink(sink.clone());
        }
        self.sink = sink;
    }

    /// Sets the occupancy-sampling period: every `epoch` cycles the chip
    /// emits an [`EventKind::EpochSample`] with circuit-table, VC-buffer
    /// and NI-queue occupancy. `0` disables sampling.
    pub fn set_trace_epoch(&mut self, epoch: u64) {
        self.trace_epoch = epoch;
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.net.now()
    }

    /// The interconnect topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Advances the whole chip one cycle. A core or bank whose wake slot
    /// lies ahead is skipped; debug builds take it through the two laws of
    /// DESIGN.md §9 instead.
    pub fn tick(&mut self) {
        let now = self.net.now();
        let n = self.topology.nodes();
        let track_undone = self.proto_cfg.undo_on_l2_miss;
        let l1_hit = self.proto_cfg.l1_hit_latency;
        let dense = self.kernel == KernelMode::Dense;

        // Cores issue L1 accesses.
        for i in 0..n {
            // A core still computing (or blocked on a miss) polls as a
            // pure no-op.
            if !dense && self.wake.cores[i] > now {
                if cfg!(debug_assertions) {
                    let core = &mut self.cores[i];
                    superset_law("core", i, now, core.ready_at() > now);
                    skip_law("core", i, now, core, |c| {
                        c.poll(now, l1_hit) == CoreAction::Idle
                    });
                }
                continue;
            }
            if let CoreAction::Access {
                block,
                write,
                value,
            } = self.cores[i].poll(now, l1_hit)
            {
                let mut port = ChipPort {
                    net: &mut self.net,
                    state: &mut self.state,
                    node: NodeId(i as u16),
                    circuits_enabled: self.circuits_enabled,
                    track_undone,
                };
                match self.l1s[i].access(block, write, write.then_some(value), &mut port) {
                    Access::Hit { .. } => self.cores[i].access_hit(now),
                    Access::Miss => self.cores[i].access_missed(),
                }
            }
            self.wake.cores[i] = self.cores[i].ready_at();
        }

        // Open-loop external traffic: service replies, client retries,
        // fresh arrivals and ingress release — all before the network
        // moves, so injections land this cycle.
        if let Some(ol) = self.open_loop.as_mut() {
            ol.pre_net_tick(&mut self.net, now);
        }

        // The network moves.
        self.net.tick();
        let now = self.net.now();

        if self.trace_epoch > 0 && now.is_multiple_of(self.trace_epoch) && self.sink.is_enabled() {
            let t = self.net.telemetry();
            self.sink.emit(|| TraceEvent {
                cycle: now,
                kind: EventKind::EpochSample {
                    circuit_entries: t.circuit_entries,
                    buffered_flits: t.buffered_flits,
                    ni_backlog: t.ni_backlog,
                },
            });
        }

        // Deliveries fan out to the tile components.
        let mut delivered = std::mem::take(&mut self.delivered);
        self.net.drain_delivered(&mut delivered);
        for (node, d) in delivered.drain(..) {
            if d.token & EXT_TOKEN_BIT != 0 {
                // External traffic bypasses the coherence protocol.
                self.open_loop
                    .as_mut()
                    .expect("external token implies an open-loop driver")
                    .on_delivered(node, d.token, d.block, now);
                continue;
            }
            let msg = u32::try_from(d.token)
                .ok()
                .and_then(|token| self.state.payloads.remove(token))
                .expect("every injected packet has a payload record");
            let i = node.index();
            match msg.class {
                MessageClass::L2Reply
                | MessageClass::L1ToL1
                | MessageClass::Invalidation
                | MessageClass::FwdRequest
                | MessageClass::L2WbAck => {
                    let mut port = ChipPort {
                        net: &mut self.net,
                        state: &mut self.state,
                        node,
                        circuits_enabled: self.circuits_enabled,
                        track_undone,
                    };
                    if self.l1s[i]
                        .handle(&msg, d.rode_circuit, &mut port)
                        .is_some()
                    {
                        self.cores[i].miss_done(now, l1_hit);
                        self.wake.cores[i] = self.cores[i].ready_at();
                    }
                }
                MessageClass::L1Request
                | MessageClass::WbData
                | MessageClass::L1DataAck
                | MessageClass::L1InvAck
                | MessageClass::MemoryReply => {
                    self.l2s[i].receive(msg, now);
                    self.wake_bank(i);
                }
                MessageClass::MemRequest | MessageClass::MemWbData => {
                    self.mcs[i]
                        .as_mut()
                        .expect("memory traffic targets an MC tile")
                        .receive(msg, now);
                    self.wake_bank(i);
                }
            }
        }
        self.delivered = delivered;

        // L2 banks and memory controllers act on due work.
        for i in 0..n {
            // Ticking a bank with nothing due (and an MC with nothing
            // pending) is a no-op.
            if !dense && self.wake.banks[i] > now {
                if cfg!(debug_assertions) {
                    self.bank_laws(i, now);
                }
                continue;
            }
            let mut port = ChipPort {
                net: &mut self.net,
                state: &mut self.state,
                node: NodeId(i as u16),
                circuits_enabled: self.circuits_enabled,
                track_undone,
            };
            self.l2s[i].tick(now, &mut port);
            if let Some(mc) = self.mcs[i].as_mut() {
                mc.tick(now, &mut port);
            }
            self.wake_bank(i);
        }
    }

    /// The two laws on tile `i`'s bank — its L2 slice and memory
    /// controller — left off the worklist at `now` (DESIGN.md §9).
    fn bank_laws(&mut self, i: usize, now: Cycle) {
        let mc_due = self.mcs[i].as_ref().map_or(Cycle::MAX, |m| m.next_due());
        superset_law("bank", i, now, self.l2s[i].next_due().min(mc_due) > now);
        let sink = &self.sink;
        skip_law("bank", i, now, &mut self.l2s[i], |l2| {
            let mut probe = Probe::new(now, sink);
            l2.tick(now, &mut probe);
            probe.quiet()
        });
        if let Some(mc) = self.mcs[i].as_mut() {
            skip_law("memory controller", i, now, mc, |mc| {
                let mut probe = Probe::new(now, sink);
                mc.tick(now, &mut probe);
                probe.quiet()
            });
        }
    }

    /// Runs `cycles` cycles, watching for lost progress. Returns the
    /// liveness report as the error if the network watchdog declares a
    /// stall (deadlock/livelock) along the way; the chip is left at the
    /// cycle the stall was detected for post-mortem inspection.
    ///
    /// # Errors
    ///
    /// [`HealthReport`] with `stalled == true` when in-flight traffic
    /// stopped moving for the watchdog's stall window.
    pub fn run(&mut self, cycles: u64) -> Result<(), Box<HealthReport>> {
        for _ in 0..cycles {
            self.tick();
            if self.net.stalled() {
                return Err(Box::new(self.health()));
            }
        }
        Ok(())
    }

    /// `true` when the network watchdog has declared a stall — the cheap
    /// per-tick check behind [`Chip::run`]; the full post-mortem is
    /// [`Chip::health`].
    pub fn stalled(&self) -> bool {
        self.net.stalled()
    }

    /// A liveness snapshot of the network (see [`Network::health`]).
    pub fn health(&self) -> HealthReport {
        self.net.health()
    }

    /// Zeroes every statistic after warm-up (traffic in flight continues).
    pub fn reset_stats(&mut self) {
        self.net.reset_stats();
        for c in &mut self.cores {
            c.state.instructions = 0;
        }
        for l1 in &mut self.l1s {
            l1.reset_stats();
        }
        for l2 in &mut self.l2s {
            l2.reset_stats();
        }
        for mc in self.mcs.iter_mut().flatten() {
            mc.reset_stats();
        }
        if let Some(ol) = self.open_loop.as_mut() {
            ol.reset_window();
        }
    }

    /// Instructions retired across all cores since the last reset.
    pub fn instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.state.instructions).sum()
    }

    /// Network statistics snapshot.
    pub fn noc_stats(&self) -> NocStats {
        self.net.stats()
    }

    /// Aggregated L1 counters.
    pub fn l1_totals(&self) -> rcsim_protocol::L1Stats {
        let mut total = rcsim_protocol::L1Stats::default();
        for s in self.l1s.iter().map(L1Cache::stats) {
            total.hits += s.hits;
            total.misses += s.misses;
            total.upgrades += s.upgrades;
            total.writebacks += s.writebacks;
            total.invalidations += s.invalidations;
            total.forwards_served += s.forwards_served;
            total.acks_elided += s.acks_elided;
        }
        total
    }

    /// Aggregated L2 counters.
    pub fn l2_totals(&self) -> rcsim_protocol::L2Stats {
        let mut total = rcsim_protocol::L2Stats::default();
        for s in self.l2s.iter().map(L2Bank::stats) {
            total.hits += s.hits;
            total.misses += s.misses;
            total.forwards += s.forwards;
            total.invalidations += s.invalidations;
            total.evictions += s.evictions;
            total.queued_on_busy += s.queued_on_busy;
            total.busy_wait_cycles += s.busy_wait_cycles;
            total.self_acked += s.self_acked;
        }
        total
    }

    /// The chip's state and its components', for checkpointing. Call at
    /// a tick boundary (between [`Chip::tick`] calls): mid-tick scratch
    /// is dead there.
    pub fn snapshot(&self) -> ChipSnapshot {
        ChipSnapshot {
            state: self.state.clone(),
            net: self.net.snapshot(),
            cores: self.cores.snapshot(),
            l1s: self.l1s.snapshot(),
            l2s: self.l2s.snapshot(),
            mcs: self.mcs.snapshot(),
            open_loop: self.open_loop.snapshot(),
        }
    }

    /// Overwrites the chip's state, and its components', with a
    /// [`Chip::snapshot`] of one built from the same configuration; wiring
    /// is kept. Panics as [`Stateful::restore`] does.
    pub fn restore(&mut self, snap: &ChipSnapshot) {
        self.state.clone_from(&snap.state);
        self.net.restore(&snap.net);
        self.cores.restore(&snap.cores);
        self.l1s.restore(&snap.l1s);
        self.l2s.restore(&snap.l2s);
        self.mcs.restore(&snap.mcs);
        self.open_loop.restore(&snap.open_loop);
        self.rebuild_scratch();
    }

    /// Checks the single-writer/multiple-reader invariant and directory
    /// consistency across all caches. Returns human-readable violations
    /// (empty = coherent).
    pub fn coherence_violations(&self) -> Vec<String> {
        // Every cached L1 line, in one flat list sorted by block.
        let count = self.l1s.iter().map(|l1| l1.lines().count()).sum();
        let mut holdings = Vec::with_capacity(count);
        for (i, l1) in self.l1s.iter().enumerate() {
            let node = NodeId(i as u16);
            holdings.extend(
                l1.lines()
                    .map(|(block, writable, _)| (block, node, writable)),
            );
        }
        holdings.sort_unstable();
        violations_among(&holdings, |block| {
            let home = self.proto_cfg.home(&self.topology, block);
            self.l2s[home.index()].probe(block)
        })
    }
}

/// The coherence violations among `holdings`, the `(block, holder,
/// writable)` of every L1 copy sorted by block and holder, given each
/// block's directory entry `(owner, sharer mask)` (`None`: the block is
/// absent from its home bank). Messages come block by block, ascending.
fn violations_among(
    holdings: &[(u64, NodeId, bool)],
    directory: impl Fn(u64) -> Option<(Option<NodeId>, u64)>,
) -> Vec<String> {
    let mut violations = Vec::new();
    for copies in holdings.chunk_by(|a, b| a.0 == b.0) {
        let block = copies[0].0;
        let writers = copies.iter().filter(|&&(_, _, w)| w).count();
        if writers > 1 {
            violations.push(format!("block {block:#x}: {writers} writable copies"));
        }
        if writers == 1 && copies.len() > 1 {
            violations.push(format!(
                "block {block:#x}: writable copy coexists with {} other copies",
                copies.len() - 1
            ));
        }
        // Every actual holder must be known to the directory (the
        // directory may track stale sharers, never the reverse).
        let Some((owner, sharers)) = directory(block) else {
            violations.push(format!(
                "block {block:#x}: cached in an L1 but absent from its home bank (inclusion)"
            ));
            continue;
        };
        for &(_, n, w) in copies {
            let known = owner == Some(n) || sharers & (1u64 << n.index()) != 0;
            if !known && w {
                violations.push(format!(
                    "block {block:#x}: writable holder {n} unknown to the directory"
                ));
            }
        }
    }
    violations
}

/// A [`Chip`]'s state and that of each of its components (see
/// [`Chip::snapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChipSnapshot {
    state: State,
    net: NetworkSnapshot,
    cores: Vec<(core_model::State, WorkloadRng)>,
    l1s: Vec<L1CacheState>,
    l2s: Vec<L2BankState>,
    /// Indexed by tile, like [`Chip::mcs`].
    mcs: Vec<Option<MemoryState>>,
    open_loop: Option<(open_loop::State, Vec<ArrivalState>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_workload::Workload;

    /// Each violation, planted: two writers, a writer beside a reader, a
    /// writable holder the directory does not know and an L1 copy its home
    /// bank lacks — and nothing for copies the directory tracks, stale
    /// sharers included.
    #[test]
    fn planted_violations_are_each_reported_once_in_block_order() {
        let n = NodeId;
        let holdings = [
            (0x10, n(0), true),
            (0x10, n(3), true),
            (0x20, n(1), true),
            (0x20, n(2), false),
            (0x30, n(4), true),
            (0x40, n(5), false),
            (0x50, n(6), false),
            (0x50, n(7), false),
            (0x60, n(2), true),
        ];
        let directory = |block: u64| match block {
            0x10 => Some((None, 1 << 0 | 1 << 3)),
            0x20 => Some((Some(n(1)), 1 << 2)),
            0x30 => Some((Some(n(9)), 0)),
            0x50 => Some((None, 1 << 6 | 1 << 7 | 1 << 8)),
            0x60 => Some((Some(n(2)), 0)),
            _ => None,
        };
        assert_eq!(
            violations_among(&holdings, directory),
            [
                "block 0x10: 2 writable copies",
                "block 0x20: writable copy coexists with 1 other copies",
                "block 0x30: writable holder n4 unknown to the directory",
                "block 0x40: cached in an L1 but absent from its home bank (inclusion)",
            ]
        );
        assert!(violations_among(&[], directory).is_empty());
    }

    /// A bank whose wake slot runs one cycle late is caught the cycle its
    /// work falls due, by name.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "superset law: bank 2 at cycle 14")]
    fn a_bank_woken_late_breaks_the_superset_law() {
        let topology = Topology::mesh(4, 4).expect("valid");
        let workload = Workload::by_name("fft", 16, 1).expect("a known workload");
        let proto = ProtocolConfig::small_for_tests(&topology);
        let mechanism = MechanismConfig::baseline();
        let mut chip = Chip::new(topology, mechanism, proto, &workload).expect("valid");
        let (i, due) = loop {
            chip.tick();
            let now = chip.now();
            let waiting =
                |i: usize| Some(chip.l2s[i].next_due()).filter(|&t| t > now && t < Cycle::MAX);
            if let Some((i, due)) = (0..16).find_map(|i| waiting(i).map(|t| (i, t))) {
                break (i, due);
            }
        };
        chip.wake.banks[i] = due + 1;
        while chip.now() <= due {
            chip.tick();
        }
    }
}
