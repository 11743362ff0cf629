//! Open-loop external traffic at the chip level: seeded edge arrival
//! streams feeding the NoC's bounded-ingress layer, a request/reply RPC
//! model over the circuit fabric, the client retry-after contract, and
//! full conservation accounting.
//!
//! External work models the ROADMAP "datacenter tile" scenario: requests
//! arrive at the mesh's west edge from outside the chip (a NIC, another
//! socket) at a configured rate, *independent of core state*. Each
//! admitted arrival becomes a 1-flit `L1Request`-class packet from its
//! edge NI to a uniformly chosen interior server tile; the request
//! reserves a circuit on its way (exactly like a coherence request), the
//! server "computes" for `SERVICE_TIME` cycles, and the
//! 5-flit `L2Reply`-class response rides the circuit back to the edge.
//! The transaction's end-to-end latency is measured from edge admission
//! to reply delivery, so time spent queued at a congested ingress is part
//! of the tail — the quantity the overload bench tracks against its SLO.
//!
//! External packets never touch the coherence protocol: their tokens
//! carry [`EXT_TOKEN_BIT`], and the chip's delivery fan-out intercepts
//! them before the protocol payload lookup.
//!
//! Conservation is the load-bearing invariant (ISSUE 6): every arrival
//! the streams produce is, at any instant, in exactly one of six places —
//! completed, shed, given up after rejections, queued at ingress,
//! in flight in the network / in service, or awaiting a client retry.
//! [`OpenLoopState::summary`] computes the residue; tests and the
//! overload bench assert it is zero at every load point. (The identity
//! assumes a fault-free network: a fault layer that abandons packets
//! would surface here as a positive residue, by design.)

use rcsim_core::circuit::CircuitKey;
use rcsim_core::{Cycle, MessageClass, NodeId, StateMap, Stateful};
use rcsim_noc::{Admission, IngressConfig, Network, PacketSpec, ReleasedArrival};
use rcsim_stats::LatencyStat;
use rcsim_workload::{ArrivalProcess, ArrivalState, ArrivalStream};
use serde::{Deserialize, Serialize};

/// High bit of a packet token, marking external (open-loop) traffic so
/// the chip can route deliveries around the coherence protocol.
pub const EXT_TOKEN_BIT: u64 = 1 << 63;

/// External block addresses live above every workload region (private
/// `0x1_…`, shared `0x2_…`), so external circuit keys never collide with
/// coherence circuit keys.
const EXT_BLOCK_BASE: u64 = 0x4_0000_0000;
/// Per-edge stride of the external block region.
const EXT_BLOCK_STRIDE: u64 = 0x100_0000;

/// Cycles a server tile "computes" between request delivery and reply
/// injection.
const SERVICE_TIME: u64 = 20;

/// End-to-end latency SLO bound, cycles (admission → reply delivered);
/// completions within it count toward goodput-in-SLO.
pub const SLO: u64 = 1_000;

/// How many times a rejected arrival re-offers (honouring each
/// rejection's `retry_after`) before giving up.
const MAX_CLIENT_RETRIES: u32 = 3;

/// Configuration of the open-loop external-traffic layer (an optional
/// part of `SimConfig`; `None` keeps runs purely closed-loop): what the
/// overload sweep varies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopConfig {
    /// The arrival process each west-edge node runs (identically
    /// parameterised, independently seeded).
    pub process: ArrivalProcess,
    /// Edge ingress: token-bucket admission and shed timeout.
    pub ingress: IngressConfig,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            process: ArrivalProcess::Poisson { rate: 0.05 },
            ingress: IngressConfig::default(),
        }
    }
}

impl OpenLoopConfig {
    /// A config offering `rate` arrivals/cycle/edge with the token bucket
    /// refilling at the same rate — admission matched to offered load.
    pub fn poisson(rate: f64) -> Self {
        let mut cfg = Self {
            process: ArrivalProcess::Poisson { rate },
            ..Self::default()
        };
        cfg.ingress.tokens_per_kilocycle = (rate * 1024.0).ceil() as u64;
        cfg
    }
}

/// Where an in-network external packet is headed.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
enum ExtPacket {
    /// Request travelling edge → server.
    Request { edge: NodeId, arrived_at: Cycle },
    /// Reply travelling server → edge.
    Reply { arrived_at: Cycle },
}

/// A transaction waiting out its service time at a server tile.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct InService {
    due: Cycle,
    server: NodeId,
    edge: NodeId,
    block: u64,
    arrived_at: Cycle,
}

/// A rejected arrival waiting out its retry-after backoff.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct PendingRetry {
    due: Cycle,
    edge: NodeId,
    dst: NodeId,
    block: u64,
    /// Offers made so far (≥ 1).
    attempts: u32,
}

/// Chip-side open-loop driver state. One instance per chip, advanced by
/// [`OpenLoopState::pre_net_tick`] every cycle (both kernels) and fed
/// deliveries by [`OpenLoopState::on_delivered`].
pub(crate) struct OpenLoopState {
    edges: Vec<NodeId>,
    servers: Vec<NodeId>,
    circuits_enabled: bool,
    /// One arrival source per edge, each with a state of its own.
    streams: Vec<ArrivalStream>,
    state: State,
    /// Reused buffer for the ingress layer's releases; empty between ticks.
    released_buf: Vec<ReleasedArrival>,
}

/// The open-loop driver's own state (DESIGN.md §13).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct State {
    retries: Vec<PendingRetry>,
    in_service: Vec<InService>,
    in_net: StateMap<u64, ExtPacket>,
    next_token: u64,

    // Cumulative counters (never reset; conservation runs from cycle 0).
    offered_first: u64,
    reoffers: u64,
    gave_up: u64,
    completed: u64,

    // Measurement-window metrics (zeroed by `reset_window`).
    completed_measured: u64,
    completed_in_slo: u64,
    latency: LatencyStat,
}

/// External end-to-end latency histogram: 20-cycle bins to 10k cycles,
/// wide enough that p99.9 under saturation stays below the overflow bin.
fn ext_latency_stat() -> LatencyStat {
    LatencyStat::new(20.0, 500)
}

impl OpenLoopState {
    /// Builds the driver and installs the ingress layer on `net`.
    /// `edges` must be the ingress edge list (west column); `servers` is
    /// every other node. Arrival streams are seeded per edge from `seed`.
    pub(crate) fn new(
        cfg: OpenLoopConfig,
        seed: u64,
        edges: Vec<NodeId>,
        servers: Vec<NodeId>,
        circuits_enabled: bool,
        net: &mut Network,
    ) -> Self {
        net.configure_ingress(cfg.ingress, edges.clone());
        let streams = (0..edges.len())
            .map(|i| ArrivalStream::new(cfg.process, seed, i, edges.len()))
            .collect();
        Self {
            edges,
            servers,
            circuits_enabled,
            streams,
            state: State {
                retries: Vec::new(),
                in_service: Vec::new(),
                in_net: StateMap::default(),
                next_token: 0,
                offered_first: 0,
                reoffers: 0,
                gave_up: 0,
                completed: 0,
                completed_measured: 0,
                completed_in_slo: 0,
                latency: ext_latency_stat(),
            },
            released_buf: Vec::new(),
        }
    }

    fn ext_block(&self, edge_index: usize, seq: u64) -> u64 {
        EXT_BLOCK_BASE + edge_index as u64 * EXT_BLOCK_STRIDE + (seq % EXT_BLOCK_STRIDE)
    }

    /// Handles one typed admission outcome for an offer that has been
    /// made `attempts` times already (including this one).
    fn handle_offer_outcome(
        &mut self,
        outcome: Admission,
        now: Cycle,
        edge: NodeId,
        dst: NodeId,
        block: u64,
        attempts: u32,
    ) {
        if let Admission::Rejected { retry_after, .. } = outcome {
            if attempts > MAX_CLIENT_RETRIES {
                self.state.gave_up += 1;
            } else {
                self.state.retries.push(PendingRetry {
                    due: now + retry_after.max(1),
                    edge,
                    dst,
                    block,
                    attempts,
                });
            }
        }
    }

    /// One cycle of open-loop work, run before `Network::tick` so
    /// injections land in the same cycle under both kernels: inject due
    /// service replies, re-offer due client retries, poll every arrival
    /// stream (fixed edge order), then drain the ingress layer and inject
    /// whatever it released.
    pub(crate) fn pre_net_tick(&mut self, net: &mut Network, now: Cycle) {
        // 1. Service completions inject their replies.
        let mut due_service = Vec::new();
        self.state.in_service.retain(|s| {
            if s.due <= now {
                due_service.push(*s);
                false
            } else {
                true
            }
        });
        for s in due_service {
            let token = EXT_TOKEN_BIT | self.state.next_token;
            self.state.next_token += 1;
            let mut spec = PacketSpec::new(s.server, s.edge, MessageClass::L2Reply)
                .with_block(s.block)
                .with_token(token);
            if self.circuits_enabled {
                spec = spec.with_circuit_key(CircuitKey {
                    requestor: s.edge,
                    block: s.block,
                });
            }
            net.inject(spec);
            self.state.in_net.insert(
                token,
                ExtPacket::Reply {
                    arrived_at: s.arrived_at,
                },
            );
        }

        // 2. Backed-off clients re-offer.
        let mut due_retries = Vec::new();
        self.state.retries.retain(|r| {
            if r.due <= now {
                due_retries.push(*r);
                false
            } else {
                true
            }
        });
        for r in due_retries {
            self.state.reoffers += 1;
            let outcome = net.offer_external(r.edge, r.dst, r.block);
            self.handle_offer_outcome(outcome, now, r.edge, r.dst, r.block, r.attempts + 1);
        }

        // 3. Fresh arrivals, one poll per edge per cycle in edge order.
        for i in 0..self.streams.len() {
            let Some(a) = self.streams[i].poll(now, self.servers.len()) else {
                continue;
            };
            self.state.offered_first += 1;
            let edge = self.edges[i];
            let dst = self.servers[a.dst_index];
            let block = self.ext_block(i, a.seq);
            let outcome = net.offer_external(edge, dst, block);
            self.handle_offer_outcome(outcome, now, edge, dst, block, 1);
        }

        // 4. The ingress layer releases work into the network.
        let mut buf = std::mem::take(&mut self.released_buf);
        buf.clear();
        net.drain_ingress(&mut buf);
        for rel in &buf {
            let token = EXT_TOKEN_BIT | self.state.next_token;
            self.state.next_token += 1;
            let spec = PacketSpec::new(rel.edge, rel.dst, MessageClass::L1Request)
                .with_block(rel.block)
                .with_token(token)
                .with_turnaround(SERVICE_TIME as u32);
            net.inject(spec);
            self.state.in_net.insert(
                token,
                ExtPacket::Request {
                    edge: rel.edge,
                    arrived_at: rel.arrived_at,
                },
            );
        }
        self.released_buf = buf;
    }

    /// Consumes the delivery of an external packet (token has
    /// [`EXT_TOKEN_BIT`] set). Requests enter service; replies complete
    /// their transaction and record its end-to-end latency.
    pub(crate) fn on_delivered(&mut self, node: NodeId, token: u64, block: u64, now: Cycle) {
        match self
            .state
            .in_net
            .remove(&token)
            .expect("every external packet has an open-loop record")
        {
            ExtPacket::Request { edge, arrived_at } => {
                self.state.in_service.push(InService {
                    due: now + SERVICE_TIME,
                    server: node,
                    edge,
                    block,
                    arrived_at,
                });
            }
            ExtPacket::Reply { arrived_at } => {
                self.state.completed += 1;
                self.state.completed_measured += 1;
                let lat = now.saturating_sub(arrived_at);
                if lat <= SLO {
                    self.state.completed_in_slo += 1;
                }
                self.state.latency.record(lat as f64);
            }
        }
    }

    /// Zeroes the measurement-window metrics at the warm-up boundary.
    /// The conservation counters deliberately survive: they must cover
    /// every arrival since cycle 0 or the identity would not close.
    pub(crate) fn reset_window(&mut self) {
        self.state.completed_measured = 0;
        self.state.completed_in_slo = 0;
        self.state.latency = ext_latency_stat();
    }

    /// The external-traffic summary, including the conservation residue.
    pub(crate) fn summary(&self, net: &Network) -> crate::report::ExternalSummary {
        let ov = net.overload_report();
        let in_flight = ov.queued
            + self.state.in_net.len() as u64
            + self.state.in_service.len() as u64
            + self.state.retries.len() as u64;
        let accounted = self.state.completed + ov.shed_timeout + self.state.gave_up + in_flight;
        crate::report::ExternalSummary {
            offered: self.state.offered_first,
            reoffers: self.state.reoffers,
            rejected: ov.rejected(),
            shed: ov.shed_timeout,
            gave_up: self.state.gave_up,
            completed: self.state.completed,
            completed_measured: self.state.completed_measured,
            completed_in_slo: self.state.completed_in_slo,
            latency_mean: self.state.latency.mean(),
            latency_p50: self.state.latency.p50().unwrap_or(0.0),
            latency_p99: self.state.latency.p99().unwrap_or(0.0),
            latency_p999: self.state.latency.p999().unwrap_or(0.0),
            in_flight,
            unaccounted: self.state.offered_first as i64 - accounted as i64,
        }
    }
}

/// The driver's state paired with its arrival streams'.
impl Stateful for OpenLoopState {
    type State = (State, Vec<ArrivalState>);
    fn snapshot(&self) -> Self::State {
        (self.state.clone(), self.streams.snapshot())
    }

    fn restore(&mut self, (state, streams): &Self::State) {
        self.state.clone_from(state);
        self.streams.restore(streams);
    }
}
