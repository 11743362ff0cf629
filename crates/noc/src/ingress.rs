//! Bounded open-loop ingress at the mesh edge: token-bucket admission,
//! bounded per-edge queues with explicit backpressure, and deterministic
//! load-shedding.
//!
//! The design rule is *no silent loss and no unbounded queue*. Every
//! external arrival offered to an edge meets exactly one of four typed
//! fates, each counted and traced:
//!
//! 1. **Admitted** — a token was available and the bounded queue had
//!    room; the arrival waits its turn in FIFO order.
//! 2. **Rejected (`NoToken`)** — the admission controller's token bucket
//!    was empty. The client is told how long to wait before re-offering
//!    (the retry-after/backoff contract).
//! 3. **Rejected (`QueueFull`)** — the bounded queue was at capacity;
//!    retry after a fixed backoff.
//! 4. **Shed (`ShedTimeout`)** — admitted, but the queue did not drain
//!    before the shed timeout; the arrival is dropped *explicitly* at the
//!    head of the queue (old work is the least useful work under
//!    overload) and the drop is counted and traced.
//!
//! Release into the network is paced at one arrival per edge per cycle
//! and gated on the edge NI's backlog (backpressure): when the NI is
//! congested the queue holds rather than piling more packets onto it.
//! The [`OverloadReport`] exposes the full ledger; its conservation
//! identity `admitted == released + shed + queued` holds at every cycle,
//! and offered arrivals that were rejected are exactly the difference
//! `offered - admitted`.

use rcsim_core::{Cycle, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// One token in units of 1/1024 — the fixed-point scale of the bucket.
const TOKEN_SCALE: u64 = 1024;

/// Bound on each edge's ingress queue (entries). Never exceeded.
pub const QUEUE_CAP: usize = 32;

/// Token-bucket burst capacity, in whole tokens.
const BUCKET_CAP: u64 = 16;

/// Release an arrival into the edge NI only while the NI's backlog is
/// below this many packets (explicit backpressure).
const BACKPRESSURE_THRESHOLD: usize = 8;

/// Retry-after told to clients rejected for a full queue (and for an
/// empty bucket that never refills), cycles.
const RETRY_BACKOFF: u64 = 64;

/// Configuration of the edge ingress layer: what the overload sweep
/// varies. The queue bound, burst capacity, backpressure threshold and
/// retry backoff are the constants above.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IngressConfig {
    /// An admitted arrival still queued after this many cycles is shed.
    pub shed_timeout: u64,
    /// Enables the token-bucket admission controller. With admission off
    /// the bucket is ignored and only the queue bound protects the edge —
    /// the "collapse" configuration the overload bench measures against.
    pub admission: bool,
    /// Token-bucket refill rate: whole tokens granted per 1024 cycles
    /// (i.e. `rate * 1024` for a per-cycle admission rate `rate`).
    pub tokens_per_kilocycle: u64,
}

impl Default for IngressConfig {
    fn default() -> Self {
        Self {
            shed_timeout: 2_000,
            admission: true,
            tokens_per_kilocycle: 256, // 0.25 admits/cycle/edge
        }
    }
}

/// Why an offer was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The token bucket was empty (admission control).
    NoToken,
    /// The bounded ingress queue was at capacity.
    QueueFull,
}

/// The typed outcome of offering one external arrival to an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued; `depth` is the queue depth after the admit.
    Admitted {
        /// Ingress queue depth including this arrival.
        depth: u32,
    },
    /// Refused; re-offer no sooner than `retry_after` cycles from now.
    Rejected {
        /// Which limit refused the offer.
        reason: RejectReason,
        /// Cycles the client should back off before retrying.
        retry_after: u64,
    },
}

/// An admitted arrival released from an ingress queue this cycle; the
/// driver is expected to inject it into the network immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleasedArrival {
    /// Edge node whose queue released the arrival.
    pub edge: NodeId,
    /// Destination (server) tile.
    pub dst: NodeId,
    /// External block address carried by the request.
    pub block: u64,
    /// Cycle the arrival was admitted at the edge.
    pub arrived_at: Cycle,
    /// Cycles spent waiting in the ingress queue.
    pub waited: u64,
}

/// An arrival shed from a queue head after exceeding the shed timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedArrival {
    /// Edge node that shed it.
    pub edge: NodeId,
    /// Cycles it waited before being shed.
    pub waited: u64,
}

/// The overload ledger surfaced through `HealthReport` — queue pressure
/// high-water marks, the admit/reject/shed counters and time spent under
/// overload. All counters are cumulative from cycle 0 (warm-up resets
/// never touch them) so conservation can be checked at any instant.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OverloadReport {
    /// Offers seen, including client re-offers after a rejection.
    pub offered: u64,
    /// Offers admitted into a bounded queue.
    pub admitted: u64,
    /// Admitted arrivals released into the network.
    pub released: u64,
    /// Offers refused because the token bucket was empty.
    pub rejected_no_token: u64,
    /// Offers refused because the bounded queue was full.
    pub rejected_queue_full: u64,
    /// Admitted arrivals shed after waiting past the shed timeout.
    pub shed_timeout: u64,
    /// Arrivals currently waiting in ingress queues.
    pub queued: u64,
    /// Deepest any single edge queue has ever been.
    pub depth_high_water: u32,
    /// Cycles that ended with at least one non-empty ingress queue.
    pub time_in_overload: u64,
}

impl OverloadReport {
    /// Total refused offers.
    pub fn rejected(&self) -> u64 {
        self.rejected_no_token + self.rejected_queue_full
    }

    /// The ingress conservation residue; zero in a correct simulator.
    /// Every offer is admitted or rejected, and every admit is released,
    /// shed, or still queued.
    pub fn unaccounted(&self) -> i64 {
        let offers = self.offered as i64 - self.rejected() as i64 - self.admitted as i64;
        let admits = self.admitted as i64
            - self.released as i64
            - self.shed_timeout as i64
            - self.queued as i64;
        offers + admits
    }
}

impl fmt::Display for OverloadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "offered {} (admitted {}, rejected {}+{}, shed {}), released {}, queued {}, \
             high-water {}, {} cy in overload",
            self.offered,
            self.admitted,
            self.rejected_no_token,
            self.rejected_queue_full,
            self.shed_timeout,
            self.released,
            self.queued,
            self.depth_high_water,
            self.time_in_overload
        )
    }
}

/// One queued external arrival.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct QueuedArrival {
    dst: NodeId,
    block: u64,
    arrived_at: Cycle,
}

/// Per-edge queue plus token bucket.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EdgeIngress {
    queue: VecDeque<QueuedArrival>,
    /// Fixed-point token level, `TOKEN_SCALE` units per whole token.
    tokens: u64,
}

/// The ingress layer's state (DESIGN.md §15): one [`EdgeIngress`] per
/// configured edge node, in edge order, plus the cumulative
/// [`OverloadReport`] counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct State {
    edges: Vec<EdgeIngress>,
    report: OverloadReport,
}

/// The whole ingress layer: its configuration and edge nodes (wiring),
/// and its [`State`].
#[derive(Debug)]
pub(crate) struct IngressState {
    cfg: IngressConfig,
    /// The configured edge nodes, in offer/drain order.
    nodes: Vec<NodeId>,
    pub(crate) state: State,
}

impl IngressState {
    pub(crate) fn new(cfg: IngressConfig, nodes: Vec<NodeId>) -> Self {
        let full = EdgeIngress {
            queue: VecDeque::new(),
            // Start full so a cold-start burst up to `BUCKET_CAP` is
            // admitted rather than spuriously rejected at cycle 0.
            tokens: BUCKET_CAP * TOKEN_SCALE,
        };
        Self {
            cfg,
            state: State {
                edges: vec![full; nodes.len()],
                report: OverloadReport::default(),
            },
            nodes,
        }
    }

    /// The configured edge nodes, in offer/drain order.
    pub(crate) fn edge_nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Index of `edge` in the configured edge list.
    fn edge_index(&self, edge: NodeId) -> usize {
        self.nodes
            .iter()
            .position(|&n| n == edge)
            .expect("offer_external at a node configured as an ingress edge")
    }

    /// Offers one arrival at `edge`; the typed outcome is final for this
    /// cycle (a rejected client may re-offer after `retry_after`).
    pub(crate) fn offer(&mut self, now: Cycle, edge: NodeId, dst: NodeId, block: u64) -> Admission {
        let i = self.edge_index(edge);
        let cfg = self.cfg;
        self.state.report.offered += 1;
        let e = &mut self.state.edges[i];
        if cfg.admission && e.tokens < TOKEN_SCALE {
            self.state.report.rejected_no_token += 1;
            // How long until one whole token accumulates at the refill
            // rate (at least one cycle; fall back to the generic backoff
            // when refill is off).
            let deficit = TOKEN_SCALE - e.tokens;
            let retry_after = if cfg.tokens_per_kilocycle == 0 {
                RETRY_BACKOFF
            } else {
                deficit.div_ceil(cfg.tokens_per_kilocycle).max(1)
            };
            return Admission::Rejected {
                reason: RejectReason::NoToken,
                retry_after,
            };
        }
        if e.queue.len() >= QUEUE_CAP {
            self.state.report.rejected_queue_full += 1;
            return Admission::Rejected {
                reason: RejectReason::QueueFull,
                retry_after: RETRY_BACKOFF,
            };
        }
        if cfg.admission {
            e.tokens -= TOKEN_SCALE;
        }
        e.queue.push_back(QueuedArrival {
            dst,
            block,
            arrived_at: now,
        });
        self.state.report.admitted += 1;
        self.state.report.queued += 1;
        let depth = e.queue.len() as u32;
        self.state.report.depth_high_water = self.state.report.depth_high_water.max(depth);
        Admission::Admitted { depth }
    }

    /// One cycle of ingress service: refill token buckets, shed queue
    /// heads older than the shed timeout, then release at most one
    /// arrival per edge whose NI backlog (`backlogs[i]`, indexed like the
    /// edge list) is below the backpressure threshold.
    pub(crate) fn drain(
        &mut self,
        now: Cycle,
        backlogs: &[usize],
        released: &mut Vec<ReleasedArrival>,
        shed: &mut Vec<ShedArrival>,
    ) {
        debug_assert_eq!(backlogs.len(), self.state.edges.len());
        let cfg = self.cfg;
        for (i, (e, &node)) in self.state.edges.iter_mut().zip(&self.nodes).enumerate() {
            if cfg.admission {
                e.tokens = (e.tokens + cfg.tokens_per_kilocycle).min(BUCKET_CAP * TOKEN_SCALE);
            }
            while let Some(head) = e.queue.front() {
                let waited = now.saturating_sub(head.arrived_at);
                if waited < cfg.shed_timeout {
                    break;
                }
                e.queue.pop_front();
                self.state.report.shed_timeout += 1;
                self.state.report.queued -= 1;
                shed.push(ShedArrival { edge: node, waited });
            }
            if backlogs[i] < BACKPRESSURE_THRESHOLD {
                if let Some(head) = e.queue.pop_front() {
                    self.state.report.released += 1;
                    self.state.report.queued -= 1;
                    released.push(ReleasedArrival {
                        edge: node,
                        dst: head.dst,
                        block: head.block,
                        arrived_at: head.arrived_at,
                        waited: now.saturating_sub(head.arrived_at),
                    });
                }
            }
        }
        if self.state.edges.iter().any(|e| !e.queue.is_empty()) {
            self.state.report.time_in_overload += 1;
        }
    }

    /// Arrivals currently queued across all edges.
    pub(crate) fn queued(&self) -> u64 {
        self.state.report.queued
    }

    /// A copy of the cumulative ledger.
    pub(crate) fn report(&self) -> OverloadReport {
        self.state.report
    }
}

rcsim_core::stateful!(IngressState => State);

#[cfg(test)]
mod tests {
    use super::*;

    /// Admission at one token per cycle; queued heads go stale after 100
    /// cycles.
    fn cfg() -> IngressConfig {
        IngressConfig {
            shed_timeout: 100,
            admission: true,
            tokens_per_kilocycle: TOKEN_SCALE,
        }
    }

    fn node(i: u16) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn bucket_bounds_burst_admits() {
        let mut s = IngressState::new(cfg(), vec![node(0)]);
        // A full bucket and no refill yet: the offer past the burst
        // capacity bounces.
        for b in 0..BUCKET_CAP {
            assert!(matches!(
                s.offer(0, node(0), node(5), b),
                Admission::Admitted { depth } if u64::from(depth) == b + 1
            ));
        }
        match s.offer(0, node(0), node(5), BUCKET_CAP) {
            Admission::Rejected {
                reason: RejectReason::NoToken,
                retry_after,
            } => assert!(retry_after >= 1),
            other => panic!("expected NoToken reject, got {other:?}"),
        }
        assert_eq!(s.report().rejected_no_token, 1);
    }

    #[test]
    fn queue_bound_is_never_exceeded() {
        let mut c = cfg();
        c.admission = false; // isolate the queue bound
        let mut s = IngressState::new(c, vec![node(0)]);
        let offers = QUEUE_CAP as u64 + 6;
        for b in 0..offers {
            s.offer(0, node(0), node(5), b);
        }
        match s.offer(0, node(0), node(5), offers) {
            Admission::Rejected {
                reason: RejectReason::QueueFull,
                retry_after,
            } => assert_eq!(retry_after, RETRY_BACKOFF),
            other => panic!("expected QueueFull reject, got {other:?}"),
        }
        let r = s.report();
        assert_eq!(r.admitted, QUEUE_CAP as u64);
        assert_eq!(r.rejected_queue_full, 7);
        assert_eq!(r.queued, QUEUE_CAP as u64);
        assert_eq!(r.depth_high_water as usize, QUEUE_CAP);
        assert_eq!(r.unaccounted(), 0);
    }

    #[test]
    fn drain_releases_fifo_and_respects_backpressure() {
        let mut c = cfg();
        c.admission = false;
        let mut s = IngressState::new(c, vec![node(0)]);
        s.offer(0, node(0), node(5), 10);
        s.offer(0, node(0), node(6), 11);
        let (mut rel, mut shed) = (Vec::new(), Vec::new());
        s.drain(1, &[BACKPRESSURE_THRESHOLD - 1], &mut rel, &mut shed);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel[0].block, 10);
        assert_eq!(rel[0].waited, 1);
        // NI congested: nothing released.
        rel.clear();
        s.drain(2, &[BACKPRESSURE_THRESHOLD], &mut rel, &mut shed);
        assert!(rel.is_empty());
        assert_eq!(s.queued(), 1);
        assert!(shed.is_empty());
        assert_eq!(s.report().unaccounted(), 0);
    }

    #[test]
    fn stale_heads_are_shed_not_lost() {
        let mut c = cfg();
        c.admission = false;
        let mut s = IngressState::new(c, vec![node(0)]);
        s.offer(0, node(0), node(5), 1);
        s.offer(0, node(0), node(5), 2);
        let (mut rel, mut shed) = (Vec::new(), Vec::new());
        // Past the shed timeout with the NI congested the whole time:
        // both entries go out the shed path, explicitly.
        s.drain(150, &[BACKPRESSURE_THRESHOLD], &mut rel, &mut shed);
        assert!(rel.is_empty());
        assert_eq!(shed.len(), 2);
        assert_eq!(shed[0].waited, 150);
        let r = s.report();
        assert_eq!(r.shed_timeout, 2);
        assert_eq!(r.queued, 0);
        assert_eq!(r.unaccounted(), 0);
    }

    #[test]
    fn tokens_refill_over_time() {
        let mut c = cfg();
        c.tokens_per_kilocycle = TOKEN_SCALE / 4; // 0.25/cycle
        let mut s = IngressState::new(c, vec![node(0)]);
        for b in 0..BUCKET_CAP {
            assert!(matches!(
                s.offer(0, node(0), node(5), b),
                Admission::Admitted { .. }
            ));
        }
        let reject = s.offer(0, node(0), node(5), BUCKET_CAP);
        match reject {
            Admission::Rejected { retry_after, .. } => assert_eq!(retry_after, 4),
            other => panic!("expected reject, got {other:?}"),
        }
        let (mut rel, mut shed) = (Vec::new(), Vec::new());
        for t in 1..=4 {
            s.drain(t, &[BACKPRESSURE_THRESHOLD], &mut rel, &mut shed);
        }
        assert!(matches!(
            s.offer(5, node(0), node(5), BUCKET_CAP + 1),
            Admission::Admitted { .. }
        ));
    }

    #[test]
    fn overload_time_tracks_nonempty_queues() {
        let mut c = cfg();
        c.admission = false;
        let mut s = IngressState::new(c, vec![node(0), node(4)]);
        s.offer(0, node(0), node(5), 1);
        s.offer(0, node(0), node(5), 2);
        let (mut rel, mut shed) = (Vec::new(), Vec::new());
        s.drain(1, &[0, 0], &mut rel, &mut shed); // releases one, one left
        s.drain(2, &[0, 0], &mut rel, &mut shed); // releases the last
        s.drain(3, &[0, 0], &mut rel, &mut shed); // empty now
        assert_eq!(s.report().time_in_overload, 1);
        assert_eq!(s.report().released, 2);
    }
}
