//! Private L1 cache: MESI states, one outstanding miss (in-order cores),
//! a write-back buffer that keeps evicted lines alive until the L2's
//! `L2_WB_ACK`, and the §4.6 ACK-elision hook.

use crate::cache::CacheArray;
use crate::config::ProtocolConfig;
use crate::msg::{Msg, Port, ReqKind};
use rcsim_core::{Cycle, MessageClass, NodeId, StateMap, Topology};
use rcsim_trace::{EventKind, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};

/// Reissues attempted per miss before the L1 gives up and leaves the
/// wedge to the watchdog.
const MAX_REISSUES: u32 = 3;

/// MESI stable states (`I` is represented by absence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum L1State {
    Shared,
    Exclusive,
    Modified,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct L1Line {
    state: L1State,
    data: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct PendingMiss {
    block: u64,
    kind: ReqKind,
    write_value: Option<u64>,
    issued_at: Cycle,
    /// Times the request has been re-sent because no reply arrived.
    reissues: u32,
    /// The cycle the next re-send is due (`Cycle::MAX`: never again).
    reissue_at: Cycle,
}

/// Result of a core access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was present with sufficient permission; `value` is the
    /// line content after the access.
    Hit {
        /// Line content token after the access.
        value: u64,
    },
    /// A request was issued; the core must stall until [`MissDone`].
    Miss,
}

/// Completion record of an outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissDone {
    /// The missing line.
    pub block: u64,
    /// Line content after the access (write value for stores).
    pub value: u64,
    /// Cycle the miss was issued (for latency statistics).
    pub issued_at: Cycle,
}

/// Per-L1 event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct L1Stats {
    /// Core accesses that hit.
    pub hits: u64,
    /// Core accesses that missed (incl. upgrades).
    pub misses: u64,
    /// Store hits on Shared lines that required a GetX upgrade.
    pub upgrades: u64,
    /// Dirty/exclusive lines written back on replacement.
    pub writebacks: u64,
    /// Invalidations received.
    pub invalidations: u64,
    /// Forwards served (from the array or the write-back buffer).
    pub forwards_served: u64,
    /// `L1_DATA_ACK`s skipped thanks to a complete circuit (§4.6).
    pub acks_elided: u64,
    /// Outstanding-miss requests re-sent after the reissue timeout
    /// (recovery from losses on dead links, DESIGN.md §10).
    #[serde(default)]
    pub reissues: u64,
    /// Data replies that arrived for no (or a different) outstanding miss —
    /// duplicates produced by a reissue racing the original reply. They are
    /// acknowledged and otherwise ignored.
    #[serde(default)]
    pub stale_fills: u64,
}

/// A private L1 data cache attached to one core.
#[derive(Debug, Clone)]
pub struct L1Cache {
    node: NodeId,
    topology: Topology,
    cfg: ProtocolConfig,
    /// Where trace events go; disabled by default.
    sink: TraceSink,
    state: L1CacheState,
}

/// An [`L1Cache`]'s state (DESIGN.md §15).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct L1CacheState {
    array: CacheArray<L1Line>,
    miss: Option<PendingMiss>,
    wb_buffer: StateMap<u64, u64>,
    stats: L1Stats,
}

impl L1Cache {
    /// An empty L1 for the tile at `node`.
    pub fn new(node: NodeId, topology: Topology, cfg: ProtocolConfig) -> Self {
        let state = L1CacheState {
            array: CacheArray::new(cfg.l1),
            miss: None,
            wb_buffer: StateMap::default(),
            stats: L1Stats::default(),
        };
        Self {
            node,
            topology,
            cfg,
            sink: TraceSink::default(),
            state,
        }
    }

    /// Installs a trace sink (share one across the chip to get a single
    /// event log). Pass [`TraceSink::Disabled`] to turn tracing back off.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// Event counters.
    pub fn stats(&self) -> &L1Stats {
        &self.state.stats
    }

    /// Zeroes the counters (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.state.stats = L1Stats::default();
    }

    /// `true` while a miss is outstanding (the in-order core is stalled).
    pub fn miss_pending(&self) -> bool {
        self.state.miss.is_some()
    }

    /// The first cycle [`L1Cache::maybe_reissue`] will do anything:
    /// `Cycle::MAX` with no miss outstanding or its reissues spent.
    pub fn reissue_at(&self) -> Cycle {
        self.state.miss.map_or(Cycle::MAX, |m| m.reissue_at)
    }

    /// When reissue `reissues + 1` of a miss issued at `issued_at` is due.
    fn next_reissue(&self, issued_at: Cycle, reissues: u32) -> Cycle {
        if reissues >= MAX_REISSUES {
            return Cycle::MAX;
        }
        let wait = self.cfg.reissue_timeout.checked_shl(reissues);
        issued_at.saturating_add(wait.unwrap_or(Cycle::MAX))
    }

    fn home(&self, block: u64) -> NodeId {
        self.cfg.home(&self.topology, block)
    }

    /// A core load (`write == false`) or store to `block`.
    ///
    /// # Panics
    ///
    /// Panics if called while a miss is outstanding (in-order cores block).
    pub fn access(
        &mut self,
        block: u64,
        write: bool,
        write_value: Option<u64>,
        port: &mut dyn Port,
    ) -> Access {
        assert!(
            self.state.miss.is_none(),
            "core accessed the L1 while a miss is pending"
        );
        if let Some(line) = self.state.array.get_mut(block) {
            match (write, line.state) {
                (false, _) => {
                    self.state.stats.hits += 1;
                    return Access::Hit { value: line.data };
                }
                (true, L1State::Modified) | (true, L1State::Exclusive) => {
                    line.state = L1State::Modified;
                    line.data = write_value.unwrap_or(line.data);
                    self.state.stats.hits += 1;
                    return Access::Hit { value: line.data };
                }
                (true, L1State::Shared) => {
                    // Upgrade: GetX while keeping the stale copy readable.
                    self.state.stats.upgrades += 1;
                }
            }
        } else {
            // Make room ahead of the fill; dirty/exclusive victims enter
            // the write-back buffer until the L2 acknowledges them.
            if let Some(victim_block) = self.state.array.victim_for(block) {
                let victim = self
                    .state
                    .array
                    .remove(victim_block)
                    .expect("victim exists");
                self.evict(victim_block, victim, port);
            }
        }
        self.state.stats.misses += 1;
        self.sink.emit(|| TraceEvent {
            cycle: port.now(),
            kind: EventKind::L1MissStart {
                node: self.node.0,
                block,
            },
        });
        let kind = if write { ReqKind::GetX } else { ReqKind::GetS };
        self.state.miss = Some(PendingMiss {
            block,
            kind,
            write_value: if write { write_value } else { None },
            issued_at: port.now(),
            reissues: 0,
            reissue_at: self.next_reissue(port.now(), 0),
        });
        let mut req =
            Msg::new(MessageClass::L1Request, self.node, self.home(block), block).with_req(kind);
        if self.state.wb_buffer.contains_key(&block) {
            req = req.with_wb_race();
        }
        port.send(req, self.cfg.l2_hit_latency);
        Access::Miss
    }

    /// Re-sends the outstanding miss request if its reply is overdue
    /// (DESIGN.md §10): a permanent fault may have eaten the request or
    /// its reply on a link that has since been routed around. Reissue `n`
    /// (1-based) fires once `reissue_timeout << (n-1)` cycles have passed
    /// since the miss was issued — exponential backoff so a genuinely
    /// wedged protocol does not flood the fabric. After
    /// `MAX_REISSUES` (3) attempts the L1 goes quiet and the
    /// watchdog reports the stuck miss instead.
    ///
    /// Cheap no-op (one `Option` check) when no miss is outstanding, so
    /// callers may invoke it every cycle.
    pub fn maybe_reissue(&mut self, now: Cycle, port: &mut dyn Port) {
        let Some(mut m) = self.state.miss.filter(|m| m.reissue_at <= now) else {
            return;
        };
        m.reissues += 1;
        m.reissue_at = self.next_reissue(m.issued_at, m.reissues);
        self.state.miss = Some(m);
        let (block, kind, attempt) = (m.block, m.kind, m.reissues);
        self.state.stats.reissues += 1;
        self.sink.emit(|| TraceEvent {
            cycle: now,
            kind: EventKind::L1Reissue {
                node: self.node.0,
                block,
                attempt,
            },
        });
        let mut req =
            Msg::new(MessageClass::L1Request, self.node, self.home(block), block).with_req(kind);
        if self.state.wb_buffer.contains_key(&block) {
            req = req.with_wb_race();
        }
        port.send(req, self.cfg.l2_hit_latency);
    }

    fn evict(&mut self, block: u64, line: L1Line, port: &mut dyn Port) {
        match line.state {
            // Clean lines drop silently (the L2 copy is current); the
            // directory learns about stale sharers/owners lazily, from
            // invalidation acks and failed forwards.
            L1State::Shared | L1State::Exclusive => {}
            L1State::Modified => {
                self.state.stats.writebacks += 1;
                self.state.wb_buffer.insert(block, line.data);
                port.send(
                    Msg::new(MessageClass::WbData, self.node, self.home(block), block)
                        .with_data(line.data),
                    self.cfg.l2_hit_latency,
                );
            }
        }
    }

    /// Handles a message addressed to this L1. `rode_circuit` is the NoC's
    /// report of whether the message arrived on a complete circuit.
    pub fn handle(
        &mut self,
        msg: &Msg,
        rode_circuit: bool,
        port: &mut dyn Port,
    ) -> Option<MissDone> {
        match msg.class {
            MessageClass::L2Reply | MessageClass::L1ToL1 => self.fill(msg, rode_circuit, port),
            MessageClass::Invalidation => {
                self.invalidate(msg, port);
                None
            }
            MessageClass::FwdRequest => {
                self.forward(msg, port);
                None
            }
            MessageClass::L2WbAck => {
                self.state.wb_buffer.remove(&msg.block);
                None
            }
            other => panic!("L1 {} received unexpected {other}", self.node),
        }
    }

    fn fill(&mut self, msg: &Msg, rode_circuit: bool, port: &mut dyn Port) -> Option<MissDone> {
        // A reissued request can produce two replies: the first fill
        // resolves the miss, so a data message with no (or a different)
        // outstanding miss is a stale duplicate. Acknowledge it so the
        // home bank unblocks, but install nothing.
        if !matches!(&self.state.miss, Some(m) if m.block == msg.block) {
            self.state.stats.stale_fills += 1;
            let elide =
                self.cfg.eliminate_acks && rode_circuit && msg.class == MessageClass::L2Reply;
            if !elide {
                port.send(
                    Msg::new(
                        MessageClass::L1DataAck,
                        self.node,
                        self.home(msg.block),
                        msg.block,
                    ),
                    1,
                );
            }
            return None;
        }
        let pending = self.state.miss.take().expect("matched above");
        let (state, data) = match pending.kind {
            ReqKind::GetX => (L1State::Modified, pending.write_value.unwrap_or(msg.data)),
            ReqKind::GetS => (
                if msg.exclusive {
                    L1State::Exclusive
                } else {
                    L1State::Shared
                },
                msg.data,
            ),
        };
        // The upgrade path may still hold the stale Shared copy.
        self.state.array.remove(msg.block);
        if let Some((vb, vline)) = self.state.array.insert(msg.block, L1Line { state, data }) {
            self.evict(vb, vline, port);
        }
        // Acknowledge to the home bank — unless the data came over a
        // complete circuit and the protocol elides the ACK (§4.6; the L2
        // self-acknowledged when the reply committed to the circuit).
        let elide = self.cfg.eliminate_acks && rode_circuit && msg.class == MessageClass::L2Reply;
        if elide {
            self.state.stats.acks_elided += 1;
        } else {
            port.send(
                Msg::new(
                    MessageClass::L1DataAck,
                    self.node,
                    self.home(msg.block),
                    msg.block,
                ),
                1,
            );
        }
        self.sink.emit(|| TraceEvent {
            cycle: port.now(),
            kind: EventKind::L1MissEnd {
                node: self.node.0,
                block: msg.block,
            },
        });
        Some(MissDone {
            block: msg.block,
            value: data,
            issued_at: pending.issued_at,
        })
    }

    fn invalidate(&mut self, msg: &Msg, port: &mut dyn Port) {
        self.state.stats.invalidations += 1;
        match self.state.array.remove(msg.block) {
            Some(line) if line.state == L1State::Modified => {
                // The dirty data itself is the acknowledgement: the L2
                // counts a WbData from a pending node as its inv-ack.
                port.send(
                    Msg::new(
                        MessageClass::WbData,
                        self.node,
                        self.home(msg.block),
                        msg.block,
                    )
                    .with_data(line.data),
                    self.cfg.l2_hit_latency,
                );
            }
            _ => {
                // Clean copy, a write-back already in flight, or a silent
                // drop the directory has not observed: plain ack.
                port.send(
                    Msg::new(
                        MessageClass::L1InvAck,
                        self.node,
                        self.home(msg.block),
                        msg.block,
                    ),
                    1,
                );
            }
        }
    }

    fn forward(&mut self, msg: &Msg, port: &mut dyn Port) {
        let requestor = msg.requestor.expect("forward names its requestor");
        let kind = msg.req.expect("forward carries the request kind");
        self.state.stats.forwards_served += 1;
        let cached = self.state.array.peek(msg.block).map(|l| (l.state, l.data));
        let data = if let Some((state, data)) = cached {
            match kind {
                ReqKind::GetS => {
                    if state == L1State::Modified {
                        // Sync the home bank; MESI keeps no dirty-shared.
                        port.send(
                            Msg::new(
                                MessageClass::WbData,
                                self.node,
                                self.home(msg.block),
                                msg.block,
                            )
                            .with_data(data),
                            self.cfg.l2_hit_latency,
                        );
                    }
                    self.state
                        .array
                        .peek_mut(msg.block)
                        .expect("still cached")
                        .state = L1State::Shared;
                }
                ReqKind::GetX => {
                    self.state.array.remove(msg.block);
                }
            }
            data
        } else if let Some(&data) = self.state.wb_buffer.get(&msg.block) {
            // Our write-back is racing the forward: serve from the buffer
            // (the L2 defers the WB ack until this forward completes).
            data
        } else {
            // The line was silently dropped (clean Exclusive): tell the
            // home its owner record is stale; it will serve from its own
            // copy, which is current.
            port.send(
                Msg::new(
                    MessageClass::L1InvAck,
                    self.node,
                    self.home(msg.block),
                    msg.block,
                ),
                1,
            );
            return;
        };
        port.send(
            Msg::new(MessageClass::L1ToL1, self.node, requestor, msg.block).with_data(data),
            1,
        );
    }

    /// Iterates over all cached lines as `(block, writable, value)`, for
    /// chip-level coherence invariant checks.
    pub fn lines(&self) -> impl Iterator<Item = (u64, bool, u64)> + '_ {
        self.state.array.iter().map(|(b, l)| {
            (
                b,
                matches!(l.state, L1State::Exclusive | L1State::Modified),
                l.data,
            )
        })
    }

    /// Visible state of a block, for invariant checks: `None` when absent,
    /// `Some((is_writable, value))` otherwise.
    pub fn probe(&self, block: u64) -> Option<(bool, u64)> {
        self.state.array.peek(block).map(|l| {
            (
                matches!(l.state, L1State::Exclusive | L1State::Modified),
                l.data,
            )
        })
    }
}

rcsim_core::stateful!(L1Cache => L1CacheState);

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::circuit::CircuitKey;

    /// Loopback port capturing sent messages.
    struct TestPort {
        now: Cycle,
        sent: Vec<Msg>,
        commit_next: bool,
        undone: Vec<CircuitKey>,
    }

    impl TestPort {
        fn new() -> Self {
            Self {
                now: 0,
                sent: Vec::new(),
                commit_next: false,
                undone: Vec::new(),
            }
        }
    }

    impl Port for TestPort {
        fn now(&self) -> Cycle {
            self.now
        }
        fn send(&mut self, msg: Msg, _turnaround: u32) -> bool {
            self.sent.push(msg);
            self.commit_next
        }
        fn undo_circuit(&mut self, key: CircuitKey) {
            self.undone.push(key);
        }
        fn record_eliminated_ack(&mut self) {}
    }

    fn l1() -> L1Cache {
        let mesh = Topology::mesh(4, 4).unwrap();
        let cfg = ProtocolConfig::small_for_tests(&mesh);
        L1Cache::new(NodeId(3), mesh, cfg)
    }

    fn reply(to: &L1Cache, block: u64, data: u64) -> Msg {
        let home = to.home(block);
        Msg::new(MessageClass::L2Reply, home, NodeId(3), block).with_data(data)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = l1();
        let mut p = TestPort::new();
        assert_eq!(c.access(0x100, false, None, &mut p), Access::Miss);
        assert_eq!(p.sent.len(), 1);
        assert_eq!(p.sent[0].class, MessageClass::L1Request);
        assert_eq!(p.sent[0].req, Some(ReqKind::GetS));

        let done = c.handle(&reply(&c, 0x100, 42), false, &mut p).unwrap();
        assert_eq!(done.value, 42);
        // Ack sent (no elision configured).
        assert_eq!(p.sent.last().unwrap().class, MessageClass::L1DataAck);
        assert_eq!(
            c.access(0x100, false, None, &mut p),
            Access::Hit { value: 42 }
        );
    }

    #[test]
    fn exclusive_grant_allows_silent_store() {
        let mut c = l1();
        let mut p = TestPort::new();
        c.access(0x100, false, None, &mut p);
        let msg = reply(&c, 0x100, 1).with_exclusive();
        c.handle(&msg, false, &mut p);
        // E -> M silently.
        assert_eq!(
            c.access(0x100, true, Some(7), &mut p),
            Access::Hit { value: 7 }
        );
        assert_eq!(c.probe(0x100), Some((true, 7)));
    }

    #[test]
    fn store_miss_fills_modified_with_write_value() {
        let mut c = l1();
        let mut p = TestPort::new();
        assert_eq!(c.access(0x100, true, Some(99), &mut p), Access::Miss);
        assert_eq!(p.sent[0].req, Some(ReqKind::GetX));
        let done = c.handle(&reply(&c, 0x100, 1), false, &mut p).unwrap();
        assert_eq!(done.value, 99, "the store value wins over the fetched line");
        assert_eq!(c.probe(0x100), Some((true, 99)));
    }

    #[test]
    fn shared_store_upgrades() {
        let mut c = l1();
        let mut p = TestPort::new();
        c.access(0x100, false, None, &mut p);
        c.handle(&reply(&c, 0x100, 5), false, &mut p);
        // Store on a Shared line: GetX goes out.
        assert_eq!(c.access(0x100, true, Some(6), &mut p), Access::Miss);
        assert_eq!(p.sent.last().unwrap().req, Some(ReqKind::GetX));
        assert_eq!(c.stats().upgrades, 1);
        c.handle(&reply(&c, 0x100, 5), false, &mut p);
        assert_eq!(c.probe(0x100), Some((true, 6)));
    }

    #[test]
    fn ack_elided_on_circuit_reply() {
        let mut c = l1();
        c.cfg.eliminate_acks = true;
        let mut p = TestPort::new();
        c.access(0x100, false, None, &mut p);
        let before = p.sent.len();
        c.handle(&reply(&c, 0x100, 1), true, &mut p);
        assert_eq!(
            p.sent.len(),
            before,
            "no L1_DATA_ACK when the reply rode a circuit"
        );
        assert_eq!(c.stats().acks_elided, 1);

        // But an L1_TO_L1 is always acknowledged.
        c.access(0x140, false, None, &mut p);
        let m = Msg::new(MessageClass::L1ToL1, NodeId(9), NodeId(3), 0x140).with_data(2);
        c.handle(&m, true, &mut p);
        assert_eq!(p.sent.last().unwrap().class, MessageClass::L1DataAck);
    }

    #[test]
    fn overdue_miss_is_reissued_with_exponential_backoff() {
        let mut c = l1();
        let mut p = TestPort::new();
        c.access(0x100, false, None, &mut p);
        assert_eq!(p.sent.len(), 1);
        let t = c.cfg.reissue_timeout;

        // One cycle early: nothing.
        c.maybe_reissue(t - 1, &mut p);
        assert_eq!(p.sent.len(), 1);
        // First reissue at the timeout.
        c.maybe_reissue(t, &mut p);
        assert_eq!(p.sent.len(), 2);
        assert_eq!(p.sent[1].class, MessageClass::L1Request);
        assert_eq!(p.sent[1].req, Some(ReqKind::GetS));
        // Backoff doubles: the second reissue waits until 2t from issue.
        c.maybe_reissue(t + 1, &mut p);
        assert_eq!(p.sent.len(), 2);
        c.maybe_reissue(2 * t, &mut p);
        assert_eq!(p.sent.len(), 3);
        c.maybe_reissue(4 * t, &mut p);
        assert_eq!(p.sent.len(), 4);
        // MAX_REISSUES (3) exhausted: the L1 goes quiet.
        c.maybe_reissue(400 * t, &mut p);
        assert_eq!(p.sent.len(), 4);
        assert_eq!(c.stats().reissues, 3);

        // A late reply still completes the miss normally.
        let done = c.handle(&reply(&c, 0x100, 9), false, &mut p);
        assert_eq!(done.unwrap().value, 9);
        assert!(!c.miss_pending());
    }

    #[test]
    fn reissue_is_noop_without_outstanding_miss() {
        let mut c = l1();
        let mut p = TestPort::new();
        c.maybe_reissue(1_000_000, &mut p);
        assert!(p.sent.is_empty());
        assert_eq!(c.stats().reissues, 0);
    }

    #[test]
    fn duplicate_fill_is_acked_and_ignored() {
        let mut c = l1();
        let mut p = TestPort::new();
        c.access(0x100, false, None, &mut p);
        c.handle(&reply(&c, 0x100, 42), false, &mut p).unwrap();
        let n = p.sent.len();
        // A second reply for the same block (a reissue raced the original):
        // acknowledged so the home unblocks, but the line is untouched.
        assert!(c.handle(&reply(&c, 0x100, 99), false, &mut p).is_none());
        assert_eq!(p.sent.len(), n + 1);
        assert_eq!(p.sent.last().unwrap().class, MessageClass::L1DataAck);
        assert_eq!(c.stats().stale_fills, 1);
        assert_eq!(
            c.access(0x100, false, None, &mut p),
            Access::Hit { value: 42 }
        );
    }

    #[test]
    fn dirty_eviction_writes_back_and_serves_forwards() {
        let mut c = l1();
        let mut p = TestPort::new();
        // Fill a Modified line.
        c.access(0x100, true, Some(77), &mut p);
        c.handle(&reply(&c, 0x100, 0), false, &mut p);
        // Conflict-miss it out: small_for_tests has 16 sets, 4 ways; blocks
        // 0x100 + k*16 collide.
        for k in 1..=4u64 {
            let b = 0x100 + k * 16;
            c.access(b, false, None, &mut p);
            c.handle(&reply(&c, b, 0), false, &mut p);
        }
        assert_eq!(c.stats().writebacks, 1);
        let wb = *p
            .sent
            .iter()
            .find(|m| m.class == MessageClass::WbData)
            .unwrap();
        assert_eq!(wb.block, 0x100);
        assert_eq!(wb.data, 77);

        // A forward racing the write-back is served from the buffer.
        let fwd = Msg::new(MessageClass::FwdRequest, wb.dst, NodeId(3), 0x100)
            .with_req(ReqKind::GetS)
            .with_requestor(NodeId(7));
        c.handle(&fwd, false, &mut p);
        let d = p.sent.last().unwrap();
        assert_eq!(d.class, MessageClass::L1ToL1);
        assert_eq!(d.dst, NodeId(7));
        assert_eq!(d.data, 77);

        // The eventual WB ack clears the buffer.
        let ack = Msg::new(MessageClass::L2WbAck, wb.dst, NodeId(3), 0x100);
        c.handle(&ack, false, &mut p);
        assert!(c.state.wb_buffer.is_empty());
    }

    #[test]
    fn invalidation_of_modified_sends_data_as_ack() {
        let mut c = l1();
        let mut p = TestPort::new();
        c.access(0x100, true, Some(5), &mut p);
        c.handle(&reply(&c, 0x100, 0), false, &mut p);
        let inv = Msg::new(MessageClass::Invalidation, c.home(0x100), NodeId(3), 0x100);
        c.handle(&inv, false, &mut p);
        let last = p.sent.last().unwrap();
        assert_eq!(last.class, MessageClass::WbData);
        assert_eq!(last.data, 5);
        assert_eq!(c.probe(0x100), None);
    }

    #[test]
    fn invalidation_of_absent_line_still_acks() {
        let mut c = l1();
        let mut p = TestPort::new();
        let inv = Msg::new(MessageClass::Invalidation, c.home(0x100), NodeId(3), 0x100);
        c.handle(&inv, false, &mut p);
        assert_eq!(p.sent.last().unwrap().class, MessageClass::L1InvAck);
    }

    #[test]
    fn getx_forward_surrenders_the_line() {
        let mut c = l1();
        let mut p = TestPort::new();
        c.access(0x100, true, Some(5), &mut p);
        c.handle(&reply(&c, 0x100, 0), false, &mut p);
        let fwd = Msg::new(MessageClass::FwdRequest, c.home(0x100), NodeId(3), 0x100)
            .with_req(ReqKind::GetX)
            .with_requestor(NodeId(8));
        c.handle(&fwd, false, &mut p);
        assert_eq!(c.probe(0x100), None);
        let d = p.sent.last().unwrap();
        assert_eq!(
            (d.class, d.dst, d.data),
            (MessageClass::L1ToL1, NodeId(8), 5)
        );
    }

    #[test]
    fn gets_forward_of_modified_syncs_home() {
        let mut c = l1();
        let mut p = TestPort::new();
        c.access(0x100, true, Some(5), &mut p);
        c.handle(&reply(&c, 0x100, 0), false, &mut p);
        let fwd = Msg::new(MessageClass::FwdRequest, c.home(0x100), NodeId(3), 0x100)
            .with_req(ReqKind::GetS)
            .with_requestor(NodeId(8));
        c.handle(&fwd, false, &mut p);
        let classes: Vec<_> = p.sent.iter().map(|m| m.class).collect();
        assert!(
            classes.contains(&MessageClass::WbData),
            "dirty data synced to L2"
        );
        assert!(classes.contains(&MessageClass::L1ToL1));
        assert_eq!(c.probe(0x100), Some((false, 5)), "downgraded to Shared");
    }
}
