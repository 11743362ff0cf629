//! Shared L2 bank with the directory: owner/sharer tracking, per-line
//! busy states with request queueing (lines stay blocked until the
//! `L1_DATA_ACK` — unless a complete circuit eliminated it, §4.6),
//! forwarding to exclusive owners (with circuit undo, §4.4), invalidation
//! collection and the memory-side miss/replacement flows.

use crate::cache::CacheArray;
use crate::config::ProtocolConfig;
use crate::msg::{Msg, Port, ReqKind};
use rcsim_core::{Cycle, MessageClass, NodeId, StateMap, Topology};
use rcsim_trace::{EventKind, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

fn bit(n: NodeId) -> u64 {
    1u64 << n.index()
}

fn nodes_of(mask: u64) -> impl Iterator<Item = NodeId> {
    (0..64u16).filter(move |i| mask & (1 << i) != 0).map(NodeId)
}

/// Why a cached line is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Busy {
    /// Data reply sent; waiting for the requestor's `L1_DATA_ACK`.
    WaitDataAck {
        requestor: NodeId,
        wb_ack_owed: Option<NodeId>,
    },
    /// Forward sent to the old owner; waiting for the requestor's ack.
    WaitFwdAck {
        requestor: NodeId,
        kind: ReqKind,
        old_owner: NodeId,
        wb_ack_owed: bool,
    },
    /// Invalidations out for a GetX; reply follows the last ack.
    WaitInvAcks { requestor: NodeId, pending: u64 },
    /// The owner re-requested its own line: its write-back is in flight.
    WaitOwnerWb,
    /// The line is being evicted (L1 copies being invalidated) to make
    /// room for `fetch_for`.
    Evicting { pending: u64, fetch_for: u64 },
}

/// A resident line's data and directory entry. Whether it is busy lives
/// in [`L2BankState::blocked`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct L2Line {
    data: u64,
    sharers: u64,
    owner: Option<NodeId>,
    dirty: bool,
}

// A paper-size bank models 16 K lines: its slab slot stays three words.
const _: () = assert!(std::mem::size_of::<Option<L2Line>>() == 24);

impl L2Line {
    fn fresh(data: u64) -> Self {
        Self {
            data,
            sharers: 0,
            owner: None,
            dirty: false,
        }
    }
}

/// A resident line in mid-transaction, or with requests waiting on it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Blocked {
    busy: Option<Busy>,
    queue: VecDeque<Msg>,
}

/// An in-flight line fetch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Mshr {
    /// `Some(victim)` while the victim's L1 copies are being invalidated.
    evicting_victim: Option<u64>,
    queue: VecDeque<Msg>,
}

/// Per-bank event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct L2Stats {
    /// Requests served from the bank.
    pub hits: u64,
    /// Requests that missed to memory.
    pub misses: u64,
    /// Requests forwarded to an exclusive owner.
    pub forwards: u64,
    /// Invalidations sent.
    pub invalidations: u64,
    /// Victim lines evicted.
    pub evictions: u64,
    /// Requests that found their line busy and had to queue.
    pub queued_on_busy: u64,
    /// Total cycles requests spent queued on busy lines (the contention
    /// NoAck reduces, §4.6).
    pub busy_wait_cycles: u64,
    /// Replies whose `L1_DATA_ACK` was self-acknowledged thanks to a
    /// committed complete circuit (§4.6).
    pub self_acked: u64,
}

/// One bank of the shared, inclusive L2 cache, holding the directory for
/// the lines it homes.
#[derive(Debug, Clone)]
pub struct L2Bank {
    node: NodeId,
    cfg: ProtocolConfig,
    /// Where trace events go; disabled by default.
    sink: TraceSink,
    state: L2BankState,
}

/// An [`L2Bank`]'s state (DESIGN.md §13).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct L2BankState {
    array: CacheArray<L2Line>,
    /// The resident lines that are busy or have queued requests, and only
    /// those: an idle line has no entry.
    blocked: StateMap<u64, Blocked>,
    mshrs: StateMap<u64, Mshr>,
    /// Victim blocks written back to memory, with requests that must wait
    /// for the `MEMORY` ack before re-fetching them.
    wb_pending: StateMap<u64, VecDeque<Msg>>,
    /// Ways already promised to in-flight fetches, per set index.
    reserved_ways: StateMap<usize, usize>,
    /// Incoming messages delayed by the bank access latency.
    inbox: VecDeque<(Cycle, Msg)>,
    /// Requests that found no evictable victim; retried every cycle.
    stalled: VecDeque<Msg>,
    stats: L2Stats,
}

impl L2Bank {
    /// An empty bank at `node`.
    ///
    /// # Panics
    ///
    /// Panics for meshes of more than 64 tiles (the sharer set is a
    /// 64-bit mask, enough for the paper's 16- and 64-core chips).
    pub fn new(node: NodeId, topology: Topology, cfg: ProtocolConfig) -> Self {
        assert!(
            topology.nodes() <= 64,
            "sharer bitmask supports up to 64 tiles"
        );
        let state = L2BankState {
            array: CacheArray::new(cfg.l2),
            blocked: StateMap::default(),
            mshrs: StateMap::default(),
            wb_pending: StateMap::default(),
            reserved_ways: StateMap::default(),
            inbox: VecDeque::new(),
            stalled: VecDeque::new(),
            stats: L2Stats::default(),
        };
        let _ = topology;
        Self {
            node,
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
    pub fn stats(&self) -> &L2Stats {
        &self.state.stats
    }

    /// Zeroes the counters (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.state.stats = L2Stats::default();
    }

    /// `true` when no transaction is in flight at this bank.
    pub fn is_quiescent(&self) -> bool {
        self.state.mshrs.is_empty()
            && self.state.wb_pending.is_empty()
            && self.state.inbox.is_empty()
            && self.state.stalled.is_empty()
            && self.state.blocked.is_empty()
    }

    /// Why `block` is busy, if it is.
    fn busy(&self, block: u64) -> Option<Busy> {
        self.state.blocked.get(&block).and_then(|b| b.busy)
    }

    /// Marks `block` busy.
    fn block_on(&mut self, block: u64, busy: Busy) {
        self.state.blocked.entry(block).or_default().busy = Some(busy);
    }

    /// Marks `block` idle, dropping its entry unless requests queue on it.
    fn unblock(&mut self, block: u64) {
        if let Some(blocked) = self.state.blocked.get_mut(&block) {
            blocked.busy = None;
            if blocked.queue.is_empty() {
                self.state.blocked.remove(&block);
            }
        }
    }

    /// The requests waiting on `block`.
    fn queue(&mut self, block: u64) -> &mut VecDeque<Msg> {
        &mut self.state.blocked.entry(block).or_default().queue
    }

    fn proc_latency(&self, class: MessageClass) -> u32 {
        match class {
            MessageClass::L1Request | MessageClass::WbData | MessageClass::MemoryReply => {
                self.cfg.l2_hit_latency
            }
            _ => 1,
        }
    }

    /// Accepts a message addressed to this bank; it takes effect after the
    /// bank access latency (7 cycles for array accesses, 1 for acks).
    pub fn receive(&mut self, msg: Msg, now: Cycle) {
        let ready = now + self.proc_latency(msg.class) as Cycle;
        self.state.inbox.push_back((ready, msg));
    }

    /// `true` when [`L2Bank::tick`] would do any work at `now`: a message
    /// has become due, or a stalled request needs its every-cycle retry.
    /// Used by the event kernel to skip quiescent banks; a bank for which
    /// this is `false` ticks as a no-op, so skipping it cannot change
    /// observable state.
    pub fn has_due_work(&self, now: Cycle) -> bool {
        self.next_due() <= now
    }

    /// The first cycle [`L2Bank::has_due_work`] holds: at once while a
    /// stalled request retries every cycle, else when the inbox's head
    /// becomes due (`Cycle::MAX` for an empty inbox).
    pub fn next_due(&self) -> Cycle {
        if !self.state.stalled.is_empty() {
            return 0;
        }
        self.state
            .inbox
            .front()
            .map_or(Cycle::MAX, |&(ready, _)| ready)
    }

    /// Processes everything that has become due.
    pub fn tick(&mut self, now: Cycle, port: &mut dyn Port) {
        while let Some(&(ready, _)) = self.state.inbox.front() {
            if ready > now {
                break;
            }
            let (_, msg) = self.state.inbox.pop_front().expect("front checked");
            self.process(msg, port);
        }
        // Retry requests that previously found no evictable way.
        for _ in 0..self.state.stalled.len() {
            let msg = self.state.stalled.pop_front().expect("len checked");
            self.on_request(msg, port);
        }
    }

    fn process(&mut self, msg: Msg, port: &mut dyn Port) {
        match msg.class {
            MessageClass::L1Request => self.on_request(msg, port),
            MessageClass::WbData => self.on_wb_data(msg, port),
            MessageClass::L1DataAck => self.on_data_ack(msg, port),
            MessageClass::L1InvAck => self.on_ack_from(msg.src, msg.block, false, 0, port),
            MessageClass::MemoryReply => self.on_mem_reply(msg, port),
            other => panic!("L2 {} received unexpected {other}", self.node),
        }
    }

    fn on_request(&mut self, msg: Msg, port: &mut dyn Port) {
        let block = msg.block;
        if let Some(mshr) = self.state.mshrs.get_mut(&block) {
            self.state.stats.queued_on_busy += 1;
            mshr.queue.push_back(msg);
            return;
        }
        if let Some(q) = self.state.wb_pending.get_mut(&block) {
            self.state.stats.queued_on_busy += 1;
            q.push_back(msg);
            return;
        }
        if self.state.array.peek(block).is_some() {
            if self.busy(block).is_some() {
                self.state.stats.queued_on_busy += 1;
                self.queue(block).push_back(msg);
                return;
            }
            self.serve(msg, port);
        } else {
            self.start_fetch(msg, port);
        }
    }

    /// Serves a request against a present, idle line.
    fn serve(&mut self, msg: Msg, port: &mut dyn Port) {
        let requestor = msg.src;
        let kind = msg.req.expect("L1 requests carry their kind");
        let block = msg.block;
        self.state.stats.hits += 1;
        self.sink.emit(|| TraceEvent {
            cycle: port.now(),
            kind: EventKind::L2Access {
                node: self.node.0,
                block,
                hit: true,
            },
        });
        let line = self
            .state
            .array
            .get_mut(block)
            .expect("serve requires a cached line");

        if line.owner == Some(requestor) {
            if msg.wb_race {
                // The owner's own write-back is racing this request: wait
                // for the data to come home, then serve from the queue.
                self.queue(block).push_front(msg);
                self.block_on(block, Busy::WaitOwnerWb);
                return;
            }
            // The requestor silently dropped its clean Exclusive copy:
            // the directory record is stale and the L2 data is current.
            line.owner = None;
        }
        if let Some(owner) = line.owner {
            self.block_on(
                block,
                Busy::WaitFwdAck {
                    requestor,
                    kind,
                    old_owner: owner,
                    wb_ack_owed: false,
                },
            );
            self.state.stats.forwards += 1;
            port.send(
                Msg::new(MessageClass::FwdRequest, self.node, owner, block)
                    .with_req(kind)
                    .with_requestor(requestor),
                1,
            );
            // The circuit reserved for our reply will never be used (§4.4).
            port.undo_circuit(Msg::circuit_key_for(requestor, block));
            return;
        }

        match kind {
            ReqKind::GetS => {
                let exclusive = line.sharers == 0;
                if exclusive {
                    line.owner = Some(requestor);
                } else {
                    line.sharers |= bit(requestor);
                }
                let data = line.data;
                self.reply_data(requestor, block, data, exclusive, None, port);
            }
            ReqKind::GetX => {
                let others = line.sharers & !bit(requestor);
                if others != 0 {
                    self.block_on(
                        block,
                        Busy::WaitInvAcks {
                            requestor,
                            pending: others,
                        },
                    );
                    for n in nodes_of(others) {
                        self.state.stats.invalidations += 1;
                        port.send(Msg::new(MessageClass::Invalidation, self.node, n, block), 1);
                    }
                } else {
                    line.sharers = 0;
                    line.owner = Some(requestor);
                    let data = line.data;
                    self.reply_data(requestor, block, data, true, None, port);
                }
            }
        }
    }

    /// Sends a data reply and either self-acknowledges (committed complete
    /// circuit + NoAck, §4.6) or blocks the line until the `L1_DATA_ACK`.
    fn reply_data(
        &mut self,
        requestor: NodeId,
        block: u64,
        data: u64,
        exclusive: bool,
        wb_ack_owed: Option<NodeId>,
        port: &mut dyn Port,
    ) {
        let mut reply =
            Msg::new(MessageClass::L2Reply, self.node, requestor, block).with_data(data);
        if exclusive {
            reply = reply.with_exclusive();
        }
        let committed = port.send(reply, 1);
        if committed && self.cfg.eliminate_acks {
            // Delivery over a complete circuit is guaranteed and ordered:
            // acknowledge on the reply's behalf and unblock immediately.
            self.state.stats.self_acked += 1;
            port.record_eliminated_ack();
            self.unblock(block);
            if let Some(owner) = wb_ack_owed {
                port.send(Msg::new(MessageClass::L2WbAck, self.node, owner, block), 1);
            }
            self.drain_line_queue(block, port);
        } else {
            self.block_on(
                block,
                Busy::WaitDataAck {
                    requestor,
                    wb_ack_owed,
                },
            );
        }
    }

    fn on_data_ack(&mut self, msg: Msg, port: &mut dyn Port) {
        let block = msg.block;
        // Each reply or forward is delivered once and acked once, and its
        // line stays busy until that ack: an ack always finds its line
        // waiting for it.
        match self.busy(block) {
            Some(Busy::WaitDataAck {
                requestor,
                wb_ack_owed,
            }) if requestor == msg.src => {
                self.unblock(block);
                if let Some(owner) = wb_ack_owed {
                    port.send(Msg::new(MessageClass::L2WbAck, self.node, owner, block), 1);
                }
            }
            Some(Busy::WaitFwdAck {
                requestor,
                kind,
                old_owner,
                wb_ack_owed,
            }) if requestor == msg.src => {
                let line = self
                    .state
                    .array
                    .peek_mut(block)
                    .expect("a busy line is cached");
                match kind {
                    ReqKind::GetS => {
                        line.owner = None;
                        line.sharers |= bit(old_owner) | bit(requestor);
                    }
                    ReqKind::GetX => {
                        line.owner = Some(requestor);
                        line.sharers = 0;
                    }
                }
                self.unblock(block);
                if wb_ack_owed {
                    port.send(
                        Msg::new(MessageClass::L2WbAck, self.node, old_owner, block),
                        1,
                    );
                }
            }
            other => {
                debug_assert!(
                    false,
                    "L2 {} ack from {} for line {block:#x} in state {other:?}",
                    self.node, msg.src
                );
                return;
            }
        }
        self.drain_line_queue(block, port);
    }

    /// A node answered an invalidation — with a plain ack, or with its
    /// dirty data (`with_data == true`).
    fn on_ack_from(
        &mut self,
        from: NodeId,
        block: u64,
        with_data: bool,
        data: u64,
        port: &mut dyn Port,
    ) {
        let busy = self.busy(block);
        let Some(line) = self.state.array.peek_mut(block) else {
            // A late plain ack: the owner's write-back crossed this
            // eviction's invalidation, answered it (`on_wb_data`) and the
            // eviction completed; the invalidation then found the line
            // gone from the L1, which acks anyway
            // (`races.rs::write_back_crossing_an_eviction_is_acked_late`).
            return;
        };
        match busy {
            Some(Busy::WaitInvAcks { requestor, pending }) => {
                let pending = pending & !bit(from);
                if with_data {
                    line.data = data;
                    line.dirty = true;
                }
                if pending == 0 {
                    line.sharers = 0;
                    line.owner = Some(requestor);
                    let data = line.data;
                    self.reply_data(requestor, block, data, true, None, port);
                } else {
                    self.block_on(block, Busy::WaitInvAcks { requestor, pending });
                }
            }
            Some(Busy::Evicting { pending, fetch_for }) => {
                let pending = pending & !bit(from);
                if with_data {
                    line.data = data;
                    line.dirty = true;
                }
                if pending == 0 {
                    self.finish_eviction(block, fetch_for, port);
                } else {
                    self.block_on(block, Busy::Evicting { pending, fetch_for });
                }
            }
            Some(Busy::WaitFwdAck {
                requestor,
                kind,
                old_owner,
                wb_ack_owed,
            }) if !with_data && from == old_owner => {
                // The forward found nothing: the owner had silently
                // dropped its clean copy. The L2 data is current — serve
                // the requestor directly.
                debug_assert!(!wb_ack_owed, "a received WB contradicts a stale forward");
                line.owner = None;
                let retry =
                    Msg::new(MessageClass::L1Request, requestor, self.node, block).with_req(kind);
                self.queue(block).push_front(retry);
                self.unblock(block);
                self.drain_line_queue(block, port);
            }
            _ if !with_data => {
                // The same late ack, once the line is back and idle or
                // busy on another transaction.
            }
            other => panic!(
                "L2 {} inv response for line {block:#x} in state {other:?}",
                self.node
            ),
        }
    }

    fn on_wb_data(&mut self, msg: Msg, port: &mut dyn Port) {
        let block = msg.block;
        let from = msg.src;
        let busy = self.busy(block);
        let Some(line) = self.state.array.peek_mut(block) else {
            panic!(
                "L2 {} write-back for absent line {block:#x} (inclusion violated)",
                self.node
            );
        };
        match busy {
            // A write-back is only *current* while the directory still
            // regards the writer as the owner; anything else is a stale
            // WB that lost a race to an ownership transfer — its data
            // must be discarded (the line has moved on), but the writer's
            // WB buffer still needs its ack (final catch-all arm).
            None if line.owner == Some(from) => {
                line.data = msg.data;
                line.dirty = true;
                line.owner = None;
                port.send(Msg::new(MessageClass::L2WbAck, self.node, from, block), 1);
            }
            Some(Busy::WaitOwnerWb) if line.owner == Some(from) => {
                line.data = msg.data;
                line.dirty = true;
                line.owner = None;
                self.unblock(block);
                port.send(Msg::new(MessageClass::L2WbAck, self.node, from, block), 1);
                self.drain_line_queue(block, port);
            }
            Some(Busy::WaitFwdAck {
                requestor,
                kind,
                old_owner,
                ..
            }) if old_owner == from => {
                // Either the owner's eviction racing our forward, or the
                // dirty-downgrade sync of a GetS forward. Absorb the data;
                // the WB ack is deferred until the forward completes so the
                // owner can still serve the forward from its WB buffer.
                line.data = msg.data;
                line.dirty = true;
                self.block_on(
                    block,
                    Busy::WaitFwdAck {
                        requestor,
                        kind,
                        old_owner,
                        wb_ack_owed: true,
                    },
                );
            }
            Some(Busy::WaitDataAck {
                requestor,
                wb_ack_owed,
            }) if requestor == from => {
                // The new owner evicted before its ack arrived (reply-VN /
                // request-VN reordering). Absorb and defer the WB ack.
                debug_assert!(wb_ack_owed.is_none());
                line.data = msg.data;
                line.dirty = true;
                if line.owner == Some(from) {
                    line.owner = None;
                }
                self.block_on(
                    block,
                    Busy::WaitDataAck {
                        requestor,
                        wb_ack_owed: Some(from),
                    },
                );
            }
            Some(Busy::Evicting { pending, .. }) | Some(Busy::WaitInvAcks { pending, .. })
                if pending & bit(from) != 0 =>
            {
                // Dirty data arriving as the response to an invalidation.
                port.send(Msg::new(MessageClass::L2WbAck, self.node, from, block), 1);
                self.on_ack_from(from, block, true, msg.data, port);
            }
            _ => {
                // The writer evicted the line while a forward to it was in
                // flight and served the forward from its write-back buffer;
                // the requestor's ack completed the forward before this
                // write-back arrived. Discard the data, release the
                // writer's buffer.
                port.send(Msg::new(MessageClass::L2WbAck, self.node, from, block), 1);
            }
        }
    }

    /// Serves the requests queued on `block` while it stays idle.
    fn drain_line_queue(&mut self, block: u64, port: &mut dyn Port) {
        loop {
            let Some(blocked) = self.state.blocked.get_mut(&block) else {
                return;
            };
            if blocked.busy.is_some() {
                return;
            }
            let msg = blocked
                .queue
                .pop_front()
                .expect("an idle line keeps its entry only while requests queue");
            if blocked.queue.is_empty() {
                self.state.blocked.remove(&block);
            }
            self.state.stats.busy_wait_cycles += 1;
            self.serve(msg, port);
        }
    }

    /// Begins fetching an absent line from memory, evicting a victim if
    /// the set is full.
    fn start_fetch(&mut self, msg: Msg, port: &mut dyn Port) {
        let block = msg.block;
        self.state.stats.misses += 1;
        self.sink.emit(|| TraceEvent {
            cycle: port.now(),
            kind: EventKind::L2Access {
                node: self.node.0,
                block,
                hit: false,
            },
        });
        if self.cfg.undo_on_l2_miss {
            // §4.4 ablation: release the circuit while the request goes to
            // memory (the paper found keeping it performs better).
            port.undo_circuit(Msg::circuit_key_for(msg.src, block));
        }
        let set = self.state.array.set_of(block);
        let reserved = self.state.reserved_ways.get(&set).copied().unwrap_or(0);
        if self.state.array.free_ways(block) > reserved {
            *self.state.reserved_ways.entry(set).or_insert(0) += 1;
            self.state.mshrs.insert(
                block,
                Mshr {
                    evicting_victim: None,
                    queue: VecDeque::from([msg]),
                },
            );
            self.fetch_from_memory(block, port);
            return;
        }
        // Pick a victim. Preference order: (1) the PLRU choice if idle and
        // without L1 copies, (2) any idle line without L1 copies — this
        // avoids inclusion victims, i.e. invalidating lines that are hot
        // in an L1 but invisible to the L2's recency — then (3) the idle
        // PLRU choice, (4) any idle line.
        let victim = {
            let plru = self.state.array.victim_for(block);
            let idle = |b: &u64| !self.state.blocked.contains_key(b);
            let uncopied = |b: &u64| {
                self.state
                    .array
                    .peek(*b)
                    .is_some_and(|l| l.sharers == 0 && l.owner.is_none())
            };
            plru.filter(|b| idle(b) && uncopied(b))
                .or_else(|| {
                    self.state
                        .array
                        .set_blocks(block)
                        .into_iter()
                        .find(|b| idle(b) && uncopied(b))
                })
                .or_else(|| plru.filter(idle))
                .or_else(|| self.state.array.set_blocks(block).into_iter().find(idle))
        };
        let Some(victim) = victim else {
            // Every line in the set is mid-transaction: retry next cycle.
            self.state.stats.misses -= 1;
            self.state.stalled.push_back(msg);
            return;
        };
        self.state.stats.evictions += 1;
        let vline = self.state.array.peek(victim).expect("victim cached");
        let copies = vline.sharers | vline.owner.map_or(0, bit);
        if copies == 0 {
            // No L1 copies: evict immediately.
            self.state.mshrs.insert(
                block,
                Mshr {
                    evicting_victim: None,
                    queue: VecDeque::from([msg]),
                },
            );
            *self.state.reserved_ways.entry(set).or_insert(0) += 1;
            let queued = self.drop_victim(victim, port);
            debug_assert!(queued.is_empty(), "an idle victim has no queue");
            self.fetch_from_memory(block, port);
        } else {
            self.block_on(
                victim,
                Busy::Evicting {
                    pending: copies,
                    fetch_for: block,
                },
            );
            self.state.mshrs.insert(
                block,
                Mshr {
                    evicting_victim: Some(victim),
                    queue: VecDeque::from([msg]),
                },
            );
            for n in nodes_of(copies) {
                self.state.stats.invalidations += 1;
                port.send(
                    Msg::new(MessageClass::Invalidation, self.node, n, victim),
                    1,
                );
            }
        }
    }

    /// Removes a victim whose L1 copies are gone, writing dirty data back
    /// to memory, and returns the requests that queued on it while it was
    /// evicting.
    fn drop_victim(&mut self, victim: u64, port: &mut dyn Port) -> VecDeque<Msg> {
        let line = self.state.array.remove(victim).expect("victim cached");
        let queued = (self.state.blocked.remove(&victim)).map_or_else(VecDeque::new, |b| b.queue);
        if line.dirty {
            self.state.wb_pending.insert(victim, VecDeque::new());
            port.send(
                Msg::new(
                    MessageClass::MemWbData,
                    self.node,
                    self.cfg.memory_controller(victim),
                    victim,
                )
                .with_data(line.data),
                self.cfg.mem_latency,
            );
        }
        queued
    }

    /// Drops the evicted `victim` and starts the fetch it made room for.
    /// Requests that queued on the victim meanwhile start over, now that
    /// it is gone (behind its write-back, if it was dirty).
    fn finish_eviction(&mut self, victim: u64, fetch_for: u64, port: &mut dyn Port) {
        let set = self.state.array.set_of(fetch_for);
        *self.state.reserved_ways.entry(set).or_insert(0) += 1;
        let queued = self.drop_victim(victim, port);
        let mshr = self
            .state
            .mshrs
            .get_mut(&fetch_for)
            .expect("fetch waiting on eviction");
        mshr.evicting_victim = None;
        self.fetch_from_memory(fetch_for, port);
        for msg in queued {
            self.on_request(msg, port);
        }
    }

    fn fetch_from_memory(&mut self, block: u64, port: &mut dyn Port) {
        port.send(
            Msg::new(
                MessageClass::MemRequest,
                self.node,
                self.cfg.memory_controller(block),
                block,
            ),
            self.cfg.mem_latency,
        );
    }

    fn on_mem_reply(&mut self, msg: Msg, port: &mut dyn Port) {
        let block = msg.block;
        if let Some(mshr) = self.state.mshrs.remove(&block) {
            debug_assert!(mshr.evicting_victim.is_none(), "fetch before eviction done");
            let set = self.state.array.set_of(block);
            let r = self
                .state
                .reserved_ways
                .get_mut(&set)
                .expect("way was reserved");
            *r -= 1;
            if *r == 0 {
                self.state.reserved_ways.remove(&set);
            }
            let evicted = self.state.array.insert(block, L2Line::fresh(msg.data));
            assert!(evicted.is_none(), "reserved way was taken");
            for msg in mshr.queue {
                self.on_request(msg, port);
            }
        } else if let Some(waiters) = self.state.wb_pending.remove(&block) {
            // The MEMORY ack for a victim write-back; deferred requests
            // can now re-fetch the block.
            for msg in waiters {
                self.on_request(msg, port);
            }
        } else {
            // Memory answers each fetch and write-back once.
            debug_assert!(
                false,
                "L2 {} memory reply for {block:#x} nobody awaits",
                self.node
            );
        }
    }

    /// Directory view of a block, for invariant checks:
    /// `(owner, sharer_mask)` when cached.
    pub fn probe(&self, block: u64) -> Option<(Option<NodeId>, u64)> {
        self.state.array.peek(block).map(|l| (l.owner, l.sharers))
    }
}

rcsim_core::stateful!(L2Bank => L2BankState);

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::circuit::CircuitKey;

    struct TestPort {
        now: Cycle,
        sent: Vec<Msg>,
        commit_replies: bool,
        undone: Vec<CircuitKey>,
        eliminated: u64,
    }

    impl TestPort {
        fn new() -> Self {
            Self {
                now: 0,
                sent: Vec::new(),
                commit_replies: false,
                undone: Vec::new(),
                eliminated: 0,
            }
        }
        fn take(&mut self) -> Vec<Msg> {
            std::mem::take(&mut self.sent)
        }
    }

    impl Port for TestPort {
        fn now(&self) -> Cycle {
            self.now
        }
        fn send(&mut self, msg: Msg, _turnaround: u32) -> bool {
            let commit = self.commit_replies && msg.class == MessageClass::L2Reply;
            self.sent.push(msg);
            commit
        }
        fn undo_circuit(&mut self, key: CircuitKey) {
            self.undone.push(key);
        }
        fn record_eliminated_ack(&mut self) {
            self.eliminated += 1;
        }
    }

    fn bank() -> (L2Bank, TestPort) {
        let mesh = Topology::mesh(4, 4).unwrap();
        let cfg = ProtocolConfig::small_for_tests(&mesh);
        (L2Bank::new(NodeId(0), mesh, cfg), TestPort::new())
    }

    /// Runs the bank until its inbox is empty.
    fn settle(l2: &mut L2Bank, p: &mut TestPort) {
        for _ in 0..50 {
            p.now += 1;
            l2.tick(p.now, p);
        }
    }

    fn gets(from: u16, block: u64) -> Msg {
        Msg::new(MessageClass::L1Request, NodeId(from), NodeId(0), block).with_req(ReqKind::GetS)
    }

    fn getx(from: u16, block: u64) -> Msg {
        Msg::new(MessageClass::L1Request, NodeId(from), NodeId(0), block).with_req(ReqKind::GetX)
    }

    fn ack(from: u16, block: u64) -> Msg {
        Msg::new(MessageClass::L1DataAck, NodeId(from), NodeId(0), block)
    }

    fn mem_reply(l2: &L2Bank, block: u64, data: u64) -> Msg {
        Msg::new(
            MessageClass::MemoryReply,
            l2.cfg.memory_controller(block),
            NodeId(0),
            block,
        )
        .with_data(data)
    }

    /// Cold GetS: fetch from memory, exclusive grant, ack unblocks.
    #[test]
    fn cold_miss_goes_to_memory_and_grants_exclusive() {
        let (mut l2, mut p) = bank();
        l2.receive(gets(3, 0x100), 0);
        settle(&mut l2, &mut p);
        let sent = p.take();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].class, MessageClass::MemRequest);
        assert_eq!(l2.stats().misses, 1);

        l2.receive(mem_reply(&l2, 0x100, 42), p.now);
        settle(&mut l2, &mut p);
        let sent = p.take();
        assert_eq!(sent.len(), 1);
        let r = &sent[0];
        assert_eq!(
            (r.class, r.dst, r.data),
            (MessageClass::L2Reply, NodeId(3), 42)
        );
        assert!(r.exclusive, "sole requestor gets Exclusive");
        assert_eq!(l2.probe(0x100), Some((Some(NodeId(3)), 0)));

        // Line is busy until the ack.
        l2.receive(gets(5, 0x100), p.now);
        settle(&mut l2, &mut p);
        assert!(
            p.take().is_empty(),
            "second request queues behind the busy line"
        );
        l2.receive(ack(3, 0x100), p.now);
        settle(&mut l2, &mut p);
        // Now the queued GetS is served: owner 3 gets a forward.
        let sent = p.take();
        assert_eq!(sent[0].class, MessageClass::FwdRequest);
        assert_eq!(sent[0].dst, NodeId(3));
        assert_eq!(sent[0].requestor, Some(NodeId(5)));
        assert_eq!(p.undone, vec![Msg::circuit_key_for(NodeId(5), 0x100)]);
    }

    #[test]
    fn second_sharer_gets_shared_data() {
        let (mut l2, mut p) = bank();
        l2.receive(gets(3, 0x100), 0);
        settle(&mut l2, &mut p);
        l2.receive(mem_reply(&l2, 0x100, 1), p.now);
        settle(&mut l2, &mut p);
        l2.receive(ack(3, 0x100), p.now);
        settle(&mut l2, &mut p);
        p.take();

        // Forward flow: 5 requests, 3 owns E.
        l2.receive(gets(5, 0x100), p.now);
        settle(&mut l2, &mut p);
        p.take();
        // Requestor 5 acks after receiving L1_TO_L1.
        l2.receive(ack(5, 0x100), p.now);
        settle(&mut l2, &mut p);
        assert_eq!(
            l2.probe(0x100),
            Some((None, bit(NodeId(3)) | bit(NodeId(5))))
        );

        // A third GetS is now served directly from the bank, Shared.
        l2.receive(gets(7, 0x100), p.now);
        settle(&mut l2, &mut p);
        let sent = p.take();
        assert_eq!(sent[0].class, MessageClass::L2Reply);
        assert!(!sent[0].exclusive);
    }

    #[test]
    fn getx_invalidates_sharers_then_replies() {
        let (mut l2, mut p) = bank();
        // Install sharers 3 and 5 (via cold fetch + downgrades shortcut:
        // drive the protocol messages directly).
        l2.receive(gets(3, 0x100), 0);
        settle(&mut l2, &mut p);
        l2.receive(mem_reply(&l2, 0x100, 1), p.now);
        settle(&mut l2, &mut p);
        l2.receive(ack(3, 0x100), p.now);
        settle(&mut l2, &mut p);
        l2.receive(gets(5, 0x100), p.now);
        settle(&mut l2, &mut p);
        l2.receive(ack(5, 0x100), p.now);
        settle(&mut l2, &mut p);
        p.take();

        // Node 7 writes: sharers 3 and 5 must be invalidated first.
        l2.receive(getx(7, 0x100), p.now);
        settle(&mut l2, &mut p);
        let sent = p.take();
        let invs: Vec<_> = sent
            .iter()
            .filter(|m| m.class == MessageClass::Invalidation)
            .map(|m| m.dst)
            .collect();
        assert_eq!(invs.len(), 2);
        assert!(invs.contains(&NodeId(3)) && invs.contains(&NodeId(5)));
        assert!(
            !sent.iter().any(|m| m.class == MessageClass::L2Reply),
            "reply waits for the acks"
        );

        l2.receive(
            Msg::new(MessageClass::L1InvAck, NodeId(3), NodeId(0), 0x100),
            p.now,
        );
        settle(&mut l2, &mut p);
        assert!(p.take().is_empty());
        l2.receive(
            Msg::new(MessageClass::L1InvAck, NodeId(5), NodeId(0), 0x100),
            p.now,
        );
        settle(&mut l2, &mut p);
        let sent = p.take();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].class, MessageClass::L2Reply);
        assert!(sent[0].exclusive);
        l2.receive(ack(7, 0x100), p.now);
        settle(&mut l2, &mut p);
        assert_eq!(l2.probe(0x100), Some((Some(NodeId(7)), 0)));
    }

    /// A GetX that invalidates sharers keeps its line, and only it, in
    /// `blocked` through the invalidation acks and the requestor's data
    /// ack; the last ack empties the map, and the bank is quiescent.
    #[test]
    fn getx_holds_its_line_in_blocked_until_the_last_ack() {
        let (mut l2, mut p) = bank();
        for (node, block) in [(3, 0x100), (5, 0x100), (9, 0x140)] {
            l2.receive(gets(node, block), p.now);
            settle(&mut l2, &mut p);
            if p.sent.iter().any(|m| m.class == MessageClass::MemRequest) {
                l2.receive(mem_reply(&l2, block, 1), p.now);
                settle(&mut l2, &mut p);
            }
            l2.receive(ack(node, block), p.now);
            settle(&mut l2, &mut p);
            p.take();
        }
        assert!(l2.is_quiescent() && l2.state.blocked.is_empty());

        let blocked = |l2: &L2Bank| -> Vec<(u64, Option<Busy>)> {
            l2.state.blocked.iter().map(|(&b, e)| (b, e.busy)).collect()
        };
        l2.receive(getx(7, 0x100), p.now);
        settle(&mut l2, &mut p);
        let waiting = |pending: u64| Busy::WaitInvAcks {
            requestor: NodeId(7),
            pending,
        };
        let both = bit(NodeId(3)) | bit(NodeId(5));
        assert_eq!(blocked(&l2), [(0x100, Some(waiting(both)))]);
        let inv_ack = |from| Msg::new(MessageClass::L1InvAck, NodeId(from), NodeId(0), 0x100);
        l2.receive(inv_ack(3), p.now);
        settle(&mut l2, &mut p);
        assert_eq!(blocked(&l2), [(0x100, Some(waiting(bit(NodeId(5)))))]);
        l2.receive(inv_ack(5), p.now);
        settle(&mut l2, &mut p);
        let data_ack = Busy::WaitDataAck {
            requestor: NodeId(7),
            wb_ack_owed: None,
        };
        assert_eq!(blocked(&l2), [(0x100, Some(data_ack))]);
        assert!(!l2.is_quiescent());
        l2.receive(ack(7, 0x100), p.now);
        settle(&mut l2, &mut p);
        assert!(l2.state.blocked.is_empty() && l2.is_quiescent());
        assert_eq!(l2.probe(0x100), Some((Some(NodeId(7)), 0)));
    }

    #[test]
    fn noack_self_acknowledges_committed_replies() {
        let (mut l2, mut p) = bank();
        l2.cfg.eliminate_acks = true;
        p.commit_replies = true;
        l2.receive(gets(3, 0x100), 0);
        settle(&mut l2, &mut p);
        l2.receive(mem_reply(&l2, 0x100, 1), p.now);
        settle(&mut l2, &mut p);
        p.take();
        assert_eq!(p.eliminated, 1);
        assert_eq!(l2.stats().self_acked, 1);
        // Line is immediately serviceable — no ack needed.
        l2.receive(gets(5, 0x100), p.now);
        settle(&mut l2, &mut p);
        let sent = p.take();
        assert_eq!(
            sent[0].class,
            MessageClass::FwdRequest,
            "line was not blocked"
        );
    }

    #[test]
    fn writeback_absorbed_and_acked() {
        let (mut l2, mut p) = bank();
        l2.receive(gets(3, 0x100), 0);
        settle(&mut l2, &mut p);
        l2.receive(mem_reply(&l2, 0x100, 1), p.now);
        settle(&mut l2, &mut p);
        l2.receive(ack(3, 0x100), p.now);
        settle(&mut l2, &mut p);
        p.take();

        let wb = Msg::new(MessageClass::WbData, NodeId(3), NodeId(0), 0x100).with_data(99);
        l2.receive(wb, p.now);
        settle(&mut l2, &mut p);
        let sent = p.take();
        assert_eq!(sent.len(), 1);
        assert_eq!(
            (sent[0].class, sent[0].dst),
            (MessageClass::L2WbAck, NodeId(3))
        );
        assert_eq!(l2.probe(0x100), Some((None, 0)));
    }

    #[test]
    fn owner_rerequest_waits_for_its_writeback() {
        let (mut l2, mut p) = bank();
        // 3 owns 0x100 exclusively.
        l2.receive(gets(3, 0x100), 0);
        settle(&mut l2, &mut p);
        l2.receive(mem_reply(&l2, 0x100, 1), p.now);
        settle(&mut l2, &mut p);
        l2.receive(ack(3, 0x100), p.now);
        settle(&mut l2, &mut p);
        p.take();

        // 3 evicted it (dirty) and re-requests; the GetS overtook the
        // WbData, and says so.
        l2.receive(gets(3, 0x100).with_wb_race(), p.now);
        settle(&mut l2, &mut p);
        assert!(p.take().is_empty(), "bank waits for the write-back");

        let wb = Msg::new(MessageClass::WbData, NodeId(3), NodeId(0), 0x100).with_data(7);
        l2.receive(wb, p.now);
        settle(&mut l2, &mut p);
        let sent = p.take();
        let classes: Vec<_> = sent.iter().map(|m| m.class).collect();
        assert!(classes.contains(&MessageClass::L2WbAck));
        let reply = sent
            .iter()
            .find(|m| m.class == MessageClass::L2Reply)
            .unwrap();
        assert_eq!(reply.data, 7, "re-fetch sees the written-back data");
    }

    #[test]
    fn eviction_invalidates_l1_copies_before_reuse() {
        let (mut l2, mut p) = bank();
        // Fill all 8 ways of set 0 with owned lines (blocks ≡ 0 mod 64).
        let set_stride = (l2.cfg.l2.sets * l2.cfg.l2.interleave) as u64;
        for i in 0..8u64 {
            let b = 0x1000 + i * set_stride;
            l2.receive(gets((i + 1) as u16, b), p.now);
            settle(&mut l2, &mut p);
            l2.receive(mem_reply(&l2, b, i), p.now);
            settle(&mut l2, &mut p);
            l2.receive(ack((i + 1) as u16, b), p.now);
            settle(&mut l2, &mut p);
        }
        p.take();
        // A ninth block in the same set forces an eviction.
        let b9 = 0x1000 + 8 * set_stride;
        l2.receive(gets(12, b9), p.now);
        settle(&mut l2, &mut p);
        let sent = p.take();
        let inv = sent
            .iter()
            .find(|m| m.class == MessageClass::Invalidation)
            .unwrap();
        assert!(
            !sent.iter().any(|m| m.class == MessageClass::MemRequest),
            "fetch must wait until the victim's L1 copy is invalidated"
        );
        // The owner answers (clean): eviction completes, fetch proceeds.
        let victim = inv.block;
        let owner = inv.dst;
        l2.receive(
            Msg::new(MessageClass::L1InvAck, owner, NodeId(0), victim),
            p.now,
        );
        settle(&mut l2, &mut p);
        let sent = p.take();
        assert!(sent
            .iter()
            .any(|m| m.class == MessageClass::MemRequest && m.block == b9));
        assert!(l2.probe(victim).is_none());
    }

    #[test]
    fn silent_drop_rerequest_served_directly() {
        let (mut l2, mut p) = bank();
        l2.receive(gets(3, 0x100), 0);
        settle(&mut l2, &mut p);
        l2.receive(mem_reply(&l2, 0x100, 9), p.now);
        settle(&mut l2, &mut p);
        l2.receive(ack(3, 0x100), p.now);
        settle(&mut l2, &mut p);
        p.take();
        // 3 silently dropped its clean Exclusive copy and asks again
        // (no wb_race flag): the bank serves from its current data.
        l2.receive(gets(3, 0x100), p.now);
        settle(&mut l2, &mut p);
        let sent = p.take();
        let r = sent
            .iter()
            .find(|m| m.class == MessageClass::L2Reply)
            .unwrap();
        assert_eq!(r.data, 9);
        assert!(r.exclusive);
    }

    #[test]
    fn stale_forward_recovers_from_l2_copy() {
        let (mut l2, mut p) = bank();
        l2.receive(gets(3, 0x100), 0);
        settle(&mut l2, &mut p);
        l2.receive(mem_reply(&l2, 0x100, 9), p.now);
        settle(&mut l2, &mut p);
        l2.receive(ack(3, 0x100), p.now);
        settle(&mut l2, &mut p);
        p.take();
        // 5 requests; the bank forwards to owner 3, which has silently
        // dropped the line and answers with an inv-ack "not here".
        l2.receive(gets(5, 0x100), p.now);
        settle(&mut l2, &mut p);
        assert!(p.take().iter().any(|m| m.class == MessageClass::FwdRequest));
        l2.receive(
            Msg::new(MessageClass::L1InvAck, NodeId(3), NodeId(0), 0x100),
            p.now,
        );
        settle(&mut l2, &mut p);
        let sent = p.take();
        let r = sent
            .iter()
            .find(|m| m.class == MessageClass::L2Reply)
            .unwrap();
        assert_eq!((r.dst, r.data), (NodeId(5), 9));
    }

    #[test]
    fn undo_on_l2_miss_ablation() {
        let (mut l2, mut p) = bank();
        l2.cfg.undo_on_l2_miss = true;
        l2.receive(gets(3, 0x100), 0);
        settle(&mut l2, &mut p);
        assert_eq!(p.undone, vec![Msg::circuit_key_for(NodeId(3), 0x100)]);
    }
}
