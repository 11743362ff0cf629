//! Memory controllers: fixed-latency backing store (160 cycles, Table 2).

use crate::msg::{Msg, Port};
use rcsim_core::{Cycle, MessageClass, NodeId, StateMap};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Per-controller counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Line reads served.
    pub reads: u64,
    /// Line write-backs absorbed.
    pub writes: u64,
}

/// One memory controller tile: a flat backing store answering after the
/// configured latency. Both fetches and write-back acks come back as
/// `MEMORY` replies (Table 3), which are circuit-eligible.
#[derive(Debug, Clone)]
pub struct MemoryController {
    node: NodeId,
    latency: u32,
    state: MemoryState,
}

/// A [`MemoryController`]'s state (DESIGN.md §15).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MemoryState {
    store: StateMap<u64, u64>,
    pending: VecDeque<(Cycle, Msg)>,
    stats: MemStats,
}

impl MemoryController {
    /// A controller at `node` with the given access latency.
    pub fn new(node: NodeId, latency: u32) -> Self {
        Self {
            node,
            latency,
            state: MemoryState::default(),
        }
    }

    /// Event counters.
    pub fn stats(&self) -> &MemStats {
        &self.state.stats
    }

    /// Zeroes the counters (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.state.stats = MemStats::default();
    }

    /// `true` when no access is in flight.
    pub fn is_quiescent(&self) -> bool {
        self.state.pending.is_empty()
    }

    /// The stored content of a line (0 if never written), for invariant
    /// checks.
    pub fn peek(&self, block: u64) -> u64 {
        self.state.store.get(&block).copied().unwrap_or(0)
    }

    /// Accepts a request; the reply is produced `latency` cycles later.
    pub fn receive(&mut self, msg: Msg, now: Cycle) {
        debug_assert!(matches!(
            msg.class,
            MessageClass::MemRequest | MessageClass::MemWbData
        ));
        self.state
            .pending
            .push_back((now + self.latency as Cycle, msg));
    }

    /// `true` when [`MemoryController::tick`] would emit a reply at `now`.
    /// Used by the event kernel to skip idle controllers; ticking when this
    /// is `false` is a no-op, so skipping cannot change observable state.
    pub fn has_due_work(&self, now: Cycle) -> bool {
        self.next_due() <= now
    }

    /// The first cycle [`MemoryController::has_due_work`] holds
    /// (`Cycle::MAX` with nothing pending).
    pub fn next_due(&self) -> Cycle {
        let head = self.state.pending.front();
        head.map_or(Cycle::MAX, |&(ready, _)| ready)
    }

    /// Emits due replies.
    pub fn tick(&mut self, now: Cycle, port: &mut dyn Port) {
        while let Some(&(ready, _)) = self.state.pending.front() {
            if ready > now {
                break;
            }
            let (_, msg) = self.state.pending.pop_front().expect("front checked");
            match msg.class {
                MessageClass::MemRequest => {
                    self.state.stats.reads += 1;
                    let data = self.peek(msg.block);
                    port.send(
                        Msg::new(MessageClass::MemoryReply, self.node, msg.src, msg.block)
                            .with_data(data),
                        1,
                    );
                }
                MessageClass::MemWbData => {
                    self.state.stats.writes += 1;
                    self.state.store.insert(msg.block, msg.data);
                    // The ack is a single-flit MEMORY reply.
                    port.send(
                        Msg::new(MessageClass::MemoryReply, self.node, msg.src, msg.block)
                            .with_short(),
                        1,
                    );
                }
                other => panic!("memory controller got {other}"),
            }
        }
    }

    /// The state, for checkpointing.
    pub fn snapshot(&self) -> MemoryState {
        self.state.clone()
    }

    /// Overwrites the state with a [`MemoryController::snapshot`] of an
    /// identically-configured controller.
    pub fn restore(&mut self, state: MemoryState) {
        self.state = state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::circuit::CircuitKey;

    struct TestPort {
        now: Cycle,
        sent: Vec<Msg>,
    }
    impl Port for TestPort {
        fn now(&self) -> Cycle {
            self.now
        }
        fn send(&mut self, msg: Msg, _t: u32) -> bool {
            self.sent.push(msg);
            false
        }
        fn undo_circuit(&mut self, _k: CircuitKey) {}
        fn record_eliminated_ack(&mut self) {}
    }

    #[test]
    fn read_after_latency() {
        let mut mc = MemoryController::new(NodeId(0), 160);
        let mut p = TestPort {
            now: 0,
            sent: vec![],
        };
        mc.receive(
            Msg::new(MessageClass::MemRequest, NodeId(5), NodeId(0), 0x40),
            0,
        );
        mc.tick(159, &mut p);
        assert!(p.sent.is_empty(), "not before the latency elapses");
        mc.tick(160, &mut p);
        assert_eq!(p.sent.len(), 1);
        assert_eq!(p.sent[0].class, MessageClass::MemoryReply);
        assert_eq!(p.sent[0].dst, NodeId(5));
        assert!(mc.is_quiescent());
    }

    #[test]
    fn write_then_read_returns_data() {
        let mut mc = MemoryController::new(NodeId(0), 10);
        let mut p = TestPort {
            now: 0,
            sent: vec![],
        };
        mc.receive(
            Msg::new(MessageClass::MemWbData, NodeId(5), NodeId(0), 0x40).with_data(77),
            0,
        );
        mc.tick(10, &mut p);
        assert_eq!(mc.peek(0x40), 77);
        mc.receive(
            Msg::new(MessageClass::MemRequest, NodeId(6), NodeId(0), 0x40),
            10,
        );
        mc.tick(20, &mut p);
        assert_eq!(p.sent.last().unwrap().data, 77);
        assert_eq!(mc.stats().reads, 1);
        assert_eq!(mc.stats().writes, 1);
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let mc = MemoryController::new(NodeId(0), 10);
        assert_eq!(mc.peek(0x1234), 0);
    }
}
