//! Protocol race tests: L1s, an L2 bank and a memory controller wired
//! through an in-memory message queue with configurable delays, driving
//! the transaction interleavings the state machines must survive
//! (write-back vs forward, upgrade vs invalidation, stale owners).

use rcsim_core::circuit::CircuitKey;
use rcsim_core::{Cycle, MessageClass, NodeId, Topology};
use rcsim_protocol::{
    Access, CacheConfig, L1Cache, L2Bank, MemoryController, Msg, Port, ProtocolConfig,
};
use std::collections::VecDeque;

/// A latency wire: every send arrives `delay` cycles later.
struct Wire {
    now: Cycle,
    delay: Cycle,
    in_flight: VecDeque<(Cycle, Msg)>,
}

impl Port for Wire {
    fn now(&self) -> Cycle {
        self.now
    }
    fn send(&mut self, msg: Msg, _turnaround: u32) -> bool {
        self.in_flight.push_back((self.now + self.delay, msg));
        false
    }
    fn undo_circuit(&mut self, _key: CircuitKey) {}
    fn record_eliminated_ack(&mut self) {}
}

/// One tile-less test cluster: the home L2 bank lives at node 0 and owns
/// every block (single-bank world: all addresses are multiples of the
/// node count); L1s at nodes 0..cores; one MC.
struct Cluster {
    mesh: Topology,
    l1s: Vec<L1Cache>,
    l2: L2Bank,
    mc: MemoryController,
    wire: Wire,
}

impl Cluster {
    fn new(cores: usize, delay: Cycle) -> Self {
        let mesh = Topology::mesh(4, 4).unwrap();
        Self::with_config(cores, delay, ProtocolConfig::small_for_tests(&mesh))
    }

    fn with_config(cores: usize, delay: Cycle, cfg: ProtocolConfig) -> Self {
        let mesh = Topology::mesh(4, 4).unwrap();
        Cluster {
            mesh,
            l1s: (0..cores)
                .map(|i| L1Cache::new(NodeId(i as u16), mesh, cfg.clone()))
                .collect(),
            l2: L2Bank::new(NodeId(0), mesh, cfg.clone()),
            mc: MemoryController::new(cfg.mc_tiles[0], 10),
            wire: Wire {
                now: 0,
                delay,
                in_flight: VecDeque::new(),
            },
        }
    }

    /// Delivers due messages and ticks components, `cycles` times.
    fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.wire.now += 1;
            let now = self.wire.now;
            // Deliver everything due this cycle.
            let mut due = Vec::new();
            let mut i = 0;
            while i < self.wire.in_flight.len() {
                if self.wire.in_flight[i].0 <= now {
                    due.push(self.wire.in_flight.remove(i).expect("checked").1);
                } else {
                    i += 1;
                }
            }
            for msg in due {
                match msg.class {
                    MessageClass::L1Request
                    | MessageClass::WbData
                    | MessageClass::L1DataAck
                    | MessageClass::L1InvAck
                    | MessageClass::MemoryReply => self.l2.receive(msg, now),
                    MessageClass::MemRequest | MessageClass::MemWbData => self.mc.receive(msg, now),
                    _ => {
                        let l1 = &mut self.l1s[msg.dst.index()];
                        l1.handle(&msg, false, &mut self.wire);
                    }
                }
            }
            self.l2.tick(now, &mut self.wire);
            self.mc.tick(now, &mut self.wire);
        }
    }

    /// Blocking access: issues and runs until the miss completes.
    fn access(&mut self, core: usize, block: u64, write: bool, value: Option<u64>) -> u64 {
        match self.l1s[core].access(block, write, value, &mut self.wire) {
            Access::Hit { value } => value,
            Access::Miss => {
                for _ in 0..2_000 {
                    if !self.l1s[core].miss_pending() {
                        break;
                    }
                    self.run(1);
                }
                assert!(!self.l1s[core].miss_pending(), "miss never completed");
                match self.l1s[core].probe(block) {
                    Some((_, v)) => v,
                    None => panic!("filled line vanished"),
                }
            }
        }
    }

    fn settle(&mut self) {
        self.run(500);
        assert!(self.l2.is_quiescent(), "L2 not quiescent");
    }
}

// All blocks used below are multiples of 16 so node 0 is always home.
const B: u64 = 16 * 7;

#[test]
fn read_write_read_propagates_values() {
    let mut c = Cluster::new(3, 3);
    assert_eq!(c.access(1, B, false, None), 0, "cold line reads zero");
    c.access(2, B, true, Some(77));
    c.settle();
    assert_eq!(
        c.access(1, B, false, None),
        77,
        "reader sees the writer's value"
    );
}

#[test]
fn ping_pong_ownership() {
    let mut c = Cluster::new(2, 3);
    for round in 1..=10u64 {
        let writer = (round % 2) as usize;
        c.access(writer, B, true, Some(round));
        c.settle();
        let reader = 1 - writer;
        assert_eq!(c.access(reader, B, false, None), round, "round {round}");
        c.settle();
    }
}

#[test]
fn many_readers_then_writer_invalidates_all() {
    let mut c = Cluster::new(6, 2);
    c.access(5, B, true, Some(9));
    c.settle();
    for r in 0..5 {
        assert_eq!(c.access(r, B, false, None), 9);
        c.settle();
    }
    // A write now invalidates the five sharers.
    c.access(5, B, true, Some(10));
    c.settle();
    for r in 0..5 {
        assert_eq!(
            c.l1s[r].probe(B),
            None,
            "reader {r} still holds a stale copy"
        );
    }
    assert_eq!(c.access(2, B, false, None), 10);
}

#[test]
fn writeback_vs_forward_race_preserves_data() {
    // Writer fills Modified, then evicts (WB in flight with a long wire
    // delay) while a reader's request triggers a forward.
    let mut c = Cluster::new(3, 12); // long delays widen the race window
    c.access(1, B, true, Some(42));
    c.settle();
    // Force an eviction: fill the same L1 set (16 sets in the test config;
    // same-set blocks differ by 16 lines; keep node 0 as home: stride 16*16).
    for k in 1..=4u64 {
        c.access(1, B + k * 16 * 16, false, None);
    }
    // The WbData for B is now (possibly) in flight. The reader asks.
    let v = c.access(2, B, false, None);
    assert_eq!(v, 42, "forward must be served from the write-back buffer");
    c.settle();
}

#[test]
fn silently_dropped_exclusive_is_recovered_from_l2() {
    let mut c = Cluster::new(3, 3);
    // Write then read back ensures L2 has the data after the writer's WB.
    c.access(1, B, true, Some(5));
    c.settle();
    // Evict (Modified -> WbData) and let it land.
    for k in 1..=4u64 {
        c.access(1, B + k * 16 * 16, false, None);
    }
    c.settle();
    // Reader gets it Exclusive (sole copy), then silently drops it.
    assert_eq!(c.access(2, B, false, None), 5);
    c.settle();
    for k in 1..=4u64 {
        c.access(2, B + k * 16 * 16, false, None);
    }
    c.settle();
    // A third node's request forwards to the stale owner, which nacks,
    // and the home serves its own (current) copy.
    assert_eq!(c.access(0, B, false, None), 5);
}

#[test]
fn upgrade_losing_to_remote_write_still_completes() {
    let mut c = Cluster::new(2, 6);
    // Both share the line.
    c.access(0, B, false, None);
    c.settle();
    c.access(1, B, false, None);
    c.settle();
    // Node 0 upgrades (GetX) while node 1 also writes: one wins, both
    // complete, final value is one of the two.
    let a0 = c.l1s[0].access(B, true, Some(100), &mut c.wire);
    let a1 = c.l1s[1].access(B, true, Some(200), &mut c.wire);
    assert!(matches!(a0, Access::Miss) || matches!(a1, Access::Miss));
    for _ in 0..3_000 {
        if !c.l1s[0].miss_pending() && !c.l1s[1].miss_pending() {
            break;
        }
        c.run(1);
    }
    assert!(!c.l1s[0].miss_pending() && !c.l1s[1].miss_pending());
    c.settle();
    // Exactly one writable copy remains and it holds one of the values.
    let w0 = c.l1s[0].probe(B).filter(|(w, _)| *w);
    let w1 = c.l1s[1].probe(B).filter(|(w, _)| *w);
    assert!(
        w0.is_some() ^ w1.is_some(),
        "exactly one owner after racing writes"
    );
    let v = w0.or(w1).expect("one owner").1;
    assert!(v == 100 || v == 200, "value {v}");
    // And the mesh invariant: home bank knows the owner.
    let (owner, _) = c.l2.probe(B).expect("line cached");
    assert!(owner == Some(NodeId(0)) || owner == Some(NodeId(1)));
    let _ = c.mesh;
}

/// A request that queues on a line the bank is evicting is served when
/// the eviction completes, not dropped with the line. A 1-set × 1-way
/// slice holds one line, so core 2's miss on another block evicts `B`
/// from under core 1's copy, and core 0's request for `B`, one cycle
/// behind core 2's, finds `B` waiting for core 1's invalidation ack.
/// Nothing re-sends a request, so a dropped one would leave its miss
/// pending for good: every miss must complete.
#[test]
fn request_queued_on_an_evicting_victim_is_served() {
    let mesh = Topology::mesh(4, 4).unwrap();
    let small = ProtocolConfig::small_for_tests(&mesh);
    let cfg = ProtocolConfig {
        l2: CacheConfig {
            sets: 1,
            ways: 1,
            ..small.l2
        },
        ..small
    };
    let mut c = Cluster::with_config(3, 3, cfg);
    assert_eq!(c.access(1, B, true, Some(8)), 8);
    c.settle();
    let other = B + 16;
    assert!(matches!(
        c.l1s[2].access(other, false, None, &mut c.wire),
        Access::Miss
    ));
    c.run(1);
    assert!(matches!(
        c.l1s[0].access(B, false, None, &mut c.wire),
        Access::Miss
    ));
    for _ in 0..3_000 {
        if !c.l1s[0].miss_pending() && !c.l1s[2].miss_pending() {
            break;
        }
        c.run(1);
    }
    assert!(
        c.l1s.iter().all(|l1| !l1.miss_pending()),
        "every miss completed"
    );
    assert!(
        c.l2.stats().queued_on_busy >= 1,
        "core 0's request queued on the evicting line"
    );
    assert_eq!(c.l1s[0].probe(B).map(|(_, v)| v), Some(8));
    c.settle();
}

/// An owner's write-back that crosses its home's eviction invalidation
/// answers that invalidation: the eviction completes on the write-back,
/// and the invalidation, finding the line gone from the L1, is acked
/// anyway — a late ack for a line the bank no longer holds, which the
/// bank ignores. One-line L1s and a 1-set × 2-way slice: core 1 owns `B`
/// dirty and core 3 owns `X`; core 2's miss on a third block evicts `B`
/// from the slice, and one cycle later core 1's miss on a fourth evicts
/// `B` from its L1. The stored value survives, and every miss completes.
#[test]
fn write_back_crossing_an_eviction_is_acked_late() {
    let mesh = Topology::mesh(4, 4).unwrap();
    let small = ProtocolConfig::small_for_tests(&mesh);
    let cfg = ProtocolConfig {
        l1: CacheConfig {
            sets: 1,
            ways: 1,
            ..small.l1
        },
        l2: CacheConfig {
            sets: 1,
            ways: 2,
            ..small.l2
        },
        ..small
    };
    let mut c = Cluster::with_config(4, 3, cfg);
    let (x, third, fourth) = (B + 16, B + 32, B + 48);
    assert_eq!(c.access(1, B, true, Some(8)), 8);
    c.settle();
    assert_eq!(c.access(3, x, false, None), 0);
    c.settle();
    assert!(matches!(
        c.l1s[2].access(third, false, None, &mut c.wire),
        Access::Miss
    ));
    c.run(1);
    assert!(matches!(
        c.l1s[1].access(fourth, false, None, &mut c.wire),
        Access::Miss
    ));
    for _ in 0..3_000 {
        if c.l1s.iter().all(|l1| !l1.miss_pending()) {
            break;
        }
        c.run(1);
    }
    assert!(
        c.l1s.iter().all(|l1| !l1.miss_pending()),
        "every miss completed"
    );
    c.settle();
    assert_eq!(c.l2.probe(B), None, "the slice evicted B");
    assert_eq!(c.access(0, B, false, None), 8, "the store reached memory");
    c.settle();
}
