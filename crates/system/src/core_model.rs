//! Trace-driven, in-order, IPC-1 cores (Table 2: UltraSPARC-class,
//! single-threaded, blocking on misses).

use rcsim_core::Cycle;
use rcsim_workload::{CoreTrace, TraceOp, WorkloadRng};
use serde::{Deserialize, Serialize};

/// What the core is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Phase {
    /// Executing non-memory instructions until the given cycle, after
    /// which the pending memory reference accesses the L1.
    Compute { until: Cycle },
    /// Blocked on an outstanding L1 miss.
    WaitMiss,
}

/// One in-order core: retires one instruction per cycle, accesses the L1
/// after each compute gap, and stalls on misses.
#[derive(Debug, Clone)]
pub struct Core {
    id: u16,
    /// The reference stream, a component with a state of its own.
    trace: CoreTrace,
    pub(crate) state: State,
}

/// A [`Core`]'s own state (DESIGN.md §15).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct State {
    phase: Phase,
    pending: Option<TraceOp>,
    /// Instructions retired since the last stats reset (the performance
    /// metric behind the paper's Figure 9/10 speedups: fixed measurement
    /// window, more instructions = faster execution).
    pub(crate) instructions: u64,
    /// Monotonic per-core value source for store data tokens.
    write_counter: u64,
}

/// What the core wants to do this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreAction {
    /// Still computing (or stalled); nothing for the memory system.
    Idle,
    /// Issue this reference to the L1 now.
    Access {
        /// Referenced line.
        block: u64,
        /// `true` for a store.
        write: bool,
        /// Store value token.
        value: u64,
    },
}

impl Core {
    /// A core running `trace`.
    pub fn new(id: u16, trace: CoreTrace) -> Self {
        Self {
            id,
            trace,
            state: State {
                phase: Phase::Compute { until: 0 },
                pending: None,
                instructions: 0,
                write_counter: 0,
            },
        }
    }

    /// Advances to `now` and reports whether an L1 access should issue.
    /// The chip must answer an `Access` with [`Core::access_hit`] or
    /// [`Core::access_missed`] in the same cycle.
    pub fn poll(&mut self, now: Cycle, l1_hit_latency: u32) -> CoreAction {
        match self.state.phase {
            Phase::WaitMiss => CoreAction::Idle,
            Phase::Compute { until } => {
                if now < until {
                    return CoreAction::Idle;
                }
                let Some(op) = self.state.pending.take() else {
                    let op = self.trace.next_op();
                    // The compute gap plus the L1 lookup occupy the core.
                    self.state.instructions += op.gap as u64;
                    self.state.phase = Phase::Compute {
                        until: now + op.gap as Cycle + l1_hit_latency as Cycle,
                    };
                    self.state.pending = Some(op);
                    return CoreAction::Idle;
                };
                let value = if op.write {
                    self.state.write_counter += 1;
                    ((self.id as u64) << 48) | self.state.write_counter
                } else {
                    0
                };
                CoreAction::Access {
                    block: op.block,
                    write: op.write,
                    value,
                }
            }
        }
    }

    /// The issued access hit: the memory instruction retires.
    pub fn access_hit(&mut self, now: Cycle) {
        self.state.instructions += 1;
        self.state.phase = Phase::Compute { until: now };
    }

    /// The issued access missed: stall until [`Core::miss_done`].
    pub fn access_missed(&mut self) {
        self.state.phase = Phase::WaitMiss;
    }

    /// The outstanding miss completed; the instruction retires after the
    /// fill-to-use latency.
    pub fn miss_done(&mut self, now: Cycle, l1_hit_latency: u32) {
        debug_assert_eq!(self.state.phase, Phase::WaitMiss);
        self.state.instructions += 1;
        self.state.phase = Phase::Compute {
            until: now + l1_hit_latency as Cycle,
        };
    }

    /// `true` while blocked on a miss.
    pub fn stalled(&self) -> bool {
        self.state.phase == Phase::WaitMiss
    }

    /// The earliest cycle at which [`Core::poll`] can do anything but
    /// return [`CoreAction::Idle`] without mutating state. While blocked
    /// on a miss this is `Cycle::MAX` — only [`Core::miss_done`] (driven
    /// by a network delivery) can unblock the core. The event kernel
    /// skips polling cores whose `ready_at` lies in the future; such a
    /// poll is a pure no-op, so skipping cannot change observable state.
    pub fn ready_at(&self) -> Cycle {
        match self.state.phase {
            Phase::WaitMiss => Cycle::MAX,
            Phase::Compute { until } => until,
        }
    }

    /// The core's state and its trace's, for checkpointing.
    pub(crate) fn snapshot(&self) -> (State, WorkloadRng) {
        (self.state.clone(), self.trace.snapshot())
    }

    /// Overwrites both states with a [`Core::snapshot`] of a core running
    /// the same trace.
    pub(crate) fn restore(&mut self, (state, trace): (State, WorkloadRng)) {
        self.state = state;
        self.trace.restore(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_workload::Workload;

    fn core() -> Core {
        let wl = Workload::by_name("fft", 1, 3).unwrap();
        Core::new(0, wl.core_trace(0))
    }

    #[test]
    fn issues_after_gap() {
        let mut c = core();
        let mut now = 0;
        let mut issued = None;
        for _ in 0..5000 {
            match c.poll(now, 2) {
                CoreAction::Idle => now += 1,
                a @ CoreAction::Access { .. } => {
                    issued = Some(a);
                    break;
                }
            }
        }
        assert!(issued.is_some(), "the core eventually issues a reference");
    }

    #[test]
    fn hit_keeps_running_miss_stalls() {
        let mut c = core();
        let mut now = 0;
        while let CoreAction::Idle = c.poll(now, 2) {
            now += 1;
        }
        let before = c.state.instructions;
        c.access_missed();
        assert!(c.stalled());
        assert_eq!(c.poll(now, 2), CoreAction::Idle);
        c.miss_done(now + 100, 2);
        assert!(!c.stalled());
        assert_eq!(c.state.instructions, before + 1);
    }

    #[test]
    fn store_values_are_unique_and_tagged() {
        let mut c = core();
        let mut now = 0;
        let mut values = Vec::new();
        while values.len() < 5 {
            match c.poll(now, 2) {
                CoreAction::Idle => now += 1,
                CoreAction::Access { write, value, .. } => {
                    if write {
                        values.push(value);
                    }
                    c.access_hit(now);
                }
            }
        }
        let mut dedup = values.clone();
        dedup.dedup();
        assert_eq!(dedup, values, "store tokens are monotonic");
        assert!(values.iter().all(|v| v >> 48 == 0), "core 0 tag");
    }
}
