//! Where instrumented code sends its events.

use crate::event::TraceEvent;
use crate::ring::RingLog;
use std::sync::{Arc, Mutex};

/// The handle instrumented components hold. Cloning shares the underlying
/// ring, so one sink installed at the top of the simulator fans out to
/// every router, NI and cache.
///
/// # Cost model
///
/// The default [`TraceSink::Disabled`] path is a single enum-tag branch
/// and the event constructor closure is never invoked — disabled tracing
/// costs nothing and perturbs nothing (see the bit-identity test in
/// `rcsim-system`). When enabled, the simulator is single-threaded, so
/// the mutex guarding the ring is uncontended by construction and
/// acquisition is one atomic exchange; the `Mutex` exists only to keep the
/// sink `Send + Sync` for multi-threaded benchmark harnesses that move
/// whole simulators across threads.
#[derive(Clone, Debug, Default)]
pub enum TraceSink {
    /// No tracing: `emit` is a no-op.
    #[default]
    Disabled,
    /// Events go into a shared bounded ring.
    Ring(Arc<Mutex<RingLog>>),
}

/// The enabled half of [`TraceSink::emit`], out of line: the callers are
/// per-flit paths, which keep only the tag test.
#[cold]
#[inline(never)]
fn record(ring: &Mutex<RingLog>, f: impl FnOnce() -> TraceEvent) {
    let event = f();
    ring.lock().expect("trace ring poisoned").push(event);
}

impl TraceSink {
    /// A sink writing into a fresh ring of `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn ring(capacity: usize) -> Self {
        TraceSink::Ring(Arc::new(Mutex::new(RingLog::new(capacity))))
    }

    /// `true` when events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        !matches!(self, TraceSink::Disabled)
    }

    /// Records the event built by `f`. The closure runs only when the sink
    /// is enabled, so argument formatting and field gathering are free on
    /// the disabled path.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let TraceSink::Ring(ring) = self {
            record(ring, f);
        }
    }

    /// Events recorded so far, in order, leaving the ring intact.
    /// Empty for a disabled sink.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        match self {
            TraceSink::Disabled => Vec::new(),
            TraceSink::Ring(ring) => ring.lock().expect("trace ring poisoned").snapshot(),
        }
    }

    /// Events emitted since the last drain or restore, overwritten ones
    /// included: a count that moves with every event (0 when disabled).
    pub fn emitted(&self) -> u64 {
        match self {
            TraceSink::Disabled => 0,
            TraceSink::Ring(ring) => {
                let ring = ring.lock().expect("trace ring poisoned");
                ring.len() as u64 + ring.dropped()
            }
        }
    }

    /// Removes and returns all recorded events in order.
    pub fn drain(&self) -> Vec<TraceEvent> {
        match self {
            TraceSink::Disabled => Vec::new(),
            TraceSink::Ring(ring) => ring.lock().expect("trace ring poisoned").drain(),
        }
    }

    /// Restores the ring contents from checkpointed state (see
    /// [`RingLog::restore`]). No-op for a disabled sink.
    pub fn restore(&self, events: Vec<TraceEvent>, dropped: u64) {
        match self {
            TraceSink::Disabled => {}
            TraceSink::Ring(ring) => ring
                .lock()
                .expect("trace ring poisoned")
                .restore(events, dropped),
        }
    }

    /// Events lost to ring overflow so far.
    pub fn dropped(&self) -> u64 {
        match self {
            TraceSink::Disabled => 0,
            TraceSink::Ring(ring) => ring.lock().expect("trace ring poisoned").dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            kind: EventKind::NiInject { packet: 1, node: 0 },
        }
    }

    #[test]
    fn disabled_sink_never_runs_the_constructor() {
        let sink = TraceSink::Disabled;
        let mut called = false;
        sink.emit(|| {
            called = true;
            ev(0)
        });
        assert!(!called, "disabled sinks must not build events");
        assert!(sink.drain().is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn clones_share_the_ring() {
        let sink = TraceSink::ring(16);
        let other = sink.clone();
        sink.emit(|| ev(1));
        other.emit(|| ev(2));
        let cycles: Vec<u64> = sink.snapshot().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![1, 2]);
        assert_eq!(sink.drain().len(), 2);
        assert!(other.snapshot().is_empty(), "drain empties the shared ring");
    }

    #[test]
    fn sink_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceSink>();
    }
}
