//! Links as arrival calendars.
//!
//! Every link is a fixed-latency wire (Table 4), so whatever a router or
//! NI emits at cycle `now` reaches its neighbour at
//! `now + 1 ..= now + 1 + link_latency`. A component's inbound links are
//! therefore a small ring of per-cycle buckets rather than a mailbox to
//! search: a message is written once into the bucket of its arrival cycle
//! and handed over once, whole bucket at a time, when that cycle comes.

use crate::flit::Flit;
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{Cycle, NodeId};
use serde::{Deserialize, Serialize};

/// Largest [`NocConfig::link_latency`](crate::NocConfig::link_latency) a
/// [`Calendar`] can hold: its arrival window (`link_latency + 2` cycles)
/// must fit the 64-bit occupancy mask.
pub(crate) const MAX_LINK_LATENCY: u32 = u64::BITS - 2;

/// Everything arriving at one component in one cycle, in enqueue order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Bucket {
    /// `(input port, flit)`.
    flits: Vec<(usize, Flit)>,
    /// `(output port the credit returns through, vc)`.
    credits: Vec<(usize, usize)>,
    /// `(circuit, circuit destination)` undo notifications.
    undos: Vec<(CircuitKey, NodeId)>,
}

/// The messages in flight towards one router or NI: one bucket per
/// cycle of the arrival window, bucket `c % W` holding cycle `c`.
///
/// The window is `W = link_latency + 2` cycles: a sender ticking at `now`
/// may write as far ahead as `now + 1 + link_latency`, while a receiver
/// later in the same cycle's loop has not yet drained `now` itself, so
/// those two cycles must not share a bucket.
///
/// This is *state* (DESIGN.md §15): it is serialized as-is.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Calendar {
    buckets: Vec<Bucket>,
    /// Bit `b` is set while `buckets[b]` holds anything.
    occupied: u64,
    /// Flits whose arrival cycle passed while their input port was stuck
    /// (a scheduled fault window), oldest first.
    held: Vec<(usize, Flit)>,
}

impl Calendar {
    /// An empty calendar for links of `link_latency` cycles
    /// (`1..=MAX_LINK_LATENCY`, which [`crate::NocConfig::validate`]
    /// enforces).
    pub(crate) fn new(link_latency: u32) -> Self {
        assert!(
            (1..=MAX_LINK_LATENCY).contains(&link_latency),
            "NocConfig::validate bounds the link latency"
        );
        Calendar {
            buckets: vec![Bucket::default(); link_latency as usize + 2],
            occupied: 0,
            held: Vec::new(),
        }
    }

    /// Cycles a message may be scheduled ahead, one bucket each.
    fn window(&self) -> Cycle {
        self.buckets.len() as Cycle
    }

    /// The bucket of cycle `arrive`, marked occupied. A message outside
    /// the window would alias another cycle's bucket and silently arrive
    /// at the wrong time, so the range is checked in release builds too.
    fn slot(&mut self, now: Cycle, arrive: Cycle) -> &mut Bucket {
        let window = self.window();
        assert!(
            now < arrive && arrive < now + window,
            "arrival at {arrive} scheduled at {now} is outside the link window of {window} cycles"
        );
        let b = (arrive % window) as usize;
        self.occupied |= 1 << b;
        &mut self.buckets[b]
    }

    /// Schedules a flit to arrive on input port `port` at cycle `arrive`.
    pub(crate) fn push_flit(&mut self, now: Cycle, arrive: Cycle, port: usize, flit: Flit) {
        self.slot(now, arrive).flits.push((port, flit));
    }

    /// Schedules a credit for `(port, vc)` to arrive at cycle `arrive`.
    pub(crate) fn push_credit(&mut self, now: Cycle, arrive: Cycle, port: usize, vc: usize) {
        self.slot(now, arrive).credits.push((port, vc));
    }

    /// Schedules an undo notification to arrive at cycle `arrive`.
    pub(crate) fn push_undo(&mut self, now: Cycle, arrive: Cycle, key: CircuitKey, dst: NodeId) {
        self.slot(now, arrive).undos.push((key, dst));
    }

    /// Hands over everything due at `now` by swapping the due bucket's
    /// vectors with the caller's (empty) scratch vectors, and returns the
    /// next cycle this calendar needs draining (`Cycle::MAX` when empty).
    /// The caller must drain at exactly that cycle — the event kernel's
    /// wake time — or the bucket would be mistaken for a later cycle's.
    ///
    /// Flits come out port-major, and within a port in arrival order (a
    /// port is one wire, so that is its enqueue order too); credits and
    /// undos in enqueue order. Bit `p` of `stuck` freezes input port `p`:
    /// its flits are parked, and come out ahead of the port's later
    /// arrivals on the first drain that finds the port free again.
    pub(crate) fn drain(
        &mut self,
        now: Cycle,
        stuck: u64,
        flits: &mut Vec<(usize, Flit)>,
        credits: &mut Vec<(usize, usize)>,
        undos: &mut Vec<(CircuitKey, NodeId)>,
    ) -> Cycle {
        debug_assert!(flits.is_empty() && credits.is_empty() && undos.is_empty());
        let b = (now % self.window()) as usize;
        if self.occupied >> b & 1 == 1 {
            self.occupied &= !(1 << b);
            let due = &mut self.buckets[b];
            std::mem::swap(&mut due.flits, flits);
            std::mem::swap(&mut due.credits, credits);
            std::mem::swap(&mut due.undos, undos);
        }
        if !self.held.is_empty() {
            self.held.append(flits);
            std::mem::swap(&mut self.held, flits);
        }
        if stuck != 0 {
            self.held
                .extend(flits.extract_if(.., |(p, _)| stuck >> *p & 1 == 1));
        }
        // Senders enqueue in their own tick order, not the receiver's
        // port order; the sort is stable, so each port keeps its order.
        flits.sort_by_key(|&(p, _)| p);
        if self.held.is_empty() {
            self.next_occupied(now)
        } else {
            now + 1
        }
    }

    /// The cycle [`Calendar::drain`] is next due, seen between ticks with
    /// the tick of cycle `now` up next: what the component's wake slot
    /// must hold.
    pub(crate) fn next_due(&self, now: Cycle) -> Cycle {
        if self.held.is_empty() {
            self.next_occupied(now.saturating_sub(1))
        } else {
            now
        }
    }

    /// The first cycle after `now` with an occupied bucket.
    fn next_occupied(&self, now: Cycle) -> Cycle {
        if self.occupied == 0 {
            return Cycle::MAX;
        }
        let first = ((now + 1) % self.window()) as u32;
        // Rotate the ring so bit 0 stands for cycle `now + 1`: the buckets
        // from `first` up, then (above them) the ones that wrapped.
        let wrapped = self
            .occupied
            .checked_shl(self.buckets.len() as u32 - first)
            .unwrap_or(0);
        let ahead = self.occupied >> first | wrapped;
        now + 1 + Cycle::from(ahead.trailing_zeros())
    }

    /// `true` while a flit or an undo is on its way (credits in flight do
    /// not count: they belong to packets already delivered).
    pub(crate) fn carries_traffic(&self) -> bool {
        !self.held.is_empty()
            || (self.occupied != 0
                && self
                    .buckets
                    .iter()
                    .any(|b| !b.flits.is_empty() || !b.undos.is_empty()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, PacketId};
    use proptest::prelude::*;

    fn flit(id: u64) -> Flit {
        Flit {
            packet: PacketId(id),
            kind: FlitKind::Body,
            seq: 0,
            vc: 0,
            on_circuit: None,
            scrounger_final: None,
            head: None,
        }
    }

    fn key(block: u64) -> CircuitKey {
        CircuitKey {
            requestor: NodeId(3),
            block,
        }
    }

    /// What one drain handed over, flits reduced to `(port, packet id)`.
    type Drained = (
        Vec<(usize, u64)>,
        Vec<(usize, usize)>,
        Vec<(CircuitKey, NodeId)>,
        Cycle,
    );

    fn drain(cal: &mut Calendar, now: Cycle, stuck: u64) -> Drained {
        let (mut f, mut c, mut u) = (Vec::new(), Vec::new(), Vec::new());
        let wake = cal.drain(now, stuck, &mut f, &mut c, &mut u);
        let f = f.into_iter().map(|(p, f)| (p, f.packet.0)).collect();
        (f, c, u, wake)
    }

    /// The mailbox the calendar replaced, kept as the reference: one
    /// `Vec<(Cycle, T)>` per port, scanned front to back for due entries.
    #[derive(Default)]
    struct Mailbox {
        flits: Vec<Vec<(Cycle, u64)>>,
        credits: Vec<Vec<(Cycle, usize)>>,
        undos: Vec<(Cycle, CircuitKey, NodeId)>,
    }

    impl Mailbox {
        fn new(ports: usize) -> Self {
            Mailbox {
                flits: vec![Vec::new(); ports],
                credits: vec![Vec::new(); ports],
                undos: Vec::new(),
            }
        }

        fn drain(&mut self, now: Cycle, stuck: u64) -> Drained {
            fn due<T>(q: &mut Vec<(Cycle, T)>, now: Cycle, mut f: impl FnMut(T)) {
                let mut j = 0;
                while j < q.len() {
                    if q[j].0 <= now {
                        f(q.remove(j).1);
                    } else {
                        j += 1;
                    }
                }
            }
            let (mut f, mut c, mut u) = (Vec::new(), Vec::new(), Vec::new());
            for (p, q) in self.flits.iter_mut().enumerate() {
                if stuck >> p & 1 == 0 {
                    due(q, now, |id| f.push((p, id)));
                }
            }
            for (p, q) in self.credits.iter_mut().enumerate() {
                due(q, now, |vc| c.push((p, vc)));
            }
            let mut j = 0;
            while j < self.undos.len() {
                if self.undos[j].0 <= now {
                    let (_, k, d) = self.undos.remove(j);
                    u.push((k, d));
                } else {
                    j += 1;
                }
            }
            // The old wake time: the earliest arrival still queued, which
            // stays in the past while a stuck port holds flits back.
            let pending = self
                .flits
                .iter()
                .flatten()
                .map(|&(a, _)| a)
                .chain(self.credits.iter().flatten().map(|&(a, _)| a))
                .chain(self.undos.iter().map(|&(a, _, _)| a))
                .min()
                .unwrap_or(Cycle::MAX);
            (f, c, u, pending)
        }
    }

    #[test]
    fn messages_arrive_at_their_cycle_in_port_major_order() {
        let mut cal = Calendar::new(1);
        cal.push_flit(10, 11, 4, flit(1));
        cal.push_flit(10, 12, 2, flit(2));
        cal.push_flit(10, 11, 0, flit(3));
        cal.push_flit(10, 11, 4, flit(4));
        cal.push_credit(10, 11, 3, 1);
        cal.push_credit(10, 11, 0, 2);
        cal.push_undo(10, 12, key(64), NodeId(3));
        assert!(cal.carries_traffic());
        let (f, c, u, wake) = drain(&mut cal, 11, 0);
        assert_eq!(f, [(0, 3), (4, 1), (4, 4)]);
        assert_eq!(c, [(3, 1), (0, 2)], "credits keep enqueue order");
        assert!(u.is_empty());
        assert_eq!(wake, 12);
        let (f, c, u, wake) = drain(&mut cal, 12, 0);
        assert_eq!(f, [(2, 2)]);
        assert!(c.is_empty());
        assert_eq!(u, [(key(64), NodeId(3))]);
        assert_eq!(wake, Cycle::MAX);
        assert!(!cal.carries_traffic());
    }

    #[test]
    fn next_due_wraps_around_the_ring() {
        for latency in [1, 2, 5, 6, MAX_LINK_LATENCY] {
            let mut cal = Calendar::new(latency);
            let far = Cycle::from(latency) + 1;
            for now in 0..200 {
                cal.push_credit(now, now + far, 0, 0);
                let (_, c, _, wake) = drain(&mut cal, now, 0);
                assert_eq!(c.len(), usize::from(now >= far), "latency {latency}");
                assert_eq!(wake, far.max(now + 1), "latency {latency}");
            }
        }
    }

    #[test]
    fn flits_held_behind_a_stuck_port_come_out_first() {
        let mut cal = Calendar::new(1);
        cal.push_flit(0, 1, 2, flit(1));
        cal.push_flit(0, 1, 0, flit(2));
        cal.push_flit(0, 2, 2, flit(3));
        // Port 2 is stuck at cycle 1: its flit is parked, port 0 flows.
        let (f, _, _, wake) = drain(&mut cal, 1, 1 << 2);
        assert_eq!(f, [(0, 2)]);
        assert_eq!(wake, 2, "a parked flit keeps the calendar due");
        assert!(cal.carries_traffic());
        // Still stuck at 2: the second flit queues behind the first.
        cal.push_flit(2, 3, 2, flit(4));
        let (f, _, _, wake) = drain(&mut cal, 2, 1 << 2);
        assert!(f.is_empty());
        assert_eq!(wake, 3);
        // Freed at 3: parked flits precede the one arriving now.
        let (f, _, _, wake) = drain(&mut cal, 3, 0);
        assert_eq!(f, [(2, 1), (2, 3), (2, 4)]);
        assert_eq!(wake, Cycle::MAX);
    }

    #[test]
    #[should_panic(expected = "outside the link window")]
    fn scheduling_past_the_window_panics() {
        Calendar::new(1).push_credit(7, 10, 0, 0);
    }

    #[test]
    #[should_panic(expected = "outside the link window")]
    fn scheduling_for_the_current_cycle_panics() {
        Calendar::new(1).push_flit(7, 7, 0, flit(1));
    }

    /// One cycle of a random schedule: what is enqueued (as deltas ahead
    /// of `now`) and which ports are stuck when the cycle is drained.
    #[derive(Debug, Clone)]
    struct Step {
        flit_ports: Vec<usize>,
        credits: Vec<(usize, u64, usize)>,
        undos: Vec<u64>,
        stuck: u64,
        skip_when_idle: bool,
    }

    const PORTS: usize = 5;

    fn step() -> impl Strategy<Value = Step> {
        (
            proptest::collection::vec(0..PORTS, 0..4),
            proptest::collection::vec((0..PORTS, 0..64u64, 0..4usize), 0..4),
            proptest::collection::vec(0..64u64, 0..2),
            // Mostly free, sometimes a random subset of ports stuck.
            (0..4u8, 0..1u64 << PORTS).prop_map(|(roll, m)| if roll == 0 { m } else { 0 }),
            any::<bool>(),
        )
            .prop_map(|(flit_ports, credits, undos, stuck, skip_when_idle)| Step {
                flit_ports,
                credits,
                undos,
                stuck,
                skip_when_idle,
            })
    }

    proptest! {
        /// Interleaved pushes and drains against the reference mailbox:
        /// identical drained sequences and an equivalent wake time. Each
        /// port is one wire with its own latency, drawn per case; credits
        /// and undos take any delta in the window (a dropped flit's
        /// synthesized credit travels a different distance than an
        /// ordinary one on the same port). Like the event kernel, the
        /// driver may skip a cycle neither side reports as due.
        #[test]
        fn calendar_matches_the_reference_mailbox(
            latency in 1u32..7,
            wire in proptest::collection::vec(0..64u64, PORTS),
            steps in proptest::collection::vec(step(), 1..120),
        ) {
            let window = Cycle::from(latency) + 2;
            let mut cal = Calendar::new(latency);
            let mut reference = Mailbox::new(PORTS);
            let mut next_id = 0u64;
            let mut wake = Cycle::MAX;
            for (now, s) in steps.iter().enumerate() {
                let now = now as Cycle;
                if wake <= now || !s.skip_when_idle {
                    let (flits, mut credits, undos, next) = drain(&mut cal, now, s.stuck);
                    let want = reference.drain(now, s.stuck);
                    // The mailbox scanned credits port by port; the
                    // calendar leaves them in enqueue order, which is the
                    // same sequence per port — and a credit only touches
                    // its own port's counters.
                    credits.sort_by_key(|&(p, _)| p);
                    // With flits parked the mailbox reports their (past)
                    // arrival cycle, the calendar the next cycle: both
                    // mean "due every cycle". Otherwise the two agree.
                    prop_assert_eq!(
                        (now, flits, credits, undos, next.max(now + 1)),
                        (now, want.0, want.1, want.2, want.3.max(now + 1))
                    );
                    wake = next;
                }
                let mut schedule = |delta: u64| {
                    let arrive = now + 1 + delta % (window - 1);
                    wake = wake.min(arrive);
                    arrive
                };
                for &p in &s.flit_ports {
                    let arrive = schedule(wire[p]);
                    cal.push_flit(now, arrive, p, flit(next_id));
                    reference.flits[p].push((arrive, next_id));
                    next_id += 1;
                }
                for &(p, delta, vc) in &s.credits {
                    let arrive = schedule(delta);
                    cal.push_credit(now, arrive, p, vc);
                    reference.credits[p].push((arrive, vc));
                }
                for &delta in &s.undos {
                    let arrive = schedule(delta);
                    cal.push_undo(now, arrive, key(delta), NodeId(3));
                    reference.undos.push((arrive, key(delta), NodeId(3)));
                }
                prop_assert_eq!(
                    cal.carries_traffic(),
                    reference.flits.iter().any(|q| !q.is_empty()) || !reference.undos.is_empty()
                );
            }
        }
    }
}
