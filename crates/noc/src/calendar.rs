//! Links as arrival registers.
//!
//! Every link is a fixed-latency wire (Table 4), so whatever a router or
//! NI emits at cycle `now` reaches its neighbour at
//! `now + 1 ..= now + 1 + LINK_LATENCY`, and a wire carries one flit per
//! cycle. A component's inbound links are therefore what the hardware
//! has — one flit register per input port for each cycle of a short
//! arrival window — rather than a mailbox to search: a message is written
//! once into the registers of its arrival cycle and read once when that
//! cycle comes. Credits travel on the network's credit list
//! ([`crate::credit`]) and never enter a calendar.

use crate::flit::Flit;
use crate::router::bits;
use rcsim_core::circuit::CircuitKey;
use rcsim_core::table4::LINK_LATENCY;
use rcsim_core::{Cycle, NodeId};
use serde::{Deserialize, Serialize};

/// The cycles of a [`Calendar`]'s arrival window, `W`: `LINK_LATENCY + 2`
/// rounded up to a power of two. A sender ticking at `now` may write as
/// far ahead as `now + 1 + LINK_LATENCY`, while a receiver later in the
/// same cycle's loop has not yet drained `now` itself, so those two
/// cycles must not share a cell.
const WINDOW: usize = (LINK_LATENCY as usize + 2).next_power_of_two();

/// `W - 1`, the mask that takes a cycle to its slot of the window.
const WINDOW_MASK: Cycle = WINDOW as Cycle - 1;

/// The bit of a cell's mask set while an undo notification is due there;
/// the bits below it are the input ports whose flit register is full.
const UNDO_DUE: u64 = 1 << 63;

/// The messages in flight towards every component of one kind (all the
/// routers, or all the NIs), as flat arrays over *cells*: cell
/// `(c % W) · n + i` holds what reaches component `i` at cycle `c`
/// ([`WINDOW`]), so the cells one tick reads are adjacent and in
/// component order.
///
/// This is *state* (DESIGN.md §13): it is serialized as-is.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Calendar {
    /// Components and input ports per component.
    n: usize,
    ports: usize,
    /// Per cycle of the window a bitset over the components: bit `i % 64`
    /// of word `(c % W) · ⌈n/64⌉ + i / 64` is set while component `i`'s
    /// cell of cycle `c` holds anything — the due half of the event
    /// kernel's worklist, read a word at a time.
    due_bits: Vec<u64>,
    /// Per cell: the ports whose flit register is full, and [`UNDO_DUE`].
    masks: Vec<u64>,
    /// Per cell and port, the flit register (meaningful while its mask
    /// bit is set).
    regs: Vec<Flit>,
    /// `(component, arrival, circuit, circuit destination)` undo
    /// notifications, in enqueue order.
    undos: Vec<(usize, Cycle, CircuitKey, NodeId)>,
}

impl Calendar {
    /// Empty registers for `n` components of `ports` input ports each.
    pub(crate) fn new(n: usize, ports: usize) -> Self {
        assert!(ports < 63, "a cell's mask holds the ports and the undo bit");
        let cells = WINDOW * n;
        Calendar {
            n,
            ports,
            due_bits: vec![0; WINDOW * n.div_ceil(64)],
            masks: vec![0; cells],
            regs: vec![Flit::default(); cells * ports],
            undos: Vec::new(),
        }
    }

    /// The word of `due_bits` holding component `i`'s bit at cycle `c`.
    fn due_at(&mut self, i: usize, c: Cycle) -> &mut u64 {
        let b = (c & WINDOW_MASK) as usize;
        &mut self.due_bits[b * self.n.div_ceil(64) + i / 64]
    }

    /// The cell of component `i` at cycle `arrive`, marked due. A
    /// message outside the window would alias another cycle's cell and
    /// silently arrive at the wrong time, so the range is checked in
    /// release builds too.
    fn cell(&mut self, i: usize, now: Cycle, arrive: Cycle) -> usize {
        assert!(
            now < arrive && arrive - now <= WINDOW_MASK,
            "arrival at {arrive} scheduled at {now} is outside the link window of {WINDOW} cycles"
        );
        *self.due_at(i, arrive) |= 1 << (i % 64);
        (arrive & WINDOW_MASK) as usize * self.n + i
    }

    /// Schedules a flit to arrive on input port `port` of component `i`
    /// at cycle `arrive`. A wire carries one flit per cycle — a router's
    /// crossbar grants each output once per cycle and an NI injects one
    /// flit per cycle — so the register must be empty: a second flit
    /// would silently replace the first.
    pub(crate) fn push_flit(&mut self, i: usize, now: Cycle, arrive: Cycle, port: usize, f: Flit) {
        let cell = self.cell(i, now, arrive);
        let full = &mut self.masks[cell];
        assert!(
            *full >> port & 1 == 0,
            "two flits on input port {port} of component {i} at cycle {arrive}"
        );
        *full |= 1 << port;
        self.regs[cell * self.ports + port] = f;
    }

    /// Schedules an undo notification to reach component `i` at `arrive`.
    pub(crate) fn push_undo(
        &mut self,
        i: usize,
        now: Cycle,
        arrive: Cycle,
        key: CircuitKey,
        dst: NodeId,
    ) {
        let cell = self.cell(i, now, arrive);
        self.masks[cell] |= UNDO_DUE;
        self.undos.push((i, arrive, key, dst));
    }

    /// Which of components `64·w .. 64·w + 64` have anything to
    /// [`Calendar::drain`] at `now`, as bit `i % 64`: their cell of this
    /// cycle is due. A set bit must be answered with a drain in this
    /// cycle, or the cell would be mistaken for a later cycle's.
    pub(crate) fn due_word(&self, now: Cycle, w: usize) -> u64 {
        self.due_bits[(now & WINDOW_MASK) as usize * self.n.div_ceil(64) + w]
    }

    /// Hands over everything due at component `i` at `now`: flits into
    /// the caller's (empty) scratch vector as `(port, flit)`, port-major,
    /// and within a port in arrival order; undos in enqueue order. The
    /// network-wide undo list is searched only when the cell says one is
    /// due.
    pub(crate) fn drain(
        &mut self,
        i: usize,
        now: Cycle,
        flits: &mut Vec<(usize, Flit)>,
        undos: &mut Vec<(CircuitKey, NodeId)>,
    ) {
        debug_assert!(flits.is_empty() && undos.is_empty());
        let due = self.due_at(i, now);
        if *due >> (i % 64) & 1 == 0 {
            return;
        }
        *due &= !(1 << (i % 64));
        let cell = (now & WINDOW_MASK) as usize * self.n + i;
        let mut arrived = std::mem::take(&mut self.masks[cell]);
        if arrived & UNDO_DUE != 0 {
            arrived &= !UNDO_DUE;
            let due = self.undos.extract_if(.., |u| u.0 == i && u.1 == now);
            undos.extend(due.map(|(_, _, key, dst)| (key, dst)));
        }
        flits.extend(bits(arrived).map(|p| (p, self.regs[cell * self.ports + p])));
    }

    /// `true` while a flit or an undo is on its way.
    pub(crate) fn carries_traffic(&self) -> bool {
        !self.undos.is_empty() || self.masks.iter().any(|&m| m != 0)
    }

    /// Every flit on its way, as `(component, input port, flit)`, in no
    /// particular order.
    pub(crate) fn flits(&self) -> impl Iterator<Item = (usize, usize, Flit)> + '_ {
        let regs = self.masks.iter().zip(self.regs.chunks(self.ports));
        let n = self.n;
        regs.enumerate()
            .flat_map(move |(cell, (m, r))| bits(m & !UNDO_DUE).map(move |p| (cell % n, p, r[p])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const PORTS: usize = 5;
    /// 130 components: three due words, the last one partial. The unit
    /// tests drive component `I`, the proptest each of `DRIVEN` (both
    /// edges of the first word boundary and the last component); every
    /// other component must stay empty.
    const N: usize = 130;
    const I: usize = 2;
    const DRIVEN: [usize; 4] = [I, 63, 64, N - 1];

    fn calendar() -> Calendar {
        Calendar::new(N, PORTS)
    }

    fn flit(id: u32) -> Flit {
        Flit::new(id, 1, 3, 0, 0)
    }

    fn key(block: u64) -> CircuitKey {
        CircuitKey {
            requestor: NodeId(3),
            block,
        }
    }

    /// What one drain handed over: flits as `(port, packet slot)`, undos.
    type Drained = (Vec<(usize, u32)>, Vec<(CircuitKey, NodeId)>);

    fn drain(cal: &mut Calendar, now: Cycle) -> Drained {
        drain_at(cal, I, now)
    }

    fn drain_at(cal: &mut Calendar, i: usize, now: Cycle) -> Drained {
        let (mut f, mut u) = (Vec::new(), Vec::new());
        cal.drain(i, now, &mut f, &mut u);
        (f.into_iter().map(|(p, f)| (p, f.slot)).collect(), u)
    }

    /// Component `i`'s bit of [`Calendar::due_word`].
    fn due(cal: &Calendar, i: usize, now: Cycle) -> bool {
        cal.due_word(now, i / 64) >> (i % 64) & 1 == 1
    }

    /// The mailbox the calendar replaced, kept as the reference: one
    /// `Vec<(Cycle, T)>` per port, scanned front to back for due entries.
    #[derive(Default)]
    struct Mailbox {
        flits: Vec<Vec<(Cycle, u32)>>,
        undos: Vec<(Cycle, CircuitKey, NodeId)>,
    }

    impl Mailbox {
        fn new(ports: usize) -> Self {
            Mailbox {
                flits: vec![Vec::new(); ports],
                undos: Vec::new(),
            }
        }

        /// The earliest arrival still queued.
        fn next_due(&self) -> Cycle {
            let flits = self.flits.iter().flatten().map(|&(a, _)| a);
            let undos = self.undos.iter().map(|&(a, _, _)| a);
            flits.chain(undos).min().unwrap_or(Cycle::MAX)
        }

        fn drain(&mut self, now: Cycle) -> Drained {
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
            let (mut f, mut u) = (Vec::new(), Vec::new());
            for (p, q) in self.flits.iter_mut().enumerate() {
                due(q, now, |id| f.push((p, id)));
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
            (f, u)
        }
    }

    #[test]
    fn messages_arrive_at_their_cycle_in_port_order() {
        let mut cal = calendar();
        cal.push_flit(I, 10, 11, 4, flit(1));
        cal.push_flit(I, 10, 12, 2, flit(2));
        cal.push_flit(I, 10, 11, 0, flit(3));
        cal.push_flit(I, 10, 12, 4, flit(4));
        cal.push_undo(I, 10, 12, key(64), NodeId(3));
        cal.push_undo(I, 10, 12, key(128), NodeId(3));
        assert!(cal.carries_traffic());
        assert_eq!(cal.flits().count(), 4);
        assert!(cal.flits().all(|(i, _, _)| i == I));
        assert!(!due(&cal, I, 10) && due(&cal, I, 11));
        let (f, u) = drain(&mut cal, 11);
        assert_eq!(f, [(0, 3), (4, 1)]);
        assert!(u.is_empty());
        assert!(!due(&cal, I, 11) && due(&cal, I, 12));
        let (f, u) = drain(&mut cal, 12);
        assert_eq!(f, [(2, 2), (4, 4)]);
        assert_eq!(
            u,
            [(key(64), NodeId(3)), (key(128), NodeId(3))],
            "enqueue order"
        );
        assert!(!cal.carries_traffic());
        for i in 0..N {
            assert!((10..20).all(|now| !due(&cal, i, now)));
        }
    }

    #[test]
    fn the_window_wraps_around_the_ring() {
        let mut cal = calendar();
        // The farthest ahead a sender writes: a switch traversal and a link.
        let far = 1 + Cycle::from(LINK_LATENCY);
        for now in 0..200 {
            cal.push_undo(I, now, now + far, key(now), NodeId(3));
            assert_eq!(due(&cal, I, now), now >= far, "cycle {now}");
            let (_, u) = drain(&mut cal, now);
            assert_eq!(u.len(), usize::from(now >= far), "cycle {now}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the link window")]
    fn scheduling_past_the_window_panics() {
        calendar().push_undo(I, 7, 11, key(0), NodeId(3));
    }

    #[test]
    #[should_panic(expected = "outside the link window")]
    fn scheduling_for_the_current_cycle_panics() {
        calendar().push_flit(I, 7, 7, 0, flit(1));
    }

    /// One wire, one flit per cycle: a second flit for the same port and
    /// cycle has no register to go to.
    #[test]
    #[should_panic(expected = "two flits on input port 3")]
    fn two_flits_on_one_wire_in_one_cycle_panic() {
        let mut cal = calendar();
        cal.push_flit(I, 7, 9, 3, flit(1));
        cal.push_flit(I, 8, 9, 3, flit(2));
    }

    /// One cycle of a random schedule: which driven component receives
    /// what is enqueued (as deltas ahead of `now`).
    #[derive(Debug, Clone)]
    struct Step {
        /// An index into [`DRIVEN`].
        target: usize,
        /// The ports whose wire carries a flit this cycle.
        flit_ports: u64,
        undos: Vec<u64>,
        skip_when_idle: bool,
    }

    fn step() -> impl Strategy<Value = Step> {
        (
            // Where this cycle's messages go.
            0..DRIVEN.len(),
            // Usually a flit or two, sometimes every wire busy.
            (0..4u8, 0..1u64 << PORTS, 0..1u64 << PORTS).prop_map(|(roll, a, b)| {
                if roll == 0 {
                    a
                } else {
                    a & b
                }
            }),
            proptest::collection::vec(0..64u64, 0..2),
            any::<bool>(),
        )
            .prop_map(|(target, flit_ports, undos, skip_when_idle)| Step {
                target,
                flit_ports,
                undos,
                skip_when_idle,
            })
    }

    proptest! {
        /// Interleaved pushes and drains against one reference mailbox per
        /// driven component: identical drained sequences, and every due
        /// word exactly the driven components that are due — a reference
        /// with an arrival at or before `now` — and nothing else. Each port is one wire
        /// with its own delay, drawn per case, carrying at most one flit
        /// per cycle (the register law); undos take any delta in the window
        /// and come out in enqueue order. Like the event kernel, the loop
        /// may skip a cycle neither side reports as due.
        #[test]
        fn calendar_matches_the_reference_mailbox(
            wire in proptest::collection::vec(0..64u64, PORTS),
            steps in proptest::collection::vec(step(), 1..120),
        ) {
            let window = Cycle::from(LINK_LATENCY) + 2;
            let mut cal = calendar();
            let mut reference: Vec<Mailbox> = DRIVEN.iter().map(|_| Mailbox::new(PORTS)).collect();
            let mut next_id = 0u32;
            for (now, s) in steps.iter().enumerate() {
                let now = now as Cycle;
                let due_now: Vec<bool> = reference.iter().map(|r| r.next_due() <= now).collect();
                for w in 0..N.div_ceil(64) {
                    let expected = DRIVEN
                        .iter()
                        .zip(&due_now)
                        .filter(|&(&i, &due)| i / 64 == w && due)
                        .fold(0u64, |m, (&i, _)| m | 1 << (i % 64));
                    prop_assert_eq!((now, w, cal.due_word(now, w)), (now, w, expected));
                }
                for (j, &i) in DRIVEN.iter().enumerate() {
                    if due_now[j] || !s.skip_when_idle {
                        let got = drain_at(&mut cal, i, now);
                        prop_assert_eq!((now, i, got), (now, i, reference[j].drain(now)));
                    }
                }
                let (i, reference_i) = (DRIVEN[s.target], &mut reference[s.target]);
                let schedule = |delta: u64| now + 1 + delta % (window - 1);
                for p in bits(s.flit_ports) {
                    let arrive = schedule(wire[p]);
                    cal.push_flit(i, now, arrive, p, flit(next_id));
                    reference_i.flits[p].push((arrive, next_id));
                    next_id += 1;
                }
                for &delta in &s.undos {
                    let arrive = schedule(delta);
                    cal.push_undo(i, now, arrive, key(delta), NodeId(3));
                    reference_i.undos.push((arrive, key(delta), NodeId(3)));
                }
                prop_assert_eq!(
                    cal.carries_traffic(),
                    reference
                        .iter()
                        .any(|r| r.flits.iter().any(|q| !q.is_empty()) || !r.undos.is_empty())
                );
                prop_assert_eq!(
                    cal.flits().count(),
                    reference.iter().flat_map(|r| &r.flits).map(Vec::len).sum::<usize>()
                );
            }
        }
    }
}
