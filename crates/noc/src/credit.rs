//! Credits as back-wires (DESIGN.md §6b, §9).
//!
//! Every flit that leaves an input buffer returns a credit to the router
//! (or NI) upstream of it. In hardware that credit is a pulse on a
//! pipelined wire running beside the link, and the upstream counter is the
//! only state. A [`CreditWire`] models exactly that. The component that
//! returns a credit writes the cycle it will land. The owner of the output
//! VC reads how many have landed, as a pure function of the cycle. No
//! message is queued or delivered, and nothing is woken to count a credit.

use crate::config::NocConfig;
use rcsim_core::table4::BUFFER_DEPTH;
use rcsim_core::{CircuitMode, Cycle, PORT_LOCAL};
use serde::{Deserialize, Serialize};

/// The credit return of one output VC: a counter plus a shift register
/// of the credits still on their way.
///
/// A credit is sent at most `1 + LINK_LATENCY` = 2 cycles before it
/// lands (Table 4), and is read no earlier than the cycle it was sent in,
/// so the [`WINDOW`] bits behind `newest` hold every credit still in
/// flight with room to spare. Arrivals further back have landed and are
/// shifted out by later sends. Nothing is ever folded in when a credit is
/// read, so the record depends only on what was sent and taken. It is the
/// same whether or not the owner was visited in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct CreditWire {
    /// Credits the owner holds, counting those still on the wire.
    count: u8,
    /// Credits the link lost on their way back (fault injection): they
    /// never land, so the downstream buffer is that much shorter for good.
    lost: u8,
    /// Arrival cycle of the newest credit sent.
    newest: Cycle,
    /// How many credits land at `newest - k`, as the two-bit number
    /// `hi:lo` at bit `k`. A credit made up for a flit the link dropped
    /// lands when the flit would have, so it may meet one returned through
    /// the switch. The fault layer loses packets whole, which keeps that
    /// from happening in any run measured so far, but the wire does not
    /// rely on it.
    lo: u16,
    hi: u16,
}

/// Cycles a [`CreditWire`]'s shift register reaches back from `newest`.
const WINDOW: Cycle = u16::BITS as Cycle;

const _: () = assert!(std::mem::size_of::<CreditWire>() == 16);

impl CreditWire {
    /// An idle wire: `depth` credits home, none on the way.
    pub(crate) fn full(depth: u8) -> Self {
        CreditWire {
            count: depth,
            lost: 0,
            newest: 0,
            lo: 0,
            hi: 0,
        }
    }

    /// Credits sent but landing after cycle `t`.
    pub(crate) fn in_flight(&self, t: Cycle) -> u8 {
        if t >= self.newest {
            return 0;
        }
        let later = u16::MAX >> (WINDOW - (self.newest - t).min(WINDOW));
        ((self.lo & later).count_ones() + 2 * (self.hi & later).count_ones()) as u8
    }

    /// Credits the owner may spend at cycle `t`.
    pub(crate) fn available(&self, t: Cycle) -> u8 {
        self.count - self.in_flight(t)
    }

    /// Credits the link lost.
    pub(crate) fn lost(&self) -> u8 {
        self.lost
    }

    /// Spends a credit at cycle `now`: a flit leaves for the downstream
    /// buffer.
    pub(crate) fn take(&mut self, now: Cycle) {
        debug_assert!(self.available(now) > 0, "no credit home at {now}");
        self.count = self.count.checked_sub(1).expect("a credit was home");
    }

    /// Returns a credit that lands at cycle `arrive`.
    pub(crate) fn send(&mut self, arrive: Cycle) {
        if arrive > self.newest {
            let shift = arrive - self.newest;
            (self.lo, self.hi) = if shift < WINDOW {
                (self.lo << shift, self.hi << shift)
            } else {
                (0, 0)
            };
            self.newest = arrive;
        }
        let k = self.newest - arrive;
        assert!(
            k < WINDOW,
            "a credit landing at {arrive} is behind the wire's window"
        );
        let (bit, carry) = (1 << k, self.lo & 1 << k);
        assert!(
            self.hi & carry == 0,
            "four credits landing at {arrive} on one VC"
        );
        self.lo ^= bit;
        self.hi |= carry;
        self.count = self
            .count
            .checked_add(1)
            .expect("more credits returned than taken");
    }

    /// Counts a credit the link lost instead of returning.
    pub(crate) fn lose(&mut self) {
        self.lost += 1;
    }
}

/// Every credit wire in the network, in one flat array owned beside the
/// link calendars. Router `r`'s output VC slot `s` (`port · vcs + vc`) on
/// a network port is wire `r · per_router + s`; ejection is uncredited, so
/// local ports have none. After all the routers come the NIs: tile `t`'s
/// injection VC `v` is wire `routers · per_router + t · vcs + v`.
/// Whoever returns a credit writes the wire through a link sink
/// (`Links`/`NiLink`), and the owner reads its own wires through the sink
/// it ticks into. So no router borrows another.
///
/// This is *state* (DESIGN.md §13): it is serialized as-is.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CreditWires {
    /// Network-port output VC slots per router (`PORT_LOCAL · vcs`), VCs
    /// per port, and where the NIs' wires start.
    per_router: usize,
    vcs: usize,
    ni_base: usize,
    /// Bit `v`: VC `v` is credited. Circuit VCs are credited only in
    /// fragmented mode. A complete or ideal circuit VC is sent without a
    /// credit, so the credits that come back for it are never read and
    /// never written.
    credited: u64,
    wires: Vec<CreditWire>,
}

impl CreditWires {
    pub(crate) fn new(cfg: &NocConfig) -> Self {
        let layout = cfg.vc_layout();
        let vcs = layout.total();
        let per_router = PORT_LOCAL * vcs;
        let ni_base = cfg.topology.routers() * per_router;
        let credited = (0..vcs)
            .filter(|&v| !layout.is_circuit_vc(v) || cfg.mechanism.mode == CircuitMode::Fragmented)
            .fold(0, |m, v| m | 1 << v);
        CreditWires {
            per_router,
            vcs,
            ni_base,
            credited,
            wires: vec![CreditWire::full(BUFFER_DEPTH); ni_base + cfg.topology.nodes() * vcs],
        }
    }

    /// `true` when VC `vc` takes a credit per flit.
    pub(crate) fn credited(&self, vc: usize) -> bool {
        self.credited >> vc & 1 == 1
    }

    /// Router `r`'s wires, by output VC slot of its network ports.
    pub(crate) fn router(&self, r: usize) -> &[CreditWire] {
        &self.wires[r * self.per_router..][..self.per_router]
    }

    pub(crate) fn router_mut(&mut self, r: usize) -> &mut [CreditWire] {
        &mut self.wires[r * self.per_router..][..self.per_router]
    }

    /// Tile `t`'s NI wires, by injection VC.
    pub(crate) fn ni(&self, t: usize) -> &[CreditWire] {
        &self.wires[self.ni_base + t * self.vcs..][..self.vcs]
    }

    pub(crate) fn ni_mut(&mut self, t: usize) -> &mut [CreditWire] {
        &mut self.wires[self.ni_base + t * self.vcs..][..self.vcs]
    }

    /// The wire of router `r`'s output VC `(port, vc)` on a network port,
    /// or `None` when the VC is uncredited.
    pub(crate) fn router_vc(
        &mut self,
        r: usize,
        port: usize,
        vc: usize,
    ) -> Option<&mut CreditWire> {
        debug_assert!(port < PORT_LOCAL, "ejection is uncredited");
        let slot = r * self.per_router + port * self.vcs + vc;
        self.credited(vc).then(|| &mut self.wires[slot])
    }

    /// The wire of tile `t`'s injection VC `vc`, or `None` when the VC is
    /// uncredited.
    pub(crate) fn ni_vc(&mut self, t: usize, vc: usize) -> Option<&mut CreditWire> {
        let slot = self.ni_base + t * self.vcs + vc;
        self.credited(vc).then(|| &mut self.wires[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: every credit ever sent, as its arrival cycle.
    struct Sent {
        count: u8,
        arrivals: Vec<Cycle>,
    }

    impl Sent {
        fn in_flight(&self, t: Cycle) -> u8 {
            self.arrivals.iter().filter(|&&a| a > t).count() as u8
        }
    }

    #[test]
    fn a_credit_lands_at_its_cycle_and_not_before() {
        let mut w = CreditWire::full(5);
        w.take(10);
        w.take(10);
        assert_eq!((w.available(10), w.in_flight(10)), (3, 0));
        w.send(13);
        w.send(12);
        assert_eq!((w.available(11), w.in_flight(11)), (3, 2));
        assert_eq!((w.available(12), w.in_flight(12)), (4, 1));
        assert_eq!((w.available(13), w.in_flight(13)), (5, 0));
        assert_eq!(w.available(1_000), 5);
    }

    /// A switch credit and a dropped flit's made-up credit land together.
    #[test]
    fn two_credits_may_land_in_one_cycle() {
        let mut w = CreditWire::full(4);
        for _ in 0..3 {
            w.take(0);
        }
        w.send(3);
        w.send(3);
        w.send(2);
        assert_eq!(w.available(1), 1);
        assert_eq!(w.available(2), 2);
        assert_eq!(w.available(3), 4);
    }

    #[test]
    fn a_lost_credit_never_lands() {
        let mut w = CreditWire::full(2);
        w.take(0);
        w.lose();
        assert_eq!((w.available(100), w.in_flight(100), w.lost()), (1, 0, 1));
    }

    /// The register reaches 15 cycles back from the newest arrival.
    #[test]
    fn a_credit_15_cycles_behind_the_newest_fits() {
        let mut w = CreditWire::full(2);
        w.take(0);
        w.take(0);
        w.send(21);
        w.send(6);
        assert_eq!(
            (w.available(6), w.available(20), w.available(21)),
            (1, 1, 2)
        );
    }

    #[test]
    #[should_panic(expected = "behind the wire's window")]
    fn a_credit_far_behind_the_newest_panics() {
        let mut w = CreditWire::full(2);
        w.take(0);
        w.take(0);
        w.send(22);
        w.send(6);
    }

    /// One cycle of a random schedule on one wire.
    #[derive(Debug, Clone)]
    struct Step {
        /// Cycles to the next step: past the whole window now and then.
        gap: u64,
        /// Credits returned this cycle, landing `L` (through the switch)
        /// and `L + 1` cycles later (made up for a dropped flit): at most
        /// one of each, as on a real link.
        sends: [bool; 2],
        /// Cycles past `now` to read at.
        reads: Vec<u64>,
    }

    fn step() -> impl Strategy<Value = Step> {
        (
            (0..8u8, 1..4u64, 14..40u64)
                .prop_map(|(roll, near, far)| if roll == 0 { far } else { near }),
            (any::<bool>(), any::<bool>()),
            proptest::collection::vec(0..36u64, 0..4),
        )
            .prop_map(|(gap, (switch, made_up), reads)| Step {
                gap,
                sends: [switch, made_up],
                reads,
            })
    }

    proptest! {
        /// The wire against the list of every arrival it was sent: the
        /// same credits in flight and available at every cycle read, for
        /// the chip's link, a longer one and the longest the 16-bit
        /// register holds.
        #[test]
        fn the_wire_matches_the_list_of_arrivals(
            latency in prop_oneof![Just(1u64), Just(2u64), Just(14u64)],
            steps in proptest::collection::vec(step(), 1..200),
        ) {
            const DEPTH: u8 = 40;
            let mut wire = CreditWire::full(DEPTH);
            let mut reference = Sent { count: DEPTH, arrivals: Vec::new() };
            let mut now = 0;
            for s in &steps {
                for late in (0..2).filter(|&k| s.sends[k]) {
                    if wire.available(now) == 0 {
                        break;
                    }
                    wire.take(now);
                    reference.count -= 1;
                    let arrive = now + latency + late as u64;
                    wire.send(arrive);
                    reference.count += 1;
                    reference.arrivals.push(arrive);
                }
                for t in s.reads.iter().map(|r| now + r) {
                    let want = reference.in_flight(t);
                    prop_assert_eq!((t, wire.in_flight(t)), (t, want));
                    prop_assert_eq!((t, wire.available(t)), (t, reference.count - want));
                }
                now += s.gap;
            }
        }
    }
}
