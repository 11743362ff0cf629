//! Credits as messages (DESIGN.md §6b, §9).
//!
//! Every flit that leaves an input buffer returns a credit to the router
//! (or NI) upstream of it, one link later. A returned credit is a message
//! on its way: the network keeps every credit in flight on one list, in
//! send order, and at the top of each cycle, before anything ticks, lands
//! those due by adding each to the counter of the output VC it returns
//! to. A [`CreditWire`] is that counter, the only state its owner reads.
//! Nothing is woken to count a credit, and no credit enters a calendar.

use crate::config::NocConfig;
use rcsim_core::table4::BUFFER_DEPTH;
use rcsim_core::{Cycle, PORT_LOCAL};
use serde::{Deserialize, Serialize};

/// The credit counter at the upstream end of one output VC's credit
/// wire: the credits home, the ones still on their way not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct CreditWire {
    count: u8,
}

impl CreditWire {
    /// An idle wire: `depth` credits home.
    pub(crate) fn full(depth: u8) -> Self {
        CreditWire { count: depth }
    }

    /// Credits the owner may spend.
    pub(crate) fn available(&self) -> u8 {
        self.count
    }

    /// Spends a credit: a flit leaves for the downstream buffer.
    pub(crate) fn take(&mut self) {
        self.count = self.count.checked_sub(1).expect("a credit was home");
    }

    /// A returned credit lands.
    pub(crate) fn land(&mut self) {
        self.count = (self.count.checked_add(1)).expect("more credits returned than taken");
    }
}

/// Every credit wire in the network, in one flat array owned beside the
/// link calendars, and the credits on their way. Router `r`'s output VC
/// slot `s` (`port · vcs + vc`) on a network port is wire
/// `r · per_router + s`; ejection is uncredited, so the local port has
/// none. After all the routers come the NIs: tile `t`'s injection VC `v`
/// is wire `routers · per_router + t · vcs + v`. Whoever returns a credit
/// sends it through a link sink (`Links`), the network lands it
/// ([`CreditWires::land`]), and the owner reads its own wires through the
/// sink it ticks into. So no router borrows another.
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
    /// Credits on their way, in send order: `(landing cycle, wire)`.
    on_the_way: Vec<(Cycle, u32)>,
}

impl CreditWires {
    pub(crate) fn new(cfg: &NocConfig) -> Self {
        let vcs = cfg.vc_layout().total();
        let per_router = PORT_LOCAL * vcs;
        let ni_base = cfg.topology.routers() * per_router;
        let credited = (0..vcs)
            .filter(|&v| cfg.credited(v))
            .fold(0, |m, v| m | 1 << v);
        CreditWires {
            per_router,
            vcs,
            ni_base,
            credited,
            wires: vec![CreditWire::full(BUFFER_DEPTH); ni_base + cfg.topology.nodes() * vcs],
            on_the_way: Vec::new(),
        }
    }

    /// `true` when VC `vc` takes a credit per flit.
    pub(crate) fn credited(&self, vc: usize) -> bool {
        self.credited >> vc & 1 == 1
    }

    /// Wire `slot`.
    pub(crate) fn wire(&self, slot: usize) -> CreditWire {
        self.wires[slot]
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

    /// Wire `slot` of router `r`'s output VC `(port, vc)` on a network
    /// port, and of tile `t`'s injection VC `vc`.
    pub(crate) fn router_slot(&self, r: usize, port: usize, vc: usize) -> usize {
        debug_assert!(port < PORT_LOCAL, "ejection is uncredited");
        r * self.per_router + port * self.vcs + vc
    }

    pub(crate) fn ni_slot(&self, t: usize, vc: usize) -> usize {
        self.ni_base + t * self.vcs + vc
    }

    /// Returns a credit on wire `slot`, landing at `arrive`, when its VC
    /// is credited. Routers and NIs both start on a multiple of `vcs`, so
    /// `slot % vcs` is the VC.
    pub(crate) fn send(&mut self, slot: usize, arrive: Cycle) {
        if self.credited(slot % self.vcs) {
            self.on_the_way.push((arrive, slot as u32));
        }
    }

    /// Lands every credit due by `now`, in send order.
    pub(crate) fn land(&mut self, now: Cycle) {
        let wires = &mut self.wires;
        self.on_the_way.retain(|&(arrive, slot)| {
            if arrive <= now {
                wires[slot as usize].land();
            }
            arrive > now
        });
    }

    /// Credits on their way to wire `slot`.
    pub(crate) fn in_flight(&self, slot: usize) -> u8 {
        let to = |c: &&(Cycle, u32)| c.1 as usize == slot;
        self.on_the_way.iter().filter(to).count() as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::{MechanismConfig, Topology};

    fn config(mechanism: MechanismConfig) -> NocConfig {
        NocConfig::paper_baseline(Topology::mesh(2, 2).expect("valid"), mechanism)
    }

    #[test]
    fn a_credit_lands_at_its_cycle_and_not_before() {
        let mut w = CreditWires::new(&config(MechanismConfig::baseline()));
        let slot = w.router_slot(3, 1, 2);
        w.wires[slot].take();
        w.wires[slot].take();
        w.send(slot, 13);
        w.send(slot, 12);
        w.land(11);
        assert_eq!((w.wires[slot].available(), w.in_flight(slot)), (3, 2));
        w.land(12);
        assert_eq!((w.wires[slot].available(), w.in_flight(slot)), (4, 1));
        w.land(13);
        assert_eq!((w.wires[slot].available(), w.in_flight(slot)), (5, 0));
    }

    /// The complete-mode circuit VC carries no credit; an NI's request VC
    /// does.
    #[test]
    fn only_a_credited_vc_carries_a_credit() {
        let cfg = config(MechanismConfig::complete());
        let mut w = CreditWires::new(&cfg);
        let circuit = cfg.vc_layout().circuit_vc(0);
        let (uncredited, credited) = (w.router_slot(0, 1, circuit), w.ni_slot(2, 0));
        w.wires[credited].take();
        w.send(uncredited, 5);
        w.send(credited, 5);
        assert_eq!((w.in_flight(uncredited), w.in_flight(credited)), (0, 1));
        w.land(5);
        assert_eq!(w.ni(2)[0].available(), BUFFER_DEPTH);
    }
}
