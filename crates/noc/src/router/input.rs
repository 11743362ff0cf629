//! Input-VC state: the pipeline state machine and the flit buffer, one
//! cache line per VC.

use crate::flit::Flit;
use rcsim_core::Cycle;
use serde::{Deserialize, Serialize};

/// Pipeline state of one input virtual channel (the `G` field of the
/// paper's Figure 2 router diagram).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum VcState {
    /// No packet in flight.
    #[default]
    Idle,
    /// Head buffered, route computed; waiting for VC allocation.
    WaitVa,
    /// Output VC granted; waiting for the head's switch allocation.
    WaitSa,
    /// Head has been granted the switch; body/tail flits streaming.
    Active,
}

/// Flits an [`InputVc`]'s ring holds: with the control words, one cache
/// line. A deeper buffer's overflow goes to the router's spill list.
pub const RING: usize = 6;

/// One input virtual channel: control state (`G`/`R`/`O` of Figure 2; the
/// credit count lives at the output side) and the head of its flit
/// buffer, laid out together so every pipeline stage of a packet touches
/// the same line. The default is a fresh idle VC.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
#[repr(align(64))]
pub struct InputVc {
    /// Cycle the current state was entered (stages take one cycle each, so
    /// a stage may only fire when `state_since < now`).
    pub state_since: Cycle,
    /// Pipeline state.
    pub state: VcState,
    /// Computed output port index (`R`).
    pub route: Option<u8>,
    /// Allocated output VC (`O`).
    pub out_vc: Option<u8>,
    /// Whether the circuit reservation for the buffered request head has
    /// already been attempted at this router (reservations are attempted
    /// once, in parallel with the first VC-allocation try).
    pub circuit_attempted: bool,
    /// The first `len` entries of `ring` are the buffered flits, oldest
    /// first.
    len: u8,
    ring: [Flit; RING],
}

const _: () = assert!(std::mem::size_of::<InputVc>() == 64);

impl InputVc {
    /// Resets control state after a tail flit departs.
    pub fn reset(&mut self, now: Cycle) {
        self.state = VcState::Idle;
        self.state_since = now;
        self.route = None;
        self.out_vc = None;
        self.circuit_attempted = false;
    }

    /// `true` when a new head may be accepted (wormhole: one packet at a
    /// time per VC).
    pub fn is_idle(&self) -> bool {
        self.state == VcState::Idle && self.len == 0
    }

    /// The oldest buffered flit.
    pub fn front(&self) -> Option<Flit> {
        self.flits().next()
    }

    /// Flits in the ring.
    pub fn len(&self) -> usize {
        self.len.into()
    }

    /// Appends `flit` to the ring; `false` (nothing done) when it is full.
    pub fn push(&mut self, flit: Flit) -> bool {
        let Some(entry) = self.ring.get_mut(usize::from(self.len)) else {
            return false;
        };
        *entry = flit;
        self.len += 1;
        true
    }

    /// Takes the oldest flit out of the ring (the rest move up: they
    /// share its cache line).
    pub fn pop(&mut self) -> Option<Flit> {
        let flit = self.front()?;
        self.ring.copy_within(1..usize::from(self.len), 0);
        self.len -= 1;
        Some(flit)
    }

    /// The ring's flits, oldest first.
    pub fn flits(&self) -> impl Iterator<Item = Flit> + '_ {
        self.ring[..self.len()].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_lifecycle() {
        let mut vc = InputVc::default();
        assert!(vc.is_idle());
        vc.state = VcState::WaitVa;
        assert!(!vc.is_idle());
        vc.route = Some(1);
        vc.out_vc = Some(2);
        vc.circuit_attempted = true;
        vc.reset(42);
        assert_eq!(vc.state, VcState::Idle);
        assert_eq!(vc.state_since, 42);
        assert_eq!(vc.route, None);
        assert_eq!(vc.out_vc, None);
        assert!(!vc.circuit_attempted);
    }

    #[test]
    fn ring_is_a_bounded_fifo() {
        let mut vc = InputVc::default();
        let flit = |k: u32| Flit::new(k, 0, 1, 0, 0);
        for round in 0..4 {
            for k in 0..RING as u32 {
                assert!(vc.push(flit(round * 10 + k)));
            }
            assert!(!vc.push(flit(99)), "a full ring refuses");
            assert!(!vc.is_idle());
            let held: Vec<u32> = vc.flits().map(|f| f.slot).collect();
            assert_eq!(
                held,
                (0..RING as u32).map(|k| round * 10 + k).collect::<Vec<_>>()
            );
            // Leave the ring at a different offset each round.
            for k in 0..RING as u32 {
                assert_eq!(vc.front(), Some(flit(round * 10 + k)));
                assert_eq!(vc.pop(), Some(flit(round * 10 + k)));
                if k == round {
                    assert!(vc.push(flit(77)));
                    assert_eq!(vc.len(), RING - 1 - k as usize + 1);
                }
            }
            assert_eq!(vc.pop(), Some(flit(77)));
            assert_eq!((vc.pop(), vc.len()), (None, 0));
        }
    }
}
