//! Input-VC state: the flit buffer and the pipeline state machine.

use crate::flit::Flit;
use rcsim_core::Cycle;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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

/// One input virtual channel: flit buffer plus control state
/// (`G`/`R`/`O` of Figure 2; the credit count lives at the output side).
/// The default is a fresh idle VC.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InputVc {
    /// Pipeline state.
    pub state: VcState,
    /// Cycle the current state was entered (stages take one cycle each, so
    /// a stage may only fire when `state_since < now`).
    pub state_since: Cycle,
    /// Buffered flits, in arrival order.
    pub buffer: VecDeque<Flit>,
    /// Computed output port index (`R`).
    pub route: Option<usize>,
    /// Allocated output VC (`O`).
    pub out_vc: Option<usize>,
    /// Whether the circuit reservation for the buffered request head has
    /// already been attempted at this router (reservations are attempted
    /// once, in parallel with the first VC-allocation try).
    pub circuit_attempted: bool,
}

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
        self.state == VcState::Idle && self.buffer.is_empty()
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
}
