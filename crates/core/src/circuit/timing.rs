//! Timed-reservation window algebra (paper §4.7).
//!
//! When a request reserves a circuit at a router it optimistically computes
//! *when* the reply will occupy that router: the request still needs
//! [`REQ_HOP_CYCLES`] per remaining hop, the responder takes `turnaround`
//! cycles (L2 hit, or memory latency for `MEMORY` replies), and the reply
//! then flies back at [`REP_HOP_CYCLES`] per hop.
//!
//! Define the per-router **nominal injection time** — the time the reply
//! would leave its source NI if nothing else goes wrong —
//!
//! ```text
//! n_R = now_R + 5 · hops_remaining(request) + turnaround + INJECT_OVERHEAD
//! ```
//!
//! The last term is Table 4's
//! [`INJECT_OVERHEAD`](crate::table4::INJECT_OVERHEAD): the request's
//! ejection at the responder, the responder's NI and the reply's
//! injection, fixed work at the two endpoints that the hop and
//! turnaround counts leave out. A reply injected at time `T` crosses its
//! NI's link to its first router in one [`LINK_LATENCY`], so it occupies
//! R exactly during `[T + 1 + 2d, T + 1 + 2d + flits]`, `d` being the
//! reply's hop distance from its source to R (complete circuits never
//! block). The window reserved at R for a reply injected at `n_R + shift`
//! is therefore `[n_R + 1 + shift + 2·d, n_R + 1 + shift + 2·d + flits +
//! slack]`, and the reply meets *every* router's window iff
//!
//! ```text
//! max_R (n_R + shift_R)  ≤  T  ≤  min_R (n_R + shift_R + slack)
//! ```
//!
//! so the whole check collapses to two scalars (`lower`, `upper`) carried
//! in the request header — see [`super::TimingState`]. Request delays make
//! later `n_R` larger, shrinking the feasible interval; slack re-opens it;
//! *delay* lets a reservation shift right when its slot is taken;
//! *postponed* shifts every window right by a fixed amount.

use crate::table4::{BYPASS_STAGES, LINK_LATENCY, PIPELINE_STAGES};
use crate::types::Cycle;
use serde::{Deserialize, Serialize};

/// Cycles per hop for a packet-switched request: the router's pipeline
/// stages plus the link (Table 4).
pub const REQ_HOP_CYCLES: u32 = PIPELINE_STAGES + LINK_LATENCY;

/// Cycles per hop for a reply on a circuit: the router's one bypass cycle
/// plus the link (§4.3).
pub const REP_HOP_CYCLES: u32 = BYPASS_STAGES + LINK_LATENCY;

/// A half-open reservation window `[start, end)` in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeWindow {
    /// First cycle the circuit is reserved for.
    pub start: Cycle,
    /// First cycle after the reservation.
    pub end: Cycle,
}

impl TimeWindow {
    /// Creates a window.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: Cycle, end: Cycle) -> Self {
        assert!(end >= start, "window end before start");
        Self { start, end }
    }

    /// `true` when the two half-open windows share at least one cycle.
    /// Empty windows overlap nothing.
    pub fn overlaps(&self, other: &TimeWindow) -> bool {
        self.start.max(other.start) < self.end.min(other.end)
    }

    /// `true` when `t` falls inside the window.
    pub fn contains(&self, t: Cycle) -> bool {
        t >= self.start && t < self.end
    }

    /// Window length in cycles.
    pub fn duration(&self) -> Cycle {
        self.end - self.start
    }

    /// The window shifted `delta` cycles later.
    pub fn shifted(&self, delta: Cycle) -> TimeWindow {
        TimeWindow {
            start: self.start + delta,
            end: self.end + delta,
        }
    }
}

/// Nominal reply injection time as estimated at a router: `now` plus the
/// request's remaining flight plus the responder turnaround.
pub fn nominal_inject(now: Cycle, req_hops_remaining: u32, turnaround: u32) -> Cycle {
    now + (REQ_HOP_CYCLES * req_hops_remaining) as Cycle + turnaround as Cycle
}

/// The occupancy window at a router `rep_hops` reply-hops away from the
/// reply source, for a reply injected at `nominal + shift` that is
/// `reply_flits` long, widened by `slack`.
pub fn router_window(
    nominal: Cycle,
    shift: u32,
    rep_hops: u32,
    reply_flits: u32,
    slack: u32,
) -> TimeWindow {
    let start = nominal + shift as Cycle + (REP_HOP_CYCLES * rep_hops) as Cycle;
    TimeWindow::new(start, start + reply_flits as Cycle + slack as Cycle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_basics() {
        let w = TimeWindow::new(10, 15);
        assert_eq!(w.duration(), 5);
        assert!(w.contains(10));
        assert!(w.contains(14));
        assert!(!w.contains(15));
        assert!(!w.contains(9));
        assert_eq!(w.shifted(5), TimeWindow::new(15, 20));
    }

    #[test]
    #[should_panic(expected = "window end before start")]
    fn inverted_window_panics() {
        TimeWindow::new(5, 4);
    }

    #[test]
    fn overlap_is_symmetric_and_halfopen() {
        let a = TimeWindow::new(0, 10);
        let b = TimeWindow::new(10, 20); // touching, half-open: no overlap
        let c = TimeWindow::new(9, 11);
        assert!(!a.overlaps(&b));
        assert!(!b.overlaps(&a));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&a));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn empty_window_never_overlaps() {
        let e = TimeWindow::new(5, 5);
        let w = TimeWindow::new(0, 10);
        assert!(!e.overlaps(&w));
        assert!(!w.overlaps(&e));
    }

    #[test]
    fn nominal_matches_paper_example() {
        // §4.1: in a 16-core chip the average circuit set-up needs 19 cycles
        // while the L2 hit takes only 7 — a request 3 hops from its
        // destination still needs 15 cycles of flight before the 7-cycle hit.
        assert_eq!(nominal_inject(0, 3, 7), 22);
        assert_eq!(nominal_inject(100, 0, 7), 107);
    }

    #[test]
    fn router_window_accounts_for_reply_flight() {
        // Reply source at hop 0; a router 2 hops along the reply path sees
        // the reply 4 cycles after injection, for 5 flits.
        let w = router_window(100, 0, 2, 5, 0);
        assert_eq!(w, TimeWindow::new(104, 109));
        // Slack widens, shift translates.
        let w = router_window(100, 3, 2, 5, 4);
        assert_eq!(w, TimeWindow::new(107, 116));
    }

    #[test]
    fn scalar_check_equals_per_router_check() {
        // Exhaustively verify on a synthetic path that the (lower, upper)
        // scalar test matches checking every router window individually.
        let turnaround = 7u32;
        let flits = 5u32;
        let slack = 6u32;
        // Request visits routers 0..=4; suffers `delay[i]` extra cycles
        // before reserving at router i.
        let delays = [0u32, 3, 0, 2, 1];
        let path_hops = 4u32;
        let mut now = 0 as Cycle;
        let mut windows = Vec::new();
        let mut lower = 0 as Cycle;
        let mut upper = Cycle::MAX;
        for (i, d) in delays.iter().enumerate() {
            now += *d as Cycle;
            let h_req = path_hops - i as u32;
            let h_rep = path_hops - i as u32; // reply hops from source back to router i
            let n = nominal_inject(now, h_req, turnaround);
            windows.push((h_rep, router_window(n, 0, h_rep, flits, slack)));
            lower = lower.max(n);
            upper = upper.min(n + slack as Cycle);
            now += REQ_HOP_CYCLES as Cycle; // advance one hop
        }
        // For a range of injection times, both checks must agree.
        for t in 0..200u64 {
            let scalar_ok = t >= lower && t <= upper;
            let per_router_ok = windows.iter().all(|(h_rep, w)| {
                let occ_start = t + (REP_HOP_CYCLES * h_rep) as Cycle;
                let occ_end = occ_start + flits as Cycle;
                occ_start >= w.start && occ_end <= w.end
            });
            assert_eq!(
                scalar_ok, per_router_ok,
                "t={t} lower={lower} upper={upper}"
            );
        }
    }
}
