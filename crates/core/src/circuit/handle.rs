//! The circuit-construction record carried in a request's header.

use crate::types::{Cycle, NodeId};
use serde::{Deserialize, Serialize};

/// Identity of a circuit as stored at routers: the requestor (the reply's
/// destination) plus the cache-line address (§4.1 — "requestor identifier
/// and cache line address"). Ordered by requestor, then address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CircuitKey {
    /// The node that issued the request and will receive the reply.
    pub requestor: NodeId,
    /// The cache-line address the transaction concerns.
    pub block: u64,
}

/// Scalar summary of every reserved window along the path (see the module
/// docs of [`timing`](super::timing)): the reply can use the circuit iff
/// it is injected at some `T` with `lower ≤ T ≤ upper`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingState {
    /// Latest window lower bound seen so far (`max_R n_R + shift_R`).
    pub lower: Cycle,
    /// Earliest window upper bound seen so far (`min_R n_R + shift_R + S`).
    pub upper: Cycle,
    /// Current reservation shift (postponement plus accumulated delay).
    pub shift: u32,
    /// Upper limit on `shift` (postponement + delay budget).
    pub max_shift: u32,
}

impl TimingState {
    /// A fresh state before any reservation: the feasible interval is
    /// unbounded.
    pub fn new(initial_shift: u32, max_shift: u32) -> Self {
        Self {
            lower: 0,
            upper: Cycle::MAX,
            shift: initial_shift,
            max_shift,
        }
    }

    /// Narrows the feasible interval with one router's reservation
    /// (`nominal` inject estimate, current `shift`, `slack` width).
    pub fn narrow(&mut self, nominal: Cycle, slack: u32) {
        let s = self.shift as Cycle;
        self.lower = self.lower.max(nominal + s);
        self.upper = self.upper.min(nominal + s + slack as Cycle);
    }

    /// `true` while some injection time can still satisfy every window.
    pub fn feasible(&self) -> bool {
        self.lower <= self.upper
    }

    /// The injection time the reply must use if ready at `ready`:
    /// it waits for the latest window start. `None` if the circuit can no
    /// longer be used (ready too late, or the interval collapsed).
    pub fn injection_time(&self, ready: Cycle) -> Option<Cycle> {
        let t = ready.max(self.lower);
        (self.feasible() && t <= self.upper).then_some(t)
    }
}

/// Construction state of one circuit, carried in the request header as it
/// travels and finally handed to the reply sender's network interface.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CircuitHandle {
    /// Circuit identity (also the router-table lookup key).
    pub key: CircuitKey,
    /// The reply sender (= the request's destination).
    pub source: NodeId,
    /// Total hops of the request path.
    pub path_hops: u32,
    /// Routers successfully reserved so far.
    pub built_hops: u32,
    /// Set when a complete-mode reservation failed; no further routers are
    /// reserved and the built prefix is undone.
    pub failed: bool,
    /// Timed-window state (`None` for untimed circuits).
    pub timing: Option<TimingState>,
    /// Number of flits of the reply this circuit is for.
    pub reply_flits: u32,
    /// Expected responder turnaround in cycles (L2 hit or memory latency).
    pub turnaround: u32,
}

impl CircuitHandle {
    /// Starts a circuit record for a request from `requestor` about line
    /// `block`, travelling `path_hops` hops to `source` (the reply sender).
    pub fn new(
        requestor: NodeId,
        block: u64,
        source: NodeId,
        path_hops: u32,
        reply_flits: u32,
        turnaround: u32,
    ) -> Self {
        Self {
            key: CircuitKey { requestor, block },
            source,
            path_hops,
            built_hops: 0,
            failed: false,
            timing: None,
            reply_flits,
            turnaround,
        }
    }

    /// Arms the timed-window state according to a policy.
    pub fn with_policy(mut self, policy: crate::config::TimedPolicy) -> Self {
        if policy.is_timed() {
            let postpone = policy.postponement(self.path_hops);
            let max_shift = postpone + policy.max_delay(self.path_hops);
            self.timing = Some(TimingState::new(postpone, max_shift));
        }
        self
    }

    /// `true` when every router on the path was reserved: a path of
    /// `path_hops` link hops crosses `path_hops + 1` routers, each of
    /// which holds one reservation.
    pub fn fully_built(&self) -> bool {
        !self.failed && self.built_hops == self.path_hops + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TimedPolicy;

    fn handle(path_hops: u32) -> CircuitHandle {
        CircuitHandle::new(NodeId(1), 0x40, NodeId(9), path_hops, 5, 7)
    }

    #[test]
    fn untimed_handle_has_no_timing() {
        let h = handle(4).with_policy(TimedPolicy::Untimed);
        assert!(h.timing.is_none());
        assert!(!h.fully_built());
    }

    #[test]
    fn policy_budgets_scale_with_path() {
        let h = handle(4).with_policy(TimedPolicy::SlackDelay {
            slack_per_hop: 1,
            delay_per_hop: 2,
        });
        let t = h.timing.unwrap();
        assert_eq!(t.shift, 0);
        assert_eq!(t.max_shift, 8);

        let h = handle(4).with_policy(TimedPolicy::Postponed {
            postpone_per_hop: 3,
        });
        let t = h.timing.unwrap();
        assert_eq!(t.shift, 12);
        assert_eq!(t.max_shift, 12);
    }

    #[test]
    fn narrowing_tracks_bounds() {
        let mut t = TimingState::new(0, 0);
        t.narrow(100, 6);
        assert_eq!((t.lower, t.upper), (100, 106));
        t.narrow(103, 6); // a delayed router estimate
        assert_eq!((t.lower, t.upper), (103, 106));
        assert!(t.feasible());
        t.narrow(110, 6); // delay beyond the slack: infeasible
        assert!(!t.feasible());
    }

    #[test]
    fn injection_waits_for_window() {
        let mut t = TimingState::new(0, 0);
        t.narrow(100, 6);
        assert_eq!(t.injection_time(90), Some(100)); // early reply waits
        assert_eq!(t.injection_time(104), Some(104)); // in-window
        assert_eq!(t.injection_time(107), None); // too late
    }

    #[test]
    fn shift_translates_bounds() {
        let mut t = TimingState::new(10, 10);
        t.narrow(100, 0);
        assert_eq!((t.lower, t.upper), (110, 110));
        assert_eq!(t.injection_time(0), Some(110)); // forced postponement wait
    }

    #[test]
    fn fully_built_requires_all_routers() {
        let mut h = handle(3);
        h.built_hops = 3;
        assert!(!h.fully_built(), "3 hops cross 4 routers");
        h.built_hops = 4;
        assert!(h.fully_built());
        h.failed = true;
        assert!(!h.fully_built());
    }
}
