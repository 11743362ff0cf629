//! The router of the paper's Table 4, as constants.
//!
//! The paper evaluates one router microarchitecture, and these are its
//! fixed parameters. A hardware router generator fixes the same ones at
//! elaboration time; here they are compile-time constants that every
//! crate reads from this module, so the pipeline the network simulates,
//! the windows the timed reservations estimate
//! ([`crate::circuit::timing`]) and the area model (`rcsim-power`) cannot
//! disagree about them.

/// Cycles a flit spends on a wire between two routers, or between a
/// router and its tile's network interface.
pub const LINK_LATENCY: u32 = 1;

/// Pipeline stages a packet-switched head flit takes in a router: route
/// computation, VC allocation (with the circuit reservation of §4.1 in
/// parallel), switch allocation and switch traversal.
pub const PIPELINE_STAGES: u32 = 4;

/// Router cycles of a flit that finds its circuit reserved: it crosses
/// the crossbar in the cycle it arrives (§4.3).
pub const BYPASS_STAGES: u32 = 1;

/// Flits one VC buffer holds: one whole data message. A `u8`, because a
/// VC's credit counter is one byte.
pub const BUFFER_DEPTH: u8 = 5;

/// Payload bytes per flit.
pub const FLIT_BYTES: u32 = 16;

/// Virtual channels of the request virtual network. The reply network's
/// count depends on the mechanism (`MechanismConfig::reply_vcs`), plus
/// one on wrap topologies for the dateline classes.
pub const REQ_VCS: usize = 2;

/// Cycles a timed reservation adds to its nominal estimate of the reply's
/// injection for the fixed pipeline work at both endpoints: ejection at
/// the responder, its network interface, and injection of the reply. The
/// estimator of §4.7 counts the request's remaining hops, the responder's
/// turnaround and the reply's hops; these cycles are known at design
/// time, so an undelayed request yields an exactly met window.
pub const INJECT_OVERHEAD: u32 = 6;
