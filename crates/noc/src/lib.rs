//! Cycle-accurate wormhole virtual-channel mesh NoC with Reactive Circuits.
//!
//! This crate implements the paper's baseline network (Table 4: 4-stage
//! routers — routing/input buffering, VC allocation, switch allocation,
//! switch traversal — round-robin two-phase allocators, 5-flit VC buffers,
//! 16 B flits, 1-cycle links, two virtual networks routed XY/YX; the fixed
//! values are the constants of [`rcsim_core::table4`], and a [`NocConfig`]
//! chooses only the topology and the mechanism) and every Reactive
//! Circuits router variant on top of it:
//!
//! * request packets reserve circuits for their replies **in parallel with
//!   VC allocation** at every router they cross (§4.1);
//! * replies that find their circuit built bypass the pipeline and cross a
//!   router in a single cycle (§4.3);
//! * circuits are undone through the credit channel (§4.4);
//! * complete-mode circuit VCs are bufferless; fragmented mode adds a
//!   third, buffered reply VC (§4.2);
//! * scrounger replies may ride a foreign circuit to an intermediate node
//!   (§4.5); timed reservations hold resources only for a computed window
//!   (§4.7); the ideal mode reserves everything and resolves collisions
//!   per cycle (§4.8).
//!
//! The [`Network`] type owns routers, links and network interfaces and is
//! driven one cycle at a time by [`Network::tick`]; packets go in through
//! [`Network::inject`] and come back out of [`Network::take_delivered`].
//!
//! # Examples
//!
//! ```
//! use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
//! use rcsim_noc::{Network, NocConfig, PacketSpec};
//!
//! let cfg = NocConfig::paper_baseline(Topology::mesh(4, 4)?, MechanismConfig::baseline());
//! let mut net = Network::new(cfg)?;
//! net.inject(PacketSpec::new(NodeId(0), NodeId(15), MessageClass::L1Request));
//! for _ in 0..100 {
//!     net.tick();
//! }
//! let delivered = net.take_delivered(NodeId(15));
//! assert_eq!(delivered.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod config;
mod credit;
mod fault;
mod flit;
mod health;
mod ingress;
mod links;
mod network;
mod ni;
mod router;
mod stats;
pub mod traffic;

pub use config::{NocConfig, VcLayout};
pub use fault::{DeadLinkEvent, FaultConfig, FaultStats};
pub use flit::{Delivered, Flit, FlitKind, PacketId, PacketSpec};
pub use health::{
    AdaptiveReport, DeadlockReport, DeadlockResource, HealthReport, LeakedCircuit, StuckMessage,
    MAX_REPORT_ENTRIES, STALL_WINDOW,
};
pub use ingress::{
    Admission, IngressConfig, OverloadReport, RejectReason, ReleasedArrival, ShedArrival, QUEUE_CAP,
};
pub use network::{Network, NetworkSnapshot, NetworkTelemetry};
pub use stats::{CircuitOutcome, MessageGroup, NocStats};
