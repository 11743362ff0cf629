//! Core of the Reactive Circuits reproduction: base types, the chip's
//! geometry ([`Topology`]), XY/YX dimension-order routing, the mechanism
//! configuration space, and — the paper's primary contribution — the
//! **circuit reservation engine**.
//!
//! The engine ([`circuit::RouterCircuits`]) implements every reservation
//! flavour evaluated by the paper:
//!
//! * *fragmented* circuits (partial reservations kept, 2 circuits/input,
//!   one per extra circuit VC),
//! * *complete* circuits (all-or-nothing, buffers removed, 5 circuits/input,
//!   same-source-per-input and unique-input-per-output conflict rules),
//! * *timed* complete circuits with the `Slack`, `SlackDelay` and
//!   `Postponed` variants (window algebra in [`circuit::timing`]),
//! * the *ideal* upper bound (no conflict rules, unlimited storage).
//!
//! Higher layers ([`rcsim-noc`](https://docs.rs/rcsim-noc),
//! [`rcsim-protocol`](https://docs.rs/rcsim-protocol)) embed one
//! [`circuit::RouterCircuits`] per router and one
//! [`circuit::CircuitHandle`] per in-flight request.
//!
//! # Examples
//!
//! ```
//! use rcsim_core::routing::Routing;
//! use rcsim_core::{NodeId, Topology};
//!
//! let mesh = Topology::mesh(4, 4)?;
//! let req = mesh.route_path(NodeId(0), NodeId(15), Routing::Xy);
//! let rep = mesh.route_path(NodeId(15), NodeId(0), Routing::Yx);
//! // XY there and YX back cross the same routers, in reverse order.
//! let mut rev = rep.clone();
//! rev.reverse();
//! assert_eq!(req, rev);
//! # Ok::<(), rcsim_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod config;
pub mod routing;
pub mod sched;
pub mod state;
pub mod table4;
pub mod topology;
pub mod types;

pub use config::{CircuitMode, ConfigError, MechanismConfig, TimedPolicy};
pub use routing::TopologyHealth;
pub use sched::{skip_law, superset_law, KernelMode, SKIP_LAW_STRIDE};
pub use state::{Slab, StateMap, StateSet, Stateful};
pub use topology::{
    Topology, TopologySpec, PORTS, PORT_EAST, PORT_LOCAL, PORT_NORTH, PORT_SOUTH, PORT_WEST,
};
pub use types::{Coord, Cycle, MessageClass, NodeId, Vnet};
