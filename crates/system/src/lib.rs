//! The full tiled CMP: trace-driven in-order cores, L1/L2/directory,
//! memory controllers, and the Reactive Circuits NoC, assembled per the
//! paper's Figure 1 and driven cycle by cycle.
//!
//! The crate also hosts the experiment driver used by every benchmark
//! binary: [`SimConfig`] names a workload, a chip size and a mechanism
//! configuration; [`run_sim`] executes warm-up + measurement and returns a
//! [`RunResult`] with the performance, latency, circuit-outcome, area and
//! energy numbers the paper's tables and figures are built from.
//!
//! # Examples
//!
//! ```
//! use rcsim_core::MechanismConfig;
//! use rcsim_system::{run_sim, SimConfig};
//!
//! let cfg = SimConfig {
//!     seed: 1,
//!     warmup_cycles: 500,
//!     measure_cycles: 2_000,
//!     ..SimConfig::quick(16, MechanismConfig::complete_noack(), "blackscholes")
//! };
//! let result = run_sim(&cfg)?;
//! assert!(result.instructions > 0);
//! assert!(result.health.healthy());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod checkpoint;
mod chip;
mod core_model;
mod envelope;
mod open_loop;
mod report;
mod sim;

pub use adaptive::Adaptive;
pub use checkpoint::{run_sim_resumable, SessionSnapshot, SimSession, CHECKPOINT_FORMAT_VERSION};
pub use chip::{Chip, ChipSnapshot};
pub use core_model::Core;
pub use envelope::{config_hash, fnv1a_64, Envelope};
pub use open_loop::{OpenLoopConfig, SLO};
pub use rcsim_core::{AdaptiveConfig, KernelMode};
pub use rcsim_noc::{
    DeadLinkEvent, DeadRouterEvent, FaultConfig, FaultStats, HealthReport, IngressConfig,
    OverloadReport, StuckPortEvent, QUEUE_CAP,
};
pub use rcsim_workload::ArrivalProcess;
pub use report::{ExternalSummary, LatencyRow, RunResult};
pub use sim::{run_sim, run_sim_traced, SimConfig, SimError, TraceConfig, TraceReport};
