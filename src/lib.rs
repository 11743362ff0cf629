//! # Reactive Circuits
//!
//! A from-scratch reproduction of *"Dynamic construction of circuits for
//! reactive traffic in homogeneous CMPs"* (Ortín-Obón et al., DATE 2014,
//! and its extended version): a cycle-accurate mesh NoC whose routers let
//! coherence **requests reserve circuits for their replies**, so replies
//! cross each router in a single cycle — plus everything needed to
//! evaluate it like the paper does: a MESI directory protocol over
//! distributed L2 banks, trace-driven cores, synthetic PARSEC/SPLASH-2
//! -shaped workloads, and DSENT-like area/energy models.
//!
//! This umbrella crate re-exports the workspace libraries:
//!
//! | crate | contents |
//! |---|---|
//! | [`rcsim_core`] | base types, mesh, XY/YX routing, the circuit engine |
//! | [`rcsim_noc`] | the 4-stage wormhole VC router network + Reactive Circuits |
//! | [`rcsim_protocol`] | MESI directory, L1/L2 caches, memory controllers |
//! | [`rcsim_workload`] | deterministic synthetic application profiles |
//! | [`rcsim_power`] | router area + network energy models |
//! | [`rcsim_system`] | chip assembly and the experiment driver |
//! | [`rcsim_stats`] | accumulators, histograms, confidence intervals |
//!
//! # Quick start
//!
//! ```
//! use reactive_circuits::prelude::*;
//!
//! let baseline = run_sim(&SimConfig::quick(16, MechanismConfig::baseline(), "fft"))?;
//! let circuits = run_sim(&SimConfig::quick(16, MechanismConfig::complete_noack(), "fft"))?;
//! let speedup = circuits.speedup_over(&baseline);
//! assert!(speedup > 0.9); // short windows are noisy; full runs show ~+4%
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rcsim_core as core;
pub use rcsim_noc as noc;
pub use rcsim_power as power;
pub use rcsim_protocol as protocol;
pub use rcsim_stats as stats;
pub use rcsim_system as system;
pub use rcsim_workload as workload;

/// The most common imports for experiments.
pub mod prelude {
    pub use rcsim_core::{
        CircuitMode, MechanismConfig, MessageClass, NodeId, TimedPolicy, Topology, TopologySpec,
    };
    pub use rcsim_noc::{
        CircuitOutcome, FaultConfig, FaultStats, HealthReport, MessageGroup, Network, NocConfig,
        PacketSpec,
    };
    pub use rcsim_power::{area_savings, EnergyModel, RouterArea};
    pub use rcsim_stats::{geometric_mean, Accumulator};
    pub use rcsim_system::{
        run_sim, run_sim_resumable, Chip, ExternalSummary, IngressConfig, KernelMode,
        OpenLoopConfig, OverloadReport, RunResult, SessionSnapshot, SimConfig, SimError,
        SimSession,
    };
    pub use rcsim_workload::{workload_names, ArrivalProcess, Workload};
}
