//! The experiment driver: warm-up, measure, report.

use crate::chip::Chip;
use crate::report::RunResult;
use rcsim_core::{KernelMode, MechanismConfig, TopologySpec};
use rcsim_noc::{FaultConfig, HealthReport};
use rcsim_power::{area_savings, EnergyModel};
use rcsim_protocol::ProtocolConfig;
use rcsim_trace::{LatencyBreakdown, MetricsRegistry, TraceEvent};
use rcsim_workload::Workload;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// One simulation point: workload × chip size × mechanism.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Core count (16 or 64 in the paper; non-square counts run on the
    /// most nearly square rectangular mesh).
    pub cores: u16,
    /// Mechanism configuration.
    pub mechanism: MechanismConfig,
    /// Workload name (see [`rcsim_workload::workload_names`]).
    pub workload: String,
    /// RNG seed (workload determinism).
    pub seed: u64,
    /// Cache warm-up cycles before measurement (paper: 200 M; scaled
    /// down here — see DESIGN.md).
    pub warmup_cycles: u64,
    /// Measured cycles (paper: 500 M; scaled down here).
    pub measure_cycles: u64,
    /// Use the scaled-down cache geometry (fast runs with equivalent
    /// traffic shape); `false` uses the full Table 2 sizes.
    pub small_caches: bool,
    /// Fault injection (default: none — zero-perturbation).
    #[serde(default)]
    pub faults: FaultConfig,
    /// Open-loop external traffic at the west edge (`None` keeps the run
    /// purely closed-loop — the default, and bit-identical to builds
    /// before this field existed).
    #[serde(default)]
    pub open_loop: Option<crate::open_loop::OpenLoopConfig>,
    /// Interconnect shape (`cores` fixes the concrete dimensions). The
    /// default mesh is omitted from serialization so existing cache keys
    /// and goldens stay byte-identical.
    #[serde(default, skip_serializing_if = "TopologySpec::is_mesh")]
    pub topology: TopologySpec,
}

impl SimConfig {
    /// A quick-turnaround configuration used by tests and examples.
    pub fn quick(cores: u16, mechanism: MechanismConfig, workload: &str) -> Self {
        Self {
            cores,
            mechanism,
            workload: workload.to_owned(),
            seed: 0xC1C0,
            warmup_cycles: 2_000,
            measure_cycles: 10_000,
            small_caches: true,
            faults: FaultConfig::none(),
            open_loop: None,
            topology: TopologySpec::Mesh,
        }
    }

    /// The same configuration on a different interconnect shape.
    #[must_use]
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }
}

/// Errors from [`run_sim`].
#[derive(Debug)]
pub enum SimError {
    /// Unknown workload name.
    UnknownWorkload(String),
    /// Invalid mesh or mechanism configuration.
    Config(rcsim_core::ConfigError),
    /// The watchdog declared the network dead (no flit movement with
    /// traffic in flight): the attached report says what wedged.
    Stalled {
        /// The liveness snapshot taken when the stall was declared.
        report: Box<HealthReport>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownWorkload(w) => write!(f, "unknown workload '{w}'"),
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::Stalled { report } => {
                write!(f, "simulation stalled at cycle {}\n{report}", report.cycle)
            }
        }
    }
}

impl Error for SimError {}

impl From<rcsim_core::ConfigError> for SimError {
    fn from(e: rcsim_core::ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// How to trace a run (see [`run_sim_traced`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Ring capacity in events; the newest `capacity` events survive.
    pub capacity: usize,
    /// Cycles between occupancy samples (0 = no sampling).
    pub epoch: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            capacity: 1 << 20,
            epoch: 100,
        }
    }
}

/// Everything the trace layer collected over the measure window.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The raw event log, in emission order (a suffix of the run when the
    /// ring overflowed).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow during the measure window.
    pub dropped: u64,
    /// Per-message latency phases reconstructed from the events.
    pub breakdown: LatencyBreakdown,
    /// Event counts by kind plus last-sample occupancy gauges.
    pub metrics: MetricsRegistry,
}

/// Runs one simulation point and gathers every measured quantity.
///
/// # Errors
///
/// Returns [`SimError`] for unknown workloads or invalid configurations.
pub fn run_sim(cfg: &SimConfig) -> Result<RunResult, SimError> {
    run_sim_inner(cfg, None).map(|(result, _)| result)
}

/// [`run_sim`] with event tracing: identical simulation (the trace layer
/// is purely observational — see the bit-identity test), plus a
/// [`TraceReport`] covering the measure window (the warm-up's events are
/// discarded at the reset boundary).
///
/// # Errors
///
/// Returns [`SimError`] for unknown workloads or invalid configurations.
pub fn run_sim_traced(
    cfg: &SimConfig,
    trace: &TraceConfig,
) -> Result<(RunResult, TraceReport), SimError> {
    run_sim_inner(cfg, Some(trace)).map(|(result, report)| {
        (
            result,
            report.expect("tracing was requested, so a report exists"),
        )
    })
}

fn run_sim_inner(
    cfg: &SimConfig,
    trace: Option<&TraceConfig>,
) -> Result<(RunResult, Option<TraceReport>), SimError> {
    let mut session = crate::checkpoint::SimSession::new(cfg, trace, KernelMode::Event, 1)?;
    let total = session.total();
    session.run_until(total)?;
    Ok(session.finish())
}

/// Builds the chip a [`SimConfig`] describes, fully wired (open loop)
/// but not yet ticked. Shared by [`run_sim`] and the checkpoint layer so
/// a restore target is constructed by exactly the same code path as a
/// fresh run.
pub(crate) fn build_chip(cfg: &SimConfig, kernel: KernelMode) -> Result<Chip, SimError> {
    // The spec picks the router grid: square for the paper's 16/64-core
    // chips, the most nearly square rectangle otherwise (scalability
    // sweeps at 32, 48, … cores).
    let topology = cfg.topology.build(cfg.cores)?;
    let workload = Workload::by_name(&cfg.workload, topology.nodes(), cfg.seed)
        .ok_or_else(|| SimError::UnknownWorkload(cfg.workload.clone()))?;
    let proto = if cfg.small_caches {
        ProtocolConfig::small_for_tests(&topology)
    } else {
        ProtocolConfig::paper_defaults(&topology)
    };
    let mut chip = Chip::with_faults(
        topology,
        cfg.mechanism,
        proto,
        &workload,
        cfg.faults.clone(),
    )?;
    chip.set_kernel(kernel);
    if let Some(ol) = &cfg.open_loop {
        chip.enable_open_loop(ol.clone(), cfg.seed)?;
    }
    Ok(chip)
}

/// Gathers every measured quantity from a chip that has completed its
/// measure window (the tail of [`run_sim`], shared with the checkpoint
/// layer's [`SimSession::finish`](crate::checkpoint::SimSession::finish)).
pub(crate) fn assemble_result(cfg: &SimConfig, chip: &Chip) -> RunResult {
    let topology = chip.topology();
    let stats = chip.noc_stats();
    let l1 = chip.l1_totals();
    let l2 = chip.l2_totals();
    let (grid_w, grid_h) = topology.dims();
    let energy = EnergyModel::default_32nm().network_energy(
        &stats,
        &cfg.mechanism,
        grid_w as usize,
        grid_h as usize,
    );

    let mut result = RunResult {
        workload: cfg.workload.clone(),
        mechanism: cfg.mechanism.label(),
        cores: topology.nodes(),
        cycles: cfg.measure_cycles,
        instructions: chip.instructions(),
        messages: BTreeMap::new(),
        latency: BTreeMap::new(),
        outcomes: BTreeMap::new(),
        reservations_at_index: Vec::new(),
        reservations_failed: 0,
        reservation_failures: [0; 4],
        load: stats.load_flits_per_node_per_100(topology.nodes()),
        energy,
        area_savings: area_savings(&cfg.mechanism, topology.nodes()),
        l1_miss_rate: if l1.hits + l1.misses == 0 {
            0.0
        } else {
            l1.misses as f64 / (l1.hits + l1.misses) as f64
        },
        acks_elided: l1.acks_elided,
        l2_queued_on_busy: l2.queued_on_busy,
        health: chip.health(),
        external: chip.external_summary(),
    };
    result.fill_noc_summaries(&stats);
    result
}
