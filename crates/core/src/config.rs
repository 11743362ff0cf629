//! Configuration of the Reactive Circuits mechanism.
//!
//! Each configuration evaluated in the paper (§4, Figures 6–9) is a value
//! of [`MechanismConfig`]; named constructors build the exact points of the
//! paper's grid, e.g. [`MechanismConfig::complete_noack`] or
//! [`MechanismConfig::slack_delay`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// How circuits are reserved (paper §4.2, §4.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CircuitMode {
    /// No circuits: the plain 4-stage wormhole baseline.
    None,
    /// Partial reservations are kept when a hop fails; needs a third reply
    /// VC and keeps buffers on the circuit VCs.
    Fragmented,
    /// All-or-nothing reservations; the circuit VC has **no buffer**, which
    /// is where the area/energy savings come from.
    Complete,
    /// Upper bound: unlimited circuit storage and no conflict rules;
    /// per-cycle collisions stall one of the colliding flits (§4.8).
    Ideal,
}

impl CircuitMode {
    /// `true` for the modes that guarantee a reserved circuit end-to-end.
    pub fn is_complete(self) -> bool {
        matches!(self, CircuitMode::Complete | CircuitMode::Ideal)
    }
}

/// Timed reservation policy for complete circuits (§4.7). All cycle
/// quantities are *per hop of the path* and scale with path length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimedPolicy {
    /// Circuits are held from reservation until use (non-timed).
    Untimed,
    /// Reserve exactly the optimistically-computed slot.
    Exact,
    /// Widen the slot by `slack_per_hop` cycles per hop.
    Slack {
        /// Extra reserved cycles per hop of the path.
        slack_per_hop: u32,
    },
    /// Slack plus the option to shift the reservation later when the slot
    /// is taken (must be combined with slack, §4.7 variant 2).
    SlackDelay {
        /// Extra reserved cycles per hop of the path.
        slack_per_hop: u32,
        /// Maximum later shift, in cycles per hop of the path.
        delay_per_hop: u32,
    },
    /// Reserve an exact-size slot shifted `postpone_per_hop` cycles per hop
    /// later; every reply waits for its slot (§4.7 variant 3).
    Postponed {
        /// Forced later shift, in cycles per hop of the path.
        postpone_per_hop: u32,
    },
}

impl TimedPolicy {
    /// `true` for any policy that attaches a time window to reservations.
    pub fn is_timed(self) -> bool {
        !matches!(self, TimedPolicy::Untimed)
    }

    /// Window slack budget for a path of `path_hops` hops.
    pub fn slack(self, path_hops: u32) -> u32 {
        match self {
            TimedPolicy::Untimed | TimedPolicy::Exact | TimedPolicy::Postponed { .. } => 0,
            TimedPolicy::Slack { slack_per_hop }
            | TimedPolicy::SlackDelay { slack_per_hop, .. } => slack_per_hop * path_hops,
        }
    }

    /// Maximum reservation shift for a path of `path_hops` hops.
    pub fn max_delay(self, path_hops: u32) -> u32 {
        match self {
            TimedPolicy::SlackDelay { delay_per_hop, .. } => delay_per_hop * path_hops,
            _ => 0,
        }
    }

    /// Forced postponement for a path of `path_hops` hops.
    pub fn postponement(self, path_hops: u32) -> u32 {
        match self {
            TimedPolicy::Postponed { postpone_per_hop } => postpone_per_hop * path_hops,
            _ => 0,
        }
    }
}

/// Full configuration of the Reactive Circuits mechanism for one run.
///
/// # Examples
///
/// ```
/// use rcsim_core::MechanismConfig;
///
/// let cfg = MechanismConfig::slack_delay(1);
/// assert_eq!(cfg.label(), "SlackDelay_1_NoAck");
/// assert!(cfg.eliminate_acks);
/// assert_eq!(cfg.max_circuits_per_input, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MechanismConfig {
    /// Reservation discipline.
    pub mode: CircuitMode,
    /// Timed-window policy (complete circuits only).
    pub timed: TimedPolicy,
    /// Eliminate `L1_DATA_ACK` messages whose data travelled on a complete
    /// circuit (§4.6). Requires a complete mode.
    pub eliminate_acks: bool,
    /// Let circuit-less replies scrounge a foreign circuit towards an
    /// intermediate node (§4.5). Complete circuits only.
    pub reuse_circuits: bool,
    /// Scroungers *borrow* the circuit (it survives for its own reply)
    /// instead of consuming it. The paper leaves this open; both modes are
    /// implemented (see DESIGN.md §4b and the Figure 9 notes).
    pub scrounger_borrow: bool,
    /// Simultaneous circuits storable per input port (paper: 2 fragmented,
    /// 5 complete; ignored by `Ideal`).
    pub max_circuits_per_input: u8,
    /// Undo circuits when the L2 misses and the request goes to memory.
    /// The paper found keeping them performs better (§4.4), so every named
    /// configuration sets this to `false`; it is exposed for the ablation.
    pub undo_on_l2_miss: bool,
}

impl MechanismConfig {
    /// The conventional network without circuits.
    pub fn baseline() -> Self {
        Self {
            mode: CircuitMode::None,
            timed: TimedPolicy::Untimed,
            eliminate_acks: false,
            reuse_circuits: false,
            scrounger_borrow: false,
            max_circuits_per_input: 0,
            undo_on_l2_miss: false,
        }
    }

    /// Fragmented circuits (2 per input, third reply VC).
    pub fn fragmented() -> Self {
        Self {
            mode: CircuitMode::Fragmented,
            timed: TimedPolicy::Untimed,
            eliminate_acks: false,
            reuse_circuits: false,
            scrounger_borrow: false,
            max_circuits_per_input: 2,
            undo_on_l2_miss: false,
        }
    }

    /// Basic complete circuits (5 per input, bufferless circuit VC).
    pub fn complete() -> Self {
        Self {
            mode: CircuitMode::Complete,
            timed: TimedPolicy::Untimed,
            eliminate_acks: false,
            reuse_circuits: false,
            scrounger_borrow: false,
            max_circuits_per_input: 5,
            undo_on_l2_miss: false,
        }
    }

    /// Complete circuits with `L1_DATA_ACK` elimination.
    pub fn complete_noack() -> Self {
        Self {
            eliminate_acks: true,
            ..Self::complete()
        }
    }

    /// Complete circuits + NoAck + scrounger reuse (consuming scroungers).
    pub fn reuse_noack() -> Self {
        Self {
            reuse_circuits: true,
            ..Self::complete_noack()
        }
    }

    /// Complete circuits + NoAck + *borrowing* scroungers: the circuit
    /// survives the scrounger and still serves its own reply.
    pub fn reuse_borrow_noack() -> Self {
        Self {
            scrounger_borrow: true,
            ..Self::reuse_noack()
        }
    }

    /// Basic timed circuits (exact windows) + NoAck.
    pub fn timed_noack() -> Self {
        Self {
            timed: TimedPolicy::Exact,
            ..Self::complete_noack()
        }
    }

    /// Timed circuits with `k` cycles/hop of slack + NoAck.
    pub fn slack(k: u32) -> Self {
        Self {
            timed: TimedPolicy::Slack { slack_per_hop: k },
            ..Self::complete_noack()
        }
    }

    /// Timed circuits with `k` cycles/hop of slack and delay + NoAck.
    pub fn slack_delay(k: u32) -> Self {
        Self {
            timed: TimedPolicy::SlackDelay {
                slack_per_hop: k,
                delay_per_hop: k,
            },
            ..Self::complete_noack()
        }
    }

    /// Postponed timed circuits (`k` cycles/hop shift) + NoAck.
    pub fn postponed(k: u32) -> Self {
        Self {
            timed: TimedPolicy::Postponed {
                postpone_per_hop: k,
            },
            ..Self::complete_noack()
        }
    }

    /// Ideal upper bound (§4.8): all circuits succeed; acks eliminated.
    pub fn ideal() -> Self {
        Self {
            mode: CircuitMode::Ideal,
            timed: TimedPolicy::Untimed,
            eliminate_acks: true,
            reuse_circuits: false,
            scrounger_borrow: false,
            max_circuits_per_input: u8::MAX,
            undo_on_l2_miss: false,
        }
    }

    /// The full configuration grid of Figure 6, in presentation order.
    pub fn figure6_grid() -> Vec<MechanismConfig> {
        let mut grid = vec![
            Self::fragmented(),
            Self::complete(),
            Self::complete_noack(),
            Self::reuse_noack(),
            Self::timed_noack(),
        ];
        for k in [1, 2, 4] {
            grid.push(Self::slack(k));
        }
        for k in [1, 2, 4] {
            grid.push(Self::slack_delay(k));
        }
        for k in [1, 2, 4] {
            grid.push(Self::postponed(k));
        }
        grid.push(Self::ideal());
        grid
    }

    /// The reduced configuration set of Figures 7–9.
    pub fn key_configs() -> Vec<MechanismConfig> {
        vec![
            Self::baseline(),
            Self::fragmented(),
            Self::complete(),
            Self::complete_noack(),
            Self::reuse_noack(),
            Self::timed_noack(),
            Self::slack_delay(1),
            Self::postponed(1),
            Self::ideal(),
        ]
    }

    /// `true` when any circuit machinery is active.
    pub fn circuits_enabled(&self) -> bool {
        self.mode != CircuitMode::None
    }

    /// Number of virtual channels in the *reply* virtual network for this
    /// configuration: baseline 2, fragmented 3 (extra circuit VC, §4.2),
    /// complete/ideal 2 (one of which is the circuit VC).
    pub fn reply_vcs(&self) -> usize {
        match self.mode {
            CircuitMode::Fragmented => 3,
            _ => 2,
        }
    }

    /// Number of *circuit-class* VCs in the reply VN (0 baseline,
    /// 2 fragmented, 1 complete/ideal).
    pub fn circuit_vcs(&self) -> usize {
        match self.mode {
            CircuitMode::None => 0,
            CircuitMode::Fragmented => 2,
            CircuitMode::Complete | CircuitMode::Ideal => 1,
        }
    }

    /// `true` when the circuit VC keeps flit buffers (fragmented and ideal
    /// keep them; complete removes them — that is the area saving).
    pub fn circuit_vc_buffered(&self) -> bool {
        matches!(self.mode, CircuitMode::Fragmented | CircuitMode::Ideal)
    }

    /// Short label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self.mode {
            CircuitMode::None => "Baseline".to_owned(),
            CircuitMode::Ideal => "Ideal".to_owned(),
            CircuitMode::Fragmented => "Fragmented".to_owned(),
            CircuitMode::Complete => {
                let base = match self.timed {
                    TimedPolicy::Untimed => {
                        if self.reuse_circuits && self.scrounger_borrow {
                            "ReuseBorrow".to_owned()
                        } else if self.reuse_circuits {
                            "Reuse".to_owned()
                        } else {
                            "Complete".to_owned()
                        }
                    }
                    TimedPolicy::Exact => "Timed".to_owned(),
                    TimedPolicy::Slack { slack_per_hop } => format!("Slack_{slack_per_hop}"),
                    TimedPolicy::SlackDelay { slack_per_hop, .. } => {
                        format!("SlackDelay_{slack_per_hop}")
                    }
                    TimedPolicy::Postponed { postpone_per_hop } => {
                        format!("Postponed_{postpone_per_hop}")
                    }
                };
                if self.eliminate_acks {
                    format!("{base}_NoAck")
                } else {
                    base
                }
            }
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when options are combined in ways the
    /// mechanism cannot support (e.g. timed fragmented circuits, NoAck
    /// without complete circuits).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.timed.is_timed() && !self.mode.is_complete() {
            return Err(ConfigError::TimedRequiresComplete);
        }
        if self.eliminate_acks && !self.mode.is_complete() {
            return Err(ConfigError::NoAckRequiresComplete);
        }
        if self.reuse_circuits && self.mode != CircuitMode::Complete {
            return Err(ConfigError::ReuseRequiresComplete);
        }
        if self.scrounger_borrow && !self.reuse_circuits {
            return Err(ConfigError::BorrowRequiresReuse);
        }
        if self.circuits_enabled() && self.max_circuits_per_input == 0 {
            return Err(ConfigError::ZeroCircuitStorage);
        }
        Ok(())
    }
}

impl Default for MechanismConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

impl fmt::Display for MechanismConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Errors from validating configuration values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A mesh dimension was zero.
    EmptyMesh,
    /// The mesh has more nodes than `NodeId` can address.
    MeshTooLarge,
    /// A concentrated mesh whose concentration does not divide the core
    /// count (or is zero).
    Concentration {
        /// The requested number of tiles.
        cores: u16,
        /// Tiles per router.
        concentration: u16,
    },
    /// Timed reservations only work with complete circuits (§4.7).
    TimedRequiresComplete,
    /// ACK elimination relies on the never-blocking guarantee of complete
    /// circuits (§4.6).
    NoAckRequiresComplete,
    /// Scrounger reuse needs the buffer guarantees of complete circuits
    /// (§4.5).
    ReuseRequiresComplete,
    /// Circuits enabled but zero storage entries per input port.
    ZeroCircuitStorage,
    /// Borrowing scroungers only make sense with reuse enabled.
    BorrowRequiresReuse,
    /// A fault-injection rate is NaN, negative or greater than one. The
    /// payload names the offending knob.
    FaultRate(&'static str),
    /// A scheduled fault references topology that does not exist (node out
    /// of bounds, non-adjacent link pair). The payload names the problem.
    FaultTopology(&'static str),
    /// Open-loop traffic on a topology whose every tile is an ingress edge
    /// tile, so no tile is left to serve the external requests.
    NoServerTiles,
    /// A router would have more input VCs (`ports` × `vcs` per port) than
    /// its 64-entry VC occupancy index can address.
    TooManyVcs {
        /// Ports per router of the topology.
        ports: usize,
        /// Virtual channels per port of the VC layout.
        vcs: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyMesh => f.write_str("mesh dimensions must be non-zero"),
            ConfigError::MeshTooLarge => f.write_str("mesh exceeds the 16-bit node id space"),
            ConfigError::Concentration {
                cores,
                concentration,
            } => write!(
                f,
                "{cores} cores do not divide into routers of {concentration} tiles"
            ),
            ConfigError::TimedRequiresComplete => {
                f.write_str("timed reservations require complete circuits")
            }
            ConfigError::NoAckRequiresComplete => {
                f.write_str("ack elimination requires complete circuits")
            }
            ConfigError::ReuseRequiresComplete => {
                f.write_str("circuit reuse requires complete circuits")
            }
            ConfigError::ZeroCircuitStorage => {
                f.write_str("circuits enabled with zero storage per input port")
            }
            ConfigError::BorrowRequiresReuse => {
                f.write_str("borrowing scroungers require circuit reuse")
            }
            ConfigError::FaultRate(knob) => {
                write!(f, "fault rate `{knob}` must be a finite value in [0, 1]")
            }
            ConfigError::FaultTopology(what) => {
                write!(f, "scheduled fault references invalid topology: {what}")
            }
            ConfigError::NoServerTiles => {
                f.write_str("open-loop traffic needs a tile outside the ingress edge")
            }
            ConfigError::TooManyVcs { ports, vcs } => write!(
                f,
                "{ports} ports x {vcs} VCs per port exceeds the 64 input VCs a router can index"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_configs_are_valid() {
        let mut all = MechanismConfig::figure6_grid();
        all.extend(MechanismConfig::key_configs());
        for cfg in all {
            cfg.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.label()));
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(MechanismConfig::baseline().label(), "Baseline");
        assert_eq!(MechanismConfig::fragmented().label(), "Fragmented");
        assert_eq!(MechanismConfig::complete().label(), "Complete");
        assert_eq!(MechanismConfig::complete_noack().label(), "Complete_NoAck");
        assert_eq!(MechanismConfig::reuse_noack().label(), "Reuse_NoAck");
        assert_eq!(
            MechanismConfig::reuse_borrow_noack().label(),
            "ReuseBorrow_NoAck"
        );
        assert_eq!(MechanismConfig::timed_noack().label(), "Timed_NoAck");
        assert_eq!(MechanismConfig::slack(2).label(), "Slack_2_NoAck");
        assert_eq!(
            MechanismConfig::slack_delay(1).label(),
            "SlackDelay_1_NoAck"
        );
        assert_eq!(MechanismConfig::postponed(4).label(), "Postponed_4_NoAck");
        assert_eq!(MechanismConfig::ideal().label(), "Ideal");
    }

    #[test]
    fn invalid_combinations_rejected() {
        let mut cfg = MechanismConfig::fragmented();
        cfg.timed = TimedPolicy::Exact;
        assert_eq!(cfg.validate(), Err(ConfigError::TimedRequiresComplete));

        let mut cfg = MechanismConfig::fragmented();
        cfg.eliminate_acks = true;
        assert_eq!(cfg.validate(), Err(ConfigError::NoAckRequiresComplete));

        let mut cfg = MechanismConfig::baseline();
        cfg.reuse_circuits = true;
        assert_eq!(cfg.validate(), Err(ConfigError::ReuseRequiresComplete));

        let mut cfg = MechanismConfig::complete();
        cfg.max_circuits_per_input = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroCircuitStorage));

        let mut cfg = MechanismConfig::complete_noack();
        cfg.scrounger_borrow = true;
        assert_eq!(cfg.validate(), Err(ConfigError::BorrowRequiresReuse));
        MechanismConfig::reuse_borrow_noack()
            .validate()
            .expect("borrow config valid");
    }

    #[test]
    fn vc_counts_per_mode() {
        assert_eq!(MechanismConfig::baseline().reply_vcs(), 2);
        assert_eq!(MechanismConfig::baseline().circuit_vcs(), 0);
        assert_eq!(MechanismConfig::fragmented().reply_vcs(), 3);
        assert_eq!(MechanismConfig::fragmented().circuit_vcs(), 2);
        assert_eq!(MechanismConfig::complete().reply_vcs(), 2);
        assert_eq!(MechanismConfig::complete().circuit_vcs(), 1);
        assert!(MechanismConfig::fragmented().circuit_vc_buffered());
        assert!(!MechanismConfig::complete().circuit_vc_buffered());
        assert!(MechanismConfig::ideal().circuit_vc_buffered());
    }

    #[test]
    fn timed_policy_budgets() {
        let p = TimedPolicy::Slack { slack_per_hop: 2 };
        assert_eq!(p.slack(6), 12);
        assert_eq!(p.max_delay(6), 0);
        let p = TimedPolicy::SlackDelay {
            slack_per_hop: 1,
            delay_per_hop: 3,
        };
        assert_eq!(p.slack(4), 4);
        assert_eq!(p.max_delay(4), 12);
        let p = TimedPolicy::Postponed {
            postpone_per_hop: 2,
        };
        assert_eq!(p.postponement(5), 10);
        assert_eq!(p.slack(5), 0);
        assert!(!TimedPolicy::Untimed.is_timed());
        assert!(TimedPolicy::Exact.is_timed());
    }

    #[test]
    fn grid_sizes() {
        assert_eq!(MechanismConfig::figure6_grid().len(), 15);
        assert_eq!(MechanismConfig::key_configs().len(), 9);
    }
}
