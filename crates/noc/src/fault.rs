//! Deterministic fault injection for robustness studies.
//!
//! Faults are drawn from a dedicated [`rand_chacha`] stream seeded by
//! [`FaultConfig::seed`], fully decoupled from the workload RNG: enabling
//! or reseeding the fault layer never perturbs traffic generation, and
//! [`FaultConfig::none`] (the default) is bit-identical to a build without
//! the fault layer at all — the network holds no `FaultState` in that case
//! and never consults the fault RNG.
//!
//! Fault classes (all rates are per-event probabilities in `[0, 1]`):
//!
//! * **Link drop** — when a head flit crosses an inter-router link it may
//!   be dropped; the rest of the packet is then swallowed at the same link
//!   so a packet is always lost whole, never truncated. Upstream credits
//!   are still synthesized for swallowed flits so the *fault* does not by
//!   itself wedge the fabric (credit loss is a separate class).
//! * **Link corruption** — the head flit is marked corrupted; the packet
//!   travels normally and is discarded at the destination NI's integrity
//!   check instead of being delivered.
//! * **Credit loss** — a credit crossing an inter-router link vanishes,
//!   permanently shrinking the usable depth of the upstream VC. Enough of
//!   these deadlock the network — the watchdog's job to report.
//! * **Table corruption** — a random circuit-table entry of a random
//!   router evaporates (soft error in the reservation SRAM). A reply that
//!   arrives expecting the entry falls back to the ordinary 5-cycle
//!   pipeline at that router ([`BypassCheck::Pipeline`]); its delivery is
//!   reclassified [`CircuitOutcome::FaultDegraded`].
//! * **Stuck input port** — a scheduled [`StuckPortEvent`] freezes one
//!   router input port for a window of cycles: arrivals queue on the link
//!   and nothing enters the port until the window ends.
//! * **Dead link** — a scheduled [`DeadLinkEvent`] removes one
//!   bidirectional inter-router link at a given cycle, permanently or for
//!   a bounded window. Every flit on the link at onset (and any flit later
//!   routed onto it) is lost whole; the live [`TopologyHealth`] map makes
//!   new packets detour around it and tears down every circuit whose
//!   reply path crossed it (DESIGN.md §10).
//! * **Dead router** — a scheduled [`DeadRouterEvent`] kills a whole
//!   router: all four of its links stop carrying data and no packet may
//!   start from, end at or cross the node. NoC-level studies only — a dead
//!   router takes its L2 bank along, which the coherence protocol does not
//!   model losing.
//!
//! Recovery is end-to-end: the network tracks every in-flight packet and
//! retransmits lost or corrupted ones from the source NI (plain
//! packet-switched, bounded retries with linear backoff); a packet that
//! exhausts its retries is counted in `NocStats::dropped_packets`. For
//! permanent faults the protocol layer adds a second safety net: an L1
//! whose miss reply never arrives reissues the request after a timeout
//! (bounded, exponential backoff).
//!
//! [`TopologyHealth`]: rcsim_core::TopologyHealth
//!
//! [`BypassCheck::Pipeline`]: crate::router::BypassCheck::Pipeline
//! [`CircuitOutcome::FaultDegraded`]: crate::CircuitOutcome::FaultDegraded

use crate::flit::{Flit, Packet, PacketId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rcsim_core::{ConfigError, Cycle, NodeId, StateMap, Topology, PORT_LOCAL};
use serde::{Deserialize, Serialize};

/// A scheduled one-shot fault: one router input port accepts nothing for
/// `duration` cycles starting at cycle `at`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StuckPortEvent {
    /// The router whose input port sticks.
    pub node: NodeId,
    /// Which network input port (`PORT_NORTH`..=`PORT_WEST`).
    pub port: usize,
    /// First stuck cycle.
    pub at: Cycle,
    /// Number of cycles the port stays stuck.
    pub duration: Cycle,
}

impl StuckPortEvent {
    /// `true` while the event holds the port at cycle `now`.
    pub fn active(&self, now: Cycle) -> bool {
        now >= self.at && now < self.at.saturating_add(self.duration)
    }
}

/// A scheduled hard fault on one inter-router link: from cycle `at` the
/// `a`–`b` link carries no data in either direction, permanently
/// (`duration: None`) or until `at + duration`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadLinkEvent {
    /// One endpoint of the link.
    pub a: NodeId,
    /// The other endpoint (must be a mesh neighbour of `a`).
    pub b: NodeId,
    /// First dead cycle.
    pub at: Cycle,
    /// `None` for a permanent fault, `Some(n)` to heal after `n` cycles.
    pub duration: Option<Cycle>,
}

impl DeadLinkEvent {
    /// The cycle the link heals, or `None` for a permanent fault.
    pub fn heals_at(&self) -> Option<Cycle> {
        self.duration.map(|d| self.at.saturating_add(d))
    }
}

/// A scheduled hard fault on a whole router: from cycle `at` node `node`
/// accepts, emits and forwards nothing, permanently (`duration: None`) or
/// until `at + duration`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadRouterEvent {
    /// The router that dies.
    pub node: NodeId,
    /// First dead cycle.
    pub at: Cycle,
    /// `None` for a permanent fault, `Some(n)` to heal after `n` cycles.
    pub duration: Option<Cycle>,
}

impl DeadRouterEvent {
    /// The cycle the router heals, or `None` for a permanent fault.
    pub fn heals_at(&self) -> Option<Cycle> {
        self.duration.map(|d| self.at.saturating_add(d))
    }
}

/// Fault-injection configuration. The default ([`FaultConfig::none`])
/// injects nothing and is guaranteed zero-perturbation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed of the dedicated fault RNG stream.
    pub seed: u64,
    /// Probability a packet is dropped per inter-router link traversal
    /// (decided at its head flit; the whole packet is lost).
    pub link_drop_rate: f64,
    /// Probability a packet is corrupted per inter-router link traversal
    /// (decided at its head flit; discarded at the destination NI).
    pub link_corrupt_rate: f64,
    /// Probability a credit is lost per inter-router link traversal.
    pub credit_loss_rate: f64,
    /// Probability, per router per cycle, that one random circuit-table
    /// entry is corrupted (removed).
    pub table_corrupt_rate: f64,
    /// Scheduled stuck-input-port windows.
    pub stuck_ports: Vec<StuckPortEvent>,
    /// Scheduled dead links (permanent faults, DESIGN.md §10).
    #[serde(default)]
    pub dead_links: Vec<DeadLinkEvent>,
    /// Scheduled dead routers (NoC-level studies only).
    #[serde(default)]
    pub dead_routers: Vec<DeadRouterEvent>,
    /// End-to-end retransmissions attempted per packet before it is
    /// abandoned and counted in `NocStats::dropped_packets`.
    pub max_retries: u32,
    /// Base retransmission delay in cycles; retry `n` waits `n × backoff`.
    pub retry_backoff: Cycle,
}

impl FaultConfig {
    /// No faults at all (the default). Guaranteed bit-identical to a
    /// network constructed without a fault configuration.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0xFA017,
            link_drop_rate: 0.0,
            link_corrupt_rate: 0.0,
            credit_loss_rate: 0.0,
            table_corrupt_rate: 0.0,
            stuck_ports: Vec::new(),
            dead_links: Vec::new(),
            dead_routers: Vec::new(),
            max_retries: 4,
            retry_backoff: 64,
        }
    }

    /// `true` when no fault class can ever fire.
    pub fn is_none(&self) -> bool {
        self.link_drop_rate <= 0.0
            && self.link_corrupt_rate <= 0.0
            && self.credit_loss_rate <= 0.0
            && self.table_corrupt_rate <= 0.0
            && self.stuck_ports.is_empty()
            && self.dead_links.is_empty()
            && self.dead_routers.is_empty()
    }

    /// Checks the configuration against `topology` before a network is
    /// built. Scheduled fault events name *routers* (not tiles), so on a
    /// concentrated mesh the bound is the router count.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::FaultRate`] — a rate is NaN, negative or above 1.
    /// * [`ConfigError::FaultWindow`] — a scheduled fault has an explicit
    ///   duration of zero cycles (it could never take effect).
    /// * [`ConfigError::FaultTopology`] — a scheduled fault names a router
    ///   outside the topology, a non-adjacent link pair, or a local
    ///   port.
    pub fn validate(&self, topology: &Topology) -> Result<(), ConfigError> {
        let rates = [
            (self.link_drop_rate, "link_drop_rate"),
            (self.link_corrupt_rate, "link_corrupt_rate"),
            (self.credit_loss_rate, "credit_loss_rate"),
            (self.table_corrupt_rate, "table_corrupt_rate"),
        ];
        for (rate, name) in rates {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(ConfigError::FaultRate(name));
            }
        }
        let routers = topology.routers();
        for e in &self.stuck_ports {
            if e.duration == 0 {
                return Err(ConfigError::FaultWindow);
            }
            if e.node.index() >= routers {
                return Err(ConfigError::FaultTopology("stuck-port node out of bounds"));
            }
            if e.port >= PORT_LOCAL {
                return Err(ConfigError::FaultTopology("stuck port on a local port"));
            }
        }
        for e in &self.dead_links {
            if e.duration == Some(0) {
                return Err(ConfigError::FaultWindow);
            }
            if e.a.index() >= routers || e.b.index() >= routers {
                return Err(ConfigError::FaultTopology("dead-link node out of bounds"));
            }
            if topology.distance(e.a, e.b) != 1 {
                return Err(ConfigError::FaultTopology(
                    "dead-link endpoints are not mesh neighbours",
                ));
            }
        }
        for e in &self.dead_routers {
            if e.duration == Some(0) {
                return Err(ConfigError::FaultWindow);
            }
            if e.node.index() >= routers {
                return Err(ConfigError::FaultTopology("dead router out of bounds"));
            }
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Counters of every fault injected and every recovery action taken.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Packets chosen for a link drop.
    pub packets_dropped: u64,
    /// Individual flits swallowed by link drops (heads + swallowed rest).
    pub flits_dropped: u64,
    /// Packets marked corrupted on a link (discarded at the NI).
    pub packets_corrupted: u64,
    /// Credits lost on inter-router links.
    pub credits_lost: u64,
    /// Circuit-table entries corrupted away.
    pub table_entries_corrupted: u64,
    /// Router-port × cycle units spent stuck.
    pub stuck_port_cycles: u64,
    /// End-to-end retransmissions issued.
    pub retransmissions: u64,
    /// Packets abandoned after exhausting their retries.
    pub packets_abandoned: u64,
    /// Packets that left their source on a detour because the DOR path
    /// crossed a dead link or router.
    #[serde(default)]
    pub packets_rerouted: u64,
    /// Circuit-table entries torn down at fault onset because their reply
    /// path crossed the dead resource.
    #[serde(default)]
    pub circuits_torn: u64,
    /// Flits lost on a dead link (in flight at onset or routed onto it).
    #[serde(default)]
    pub dead_flits_lost: u64,
}

/// Fate of a flit crossing an inter-router link under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFate {
    /// Delivered untouched.
    Deliver,
    /// Delivered with the corrupted mark set (head flits only).
    Corrupt,
    /// Dropped at this link.
    Drop,
}

/// The fault RNG, serialized as its two state words.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(from = "(u64, u64)", into = "(u64, u64)")]
struct FaultRng(ChaCha8Rng);

impl From<FaultRng> for (u64, u64) {
    fn from(rng: FaultRng) -> Self {
        rng.0.state_words()
    }
}

impl From<(u64, u64)> for FaultRng {
    fn from((state, stream): (u64, u64)) -> Self {
        FaultRng(ChaCha8Rng::from_state_words(state, stream))
    }
}

/// The fault layer's state (DESIGN.md §15).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct State {
    rng: FaultRng,
    /// Packets being swallowed at a link, keyed by
    /// (upstream node index, output-port index, packet): remaining flits.
    eating: StateMap<(usize, usize, PacketId), u32>,
    pub(crate) stats: FaultStats,
}

/// Live fault injection: the configuration (wiring) plus the dedicated
/// RNG and the bookkeeping needed to swallow whole packets. Held by the
/// network only when the configuration can actually fire.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) cfg: FaultConfig,
    pub(crate) state: State,
}

impl FaultState {
    pub(crate) fn new(cfg: FaultConfig) -> Self {
        let rng = FaultRng(ChaCha8Rng::seed_from_u64(cfg.seed));
        FaultState {
            cfg,
            state: State {
                rng,
                eating: StateMap::default(),
                stats: FaultStats::default(),
            },
        }
    }

    fn chance(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.state.rng.0.gen_bool(rate.clamp(0.0, 1.0))
    }

    /// Decides the fate of `flit`, one of `packet`'s, leaving router
    /// `from` through output port `dir` onto an inter-router link.
    pub(crate) fn on_link_flit(
        &mut self,
        from: usize,
        dir: usize,
        flit: Flit,
        packet: &Packet,
    ) -> LinkFate {
        let key = (from, dir, packet.id);
        if let Some(rest) = self.state.eating.get_mut(&key) {
            *rest -= 1;
            if *rest == 0 {
                self.state.eating.remove(&key);
            }
            self.state.stats.flits_dropped += 1;
            return LinkFate::Drop;
        }
        if flit.is_head() {
            if self.chance(self.cfg.link_drop_rate) {
                self.state.stats.packets_dropped += 1;
                self.state.stats.flits_dropped += 1;
                let rest = packet.len.saturating_sub(1);
                if rest > 0 {
                    self.state.eating.insert(key, rest);
                }
                return LinkFate::Drop;
            }
            if self.chance(self.cfg.link_corrupt_rate) {
                self.state.stats.packets_corrupted += 1;
                return LinkFate::Corrupt;
            }
        }
        LinkFate::Deliver
    }

    /// `true` if a credit crossing an inter-router link is lost.
    pub(crate) fn on_link_credit(&mut self) -> bool {
        let lost = self.chance(self.cfg.credit_loss_rate);
        if lost {
            self.state.stats.credits_lost += 1;
        }
        lost
    }

    /// Rolls the per-router/per-cycle table-corruption die; on a hit,
    /// returns a (port index, uniform draw) pair the network uses to pick
    /// a victim entry. `ports` is the router's port count (5 on the plain
    /// mesh, so the historical RNG stream is unchanged there).
    pub(crate) fn roll_table_corruption(&mut self, ports: usize) -> Option<(usize, usize)> {
        if self.chance(self.cfg.table_corrupt_rate) {
            Some((
                self.state.rng.0.gen_range(0..ports),
                self.state.rng.0.gen_range(0..usize::MAX),
            ))
        } else {
            None
        }
    }

    /// `true` while any scheduled event holds input port `port` of `node`.
    pub(crate) fn port_stuck(&self, node: usize, port: usize, now: Cycle) -> bool {
        self.cfg
            .stuck_ports
            .iter()
            .any(|e| e.node.index() == node && e.port == port && e.active(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketSpec;
    use rcsim_core::{MessageClass, Topology, PORT_EAST, PORT_WEST};

    /// Packet `id`, `len` flits long.
    fn packet(id: u64, len: u32) -> Packet {
        let spec = PacketSpec::new(NodeId(0), NodeId(1), MessageClass::L2Reply);
        Packet::new(PacketId(id), &spec, len, 0)
    }

    /// The head and a body flit of a `len`-flit packet.
    fn flits(len: u32) -> (Flit, Flit) {
        (
            Flit::new(0, 0, len, 0, 0),
            Flit::new(0, 1, len.max(3), 0, 0),
        )
    }

    #[test]
    fn none_is_none() {
        assert!(FaultConfig::none().is_none());
        assert!(FaultConfig::default().is_none());
        let lossy = FaultConfig {
            link_drop_rate: 0.1,
            ..FaultConfig::none()
        };
        assert!(!lossy.is_none());
        let dead = FaultConfig {
            dead_links: vec![DeadLinkEvent {
                a: NodeId(0),
                b: NodeId(1),
                at: 0,
                duration: None,
            }],
            ..FaultConfig::none()
        };
        assert!(!dead.is_none(), "dead links must construct a FaultState");
        let dead = FaultConfig {
            dead_routers: vec![DeadRouterEvent {
                node: NodeId(5),
                at: 100,
                duration: Some(50),
            }],
            ..FaultConfig::none()
        };
        assert!(!dead.is_none());
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let mesh = Topology::mesh(4, 4).unwrap();
        for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let cfg = FaultConfig {
                link_drop_rate: bad,
                ..FaultConfig::none()
            };
            assert_eq!(
                cfg.validate(&mesh),
                Err(ConfigError::FaultRate("link_drop_rate"))
            );
        }
        let cfg = FaultConfig {
            credit_loss_rate: f64::NAN,
            ..FaultConfig::none()
        };
        assert_eq!(
            cfg.validate(&mesh),
            Err(ConfigError::FaultRate("credit_loss_rate"))
        );
        let cfg = FaultConfig {
            table_corrupt_rate: -1.0,
            ..FaultConfig::none()
        };
        assert_eq!(
            cfg.validate(&mesh),
            Err(ConfigError::FaultRate("table_corrupt_rate"))
        );
        assert_eq!(FaultConfig::none().validate(&mesh), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_windows() {
        let mesh = Topology::mesh(4, 4).unwrap();
        let cfg = FaultConfig {
            stuck_ports: vec![StuckPortEvent {
                node: NodeId(1),
                port: PORT_EAST,
                at: 5,
                duration: 0,
            }],
            ..FaultConfig::none()
        };
        assert_eq!(cfg.validate(&mesh), Err(ConfigError::FaultWindow));
        let cfg = FaultConfig {
            dead_links: vec![DeadLinkEvent {
                a: NodeId(0),
                b: NodeId(1),
                at: 5,
                duration: Some(0),
            }],
            ..FaultConfig::none()
        };
        assert_eq!(cfg.validate(&mesh), Err(ConfigError::FaultWindow));
        let cfg = FaultConfig {
            dead_routers: vec![DeadRouterEvent {
                node: NodeId(0),
                at: 5,
                duration: Some(0),
            }],
            ..FaultConfig::none()
        };
        assert_eq!(cfg.validate(&mesh), Err(ConfigError::FaultWindow));
        // Permanent (None) and bounded (Some(>0)) windows are fine.
        let cfg = FaultConfig {
            dead_links: vec![DeadLinkEvent {
                a: NodeId(0),
                b: NodeId(1),
                at: 5,
                duration: None,
            }],
            dead_routers: vec![DeadRouterEvent {
                node: NodeId(2),
                at: 5,
                duration: Some(10),
            }],
            ..FaultConfig::none()
        };
        assert_eq!(cfg.validate(&mesh), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_topology() {
        let mesh = Topology::mesh(4, 4).unwrap();
        let cfg = FaultConfig {
            dead_links: vec![DeadLinkEvent {
                a: NodeId(0),
                b: NodeId(99),
                at: 0,
                duration: None,
            }],
            ..FaultConfig::none()
        };
        assert!(matches!(
            cfg.validate(&mesh),
            Err(ConfigError::FaultTopology(_))
        ));
        // n0 and n5 are diagonal, not neighbours.
        let cfg = FaultConfig {
            dead_links: vec![DeadLinkEvent {
                a: NodeId(0),
                b: NodeId(5),
                at: 0,
                duration: None,
            }],
            ..FaultConfig::none()
        };
        assert!(matches!(
            cfg.validate(&mesh),
            Err(ConfigError::FaultTopology(_))
        ));
        let cfg = FaultConfig {
            dead_routers: vec![DeadRouterEvent {
                node: NodeId(16),
                at: 0,
                duration: None,
            }],
            ..FaultConfig::none()
        };
        assert!(matches!(
            cfg.validate(&mesh),
            Err(ConfigError::FaultTopology(_))
        ));
        let cfg = FaultConfig {
            stuck_ports: vec![StuckPortEvent {
                node: NodeId(1),
                port: PORT_LOCAL,
                at: 0,
                duration: 10,
            }],
            ..FaultConfig::none()
        };
        assert!(matches!(
            cfg.validate(&mesh),
            Err(ConfigError::FaultTopology(_))
        ));
    }

    #[test]
    fn drop_swallows_whole_packet() {
        let cfg = FaultConfig {
            link_drop_rate: 1.0,
            ..FaultConfig::none()
        };
        let mut fs = FaultState::new(cfg);
        let (p, (head, body)) = (packet(7, 5), flits(5));
        assert_eq!(fs.on_link_flit(3, 1, head, &p), LinkFate::Drop);
        // The four body/tail flits at the same link are swallowed without
        // further draws.
        for _ in 0..4 {
            assert_eq!(fs.on_link_flit(3, 1, body, &p), LinkFate::Drop);
        }
        assert!(fs.state.eating.is_empty(), "swallow bookkeeping must drain");
        assert_eq!(fs.state.stats.packets_dropped, 1);
        assert_eq!(fs.state.stats.flits_dropped, 5);
    }

    #[test]
    fn corruption_marks_heads_only() {
        let cfg = FaultConfig {
            link_corrupt_rate: 1.0,
            ..FaultConfig::none()
        };
        let mut fs = FaultState::new(cfg);
        let single = flits(1).0;
        assert_eq!(
            fs.on_link_flit(0, 0, single, &packet(7, 1)),
            LinkFate::Corrupt
        );
        let body = flits(5).1;
        assert_eq!(
            fs.on_link_flit(0, 0, body, &packet(7, 5)),
            LinkFate::Deliver
        );
    }

    #[test]
    fn stuck_window_is_half_open() {
        let e = StuckPortEvent {
            node: NodeId(0),
            port: PORT_WEST,
            at: 10,
            duration: 5,
        };
        assert!(!e.active(9));
        assert!(e.active(10));
        assert!(e.active(14));
        assert!(!e.active(15));
    }

    #[test]
    fn same_seed_same_fates() {
        let cfg = FaultConfig {
            link_drop_rate: 0.5,
            seed: 42,
            ..FaultConfig::none()
        };
        let mut a = FaultState::new(cfg.clone());
        let mut b = FaultState::new(cfg);
        for i in 0..64 {
            let (p, head) = (packet(7, 1), flits(1).0);
            assert_eq!(
                a.on_link_flit(i, 0, head, &p),
                b.on_link_flit(i, 0, head, &p)
            );
        }
    }

    /// Property round trip of the fault-layer checkpoint: after an
    /// arbitrary prefix of link/credit/table rolls (including packets
    /// mid-swallow), a [`FaultState`] restored from the snapshot — into a
    /// state built from a *different* seed — must produce the identical
    /// fate sequence for any continuation, and the snapshot must survive
    /// serde byte-for-byte.
    mod snapshot_props {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone, Copy)]
        enum Roll {
            Flit {
                from: usize,
                dir: usize,
                len: u32,
                pkt: u64,
            },
            Credit,
            Table,
        }

        fn roll_strategy() -> impl Strategy<Value = Roll> {
            prop_oneof![
                (0usize..16, 0usize..4, 1u32..6, 0u64..8).prop_map(|(from, dir, len, pkt)| {
                    Roll::Flit {
                        from,
                        dir,
                        len,
                        pkt,
                    }
                }),
                Just(Roll::Credit),
                Just(Roll::Table),
            ]
        }

        fn play(fs: &mut FaultState, rolls: &[Roll]) -> Vec<u64> {
            let mut trace = Vec::with_capacity(rolls.len());
            for r in rolls {
                let outcome = match *r {
                    Roll::Flit {
                        from,
                        dir,
                        len,
                        pkt,
                    } => match fs.on_link_flit(from, dir, flits(len).0, &packet(pkt, len)) {
                        LinkFate::Deliver => 0,
                        LinkFate::Drop => 1,
                        LinkFate::Corrupt => 2,
                    },
                    Roll::Credit => 3 + fs.on_link_credit() as u64,
                    Roll::Table => match fs.roll_table_corruption(5) {
                        None => 5,
                        Some((port, draw)) => 6 ^ (port as u64) ^ draw as u64,
                    },
                };
                trace.push(outcome);
            }
            trace
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn restored_fault_state_continues_the_exact_fate_sequence(
                seed in proptest::prelude::any::<u64>(),
                prefix in prop::collection::vec(roll_strategy(), 0..200),
                suffix in prop::collection::vec(roll_strategy(), 1..200),
            ) {
                let cfg = FaultConfig {
                    link_drop_rate: 0.2,
                    link_corrupt_rate: 0.1,
                    credit_loss_rate: 0.05,
                    table_corrupt_rate: 0.15,
                    seed,
                    ..FaultConfig::none()
                };
                let mut original = FaultState::new(cfg.clone());
                play(&mut original, &prefix);

                let snap = original.state.clone();
                let json = serde_json::to_string(&snap).expect("serialize snapshot");
                let decoded: State =
                    serde_json::from_str(&json).expect("deserialize snapshot");
                prop_assert_eq!(
                    serde_json::to_string(&decoded).expect("re-serialize"),
                    json,
                    "snapshot re-serialization is not byte-identical"
                );

                let mut restored = FaultState::new(FaultConfig {
                    seed: seed ^ 0x5EED,
                    ..cfg
                });
                restored.state = decoded;
                prop_assert_eq!(
                    play(&mut original, &suffix),
                    play(&mut restored, &suffix),
                    "fate sequences diverged after the restore"
                );
            }
        }
    }
}
