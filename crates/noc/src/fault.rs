//! Deterministic fault injection for robustness studies.
//!
//! Faults are drawn from a dedicated [`rand_chacha`] stream seeded by
//! [`FaultConfig::seed`], fully decoupled from the workload RNG: enabling
//! or reseeding the fault layer never perturbs traffic generation, and
//! [`FaultConfig::none`] (the default) is bit-identical to a build without
//! the fault layer at all — the network holds no `FaultState` in that case
//! and never consults the fault RNG.
//!
//! Fault classes (rates are per-event probabilities in `[0, 1]`; the
//! scheduled faults are permanent from their cycle `at`):
//!
//! * **Link drop** — when a head flit crosses an inter-router link it may
//!   be dropped. It sets its output VC's eat bit, and the rest of the
//!   packet, which follows it on that VC, is swallowed at the same link:
//!   a packet is lost whole, never truncated. Upstream credits are still
//!   synthesized for swallowed flits so the fault does not wedge the
//!   fabric.
//! * **Dead link** — a scheduled [`DeadLinkEvent`] removes one
//!   bidirectional inter-router link. A packet whose head is routed onto
//!   it is lost whole, through the same eat bit; the live
//!   [`TopologyHealth`] map sends new packets whose DOR path it breaks
//!   along its up*/down* table and tears down every circuit whose reply
//!   would now detour (DESIGN.md §10).
//!   Dead links are the only topology fault: a router-sized obstacle is
//!   every link of that router dead, and its tile stays reachable only
//!   from itself.
//!
//! Recovery is end-to-end: the network tracks every in-flight packet and
//! retransmits lost ones from the source NI (plain packet-switched,
//! bounded retries with linear backoff); a packet that exhausts its
//! retries is counted in `NocStats::dropped_packets` and
//! `FaultStats::packets_abandoned`. This is the only recovery path: the
//! protocol above never re-sends a request, so an abandoned packet leaves
//! its transaction unfinished and the run unhealthy.
//!
//! [`TopologyHealth`]: rcsim_core::TopologyHealth

use crate::flit::Flit;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rcsim_core::{ConfigError, Cycle, NodeId, Topology};
use serde::{Deserialize, Serialize};

/// A scheduled hard fault on one inter-router link: from cycle `at` on,
/// the `a`–`b` link carries no data in either direction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadLinkEvent {
    /// One endpoint of the link.
    pub a: NodeId,
    /// The other endpoint (a neighbour of `a` in the topology).
    pub b: NodeId,
    /// First dead cycle.
    pub at: Cycle,
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
    /// Scheduled dead links (permanent faults, DESIGN.md §10).
    #[serde(default)]
    pub dead_links: Vec<DeadLinkEvent>,
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
            dead_links: Vec::new(),
            max_retries: 4,
            retry_backoff: 64,
        }
    }

    /// `true` when no fault class can ever fire.
    pub fn is_none(&self) -> bool {
        self.link_drop_rate <= 0.0 && self.dead_links.is_empty()
    }

    /// Checks the configuration against `topology` before a network is
    /// built.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::FaultRate`] — the drop rate is NaN, negative or
    ///   above 1.
    /// * [`ConfigError::FaultTopology`] — a dead link names a router
    ///   outside the topology or a non-adjacent pair.
    pub fn validate(&self, topology: &Topology) -> Result<(), ConfigError> {
        let rate = self.link_drop_rate;
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(ConfigError::FaultRate("link_drop_rate"));
        }
        let nodes = topology.nodes();
        for e in &self.dead_links {
            if e.a.index() >= nodes || e.b.index() >= nodes {
                return Err(ConfigError::FaultTopology("dead-link node out of bounds"));
            }
            if topology.distance(e.a, e.b) != 1 {
                return Err(ConfigError::FaultTopology(
                    "dead-link endpoints are not neighbours",
                ));
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
    /// Flits lost on a live hop: dropped heads and the rest of their
    /// packets (a flit counts under the hop it is lost on).
    pub flits_dropped: u64,
    /// Always zero: no code writes it. It stays so the serialized counters
    /// keep their shape (ROADMAP item 1 retires it).
    pub packets_corrupted: u64,
    /// Always zero: no code writes it. It stays so the serialized counters
    /// keep their shape (ROADMAP item 1 retires it).
    pub credits_lost: u64,
    /// Always zero: no code writes it. It stays so the serialized counters
    /// keep their shape (ROADMAP item 1 retires it).
    pub table_entries_corrupted: u64,
    /// Always zero: no code writes it. It stays so the serialized counters
    /// keep their shape (ROADMAP item 1 retires it).
    pub stuck_port_cycles: u64,
    /// End-to-end retransmissions issued.
    pub retransmissions: u64,
    /// Packets abandoned after exhausting their retries.
    pub packets_abandoned: u64,
    /// Packets that left their source with the detour bit set: their DOR
    /// path crossed a dead link or was not up*/down*-legal.
    #[serde(default)]
    pub packets_rerouted: u64,
    /// Circuit-table entries torn down at fault onset because their reply
    /// path crossed the dead link.
    #[serde(default)]
    pub circuits_torn: u64,
    /// Flits lost on a dead hop: heads routed onto it, the rest of their
    /// packets, and the rest of packets whose head a random drop lost
    /// before the hop died (a flit counts under the hop it is lost on).
    #[serde(default)]
    pub dead_flits_lost: u64,
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

/// The fault layer's state (DESIGN.md §13).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct State {
    rng: FaultRng,
    /// One word per router: bit `port · vcs + vc` is set while the last
    /// head sent on that output VC was lost, so the body behind it is too.
    eating: Vec<u64>,
    pub(crate) stats: FaultStats,
}

/// Live fault injection: the configuration (wiring) plus the dedicated
/// RNG and the eat bits that lose packets whole. Held by the network
/// only when the configuration can actually fire.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) cfg: FaultConfig,
    pub(crate) state: State,
}

impl FaultState {
    pub(crate) fn new(cfg: FaultConfig, routers: usize) -> Self {
        let rng = FaultRng(ChaCha8Rng::seed_from_u64(cfg.seed));
        FaultState {
            cfg,
            state: State {
                rng,
                eating: vec![0; routers],
                stats: FaultStats::default(),
            },
        }
    }

    fn chance(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.state.rng.0.gen_bool(rate.clamp(0.0, 1.0))
    }

    /// Decides whether `flit`, leaving router `from` on output VC slot
    /// `out` (`port · vcs + vc`) of an inter-router link, is lost there;
    /// `dead` when the link is down. A head sets the VC's eat bit to
    /// whether it is lost: on a dead hop without a draw, so scheduled
    /// faults leave the random stream alone, else at the drop rate. A VC
    /// carries one packet at a time, head first, so every flit is lost
    /// exactly when its VC's bit is set, and counted under the hop it is
    /// lost on. A packet whose head crossed before the hop died drains
    /// whole: cutting a wormhole mid-stream would wedge the downstream VC.
    pub(crate) fn on_link_flit(&mut self, from: usize, out: usize, flit: Flit, dead: bool) -> bool {
        let bit = 1 << out;
        if flit.is_head() {
            let lost = dead || self.chance(self.cfg.link_drop_rate);
            let word = &mut self.state.eating[from];
            *word = if lost { *word | bit } else { *word & !bit };
            if lost && !dead {
                self.state.stats.packets_dropped += 1;
            }
        }
        if self.state.eating[from] & bit == 0 {
            return false;
        }
        let stats = &mut self.state.stats;
        if dead {
            stats.dead_flits_lost += 1;
        } else {
            stats.flits_dropped += 1;
        }
        true
    }
}

rcsim_core::stateful!(FaultState => State);

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::Topology;

    /// The head and a body flit of a `len`-flit packet.
    fn flits(len: u32) -> (Flit, Flit) {
        (
            Flit::new(0, 0, len, 0, 0),
            Flit::new(0, 1, len.max(3), 0, 0),
        )
    }

    /// A fault layer over 16 routers dropping heads at `drop_rate`.
    fn dropping(drop_rate: f64) -> FaultState {
        let cfg = FaultConfig {
            link_drop_rate: drop_rate,
            ..FaultConfig::none()
        };
        FaultState::new(cfg, 16)
    }

    /// The fault RNG's position in its stream.
    fn draws(fs: &FaultState) -> (u64, u64) {
        fs.state.rng.0.state_words()
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
            }],
            ..FaultConfig::none()
        };
        assert!(!dead.is_none(), "dead links must construct a FaultState");
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
        assert_eq!(FaultConfig::none().validate(&mesh), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_topology() {
        let mesh = Topology::mesh(4, 4).unwrap();
        let cfg = FaultConfig {
            dead_links: vec![DeadLinkEvent {
                a: NodeId(0),
                b: NodeId(99),
                at: 0,
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
        let mut fs = dropping(1.0);
        let (head, body) = flits(5);
        assert!(fs.on_link_flit(3, 1, head, false));
        assert_eq!(fs.state.eating[3], 1 << 1);
        // The four body/tail flits on the same output VC are swallowed
        // without further draws.
        let rng = draws(&fs);
        for _ in 0..4 {
            assert!(fs.on_link_flit(3, 1, body, false));
        }
        assert_eq!(draws(&fs), rng, "a body flit never draws");
        assert_eq!(fs.state.stats.packets_dropped, 1);
        assert_eq!(fs.state.stats.flits_dropped, 5);
    }

    #[test]
    fn a_head_on_another_vc_of_the_link_is_rolled_fresh() {
        let mut fs = dropping(1.0);
        let (head, body) = flits(5);
        assert!(fs.on_link_flit(3, 1, head, false));
        fs.cfg.link_drop_rate = 0.0;
        // Slot 2 is another VC of the same port: its own head decides.
        assert!(!fs.on_link_flit(3, 2, head, false));
        assert!(!fs.on_link_flit(3, 2, body, false));
        assert!(fs.on_link_flit(3, 1, body, false));
        assert!(!fs.on_link_flit(4, 1, body, false));
        assert_eq!(fs.state.eating[3], 1 << 1);
    }

    #[test]
    fn a_new_head_on_an_eaten_vc_clears_its_bit() {
        // A retransmission reaching the link while its lost copy's body
        // is still being eaten there, in miniature: the last head on the
        // VC decides, whichever packet it belongs to.
        let mut fs = dropping(1.0);
        let (head, body) = flits(5);
        assert!(fs.on_link_flit(3, 1, head, false));
        assert!(fs.on_link_flit(3, 1, body, false));
        fs.cfg.link_drop_rate = 0.0;
        assert!(!fs.on_link_flit(3, 1, head, false));
        assert_eq!(fs.state.eating[3], 0);
        assert!(!fs.on_link_flit(3, 1, body, false));
        assert_eq!(fs.state.stats.flits_dropped, 2);
    }

    #[test]
    fn a_dead_hop_drops_heads_without_a_draw() {
        let mut fs = dropping(0.5);
        let (head, body) = flits(5);
        let rng = draws(&fs);
        assert!(fs.on_link_flit(0, 4, head, true));
        assert!(fs.on_link_flit(0, 4, body, true));
        assert_eq!(draws(&fs), rng, "a dead hop never draws");
        assert_eq!(fs.state.stats.dead_flits_lost, 2);
        assert_eq!(fs.state.stats.packets_dropped, 0);
        assert_eq!(fs.state.stats.flits_dropped, 0);
        // A packet whose head crossed before the link died drains whole.
        fs.cfg.link_drop_rate = 0.0;
        assert!(!fs.on_link_flit(0, 5, head, false));
        assert!(!fs.on_link_flit(0, 5, body, true));
        // A body lost to a random drop counts under the hop it dies on.
        fs.cfg.link_drop_rate = 1.0;
        assert!(fs.on_link_flit(0, 6, head, false));
        assert!(fs.on_link_flit(0, 6, body, true));
        assert_eq!(fs.state.stats.flits_dropped, 1);
        assert_eq!(fs.state.stats.dead_flits_lost, 3);
    }

    #[test]
    fn same_seed_same_fates() {
        let cfg = FaultConfig {
            link_drop_rate: 0.5,
            seed: 42,
            ..FaultConfig::none()
        };
        let mut a = FaultState::new(cfg.clone(), 64);
        let mut b = FaultState::new(cfg, 64);
        for i in 0..64 {
            let head = flits(1).0;
            assert_eq!(
                a.on_link_flit(i, 0, head, false),
                b.on_link_flit(i, 0, head, false)
            );
        }
    }

    /// Property round trip of the fault-layer checkpoint: after an
    /// arbitrary prefix of link rolls (including VCs whose
    /// eat bit is set), a [`FaultState`] restored from the snapshot — into a
    /// state built from a *different* seed — must produce the identical
    /// fate sequence for any continuation, and the snapshot must survive
    /// serde byte-for-byte.
    mod snapshot_props {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone, Copy)]
        struct Roll {
            from: usize,
            out: usize,
            len: u32,
            head: bool,
            dead: bool,
        }

        fn roll_strategy() -> impl Strategy<Value = Roll> {
            (
                0usize..16,
                0usize..24,
                1u32..6,
                any::<bool>(),
                any::<bool>(),
            )
                .prop_map(|(from, out, len, head, dead)| Roll {
                    from,
                    out,
                    len,
                    head,
                    dead,
                })
        }

        fn play(fs: &mut FaultState, rolls: &[Roll]) -> Vec<u64> {
            let mut trace = Vec::with_capacity(rolls.len());
            for r in rolls {
                let (h, body) = flits(r.len);
                let flit = if r.head { h } else { body };
                trace.push(u64::from(fs.on_link_flit(r.from, r.out, flit, r.dead)));
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
                    seed,
                    ..FaultConfig::none()
                };
                let mut original = FaultState::new(cfg.clone(), 16);
                play(&mut original, &prefix);

                let snap = original.state.clone();
                let json = serde_json::to_string(&snap).expect("serialize snapshot");
                let decoded: State =
                    serde_json::from_str(&json).expect("deserialize snapshot");
                prop_assert_eq!(&decoded.eating, &original.state.eating);
                prop_assert_eq!(
                    serde_json::to_string(&decoded).expect("re-serialize"),
                    json,
                    "snapshot re-serialization is not byte-identical"
                );

                let mut restored = FaultState::new(
                    FaultConfig {
                        seed: seed ^ 0x5EED,
                        ..cfg
                    },
                    16,
                );
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
