//! Deterministic fault injection for robustness studies.
//!
//! The one fault class is the **dead link**, DyNoC's model (PAPERS.md): a
//! scheduled [`DeadLinkEvent`] removes one bidirectional inter-router
//! link for good from its cycle `at`. A packet whose head is routed onto
//! it is lost whole: the head sets its output VC's eat bit and the body
//! behind it is swallowed at the same link, while a packet whose head
//! crossed before the link died drains whole. Upstream credits are still
//! synthesized for swallowed flits so the loss does not wedge the fabric.
//! The live [`TopologyHealth`] map sends new packets whose DOR path the
//! link breaks along its up*/down* table and tears down every circuit
//! whose reply would now detour (DESIGN.md §10). A router-sized obstacle
//! is every link of that router dead, and its tile stays reachable only
//! from itself.
//!
//! [`FaultConfig::none`] (the default) is bit-identical to a build without
//! the fault layer at all: the network holds no `FaultState` in that case.
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Scheduled dead links (permanent faults, DESIGN.md §10).
    #[serde(default)]
    pub dead_links: Vec<DeadLinkEvent>,
}

impl FaultConfig {
    /// No faults at all (the default). Guaranteed bit-identical to a
    /// network constructed without a fault configuration.
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// `true` when no fault can ever fire.
    pub fn is_none(&self) -> bool {
        self.dead_links.is_empty()
    }

    /// Checks the configuration against `topology` before a network is
    /// built.
    ///
    /// # Errors
    ///
    /// [`ConfigError::FaultTopology`] — a dead link names a router outside
    /// the topology or a non-adjacent pair.
    pub fn validate(&self, topology: &Topology) -> Result<(), ConfigError> {
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

/// Counters of every fault injected and every recovery action taken.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Always zero: no code writes it. It stays so the serialized counters
    /// keep their shape (ROADMAP item 1 retires it).
    pub packets_dropped: u64,
    /// Always zero: no code writes it. It stays so the serialized counters
    /// keep their shape (ROADMAP item 1 retires it).
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
    /// Flits lost on a dead hop: heads routed onto it and the rest of
    /// their packets.
    #[serde(default)]
    pub dead_flits_lost: u64,
}

/// The fault layer's state (DESIGN.md §13).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct State {
    /// One word per router: bit `port · vcs + vc` is set while the last
    /// head sent on that output VC was lost, so the body behind it is too.
    eating: Vec<u64>,
    pub(crate) stats: FaultStats,
}

/// Live fault injection: the eat bits that lose packets whole, and the
/// counters. Held by the network only when a link is scheduled to die.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) state: State,
}

impl FaultState {
    pub(crate) fn new(routers: usize) -> Self {
        FaultState {
            state: State {
                eating: vec![0; routers],
                stats: FaultStats::default(),
            },
        }
    }

    /// Decides whether `flit`, leaving router `from` on output VC slot
    /// `out` (`port · vcs + vc`) of an inter-router link, is lost there;
    /// `dead` when the link is down. A head sets the VC's eat bit to
    /// whether its hop is dead. A VC carries one packet at a time, head
    /// first, so every flit is lost exactly when its VC's bit is set. A
    /// packet whose head crossed before the hop died drains whole: cutting
    /// a wormhole mid-stream would wedge the downstream VC.
    pub(crate) fn on_link_flit(&mut self, from: usize, out: usize, flit: Flit, dead: bool) -> bool {
        let (bit, word) = (1 << out, &mut self.state.eating[from]);
        if flit.is_head() {
            *word = if dead { *word | bit } else { *word & !bit };
        }
        let lost = *word & bit != 0;
        self.state.stats.dead_flits_lost += u64::from(lost);
        lost
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

    /// A fault layer over 16 routers.
    fn layer() -> FaultState {
        FaultState::new(16)
    }

    #[test]
    fn none_is_none() {
        assert!(FaultConfig::none().is_none());
        assert!(FaultConfig::default().is_none());
        let dead = FaultConfig {
            dead_links: vec![DeadLinkEvent {
                a: NodeId(0),
                b: NodeId(1),
                at: 0,
            }],
        };
        assert!(!dead.is_none(), "dead links must construct a FaultState");
    }

    #[test]
    fn validate_rejects_bad_topology() {
        let mesh = Topology::mesh(4, 4).unwrap();
        assert_eq!(FaultConfig::none().validate(&mesh), Ok(()));
        let cfg = FaultConfig {
            dead_links: vec![DeadLinkEvent {
                a: NodeId(0),
                b: NodeId(99),
                at: 0,
            }],
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
        };
        assert!(matches!(
            cfg.validate(&mesh),
            Err(ConfigError::FaultTopology(_))
        ));
    }

    #[test]
    fn a_dead_hop_eats_whole_packets_and_spares_streams_already_across() {
        let mut fs = layer();
        let (head, body) = flits(5);
        assert!(fs.on_link_flit(0, 4, head, true));
        assert_eq!(fs.state.eating[0], 1 << 4);
        for _ in 0..4 {
            assert!(fs.on_link_flit(0, 4, body, true));
        }
        assert_eq!(fs.state.stats.dead_flits_lost, 5);
        // A packet whose head crossed before the link died drains whole.
        assert!(!fs.on_link_flit(0, 5, head, false));
        assert!(!fs.on_link_flit(0, 5, body, true));
        assert_eq!(fs.state.stats.dead_flits_lost, 5);
    }

    #[test]
    fn each_output_vc_keeps_its_own_eat_bit() {
        let mut fs = layer();
        let (head, body) = flits(5);
        assert!(fs.on_link_flit(3, 1, head, true));
        // Slot 2 is another VC of the same port: its own head decides.
        assert!(!fs.on_link_flit(3, 2, head, false));
        assert!(!fs.on_link_flit(3, 2, body, true));
        assert!(fs.on_link_flit(3, 1, body, true));
        assert!(!fs.on_link_flit(4, 1, body, true));
        assert_eq!(fs.state.eating[3], 1 << 1);
    }

    /// Property round trip of the fault-layer checkpoint: after an
    /// arbitrary prefix of link crossings (including VCs whose eat bit is
    /// set), a [`FaultState`] restored from the snapshot must decide every
    /// continuation as the original does, and the snapshot must survive
    /// serde byte-for-byte.
    mod snapshot_props {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone, Copy)]
        struct Crossing {
            from: usize,
            out: usize,
            len: u32,
            head: bool,
            dead: bool,
        }

        fn crossing_strategy() -> impl Strategy<Value = Crossing> {
            (
                0usize..16,
                0usize..24,
                1u32..6,
                any::<bool>(),
                any::<bool>(),
            )
                .prop_map(|(from, out, len, head, dead)| Crossing {
                    from,
                    out,
                    len,
                    head,
                    dead,
                })
        }

        fn play(fs: &mut FaultState, crossings: &[Crossing]) -> Vec<u64> {
            let mut trace = Vec::with_capacity(crossings.len());
            for c in crossings {
                let (h, body) = flits(c.len);
                let flit = if c.head { h } else { body };
                trace.push(u64::from(fs.on_link_flit(c.from, c.out, flit, c.dead)));
            }
            trace
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn restored_fault_state_continues_the_exact_fate_sequence(
                prefix in prop::collection::vec(crossing_strategy(), 0..200),
                suffix in prop::collection::vec(crossing_strategy(), 1..200),
            ) {
                let mut original = layer();
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

                let mut restored = layer();
                restored.state = decoded;
                prop_assert_eq!(
                    play(&mut original, &suffix),
                    play(&mut restored, &suffix),
                    "fate sequences diverged after the restore"
                );
                prop_assert_eq!(&restored.state.stats, &original.state.stats);
            }
        }
    }
}
