//! Synthetic network-level traffic patterns, used by the NoC's own tests
//! and micro-benchmarks (the full-system experiments use the coherence
//! protocol in `rcsim-protocol` instead).

use crate::flit::PacketSpec;
use crate::network::Network;
use rand::Rng;
use rcsim_core::{MessageClass, NodeId};
use serde::{Deserialize, Serialize};

/// Spatial traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pattern {
    /// Destination drawn uniformly over all other nodes.
    UniformRandom,
    /// Node `(x, y)` sends to `(y, x)`.
    Transpose,
    /// A fraction of traffic targets one hot node, the rest is uniform.
    Hotspot {
        /// The hot node.
        target: NodeId,
        /// Percentage (0–100) of packets aimed at it.
        percent: u8,
    },
}

/// A Bernoulli packet generator over a pattern.
///
/// Each cycle, every node independently starts a new request packet with
/// probability `injection_rate` (packets/node/cycle). Useful to reproduce
/// the light loads the paper reports (<4 flits/node/100 cycles).
#[derive(Debug, Clone)]
pub struct Generator {
    /// Spatial pattern.
    pub pattern: Pattern,
    /// Packets per node per cycle.
    pub injection_rate: f64,
    /// Message class injected (class fixes size and VN).
    pub class: MessageClass,
}

impl Generator {
    /// A uniform-random generator of single-flit requests.
    pub fn uniform(injection_rate: f64) -> Self {
        Self {
            pattern: Pattern::UniformRandom,
            injection_rate,
            class: MessageClass::L1Request,
        }
    }

    /// Chooses a destination for `src` under the pattern.
    ///
    /// On a degenerate mesh with fewer than two nodes there is no valid
    /// destination; `src` is returned and [`Generator::step`] skips the
    /// self-addressed packet.
    pub fn destination<R: Rng>(&self, net: &Network, src: NodeId, rng: &mut R) -> NodeId {
        let topology = net.config().topology;
        let n = topology.nodes() as u16;
        if n < 2 {
            return src;
        }
        match self.pattern {
            Pattern::UniformRandom => loop {
                let d = NodeId(rng.gen_range(0..n));
                if d != src {
                    return d;
                }
            },
            Pattern::Transpose => {
                let (w, h) = topology.dims();
                let c = topology.coord(src);
                let max = (w - 1).min(h - 1);
                let t = topology.router_at(rcsim_core::Coord {
                    x: c.y.min(max),
                    y: c.x.min(max),
                });
                if t == src {
                    NodeId((src.0 + 1) % n)
                } else {
                    t
                }
            }
            Pattern::Hotspot { target, percent } => {
                if rng.gen_range(0..100u8) < percent && target != src {
                    target
                } else {
                    loop {
                        let d = NodeId(rng.gen_range(0..n));
                        if d != src {
                            return d;
                        }
                    }
                }
            }
        }
    }

    /// Runs one injection step: every node flips its Bernoulli coin.
    /// Out-of-range injection rates are clamped to `[0, 1]` rather than
    /// panicking — a sweep script overshooting saturation degrades to
    /// every-cycle injection.
    pub fn step<R: Rng>(&self, net: &mut Network, rng: &mut R, next_block: &mut u64) {
        let nodes = net.config().topology.nodes() as u16;
        let rate = if self.injection_rate.is_finite() {
            self.injection_rate.clamp(0.0, 1.0)
        } else {
            0.0
        };
        for s in 0..nodes {
            if rng.gen_bool(rate) {
                let src = NodeId(s);
                let dst = self.destination(net, src, rng);
                if src == dst {
                    continue;
                }
                *next_block += 64;
                net.inject(PacketSpec::new(src, dst, self.class).with_block(*next_block));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rcsim_core::{MechanismConfig, Topology};

    fn net() -> Network {
        Network::new(NocConfig::paper_baseline(
            Topology::mesh(4, 4).unwrap(),
            MechanismConfig::baseline(),
        ))
        .unwrap()
    }

    #[test]
    fn uniform_never_self() {
        let n = net();
        let g = Generator::uniform(0.1);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for s in 0..16u16 {
            for _ in 0..50 {
                assert_ne!(g.destination(&n, NodeId(s), &mut rng), NodeId(s));
            }
        }
    }

    #[test]
    fn transpose_is_involutive_inside_square() {
        let n = net();
        let g = Generator {
            pattern: Pattern::Transpose,
            injection_rate: 0.1,
            class: MessageClass::L1Request,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        // (1,2) -> (2,1) -> (1,2)
        let a = NodeId(9); // (1,2) in 4x4
        let b = g.destination(&n, a, &mut rng);
        assert_eq!(g.destination(&n, b, &mut rng), a);
    }

    #[test]
    fn hotspot_targets_hot_node() {
        let n = net();
        let g = Generator {
            pattern: Pattern::Hotspot {
                target: NodeId(5),
                percent: 100,
            },
            injection_rate: 0.1,
            class: MessageClass::L1Request,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for s in 0..16u16 {
            if s != 5 {
                assert_eq!(g.destination(&n, NodeId(s), &mut rng), NodeId(5));
            }
        }
    }

    #[test]
    fn generated_traffic_drains() {
        let mut n = net();
        let g = Generator::uniform(0.05);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut block = 0;
        for _ in 0..200 {
            g.step(&mut n, &mut rng, &mut block);
            n.tick();
        }
        for _ in 0..2000 {
            n.tick();
        }
        let s = n.stats();
        assert!(s.total_injected() > 0);
        assert_eq!(s.total_injected(), s.total_delivered());
        assert!(n.is_quiescent());
    }
}
