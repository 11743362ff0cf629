//! Distribution-level coverage for the synthetic traffic patterns:
//! Transpose never self-sends and is involutive off the diagonal, Hotspot
//! honours its `percent` knob within binomial confidence bounds, and all
//! three patterns are bit-deterministic per RNG seed.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::traffic::{Generator, Pattern};
use rcsim_noc::{Network, NocConfig};

fn net(w: u16, h: u16) -> Network {
    Network::new(NocConfig::paper_baseline(
        Topology::mesh(w, h).expect("valid mesh"),
        MechanismConfig::baseline(),
    ))
    .expect("valid network")
}

fn gen(pattern: Pattern) -> Generator {
    Generator {
        pattern,
        injection_rate: 0.05,
        class: MessageClass::L1Request,
    }
}

/// Transpose on a square mesh: no node may ever be handed itself as a
/// destination (diagonal nodes take the `(src+1) % n` fallback), and every
/// off-diagonal node must map back to itself after two hops.
#[test]
fn transpose_never_self_and_involutive_off_diagonal() {
    for side in [4u16, 8] {
        let n = net(side, side);
        let g = gen(Pattern::Transpose);
        let mesh = n.config().topology;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for s in 0..mesh.nodes() as u16 {
            let src = NodeId(s);
            let dst = g.destination(&n, src, &mut rng);
            assert_ne!(dst, src, "{side}x{side}: node {s} self-sent");
            let c = mesh.coord(src);
            if c.x != c.y {
                assert_eq!(
                    g.destination(&n, dst, &mut rng),
                    src,
                    "{side}x{side}: transpose not involutive at ({}, {})",
                    c.x,
                    c.y
                );
            }
        }
    }
}

/// Hotspot `percent` is an honest probability: over many draws from a
/// fixed non-hot source, the fraction landing on the hot node must sit
/// within ~4σ binomial bounds of the configured rate (plus the small
/// uniform-fallback mass that also lands on the target).
#[test]
fn hotspot_honours_percent_within_binomial_bounds() {
    const DRAWS: usize = 2_000;
    let n = net(4, 4);
    let target = NodeId(5);
    let src = NodeId(12);
    let nodes = 16.0f64;
    for percent in [10u8, 50, 90] {
        let g = gen(Pattern::Hotspot { target, percent });
        let mut rng = ChaCha8Rng::seed_from_u64(0x405 + u64::from(percent));
        let hits = (0..DRAWS)
            .filter(|_| g.destination(&n, src, &mut rng) == target)
            .count() as f64;
        // The uniform fallback also lands on the target 1/(n-1) of the time.
        let p = f64::from(percent) / 100.0;
        let p_eff = p + (1.0 - p) / (nodes - 1.0);
        let sigma = (DRAWS as f64 * p_eff * (1.0 - p_eff)).sqrt();
        let expected = DRAWS as f64 * p_eff;
        assert!(
            (hits - expected).abs() <= 4.0 * sigma,
            "percent={percent}: {hits} hits vs expected {expected:.1} ± {:.1}",
            4.0 * sigma
        );
    }
}

/// Every node, not just a sampled one, must be able to reach the hot node;
/// and the hot node itself must never self-send (it falls back to uniform).
#[test]
fn hotspot_target_never_self_sends() {
    let n = net(4, 4);
    let target = NodeId(5);
    let g = gen(Pattern::Hotspot {
        target,
        percent: 100,
    });
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    for _ in 0..500 {
        assert_ne!(g.destination(&n, target, &mut rng), target);
    }
}

/// Same seed → same destination stream, for every pattern. Any hidden
/// global state or draw-order instability in `destination` would break the
/// dense-vs-event kernel equivalence, so pin it here.
#[test]
fn destination_streams_are_deterministic_per_seed() {
    let n = net(8, 8);
    let patterns = [
        Pattern::UniformRandom,
        Pattern::Transpose,
        Pattern::Hotspot {
            target: NodeId(21),
            percent: 30,
        },
    ];
    for pattern in patterns {
        let g = gen(pattern);
        let stream = |seed: u64| -> Vec<NodeId> {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..64u16)
                .cycle()
                .take(512)
                .map(|s| g.destination(&n, NodeId(s), &mut rng))
                .collect()
        };
        assert_eq!(
            stream(0xDE7),
            stream(0xDE7),
            "{pattern:?}: same seed produced different destinations"
        );
    }
    // Different seeds must actually change the random patterns (a stream
    // that ignores its RNG would pass the equality check trivially).
    let g = gen(Pattern::UniformRandom);
    let stream = |seed: u64| -> Vec<NodeId> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..64u16)
            .map(|s| g.destination(&n, NodeId(s), &mut rng))
            .collect()
    };
    assert_ne!(stream(1), stream(2), "uniform pattern ignored its seed");
}

/// Whole-network determinism: two identical meshes driven by `step` with
/// the same seed must inject the same packets and end with identical
/// activity counters, for every pattern.
#[test]
fn injected_traffic_is_deterministic_per_seed() {
    let patterns = [
        Pattern::UniformRandom,
        Pattern::Transpose,
        Pattern::Hotspot {
            target: NodeId(3),
            percent: 40,
        },
    ];
    for pattern in patterns {
        let run = || {
            let mut net = net(4, 4);
            let g = gen(pattern);
            let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
            let mut block = 0u64;
            for _ in 0..300 {
                g.step(&mut net, &mut rng, &mut block);
                net.tick();
            }
            for _ in 0..3_000 {
                if net.is_quiescent() {
                    break;
                }
                net.tick();
            }
            (block, format!("{:?}", net.stats()))
        };
        let (block_a, stats_a) = run();
        let (block_b, stats_b) = run();
        assert!(block_a > 0, "{pattern:?}: nothing injected");
        assert_eq!(block_a, block_b, "{pattern:?}: injection counts differ");
        assert_eq!(stats_a, stats_b, "{pattern:?}: activity counters differ");
    }
}
