//! Property-based tests for the adaptive policy layer (DESIGN.md §14):
//! the region map is a balanced contiguous partition that keeps every
//! tile with its router, the controller's decision function is pure,
//! hysteresis + min-dwell bound how often a region can switch, and the
//! policy-triggered circuit
//! teardown conserves circuits exactly — torn circuits vanish from every
//! router on their path, surviving circuits keep every entry — checked
//! against an independent shadow model.

use proptest::prelude::*;
use rcsim_core::circuit::{CircuitKey, ReserveRequest, RouterCircuits};
use rcsim_core::routing::Routing;
use rcsim_core::{
    AdaptiveConfig, CircuitMode, NodeId, PolicyController, RegionMode, RegionPlan, RegionSample,
    Topology, TopologySpec,
};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Region-map properties
// ---------------------------------------------------------------------------

/// A strategy over all four topology families at mixed sizes (4–1024
/// tiles), mirroring the spread the topology benches sweep.
fn topology_strategy() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (2u16..=8, 2u16..=8).prop_map(|(w, h)| Topology::mesh(w, h).expect("mesh dims")),
        (2u16..=8, 2u16..=8).prop_map(|(w, h)| Topology::torus(w, h).expect("torus dims")),
        (2u16..=6, 2u16..=6, prop_oneof![Just(2u16), Just(4u16)])
            .prop_map(|(w, h, c)| Topology::cmesh(w, h, c).expect("cmesh dims")),
        (3u16..=64).prop_map(|n| Topology::ring(n).expect("ring size")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Partition: the region ranges are contiguous, ordered, non-empty,
    /// within one router of each other in size, and cover 0..routers
    /// exactly once; a count above the router count clamps to one router
    /// per region.
    #[test]
    fn every_router_lands_in_exactly_one_region(
        topology in topology_strategy(),
        regions in 1usize..=80,
    ) {
        let plan = RegionPlan::new(&topology, regions);
        prop_assert_eq!(plan.regions(), regions.min(topology.routers()));
        let mut next = 0;
        let (mut min, mut max) = (usize::MAX, 0);
        for g in 0..plan.regions() {
            let r = plan.router_range(g);
            prop_assert_eq!(r.start, next, "region {} not contiguous", g);
            prop_assert!(!r.is_empty(), "region {} empty", g);
            for i in r.clone() {
                prop_assert_eq!(plan.region_of_router(i), g);
            }
            (min, max) = (min.min(r.len()), max.max(r.len()));
            next = r.end;
        }
        prop_assert_eq!(next, topology.routers(), "ranges must cover every router");
        prop_assert!(max - min <= 1, "unbalanced partition: {}..={}", min, max);
    }

    /// Tiles follow their router: a tile lies in the tile range of its
    /// router's region on every topology, including concentrated meshes
    /// where several tiles share one router — a region's NI backlog
    /// sample and its wake-ups cover exactly the NIs of its routers.
    #[test]
    fn tiles_always_land_in_their_routers_region(
        topology in topology_strategy(),
        regions in 1usize..=16,
    ) {
        let plan = RegionPlan::new(&topology, regions);
        for tile in topology.iter_tiles() {
            let g = plan.region_of_router(topology.router_of(tile).index());
            prop_assert!(
                plan.tile_range(g).contains(&tile.index()),
                "tile {} outside its region's tile range",
                tile
            );
        }
        // And the tile ranges tile the tile space exactly.
        let mut next = 0;
        for g in 0..plan.regions() {
            let t = plan.tile_range(g);
            prop_assert_eq!(t.start, next);
            next = t.end;
        }
        prop_assert_eq!(next, topology.nodes());
    }

    /// Purity: the plan is a deterministic function of its inputs alone,
    /// so every run of one configuration decides over the same regions.
    #[test]
    fn region_map_is_a_pure_function_of_its_inputs(
        topology in topology_strategy(),
        regions in 1usize..=16,
    ) {
        prop_assert_eq!(
            RegionPlan::new(&topology, regions),
            RegionPlan::new(&topology, regions)
        );
    }
}

// ---------------------------------------------------------------------------
// Controller properties
// ---------------------------------------------------------------------------

fn cfg_strategy() -> impl Strategy<Value = AdaptiveConfig> {
    (1u64..500, 1usize..8, 0u64..2_000, 0u64..2_000, 0u64..1_000).prop_map(
        |(epoch, regions, a, b, dwell)| AdaptiveConfig {
            decision_epoch: epoch,
            regions,
            hot_enter: a.max(b).max(1),
            hot_exit: a.min(b),
            min_dwell: dwell,
        },
    )
}

fn samples_strategy(regions: usize) -> impl Strategy<Value = Vec<RegionSample>> {
    prop::collection::vec(
        (0u64..40, 0u64..40, 1u64..5).prop_map(|(buffered, backlog, routers)| RegionSample {
            buffered_flits: buffered,
            ni_backlog: backlog,
            circuit_entries: 0,
            routers,
        }),
        regions..=regions,
    )
}

/// A whole drive: one sample vector per decision epoch.
fn drive_strategy() -> impl Strategy<Value = (AdaptiveConfig, Vec<Vec<RegionSample>>)> {
    cfg_strategy().prop_flat_map(|cfg| {
        let regions = cfg.regions;
        (
            Just(cfg),
            prop::collection::vec(samples_strategy(regions), 1..40),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Purity: identical (state, now, samples) produce identical verdicts
    /// and identical successor state, at every step of an arbitrary
    /// drive — the controller is a deterministic state machine with no
    /// hidden inputs.
    #[test]
    fn decide_is_pure((cfg, drive) in drive_strategy()) {
        let mut a = PolicyController::new(cfg, cfg.regions);
        let mut b = PolicyController::new(cfg, cfg.regions);
        for (i, samples) in drive.iter().enumerate() {
            let now = (i as u64 + 1) * cfg.decision_epoch;
            // A third copy forked from the current state must agree too:
            // the decision depends on the state, not on how it was
            // reached.
            let mut fork = a.clone();
            let da = a.decide(now, samples);
            let db = b.decide(now, samples);
            let df = fork.decide(now, samples);
            prop_assert_eq!(&da, &db, "two identical drives diverged at step {}", i);
            prop_assert_eq!(&da, &df, "forked controller diverged at step {}", i);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(&a, &fork);
        }
    }

    /// Hysteresis and min-dwell: a region only heats at `score >=
    /// hot_enter`, only cools at `score <= hot_exit`, consecutive
    /// switches of one region are at least `min_dwell` cycles apart, and
    /// the total switch count over a drive is bounded by the dwell clock
    /// (`1 + elapsed / min_dwell` per region).
    #[test]
    fn hysteresis_and_dwell_bound_switching((cfg, drive) in drive_strategy()) {
        let mut c = PolicyController::new(cfg, cfg.regions);
        let mut last_switch = vec![None::<u64>; cfg.regions];
        let mut switches = vec![0u64; cfg.regions];
        let mut elapsed = 0;
        for (i, samples) in drive.iter().enumerate() {
            let now = (i as u64 + 1) * cfg.decision_epoch;
            elapsed = now;
            let before: Vec<RegionMode> =
                (0..cfg.regions).map(|r| c.mode(r)).collect();
            for d in c.decide(now, samples) {
                prop_assert_eq!(d.score, samples[d.region].score());
                prop_assert_eq!(d.mode, c.mode(d.region), "verdict disagrees with state");
                if d.switched {
                    match d.mode {
                        RegionMode::Hot => prop_assert!(
                            before[d.region] == RegionMode::Calm
                                && d.score >= cfg.hot_enter,
                            "heated below hot_enter"
                        ),
                        RegionMode::Calm => prop_assert!(
                            before[d.region] == RegionMode::Hot
                                && d.score <= cfg.hot_exit,
                            "cooled above hot_exit"
                        ),
                    }
                    if let Some(prev) = last_switch[d.region] {
                        prop_assert!(
                            now - prev >= cfg.min_dwell,
                            "region {} switched {} cycles after its last switch \
                             (min_dwell {})",
                            d.region, now - prev, cfg.min_dwell
                        );
                    }
                    last_switch[d.region] = Some(now);
                    switches[d.region] += 1;
                } else {
                    prop_assert_eq!(d.mode, before[d.region], "mode changed without a switch");
                }
            }
        }
        if let Some(bound) = elapsed.checked_div(cfg.min_dwell) {
            for (r, &s) in switches.iter().enumerate() {
                prop_assert!(
                    s <= 1 + bound,
                    "region {r} switched {s} times in {elapsed} cycles \
                     (min_dwell {})",
                    cfg.min_dwell
                );
            }
        }
    }

    /// The hysteresis band itself: while a region's score stays strictly
    /// inside (hot_exit, hot_enter), the region never switches no matter
    /// how long the drive runs.
    #[test]
    fn scores_inside_the_band_never_switch(
        cfg in cfg_strategy().prop_filter("need a real band", |c| c.hot_enter > c.hot_exit + 1),
        steps in 1usize..60,
    ) {
        let mut c = PolicyController::new(cfg, cfg.regions);
        // A score strictly inside the band: buffered = score/SCORE_SCALE
        // rounded to land between the thresholds with routers = 1.
        let mid = (cfg.hot_exit + cfg.hot_enter) / 2;
        let sample = RegionSample {
            buffered_flits: mid.div_ceil(rcsim_core::SCORE_SCALE),
            ni_backlog: 0,
            circuit_entries: 0,
            routers: 1,
        };
        let samples = vec![sample; cfg.regions];
        prop_assume!(sample.score() > cfg.hot_exit && sample.score() < cfg.hot_enter);
        for i in 0..steps {
            for d in c.decide((i as u64 + 1) * cfg.decision_epoch, &samples) {
                prop_assert!(!d.switched, "switched inside the hysteresis band");
                prop_assert_eq!(d.mode, RegionMode::Calm);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Teardown conservation vs a shadow model
// ---------------------------------------------------------------------------

/// One established circuit in the shadow model: its key, the reply path
/// it was reserved along, and the (router, in_port, out_port) entries it
/// holds.
struct ShadowCircuit {
    key: CircuitKey,
    entries: Vec<(NodeId, usize, usize)>,
    in_use_at: Option<usize>,
}

/// The per-router reservations a reply travelling dst→src writes, like
/// the NoC's construction pass: at each router the reply arrives from
/// the previous hop (or the dst tile's local port) and leaves towards
/// the next (or ejects at the requestor).
fn reply_entries(
    topo: &rcsim_core::Topology,
    src: NodeId,
    dst: NodeId,
) -> Vec<(NodeId, usize, usize)> {
    let path = topo.route_path(dst, src, Routing::Yx);
    let mut out = Vec::with_capacity(path.len());
    for (j, r) in path.iter().enumerate() {
        let in_port = if j == 0 {
            topo.eject_port(dst)
        } else {
            topo.port_between(path[j - 1], *r)
                .expect("adjacent routers")
        };
        let out_port = if j + 1 < path.len() {
            topo.port_between(*r, path[j + 1])
                .expect("adjacent routers")
        } else {
            topo.eject_port(src)
        };
        out.push((*r, in_port, out_port));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Policy teardown conserves circuits. Circuits are reserved along
    /// YX reply paths on a 4×4 mesh (failed reservations undo their
    /// prefix, like the NoC). An arbitrary set of routers then goes hot
    /// and every circuit crossing it is torn down by undo along its
    /// path — in-use circuits defer to `end_use`, exactly like the
    /// network's origin-driven teardown. Afterwards, torn circuits must
    /// hold no entry anywhere, survivors must hold exactly their original
    /// entries, and per-router totals must match the shadow.
    #[test]
    fn region_teardown_conserves_circuits(
        pairs in prop::collection::vec((0u16..16, 0u16..16), 1..24),
        in_use in prop::collection::vec(any::<bool>(), 24),
        hot in prop::collection::vec(0u16..16, 0..6),
    ) {
        let topo = TopologySpec::Mesh.build(16).expect("4x4 mesh");
        let mut tables: Vec<RouterCircuits> = (0..topo.routers())
            .map(|_| RouterCircuits::new(CircuitMode::Fragmented, 2, 2))
            .collect();
        let mut shadow: Vec<ShadowCircuit> = Vec::new();

        for (i, &(s, d)) in pairs.iter().enumerate() {
            if s == d {
                continue;
            }
            let (src, dst) = (NodeId(s), NodeId(d));
            let key = CircuitKey { requestor: src, block: i as u64 * 64 };
            let entries = reply_entries(&topo, src, dst);
            let mut written = Vec::new();
            let mut ok = true;
            for &(r, in_port, out_port) in &entries {
                let req = ReserveRequest {
                    key,
                    source: dst,
                    in_port,
                    out_port,
                    window: None,
                    max_extra_shift: 0,
                };
                if tables[r.index()].try_reserve(&req).is_ok() {
                    written.push(r);
                } else {
                    ok = false;
                    break;
                }
            }
            if !ok {
                // Construction failed mid-path: the NoC undoes the
                // prefix; nothing of this circuit may remain.
                for r in written {
                    prop_assert!(tables[r.index()].undo(key).is_some());
                }
                continue;
            }
            let in_use_at = if in_use[i % in_use.len()] && !entries.is_empty() {
                let (r, in_port, _) = entries[i % entries.len()];
                prop_assert!(tables[r.index()].begin_use(in_port, key));
                Some(i % entries.len())
            } else {
                None
            };
            shadow.push(ShadowCircuit { key, entries, in_use_at });
        }

        // An arbitrary region goes hot: tear down every circuit whose
        // path crosses a hot router, via undo at each router on the path
        // (the §4.4 construction undo, driven from the policy layer).
        let hot: BTreeSet<NodeId> = hot.into_iter().map(NodeId).collect();
        let (doomed, kept): (Vec<&ShadowCircuit>, Vec<&ShadowCircuit>) = shadow
            .iter()
            .partition(|c| c.entries.iter().any(|&(r, ..)| hot.contains(&r)));
        for c in &doomed {
            for (j, &(r, in_port, _)) in c.entries.iter().enumerate() {
                let undone = tables[r.index()].undo(c.key);
                if c.in_use_at == Some(j) {
                    // Streaming through this router: the undo defers and
                    // the entry dies when the stream ends.
                    prop_assert!(undone.is_none(), "in-use entry ripped mid-stream");
                    prop_assert!(tables[r.index()].end_use(in_port, c.key).is_some());
                } else {
                    prop_assert!(undone.is_some(), "live entry already missing");
                }
            }
        }

        // Conservation: doomed circuits hold nothing anywhere; survivors
        // hold exactly their original entries (undo by key would find
        // them); per-router totals match the shadow's bookkeeping.
        for c in &doomed {
            for &(r, _, _) in &c.entries {
                prop_assert!(
                    tables[r.index()].undo(c.key).is_none(),
                    "torn circuit left an entry behind"
                );
            }
        }
        for (r, table) in tables.iter().enumerate() {
            let expect: usize = kept
                .iter()
                .map(|c| c.entries.iter().filter(|&&(er, ..)| er.index() == r).count())
                .sum();
            prop_assert_eq!(
                table.total_entries(),
                expect,
                "router {} entry count diverged from the shadow",
                r
            );
        }
        // And the survivors themselves are fully intact: undoing them now
        // must succeed at every router on their path.
        for c in &kept {
            for (j, &(r, in_port, _)) in c.entries.iter().enumerate() {
                let undone = tables[r.index()].undo(c.key);
                if c.in_use_at == Some(j) {
                    prop_assert!(undone.is_none());
                    prop_assert!(tables[r.index()].end_use(in_port, c.key).is_some());
                } else {
                    prop_assert!(undone.is_some(), "surviving circuit lost an entry");
                }
            }
        }
        for t in &tables {
            prop_assert_eq!(t.total_entries(), 0, "teardown left entries behind");
        }
    }
}
