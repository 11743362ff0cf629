//! Workspace-level integration tests: the public prelude workflow, and
//! cross-crate invariants (determinism, energy/area consistency).

#[path = "../crates/core/tests/cdg/mod.rs"]
mod cdg;
#[path = "../crates/bench/tests/golden_rows/mod.rs"]
mod golden_rows;
#[path = "../crates/noc/tests/wedge/mod.rs"]
mod wedge;

use golden_rows::{first_difference, row_lines};
use rcsim_bench::{run_experiment, RunEnv, SweepRunner, EXPERIMENTS, KNOBS};
use reactive_circuits::core::circuit::CircuitKey;
use reactive_circuits::noc::STALL_WINDOW;
use reactive_circuits::prelude::*;
use reactive_circuits::system::{
    run_sim_traced, DeadLinkEvent, Envelope, TraceConfig, CHECKPOINT_FORMAT_VERSION,
};
use std::path::{Path, PathBuf};

fn quick(mechanism: MechanismConfig, app: &str) -> SimConfig {
    SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 12_000,
        ..SimConfig::quick(16, mechanism, app)
    }
}

#[test]
fn prelude_workflow_end_to_end() {
    let baseline = run_sim(&quick(MechanismConfig::baseline(), "fft")).unwrap();
    let circuits = run_sim(&quick(MechanismConfig::complete_noack(), "fft")).unwrap();
    assert!(circuits.speedup_over(&baseline) > 0.95);
    assert!(circuits.outcomes["circuit"] > 0.0);
}

#[test]
fn runs_are_deterministic() {
    let a = run_sim(&quick(MechanismConfig::slack_delay(1), "dedup")).unwrap();
    let b = run_sim(&quick(MechanismConfig::slack_delay(1), "dedup")).unwrap();
    assert_eq!(a, b, "identical seeds must produce identical results");
    let mut other = quick(MechanismConfig::slack_delay(1), "dedup");
    other.seed += 1;
    let c = run_sim(&other).unwrap();
    assert_ne!(
        a.instructions, c.instructions,
        "different seed, different run"
    );
}

#[test]
fn area_and_energy_are_consistent_across_crates() {
    // The RunResult's area saving must equal the power crate's number.
    let r = run_sim(&quick(MechanismConfig::complete(), "swaptions")).unwrap();
    assert_eq!(
        r.area_savings,
        area_savings(&MechanismConfig::complete(), 16)
    );
    assert!(r.energy.total_pj() > 0.0);
    assert!(r.energy.static_share() > 0.0 && r.energy.static_share() < 1.0);
}

#[test]
fn geometric_mean_speedup_over_apps() {
    // A miniature Figure 9 point: geometric-mean speedup over a few apps.
    let apps = ["fft", "swaptions", "canneal"];
    let mut speedups = Vec::new();
    for app in apps {
        let base = run_sim(&quick(MechanismConfig::baseline(), app)).unwrap();
        let noack = run_sim(&quick(MechanismConfig::complete_noack(), app)).unwrap();
        speedups.push(noack.speedup_over(&base));
    }
    let g = geometric_mean(speedups.iter().copied()).unwrap();
    assert!(g > 0.97, "mean speedup {g:.3} should not regress");
}

#[test]
fn network_is_usable_standalone() {
    // The NoC crate works without the protocol on top.
    let mesh = Topology::mesh(4, 4).unwrap();
    let mut net =
        Network::new(NocConfig::paper_baseline(mesh, MechanismConfig::complete())).unwrap();
    net.inject(PacketSpec::new(NodeId(0), NodeId(15), MessageClass::L1Request).with_block(64));
    for _ in 0..100 {
        net.tick();
    }
    assert_eq!(net.take_delivered(NodeId(15)).len(), 1);
}

/// A zero-flit packet used to be a head no tail follows: it held VC 0 of
/// every router on its route for good (two of these four packets arrived,
/// the watchdog reported a stall). `inject` refuses it like a bad node.
#[test]
fn zero_length_packet_is_rejected() {
    let mesh = Topology::mesh(4, 4).unwrap();
    let mut net =
        Network::new(NocConfig::paper_baseline(mesh, MechanismConfig::baseline())).unwrap();
    let request = PacketSpec::new(NodeId(0), NodeId(3), MessageClass::L1Request);
    for flits in [0, u32::from(u16::MAX) + 1] {
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.inject(request.with_flits(flits));
        }));
        let message = *refused.unwrap_err().downcast::<&str>().unwrap();
        assert_eq!(message, "packet length out of range");
    }
    for flits in [1, 1, 1, 40] {
        net.inject(request.with_flits(flits));
    }
    for _ in 0..200 {
        net.tick();
    }
    let health = net.health();
    assert!(health.quiescent && !health.stalled, "{health}");
    assert_eq!(net.take_delivered(NodeId(3)).len(), 4);
}

/// Sends `spec` through `net` and returns the delivered packet's
/// `delivered_at − injected_at` and whether it rode a circuit.
fn one_packet(net: &mut Network, spec: PacketSpec) -> (u64, bool) {
    net.inject(spec);
    for _ in 0..200 {
        net.tick();
        if let [d] = &net.take_delivered(spec.dst)[..] {
            return (d.delivered_at - d.injected_at, d.rode_circuit);
        }
    }
    panic!("{spec:?} was not delivered in 200 cycles");
}

/// The zero-load oracle: one packet at a time through an empty network
/// takes exactly the paper's arithmetic, written here by hand from
/// Table 4's stage list rather than read from the simulator's constants.
///
/// Through the pipeline, a head flit is injected at `T` and crosses the
/// 1-cycle NI link into its router at `T + 1`. Every router takes four
/// stages (route computation, VC allocation, switch allocation, switch
/// traversal) and every link between two routers one cycle, so `h`
/// router hops cost 5 each. The destination router's four stages land the
/// flit in the NI. The endpoints therefore cost 1 + 4 = 5 cycles. The
/// body flits follow one per cycle, so a `len`-flit packet needs
/// `5 + 5·h + (len − 1)`.
///
/// On a built complete circuit the reply crosses each router in its
/// arrival cycle: the NI link and the destination router's bypass cycle
/// make 1 + 1 = 2 endpoint cycles, each hop 2 more (bypass and link), so
/// `2 + 2·h + (len − 1)`.
///
/// Pipeline rows send a 1-flit `L1Request` and a 5-flit `WbData` under
/// `Baseline` at every distance of three shapes — the mesh, the torus and
/// the one-row torus — wraparound links included. Circuit rows send a
/// 5-flit `L2Reply` under `Complete` on the circuit its request built, on
/// the mesh: wrap shapes refuse reservations across the dateline. Every
/// expected latency is a literal.
#[test]
fn zero_load_latency_is_the_papers_arithmetic() {
    let mesh = Topology::mesh(4, 4).unwrap();
    let torus = Topology::torus(4, 4).unwrap();
    let ring = Topology::torus(8, 1).unwrap();
    // (shape, src, dst, router hops, L1Request cycles, WbData cycles).
    let pipeline = [
        (mesh, 0, 1, 1, 10, 14),
        (mesh, 0, 2, 2, 15, 19),
        (mesh, 0, 3, 3, 20, 24),
        (mesh, 0, 7, 4, 25, 29),
        (mesh, 0, 11, 5, 30, 34),
        (mesh, 0, 15, 6, 35, 39),
        (torus, 0, 3, 1, 10, 14),
        (torus, 0, 15, 2, 15, 19),
        (torus, 0, 6, 3, 20, 24),
        (torus, 0, 10, 4, 25, 29),
        (ring, 0, 7, 1, 10, 14),
        (ring, 6, 0, 2, 15, 19),
        (ring, 1, 4, 3, 20, 24),
        (ring, 0, 4, 4, 25, 29),
    ];
    for (topology, src, dst, hops, request, data) in pipeline {
        for (class, expected) in [
            (MessageClass::L1Request, request),
            (MessageClass::WbData, data),
        ] {
            let cfg = NocConfig::paper_baseline(topology, MechanismConfig::baseline());
            let mut net = Network::new(cfg).unwrap();
            let spec = PacketSpec::new(NodeId(src), NodeId(dst), class);
            let row = format!("{} n{src}->n{dst} ({hops} hops) {class}", topology.label());
            assert_eq!(one_packet(&mut net, spec), (expected, false), "{row}");
        }
    }
    // (shape, requestor, home, router hops, L1Request cycles, L2Reply cycles).
    let circuits = [
        (mesh, 0, 1, 1, 10, 8),
        (mesh, 0, 2, 2, 15, 10),
        (mesh, 0, 3, 3, 20, 12),
        (mesh, 0, 7, 4, 25, 14),
        (mesh, 0, 11, 5, 30, 16),
        (mesh, 0, 15, 6, 35, 18),
    ];
    for (topology, requestor, home, hops, request, reply) in circuits {
        let cfg = NocConfig::paper_baseline(topology, MechanismConfig::complete());
        let mut net = Network::new(cfg).unwrap();
        let (requestor, home) = (NodeId(requestor), NodeId(home));
        let row = format!("{} n{requestor}<-n{home} ({hops} hops)", topology.label());
        let spec = PacketSpec::new(requestor, home, MessageClass::L1Request).with_block(64);
        assert_eq!(
            one_packet(&mut net, spec),
            (request, false),
            "{row} request"
        );
        let key = CircuitKey {
            requestor,
            block: 64,
        };
        assert!(net.has_circuit_origin(home, key), "{row}: no circuit built");
        let spec = PacketSpec::new(home, requestor, MessageClass::L2Reply)
            .with_block(64)
            .with_circuit_key(key);
        assert_eq!(one_packet(&mut net, spec), (reply, true), "{row} reply");
    }
}

/// Packet records are recycled — through abandonment as well as through
/// delivery — every packet is delivered or abandoned, and the table's laws
/// hold after every cycle (in debug builds so do the two laws on every
/// skipped component). Tile 5 loses all four links at cycle 150: no
/// up*/down* path reaches it, so every copy of a packet to or from it is
/// routed onto a dead link until its retry budget is spent.
#[test]
fn packet_slots_recycle_under_faults() {
    let mut faults = FaultConfig::none();
    for b in [1, 4, 6, 9] {
        faults.dead_links.push(DeadLinkEvent {
            a: NodeId(5),
            b: NodeId(b),
            at: 150,
        });
    }
    let cfg = NocConfig::paper_baseline(Topology::mesh(4, 4).unwrap(), MechanismConfig::baseline());
    let mut net = Network::with_faults(cfg, faults).unwrap();
    let (mut injected, mut delivered) = (0, 0);
    while net.now() < 900 || !net.is_quiescent() {
        assert!(net.now() < 20_000 && !net.stalled(), "{}", net.health());
        if net.now() < 900 && net.now().is_multiple_of(2) {
            let (src, dst) = (net.now() / 2 % 16, (net.now() * 7 / 2 + 3) % 16);
            net.inject(PacketSpec::new(
                NodeId(src as u16),
                NodeId(dst as u16),
                MessageClass::WbData,
            ));
            injected += 1;
        }
        net.tick();
        delivered += net.take_all_delivered().len() as u64;
        net.check_index().unwrap();
    }
    let (open, held, high_water) = net.packet_records();
    assert_eq!((open, held), (0, 0), "the table drains");
    let faults = net.fault_stats();
    assert!(faults.packets_abandoned > 0 && faults.dead_flits_lost > 0);
    assert!(
        injected > 400 && high_water < 100,
        "{injected} packets in {high_water} slots: slots must be reused"
    );
    assert_eq!(delivered + faults.packets_abandoned, injected);
}

/// A fresh run of `cfg` checkpointed at cycle 0, with every router output
/// VC's credit count edited to zero in the image, so the chip wedges as
/// soon as its cores miss.
fn wedged_image(cfg: &SimConfig) -> SessionSnapshot {
    let session = SimSession::new(cfg, None, KernelMode::Event, 1).unwrap();
    let mut image = serde_json::to_value(&session.checkpoint()).unwrap();
    wedge::starve_routers(wedge::entry(wedge::entry(&mut image, "chip"), "net"));
    serde_json::from_value(image).expect("the edited image decodes")
}

/// `Network::check_index` on the network of a saved chip, restored into
/// a fresh network of its configuration: the credit law names the first
/// VC the edit starved.
fn assert_the_law_names_the_edit(snap: &SessionSnapshot) {
    let mut image = serde_json::to_value(snap).unwrap();
    let saved = std::mem::take(wedge::entry(wedge::entry(&mut image, "chip"), "net"));
    let cfg = snap.config();
    let topology = cfg.topology.build(cfg.cores).unwrap();
    let mut net = Network::new(NocConfig::paper_baseline(topology, cfg.mechanism)).unwrap();
    net.restore(&serde_json::from_value(saved).unwrap());
    let law = net
        .check_index()
        .expect_err("a starved VC breaks the credit law");
    let edit = ": 0 home + 0 on the wire + 0 flits is not the depth 5";
    assert!(
        law.starts_with("credits of n0/in1 vc0 at ") && law.ends_with(edit),
        "{law}"
    );
}

fn wedged_cfg() -> SimConfig {
    quick(MechanismConfig::baseline(), "fft")
}

#[test]
fn wedged_network_surfaces_as_stalled_error() {
    // A session resumed from a wedged image must return SimError::Stalled
    // with a diagnostic report instead of spinning through the full
    // cycle budget with a dead network.
    let cfg = wedged_cfg();
    let image = wedged_image(&cfg);
    assert_the_law_names_the_edit(&image);
    let mut session = SimSession::resume(&image, KernelMode::Event, 1).unwrap();
    match session.run_until(session.total()) {
        Err(SimError::Stalled { report }) => {
            assert!(report.stalled);
            assert!(report.in_flight > 0);
            assert!(
                report.cycle <= cfg.warmup_cycles + cfg.measure_cycles,
                "stall must be declared during the run, not after it"
            );
        }
        other => panic!("expected SimError::Stalled, got {other:?}"),
    }
}

/// The same wedge through the resumable driver (the path every sweep
/// takes under `RC_CKPT_DIR`), which resumes from the edited image planted
/// as the run's checkpoint, leaves the wedged chip behind as a second
/// checkpoint, and loading it shows the stall — what `rcsim-replay <file>
/// <cycles>` does.
#[test]
fn wedged_run_dumps_a_checkpoint_that_replays_the_stall() {
    let cfg = wedged_cfg();
    let dir = std::env::temp_dir().join(format!("rcsim-wedge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoints = Envelope {
        magic: "rcsim-checkpoint",
        version: CHECKPOINT_FORMAT_VERSION,
        extension: "ckpt",
    };
    let planted = checkpoints.path(&dir, &cfg);
    wedged_image(&cfg).save(&planted).unwrap();
    let stalled_at = match run_sim_resumable(&cfg, &dir, 1_000_000) {
        Err(SimError::Stalled { report }) => report.cycle,
        other => panic!("expected SimError::Stalled, got {other:?}"),
    };
    let left: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|path| *path != planted)
        .collect();
    let [dump] = left.as_slice() else {
        panic!("expected exactly the wedge dump, found {left:?}");
    };
    let name = dump.file_name().unwrap().to_string_lossy();
    assert!(
        name.starts_with("wedged-") && name.ends_with(".ckpt"),
        "{name}"
    );

    let snap = SessionSnapshot::load(dump).expect("the dump is a valid checkpoint");
    assert_eq!(snap.pos(), stalled_at);
    assert_eq!(snap.config(), &cfg);
    assert_the_law_names_the_edit(&snap);
    let mut session = SimSession::resume(&snap, KernelMode::Event, 1).unwrap();
    if !session.chip().health().stalled {
        let target = session.pos() + STALL_WINDOW;
        assert!(matches!(
            session.run_until(target),
            Err(SimError::Stalled { .. })
        ));
    }
    let health = session.chip().health();
    assert!(health.stalled && health.in_flight > 0, "{health}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_free_config_is_zero_perturbation() {
    // The fault layer's default must not move a single number.
    let a = run_sim(&quick(MechanismConfig::complete_noack(), "fft")).unwrap();
    let mut cfg = quick(MechanismConfig::complete_noack(), "fft");
    cfg.faults = FaultConfig::none();
    let b = run_sim(&cfg).unwrap();
    assert_eq!(a, b, "FaultConfig::none() must be bit-identical");
    assert!(a.health.healthy());
}

/// The configuration of the rows below: rows of `rcsim-system`'s
/// `kernel_diff` and `checkpoint_diff` matrices, kept in
/// tier-1 so the plain test command exercises the routers' occupancy index
/// (stage skipping), its rebuild on restore, the link calendars and, in
/// debug builds, the two laws on every component the worklist skips
/// (DESIGN.md §9).
fn differential_cfg() -> SimConfig {
    SimConfig {
        seed: 0xD1FF,
        warmup_cycles: 500,
        measure_cycles: 2_500,
        ..SimConfig::quick(16, MechanismConfig::complete_noack(), "blackscholes")
    }
}

fn serialized(result: &RunResult) -> String {
    serde_json::to_string(result).expect("RunResult serializes")
}

/// The four links of the central square (routers 5, 6, 9 and 10) die at
/// cycle 1 300, mid-run under load, so packets in flight across them are
/// lost and retransmitted.
fn dead_mid_run() -> FaultConfig {
    let links = [(5, 6), (9, 10), (5, 9), (6, 10)];
    FaultConfig {
        dead_links: (links.map(|(a, b)| DeadLinkEvent {
            a: NodeId(a),
            b: NodeId(b),
            at: 1_300,
        }))
        .to_vec(),
    }
}

/// A link fault decides each message's fate as it is emitted, so a
/// skipped component must not emit: every skip is a no-op under a link
/// dying mid-run, and the fault loses packets.
#[test]
fn skipped_components_are_no_ops_under_link_faults() {
    let mut cfg = differential_cfg();
    cfg.faults = dead_mid_run();
    let result = run_sim(&cfg).unwrap();
    assert!(result.instructions > 0);
    let faults = &result.health.faults;
    assert!(faults.dead_flits_lost > 0 && faults.retransmissions > 0);
}

/// A link dead from cycle 0, so NIs detour around it: tracing is pure
/// observation — the traced run's result is the untraced run's — and the
/// detours show in the trace.
#[test]
fn dead_link_run_traces_without_perturbing() {
    let mut cfg = differential_cfg();
    cfg.warmup_cycles = 0;
    cfg.faults.dead_links = vec![DeadLinkEvent {
        a: NodeId(5),
        b: NodeId(6),
        at: 0,
    }];
    let trace = TraceConfig {
        capacity: 1 << 20,
        epoch: 0,
    };
    let (traced, report) = run_sim_traced(&cfg, &trace).unwrap();
    assert!(traced.health.faults.packets_rerouted > 0);
    assert!(report.events.iter().any(|e| e.kind.name() == "ni_reroute"));
    assert_eq!(serialized(&traced), serialized(&run_sim(&cfg).unwrap()));
}

/// The deadlock oracle on the 4×4 mesh (`crates/core/tests/cdg`): the
/// routes `Topology::route` gives have an acyclic channel-dependency graph
/// fault-free and with any one link dead, while the breadth-first detours
/// it replaced, replies retracing them, close the reply cycle through
/// routers 1, 2, 6, 10, 9 and 5 with link 5–6 dead.
#[test]
fn routing_is_deadlock_free_with_any_one_dead_link() {
    use rcsim_core::{Topology, TopologyHealth, Vnet};
    let t = Topology::mesh(4, 4).unwrap();
    assert_eq!(cdg::route_cycle(&t, &TopologyHealth::new()), None);
    for (a, b) in cdg::every_link(&t) {
        let mut health = TopologyHealth::new();
        health.kill_link(&t, a, b);
        assert_eq!(cdg::route_cycle(&t, &health), None, "{a:?}-{b:?} dead");
    }
    let mut health = TopologyHealth::new();
    health.kill_link(&t, NodeId(5), NodeId(6));
    let bfs = |s, d| cdg::bfs_detour_hops(&t, &health, Vnet::Reply, s, d);
    let wedge = [1, 2, 6, 10, 9, 5].map(NodeId).to_vec();
    assert_eq!(cdg::dependency_cycle(&t, bfs), Some(wedge));
}

#[test]
fn resume_at_mid_run_is_byte_identical() {
    let cfg = differential_cfg();
    let uninterrupted = run_sim(&cfg).unwrap();
    assert!(uninterrupted.instructions > 0);
    let mut first = SimSession::new(&cfg, None, KernelMode::Event, 1).unwrap();
    first.run_until(1_700).unwrap();
    let mut resumed = SimSession::resume(&first.checkpoint(), KernelMode::Event, 1).unwrap();
    resumed.run_until(resumed.total()).unwrap();
    let (result, _) = resumed.finish();
    assert_eq!(serialized(&uninterrupted), serialized(&result));
}

/// State, not just results: with a link dying at 400, a run
/// checkpointed after the link died and resumed holds
/// exactly the state it saved, and ends in exactly the state
/// — every field of every component — of the run that was never
/// interrupted.
#[test]
fn resumed_state_is_byte_identical() {
    let bytes = |s: &SimSession| serde_json::to_string(&s.checkpoint()).expect("serializes");
    let mut cfg = differential_cfg();
    cfg.mechanism = MechanismConfig::complete();
    cfg.faults.dead_links = vec![DeadLinkEvent {
        a: NodeId(5),
        b: NodeId(6),
        at: 400,
    }];
    let mut whole = SimSession::new(&cfg, None, KernelMode::Event, 1).unwrap();
    whole.run_until(500).unwrap();
    // Through the serialized form, as a file would go.
    let saved = bytes(&whole);
    let snap: SessionSnapshot = serde_json::from_str(&saved).unwrap();
    let mut resumed = SimSession::resume(&snap, KernelMode::Event, 1).unwrap();
    assert_eq!(bytes(&resumed), saved);
    whole.run_until(whole.total()).unwrap();
    resumed.run_until(resumed.total()).unwrap();
    assert_eq!(bytes(&resumed), bytes(&whole));
    let (whole, resumed) = (whole.finish().0, resumed.finish().0);
    assert!(whole.health.faults.packets_rerouted > 0);
    assert_eq!(serialized(&resumed), serialized(&whole));
}

/// The worklist (DESIGN.md §9) against every way work reaches an NI from
/// outside the tick loop — injections, retries of packets lost on a link,
/// `undo_circuit` (§4.4's call for a forwarded request, made on every L2
/// miss by the `undo_on_l2_miss` ablation so a short cold run makes many)
/// — and a restore, which
/// rebuilds it: debug builds check the superset and skip laws on every
/// component it leaves out, before and after a mid-run resume that holds
/// the state bytes it saved and ends in the uninterrupted run's state and
/// result.
#[test]
fn worklist_holds_every_outside_mutation_and_survives_a_resume() {
    let mut cfg = SimConfig {
        faults: dead_mid_run(),
        ..differential_cfg()
    };
    cfg.warmup_cycles = 0;
    cfg.mechanism.undo_on_l2_miss = true;
    let bytes = |s: &SimSession| serde_json::to_string(&s.checkpoint()).expect("serializes");
    let session = |cfg| SimSession::new(cfg, None, KernelMode::Event, 1).unwrap();
    let mut first = session(&cfg);
    first.run_until(1_100).unwrap();
    let saved = bytes(&first);
    let mut resumed = SimSession::resume(&first.checkpoint(), KernelMode::Event, 1).unwrap();
    assert!(
        bytes(&resumed) == saved,
        "the resume does not hold its checkpoint"
    );
    resumed.run_until(resumed.total()).unwrap();
    let mut whole = session(&cfg);
    whole.run_until(whole.total()).unwrap();
    assert!(bytes(&resumed) == bytes(&whole), "the final states differ");
    let (result, whole) = (resumed.finish().0, whole.finish().0);
    let faults = &result.health.faults;
    assert!(faults.dead_flits_lost > 0 && faults.retransmissions > 0);
    assert!(result.outcomes.get("undone").is_some_and(|&f| f > 0.0));
    assert_eq!(serialized(&result), serialized(&whole));
}

/// Credits are messages (DESIGN.md §6b): on a 4×4 fragmented echo with
/// a link dying under load, credit conservation holds after every
/// cycle. For every credited VC, the credits home and on their way and
/// the flits buffered or on the link make the buffer depth
/// (`Network::check_index`). A fresh network restored mid-run then ends
/// in the state of the run that was never interrupted.
#[test]
fn credit_conservation_holds_every_cycle_under_faults_and_a_resume() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use reactive_circuits::core::circuit::CircuitKey;
    use reactive_circuits::noc::DeadLinkEvent;
    const SPLIT: u64 = 450;
    const END: u64 = 900;
    let mesh = Topology::mesh(4, 4).unwrap();
    let cfg = NocConfig::paper_baseline(mesh, MechanismConfig::fragmented());
    let mut faults = FaultConfig::none();
    faults.dead_links.push(DeadLinkEvent {
        a: NodeId(5),
        b: NodeId(6),
        at: 300,
    });
    let network = || Network::with_faults(cfg, faults.clone()).unwrap();
    // Requests for the first 700 cycles, each answered by a reply that
    // rides its circuit; the rng lives beside the network it drives.
    let step = |net: &mut Network, rng: &mut StdRng| {
        if net.now() < 700 {
            for src in 0..16u16 {
                if rng.gen_bool(0.04) {
                    let dst = (src + rng.gen_range(1..16u16)) % 16;
                    let block = rng.gen_range(0..1u64 << 40) << 6;
                    let spec = PacketSpec::new(NodeId(src), NodeId(dst), MessageClass::L1Request);
                    net.inject(spec.with_block(block));
                }
            }
        }
        net.tick();
        if let Err(e) = net.check_index() {
            panic!("cycle {}: {e}", net.now());
        }
        for (node, d) in net.take_all_delivered() {
            if d.class == MessageClass::L1Request {
                let key = CircuitKey {
                    requestor: d.src,
                    block: d.block,
                };
                let reply = PacketSpec::new(node, d.src, MessageClass::L2Reply);
                net.inject(reply.with_block(d.block).with_circuit_key(key));
            }
        }
    };
    let bytes = |net: &Network| serde_json::to_string(&net.snapshot()).unwrap();
    let (mut whole, mut rng) = (network(), StdRng::seed_from_u64(0xEC40));
    while whole.now() < SPLIT {
        step(&mut whole, &mut rng);
    }
    let mut resumed = network();
    resumed.restore(&whole.snapshot());
    let mut resumed_rng = rng.clone();
    while whole.now() < END {
        step(&mut whole, &mut rng);
        step(&mut resumed, &mut resumed_rng);
    }
    assert!(
        bytes(&resumed) == bytes(&whole),
        "the resumed run ends elsewhere"
    );
    let f = whole.fault_stats();
    assert!(f.dead_flits_lost > 0 && f.retransmissions > 0);
    assert!(whole.stats().total_delivered() > 400);
}

#[test]
fn all_workloads_resolve_through_prelude() {
    assert_eq!(workload_names().len(), 22);
    for name in workload_names() {
        assert!(Workload::by_name(name, 16, 0).is_some(), "{name}");
    }
}

fn run_env(vars: &[(&str, &str)]) -> Result<RunEnv, String> {
    RunEnv::parse(vars.iter().map(|&(k, v)| (k.to_owned(), v.to_owned())))
}

#[test]
fn run_env_of_an_empty_environment_is_the_documented_defaults() {
    let apps = [
        "blackscholes",
        "canneal",
        "fft",
        "ocean_cp",
        "raytrace",
        "swaptions",
        "mix",
    ];
    let defaults = RunEnv {
        apps: apps.map(str::to_owned).to_vec(),
        first_app: "canneal".to_owned(),
        cycles: 30_000,
        warmup: 60_000,
        seeds: vec![1],
        cores: vec![16, 64],
        small_caches: false,
        max_cycles: 2_000_000,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cache_dir: Some(PathBuf::from("target/experiments/cache")),
        checkpoints: None,
        topo_cycles: 3_000,
        topo_cores: vec![64, 256, 1024],
    };
    assert_eq!(run_env(&[]), Ok(defaults.clone()));
    // Variables of other programs are not ours to judge.
    assert_eq!(run_env(&[("PATH", "/bin"), ("RCX", "1")]), Ok(defaults));
    // Every knob is accepted, and its table default is what unset means.
    assert_eq!(KNOBS.len(), 14);
    for knob in KNOBS {
        let mut set = run_env(&[(knob.name, knob.default)]).expect(knob.name);
        if knob.name == "RC_APPS" {
            assert_eq!(set.first_app, "blackscholes");
            set.first_app = "canneal".to_owned();
        }
        assert_eq!(set, run_env(&[]).unwrap(), "{}", knob.name);
    }
}

#[test]
fn run_env_rejects_typos_and_names_the_variable() {
    for (name, value) in [
        ("RC_SEED", "3"),
        ("RC_CYCLES", "20k"),
        ("RC_TOPO_CORES", "64;256"),
        ("RC_JOBS", "0"),
        ("RC_APPS", "caneal"),
        ("RC_CORES", "16,"),
        ("RC_SMALL_CACHES", "yes"),
        ("RC_MAX_CYCLES", "1"),
    ] {
        let message = run_env(&[(name, value)]).expect_err(name);
        assert!(message.starts_with(name), "{name}={value}: {message}");
    }
}

#[test]
fn run_env_apps_all_is_every_workload() {
    let all = run_env(&[("RC_APPS", "all")]).unwrap();
    assert_eq!(all.apps, workload_names());
    assert!(Workload::by_name(&all.first_app, 16, 0).is_some());
    let listed = run_env(&[("RC_APPS", "fft, mix"), ("RC_SEEDS", "3")]).unwrap();
    assert_eq!(
        (listed.apps, listed.first_app.as_str()),
        (vec!["fft".to_owned(), "mix".to_owned()], "fft")
    );
    assert_eq!(listed.seeds, [1, 2, 3]);
}

#[test]
fn env_built_sweep_runner_is_what_the_environment_says() {
    let env = run_env(&[
        ("RC_JOBS", "3"),
        ("RC_CACHE_DIR", "somewhere/cache"),
        ("RC_CKPT_DIR", "somewhere/ckpt"),
        ("RC_CKPT_INTERVAL", "500"),
    ])
    .unwrap();
    let runner = SweepRunner::for_env(&env);
    assert_eq!(runner.workers(), 3);
    assert_eq!(runner.cache_dir(), Some(Path::new("somewhere/cache")));
    assert_eq!(
        runner.checkpoints(),
        Some((Path::new("somewhere/ckpt"), 500))
    );

    let plain = SweepRunner::for_env(&run_env(&[("RC_CACHE_DIR", ""), ("RC_JOBS", "1")]).unwrap());
    assert_eq!(plain.workers(), 1);
    assert_eq!((plain.cache_dir(), plain.checkpoints()), (None, None));
    // Without a directory the default interval checkpoints nothing.
    assert_eq!(
        run_env(&[("RC_CKPT_INTERVAL", "500")]).unwrap().checkpoints,
        None
    );
}

/// The experiment table end to end, on its cheapest simulated entry:
/// `fig6` through `rcsim-bench`'s driver under `scripts/ci.sh`'s smoke
/// environment reproduces its checked-in rows (the whole table is
/// `crates/bench/tests/experiments_golden.rs`).
#[test]
fn fig6_through_the_experiment_table_matches_its_golden_rows() {
    let env = run_env(&[
        ("RC_APPS", "blackscholes"),
        ("RC_CYCLES", "2000"),
        ("RC_WARMUP", "1000"),
        ("RC_SMALL_CACHES", "1"),
        ("RC_CORES", "16"),
        ("RC_MAX_CYCLES", "10000"),
        ("RC_CACHE_DIR", ""),
        ("RC_JOBS", "2"),
    ])
    .unwrap();
    let fig6 = EXPERIMENTS.iter().find(|e| e.name == "fig6").unwrap();
    let report = run_experiment(fig6, &env).unwrap();
    let golden = include_str!("../crates/bench/tests/experiments_golden/fig6.txt");
    assert_eq!(
        first_difference(golden, &row_lines(&report.summary)),
        None,
        "golden vs measured"
    );
    let files: Vec<&str> = report.files.iter().map(|f| f.0.as_str()).collect();
    assert_eq!(files, ["BENCH_fig6.json", "fig6.md", "fig6_trace.json"]);
}
