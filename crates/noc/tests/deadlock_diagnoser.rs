//! The wait-for-graph diagnoser on a live network: a healthy run must
//! *not* carry a [`rcsim_noc::DeadlockReport`]. (The cycle finder itself
//! is pinned on hand-built wait-for graphs in `health.rs`'s unit tests;
//! the watchdog declaring a stall is `watchdog.rs`.)

use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{Network, NocConfig, PacketSpec};

/// A healthy network must stall nowhere and carry no deadlock report,
/// and a quiescent network's health must stay clean.
#[test]
fn healthy_runs_carry_no_deadlock_report() {
    let mesh = Topology::mesh(4, 4).unwrap();
    let cfg = NocConfig::paper_baseline(mesh, MechanismConfig::complete());
    let mut net = Network::new(cfg).unwrap();
    net.inject(PacketSpec::new(NodeId(0), NodeId(15), MessageClass::L1Request).with_block(64));
    for _ in 0..200 {
        net.tick();
    }
    let health = net.health();
    assert!(!health.stalled);
    assert!(
        health.deadlock.is_none(),
        "no stall, no deadlock report: {health}"
    );
}
