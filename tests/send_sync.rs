//! C-SEND-SYNC: the simulator's public types must stay thread-portable so
//! experiment harnesses can parallelize runs across threads.

use reactive_circuits::prelude::*;

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn core_types_are_send_sync() {
    assert_send_sync::<Topology>();
    assert_send_sync::<MechanismConfig>();
    assert_send_sync::<NodeId>();
    assert_send_sync::<MessageClass>();
    assert_send_sync::<reactive_circuits::core::circuit::RouterCircuits>();
    assert_send_sync::<reactive_circuits::core::circuit::CircuitHandle>();
}

#[test]
fn simulators_are_send() {
    assert_send::<Network>();
    assert_send::<Chip>();
    assert_send_sync::<RunResult>();
    assert_send_sync::<SimConfig>();
    assert_send_sync::<Workload>();
    assert_send_sync::<reactive_circuits::protocol::L1Cache>();
    assert_send_sync::<reactive_circuits::protocol::L2Bank>();
    assert_send_sync::<reactive_circuits::power::EnergyModel>();
    assert_send_sync::<reactive_circuits::stats::Accumulator>();
}

#[test]
fn sweep_engine_types_are_thread_portable() {
    // The sweep runner fans jobs across scoped threads, so everything
    // crossing the worker boundary must be Send (+ Sync for shared refs).
    assert_send_sync::<rcsim_bench::SweepRunner>();
    assert_send_sync::<rcsim_bench::SweepStats>();
    assert_send_sync::<rcsim_bench::SweepOutcome>();
    assert_send_sync::<Result<RunResult, reactive_circuits::system::SimError>>();
    assert_send_sync::<Vec<(String, SimConfig)>>();
}

#[test]
fn errors_are_well_behaved() {
    fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}
    assert_error::<reactive_circuits::core::ConfigError>();
    assert_error::<reactive_circuits::core::circuit::ReserveError>();
    assert_error::<reactive_circuits::system::SimError>();
}
