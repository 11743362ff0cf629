//! Randomized coherence fuzzing: random chips, mechanisms and schedules,
//! with the single-writer/inclusion invariants checked repeatedly during
//! execution (not just at the end).

use proptest::prelude::*;
use rcsim_core::{MechanismConfig, Topology};
use rcsim_protocol::ProtocolConfig;
use rcsim_system::Chip;
use rcsim_workload::Workload;

fn any_mechanism() -> impl Strategy<Value = MechanismConfig> {
    prop_oneof![
        Just(MechanismConfig::baseline()),
        Just(MechanismConfig::fragmented()),
        Just(MechanismConfig::complete()),
        Just(MechanismConfig::complete_noack()),
        Just(MechanismConfig::reuse_noack()),
        Just(MechanismConfig::timed_noack()),
        Just(MechanismConfig::slack_delay(2)),
        Just(MechanismConfig::postponed(1)),
        Just(MechanismConfig::ideal()),
    ]
}

fn any_app() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("canneal"),
        Just("fft"),
        Just("ocean_ncp"),
        Just("swaptions"),
        Just("mix"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn invariants_hold_throughout_execution(
        mechanism in any_mechanism(),
        app in any_app(),
        seed in 0u64..1000,
        checks in 3usize..8,
    ) {
        let mesh = Topology::mesh(4, 4).expect("square");
        let wl = Workload::by_name(app, 16, seed).expect("known app");
        let mut chip = Chip::new(
            mesh,
            mechanism,
            ProtocolConfig::small_for_tests(&mesh),
            &wl,
        )
        .expect("valid configuration");
        let mut last_instructions = 0;
        for phase in 0..checks {
            chip.run(1_500).expect("chip run must not stall");
            let violations = chip.coherence_violations();
            prop_assert!(
                violations.is_empty(),
                "{} / {app} / seed {seed} phase {phase}: {violations:?}",
                mechanism.label()
            );
            let now = chip.instructions();
            prop_assert!(
                now > last_instructions,
                "{} / {app}: no forward progress in phase {phase}",
                mechanism.label()
            );
            last_instructions = now;
        }
    }
}
