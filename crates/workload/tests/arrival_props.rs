//! Property-based round trips of the arrival-stream checkpoint: for any
//! rate, seed and split cycle, a stream restored from its
//! snapshot must continue the exact arrival sequence of the original —
//! the RNG draw sequence *is* the process definition, so one misplaced
//! draw shows up as a shifted arrival. The snapshot itself must survive
//! serde byte-for-byte.

use proptest::prelude::*;
use rcsim_core::Stateful;
use rcsim_workload::{ArrivalProcess, ArrivalState, ArrivalStream};

fn process_strategy() -> impl Strategy<Value = ArrivalProcess> {
    (0.0f64..1.0).prop_map(|rate| ArrivalProcess::Poisson { rate })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Snapshot at an arbitrary split cycle, restore into a fresh stream
    /// of the same configuration, and the tail of the run is identical —
    /// arrival for arrival, destination for destination.
    #[test]
    fn restored_stream_continues_the_exact_sequence(
        process in process_strategy(),
        seed in any::<u64>(),
        edge in 0usize..8,
        split in 0u64..2_000,
        tail in 1u64..2_000,
        servers in 1usize..32,
    ) {
        let mut original = ArrivalStream::new(process, seed, edge, 8);
        for t in 0..split {
            original.poll(t, servers);
        }

        let snap = original.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize snapshot");
        let decoded: ArrivalState = serde_json::from_str(&json).expect("deserialize snapshot");
        prop_assert_eq!(
            serde_json::to_string(&decoded).expect("re-serialize"),
            json,
            "snapshot re-serialization is not byte-identical"
        );

        // The restore target deliberately starts from a *different* seed:
        // every bit of dynamic state must come from the snapshot.
        let mut restored = ArrivalStream::new(process, seed ^ 0xDEAD_BEEF, (edge + 1) % 8, 8);
        restored.restore(&decoded);
        prop_assert_eq!(restored.produced(), original.produced());

        for t in split..split + tail {
            prop_assert_eq!(
                original.poll(t, servers),
                restored.poll(t, servers),
                "arrival sequences diverged at cycle {}",
                t
            );
        }
    }
}
