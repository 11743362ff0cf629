//! Property-based round trips of the circuit-table checkpoint encoding:
//! a [`RouterCircuits`] driven through an arbitrary op interleaving must
//! survive serialize → deserialize bit-for-bit (equal state, equal
//! re-serialization) and — the property the checkpoint subsystem actually
//! rests on — the restored table must behave identically to the original
//! under any continuation of the workout.

use proptest::prelude::*;
use rcsim_core::circuit::{CircuitKey, ReserveRequest, RouterCircuits};
use rcsim_core::{CircuitMode, NodeId};

/// One step of a random table workout (a compact cousin of the driver in
/// `circuit_table_props.rs`: op identity doubles as the circuit key).
#[derive(Debug, Clone, Copy)]
enum Op {
    Reserve(u16, usize, usize),
    Release(usize),
    Undo(usize),
    BeginUse(usize),
    EndUse(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let reserve = || (0u16..4, 0usize..5, 0usize..5).prop_map(|(s, i, o)| Op::Reserve(s, i, o));
    prop_oneof![
        reserve(),
        reserve(),
        reserve(),
        (0usize..16).prop_map(Op::Release),
        (0usize..16).prop_map(Op::Undo),
        (0usize..16).prop_map(Op::BeginUse),
        (0usize..16).prop_map(Op::EndUse),
    ]
}

/// Applies one op to a table. `tag` disambiguates the keys of ops applied
/// at the same position in different segments of the workout, and live
/// keys are recovered from the table itself so the original and the
/// restored copy are always offered the identical call sequence.
fn apply(rc: &mut RouterCircuits, tag: u64, i: usize, op: Op) {
    let live: Vec<(usize, CircuitKey)> = rc.entries().map(|(p, e)| (p, e.key)).collect();
    let nth = |n: usize| {
        if live.is_empty() {
            None
        } else {
            Some(live[n % live.len()])
        }
    };
    match op {
        Op::Reserve(source, in_port, out_port) => {
            let block = (tag << 32) | (i as u64 * 64);
            let _ = rc.try_reserve(&ReserveRequest {
                key: CircuitKey {
                    requestor: NodeId((block % 97) as u16),
                    block,
                },
                source: NodeId(source),
                in_port,
                out_port,
                window: None,
                max_extra_shift: 0,
            });
        }
        Op::Release(n) => {
            if let Some((port, k)) = nth(n) {
                rc.release(port, k);
            }
        }
        Op::Undo(n) => {
            if let Some((_, k)) = nth(n) {
                rc.undo(k);
            }
        }
        Op::BeginUse(n) => {
            if let Some((port, k)) = nth(n) {
                rc.begin_use(port, k);
            }
        }
        Op::EndUse(n) => {
            if let Some((port, k)) = nth(n) {
                rc.end_use(port, k);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every mode: after an arbitrary prefix, the serialized table
    /// deserializes to an equal table with an identical re-serialization,
    /// and original and restored copy stay in lockstep (equal occupancy
    /// and equal bytes) through an arbitrary suffix of further ops.
    #[test]
    fn circuit_table_roundtrips_and_stays_in_lockstep(
        mode_ix in 0usize..3,
        prefix in prop::collection::vec(op_strategy(), 1..40),
        suffix in prop::collection::vec(op_strategy(), 0..20),
    ) {
        let mode = [CircuitMode::Complete, CircuitMode::Fragmented, CircuitMode::Ideal][mode_ix];
        let mut rc = RouterCircuits::new(mode, 3, 2);
        for (i, op) in prefix.iter().enumerate() {
            apply(&mut rc, 0, i, *op);
        }

        let json = serde_json::to_string(&rc).expect("serialize table");
        let mut restored: RouterCircuits = serde_json::from_str(&json).expect("deserialize table");
        prop_assert_eq!(&restored, &rc, "restored table differs from the original");
        prop_assert_eq!(
            serde_json::to_string(&restored).expect("re-serialize"),
            json,
            "re-serialization is not byte-identical"
        );

        for (i, op) in suffix.iter().enumerate() {
            apply(&mut rc, 1, i, *op);
            apply(&mut restored, 1, i, *op);
            for p in 0..5 {
                prop_assert_eq!(rc.occupancy(p), restored.occupancy(p));
            }
        }
        prop_assert_eq!(
            serde_json::to_string(&rc).expect("serialize original"),
            serde_json::to_string(&restored).expect("serialize restored"),
            "tables diverged after the restore"
        );
    }
}
