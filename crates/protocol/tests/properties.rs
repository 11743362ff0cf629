//! Property-based tests of the protocol substrates: the cache array
//! against a reference model, and PLRU sanity under random touch streams.

use proptest::prelude::*;
use rcsim_protocol::{plru, CacheArray, CacheConfig};
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum ArrayOp {
    Insert(u64, u32),
    Get(u64),
    Remove(u64),
}

fn array_ops() -> impl Strategy<Value = Vec<ArrayOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..64, any::<u32>()).prop_map(|(b, v)| ArrayOp::Insert(b, v)),
            (0u64..64).prop_map(ArrayOp::Get),
            (0u64..64).prop_map(ArrayOp::Remove),
        ],
        0..300,
    )
}

proptest! {
    /// The cache array agrees with a map-based reference model on
    /// everything it holds (values never corrupt; evictions only remove
    /// same-set blocks; len always matches).
    #[test]
    fn array_matches_reference(ops in array_ops(), shift in 0u32..5) {
        let cfg = CacheConfig { sets: 4, ways: 2, interleave: 1 << shift };
        let mut array: CacheArray<u32> = CacheArray::new(cfg);
        let mut model: HashMap<u64, u32> = HashMap::new();
        let set_of = |b: u64| (b >> shift) as usize & 3;
        for op in ops {
            match op {
                ArrayOp::Insert(b, v) => {
                    if model.contains_key(&b) {
                        continue; // the array forbids double insert
                    }
                    if let Some((eb, ev)) = array.insert(b, v) {
                        prop_assert_eq!(set_of(eb), set_of(b), "evicted from another set");
                        prop_assert_eq!(model.remove(&eb), Some(ev));
                    }
                    model.insert(b, v);
                }
                ArrayOp::Get(b) => {
                    prop_assert_eq!(array.get(b).copied(), model.get(&b).copied());
                }
                ArrayOp::Remove(b) => {
                    prop_assert_eq!(array.remove(b), model.remove(&b));
                }
            }
            prop_assert_eq!(array.len(), model.len());
        }
        // Full-content audit, including address reconstruction with the
        // index shift.
        let mut found: Vec<(u64, u32)> = array.iter().map(|(b, v)| (b, *v)).collect();
        found.sort();
        let mut expect: Vec<(u64, u32)> = model.into_iter().collect();
        expect.sort();
        prop_assert_eq!(found, expect);
    }

    /// The PLRU victim is never the most recently touched way.
    #[test]
    fn plru_victim_not_mru(ways_pow in 1u32..5, touches in prop::collection::vec(0usize..16, 1..200)) {
        let ways = 1usize << ways_pow;
        let mut bits = 0;
        for t in touches {
            let w = t % ways;
            bits = plru::touch(bits, ways, w);
            if ways > 1 {
                prop_assert_ne!(plru::victim(bits, ways), w);
            }
        }
    }

    /// Touching every way exactly once makes the first-touched way (or at
    /// least not the last) the victim.
    #[test]
    fn plru_scan_order(ways_pow in 1u32..5) {
        let ways = 1usize << ways_pow;
        let bits = (0..ways).fold(0, |bits, w| plru::touch(bits, ways, w));
        prop_assert_eq!(plru::victim(bits, ways), 0);
    }
}
