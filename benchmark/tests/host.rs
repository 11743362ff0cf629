//! The host probe's arrays: one cycle through every entry, so a chase
//! covers the whole array instead of settling into a cache-resident loop.

use rcsim_perf::host::random_cycle;

#[test]
fn a_random_cycle_visits_every_entry_once() {
    for (n, seed) in [(2usize, 1u64), (1_000, 2), (4_096, 3)] {
        let next = random_cycle(n, seed);
        let mut at = 0u32;
        for step in 1..=n {
            at = next[at as usize];
            assert_eq!(
                at == 0,
                step == n,
                "n {n}: back at the start after {step} steps"
            );
        }
    }
}
