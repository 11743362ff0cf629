//! The chip's tick allocates for what the run touches, not per cycle: over
//! a warm stretch of the paper-size 64-core `Complete_NoAck` `canneal`
//! session (the benchmark's `fullsys64`), the allocations left are one MSHR
//! queue per L2 miss, first-touch cache fills and statistics maps. Taking
//! the network's deliveries into a buffer the chip keeps removed one
//! allocation per delivering cycle (8 423 allocations over the window
//! before, 2 260 after). A file of its own: the counter is process-wide,
//! so a second test in the binary would race it.

use reactive_circuits::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to the system allocator; only counts the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
#[cfg_attr(debug_assertions, ignore = "the skip law clones state in debug builds")]
fn a_warm_chip_tick_allocates_only_for_what_it_touches() {
    let cfg = SimConfig {
        warmup_cycles: 40_000,
        measure_cycles: 40_000,
        small_caches: false,
        ..SimConfig::quick(64, MechanismConfig::complete_noack(), "canneal")
    };
    let mut session = SimSession::new(&cfg, None, KernelMode::Event, 1).expect("valid config");
    session.run_until(40_000).expect("no stall");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    session.run_until(50_000).expect("no stall");
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        made <= 3_000,
        "cycles 40 000–50 000 made {made} allocations"
    );
}
