//! The footprint law: a session's memory, allocations and checkpoint are
//! sized by what the run touched, not by the capacity it models. At paper
//! size (Table 2: 32 KB L1s, 1 MB L2 banks, 64 tiles) the cache arrays
//! model 1 M lines, of which a short run fills a few thousand — building
//! them used to take 74 393 allocations and a checkpoint 74 563 more, and
//! the file was 9.2 MB (859, 1 475 and 0.93 MB now). Counting bytes, not
//! calls: while every set had its ways from the start, building asked for
//! 14.6 MB and a checkpoint copied 14.6 MB; now a set gets its ways when it
//! first holds a line, and each is under 2 MB. Counting what is held: at
//! cycle 10 000 the session keeps 2.3 MB of heap, where it kept 3.0 MB
//! while a set's first line brought all 16 ways with it and an L2 line
//! carried its busy state and request queue. This is also the only
//! checkpoint row on paper-size caches: `checkpoint_diff` runs
//! `SimConfig::quick`, i.e. small ones.

use reactive_circuits::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Counts every allocation and reallocation of the process, and the bytes
/// they ask for (a reallocation: only what it grows by); and the bytes
/// held, which deallocations and shrinking reallocations give back.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static HELD: AtomicI64 = AtomicI64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

fn hold(from: usize, to: usize) {
    HELD.fetch_add(to as i64 - from as i64, Ordering::Relaxed);
}

// SAFETY: defers to the system allocator; only counts the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(0, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(0, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(layout.size(), 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        hold(layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocates, as `(calls, bytes)` (one test in this file:
/// nothing else runs).
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let load = || {
        (
            ALLOCATIONS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    };
    let before = load();
    let value = f();
    let after = load();
    (value, (after.0 - before.0, after.1 - before.1))
}

#[test]
fn paper_size_session_is_sized_by_what_it_touches() {
    const SPLIT: u64 = 2_000;
    let cfg = SimConfig {
        warmup_cycles: 5_000,
        measure_cycles: 5_000,
        small_caches: false,
        ..SimConfig::quick(64, MechanismConfig::complete_noack(), "canneal")
    };
    let session = |cfg| SimSession::new(cfg, None, KernelMode::Event, 1).expect("valid config");

    let (mut first, (built, built_bytes)) = counted(|| session(&cfg));
    assert!(built <= 5_000, "SimSession::new made {built} allocations");
    assert!(
        built_bytes <= 3_000_000,
        "SimSession::new asked for {built_bytes} bytes"
    );

    first.run_until(SPLIT).expect("no stall");
    let (snap, (captured, captured_bytes)) = counted(|| first.checkpoint());
    assert!(
        captured <= 5_000,
        "checkpoint() made {captured} allocations"
    );
    assert!(
        captured_bytes <= 3_000_000,
        "checkpoint() copied {captured_bytes} bytes"
    );

    let path = std::env::temp_dir().join(format!("rcsim-footprint-{}.ckpt", std::process::id()));
    snap.save(&path).expect("writes");
    let bytes = std::fs::metadata(&path).expect("written").len();
    let loaded = SessionSnapshot::load(&path);
    std::fs::remove_file(&path).expect("removes");
    assert!(bytes <= 1_500_000, "the checkpoint file is {bytes} bytes");

    let loaded = loaded.expect("a file just written loads");
    let mut resumed = SimSession::resume(&loaded, KernelMode::Event, 1).expect("resumes");
    assert_eq!(resumed.pos(), SPLIT);
    resumed.run_until(resumed.total()).expect("no stall");
    // What a run holds: the heap the uninterrupted session keeps at its
    // last cycle, 10 000.
    let before = HELD.load(Ordering::Relaxed);
    let mut whole = session(&cfg);
    whole.run_until(whole.total()).expect("no stall");
    let held = HELD.load(Ordering::Relaxed) - before;
    assert!(
        held <= 2_600_000,
        "a session holds {held} bytes at cycle 10 000"
    );
    let (resumed, whole) = (resumed.finish().0, whole.finish().0);
    assert!(whole.instructions > 0 && whole.l1_miss_rate > 0.0);
    assert_eq!(
        serde_json::to_string(&resumed).expect("serializes"),
        serde_json::to_string(&whole).expect("serializes")
    );
}
