//! `Network::tick` allocates nothing in steady state: flits are `Copy`
//! handles, a packet's data lives in its table record, and every queue,
//! register and scratch list is sized by the traffic's high-water mark,
//! which warm-up reaches. (A `Box` per head flit and one per circuit
//! handle used to make this two allocations per packet.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{Network, NocConfig, PacketSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation of the process.
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

const NODES: u16 = 64;

/// One cycle of request→reply echo (replies ride their circuits) at 0.02
/// requests per node and cycle; returns the allocations `tick` made.
fn cycle(net: &mut Network, rng: &mut StdRng, block: &mut u64) -> u64 {
    for src in 0..NODES {
        if rng.gen_bool(0.02) {
            let dst = (src + rng.gen_range(1..NODES)) % NODES;
            *block += 64;
            net.inject(
                PacketSpec::new(NodeId(src), NodeId(dst), MessageClass::L1Request)
                    .with_block(*block),
            );
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    net.tick();
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    for (node, d) in net.take_all_delivered() {
        if d.class == MessageClass::L1Request {
            let key = CircuitKey {
                requestor: d.src,
                block: d.block,
            };
            net.inject(
                PacketSpec::new(node, d.src, MessageClass::L2Reply)
                    .with_block(d.block)
                    .with_circuit_key(key),
            );
        }
    }
    allocated
}

#[test]
fn tick_allocates_nothing_after_warm_up() {
    let mesh = Topology::mesh(8, 8).expect("valid");
    let cfg = NocConfig::paper_baseline(mesh, MechanismConfig::complete());
    let mut net = Network::new(cfg).expect("valid configuration");
    let (mut rng, mut block) = (StdRng::seed_from_u64(0x5EED_CAFE), 0);
    for _ in 0..6_000 {
        cycle(&mut net, &mut rng, &mut block);
    }
    let stats = net.stats();
    assert!(
        stats.tables.total_reserved() > 1_000 && stats.total_delivered() > 10_000,
        "warm-up must exercise circuits and deliver traffic"
    );
    let allocated: u64 = (0..2_000)
        .map(|_| cycle(&mut net, &mut rng, &mut block))
        .sum();
    assert_eq!(allocated, 0, "allocations inside 2 000 steady-state ticks");
    assert!(net.stats().total_delivered() > stats.total_delivered() + 3_000);
}
