//! `Network::tick` allocates nothing in steady state: flits are `Copy`
//! handles, a packet's data lives in its table record, and every queue,
//! register and scratch list is sized by the traffic's high-water mark,
//! which warm-up reaches. (A `Box` per head flit and one per circuit
//! handle used to make this two allocations per packet.) Release builds
//! only: a debug build's tick clones the state of every component it
//! skips, to check the skip law (DESIGN.md §9).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{IngressConfig, Network, NocConfig, PacketSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation, per thread: the tests of
/// this file run side by side.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; nothing is measured
    // there.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// This thread's allocations so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: defers to the system allocator; only counts the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
    let before = allocations();
    net.tick();
    let allocated = allocations() - before;
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
#[cfg_attr(debug_assertions, ignore = "the skip law clones state in debug builds")]
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

/// The open-loop edge ingress on top of the same echo: offers at eight
/// edges, the ingress drain and the tick allocate nothing once warm.
#[test]
#[cfg_attr(debug_assertions, ignore = "the skip law clones state in debug builds")]
fn ingress_drain_allocates_nothing_after_warm_up() {
    let mesh = Topology::mesh(8, 8).expect("valid");
    let cfg = NocConfig::paper_baseline(mesh, MechanismConfig::complete());
    let mut net = Network::new(cfg).expect("valid configuration");
    let edges: Vec<NodeId> = (0..8).map(NodeId).collect();
    net.configure_ingress(IngressConfig::default(), edges.clone());
    let (mut rng, mut block) = (StdRng::seed_from_u64(0x0BE7_11E5), 0);
    let mut released = Vec::new();
    let mut step = |net: &mut Network| {
        for &edge in &edges {
            if rng.gen_bool(0.02) {
                block += 64;
                net.offer_external(edge, NodeId(rng.gen_range(8..NODES)), block);
            }
        }
        released.clear();
        let before = allocations();
        net.drain_ingress(&mut released);
        let allocated = allocations() - before;
        for r in &released {
            block += 64;
            net.inject(PacketSpec::new(r.edge, r.dst, MessageClass::L1Request).with_block(block));
        }
        allocated + cycle(net, &mut rng, &mut block)
    };
    for _ in 0..6_000 {
        step(&mut net);
    }
    let warm = net.overload_report().released;
    assert!(warm > 600, "warm-up must release open-loop arrivals");
    let allocated: u64 = (0..2_000).map(|_| step(&mut net)).sum();
    assert_eq!(
        allocated, 0,
        "allocations inside 2 000 steady-state drains and ticks"
    );
    assert!(net.overload_report().released > warm + 200);
}
