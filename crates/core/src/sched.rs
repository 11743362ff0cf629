//! Kernel-scheduling primitives for the worklist simulation loop.
//!
//! The cycle-accurate model is defined densely: every component ticks
//! every cycle, in a fixed index order. The kernel visits only a worklist —
//! the components with input due or work of their own — and two laws make
//! that the dense definition (DESIGN.md §9): a component left off the
//! worklist has nothing to do ([`superset_law`]), and ticking it anyway
//! would change nothing ([`skip_law`]). Debug builds check both on every
//! component they skip; release builds compile them out.

use crate::state::Stateful;
use crate::types::Cycle;
use serde::{Deserialize, Serialize};

/// Which set of components the per-cycle loops visit: a stub the workspace
/// only ever sets to `Event`, kept for the benchmark's
/// `core.sched.event_over_dense` row until a change to the benchmark
/// retires it. `Dense` visits every component in release builds too,
/// unchecked; debug builds visit every component whatever the mode,
/// checking the laws on those they skip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelMode {
    /// Visit every component every cycle.
    Dense,
    /// Visit the worklist (the default).
    #[default]
    Event,
}

/// The superset law on component `i` of `kind`, left off the worklist at
/// `now`: `idle` — nothing due, no work of its own, no wake slot reached —
/// must hold.
///
/// # Panics
///
/// When `idle` is false, naming the component and the cycle.
#[track_caller]
pub fn superset_law(kind: &str, i: usize, now: Cycle, idle: bool) {
    assert!(idle, "superset law: {kind} {i} at cycle {now}");
}

/// Cycles between two skip-law checks of one component. A check clones
/// the component's state twice — a router's VCs and tables, an NI's maps,
/// a whole cache array — which costs a debug build far more than the tick
/// it checks: checked every cycle, the tests of `cargo test --workspace`
/// ran 4.6× as long as with the dense/event pairs this law replaces, at
/// 16 about as long. So components take turns — component `i` is checked
/// when `now + i` is a multiple of the stride — while the superset law, a
/// predicate, holds every cycle.
pub const SKIP_LAW_STRIDE: u64 = 16;

/// The skip law on component `i` of `kind`, left off the worklist at
/// `now`, on its turn ([`SKIP_LAW_STRIDE`]): `tick` ticks it anyway, into
/// sinks that keep nothing, and says whether those stayed quiet — no
/// message, no trace event; its state must be what it was.
///
/// # Panics
///
/// When `tick` emitted something or changed the state, naming the
/// component and the cycle.
#[track_caller]
pub fn skip_law<C: Stateful>(
    kind: &str,
    i: usize,
    now: Cycle,
    component: &mut C,
    tick: impl FnOnce(&mut C) -> bool,
) where
    C::State: PartialEq,
{
    if !(now + i as Cycle).is_multiple_of(SKIP_LAW_STRIDE) {
        return;
    }
    let before = component.snapshot();
    let quiet = tick(component);
    assert!(
        quiet && component.snapshot() == before,
        "skip law: {kind} {i} at cycle {now}"
    );
}
