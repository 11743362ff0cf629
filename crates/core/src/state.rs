//! A component's `State` (DESIGN.md §13): the [`Stateful`] trait every
//! component snapshots and restores through, and containers for what a
//! `State` holds — the std `HashMap`/`HashSet` the hot path uses,
//! unchanged behind `Deref`, whose serialized form is a key-sorted
//! sequence — so equal states serialize to equal bytes whatever their
//! insertion history or hasher seed — and [`Slab`], for records whose key
//! the simulator mints itself.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::ops::{Deref, DerefMut};

/// A component whose behaviour from one tick to the next depends on one
/// `State` and nothing else: its wiring is rebuilt from the configuration,
/// its scratch from the state.
pub trait Stateful {
    /// Every field the component's next tick depends on.
    type State: Clone;
    /// The state, for checkpointing.
    fn snapshot(&self) -> Self::State;
    /// Overwrites the state with a [`Stateful::snapshot`] of a component
    /// built from the same configuration, and re-derives the scratch.
    ///
    /// # Panics
    ///
    /// On a snapshot of a differently shaped container (a list's length,
    /// an optional layer's presence). Snapshots are a same-process API;
    /// files are checked against version, checksum and configuration first.
    fn restore(&mut self, state: &Self::State);
}

/// Implements [`Stateful`] for a component holding its state in a field
/// named `state`: a snapshot clones it, a restore overwrites it in place.
/// The optional scratch hook, `field = derive`, then sets the component's
/// one derived field from the pure `derive(&State)`.
#[macro_export]
macro_rules! stateful {
    ($component:ty => $state:ty $(, $scratch:ident = $derive:path)?) => {
        impl $crate::Stateful for $component {
            type State = $state;
            fn snapshot(&self) -> $state {
                self.state.clone()
            }

            fn restore(&mut self, state: &$state) {
                self.state.clone_from(state);
                $(self.$scratch = $derive(&self.state);)?
            }
        }
    };
}

/// The one shape check of a restore.
fn same_shape<C>(same: bool) {
    assert!(
        same,
        "snapshot of a differently configured {}",
        std::any::type_name::<C>()
    );
}

impl<T: Stateful> Stateful for Vec<T> {
    type State = Vec<T::State>;
    fn snapshot(&self) -> Self::State {
        self.iter().map(T::snapshot).collect()
    }

    fn restore(&mut self, state: &Self::State) {
        same_shape::<Self>(self.len() == state.len());
        for (component, state) in self.iter_mut().zip(state) {
            component.restore(state);
        }
    }
}

impl<T: Stateful> Stateful for Option<T> {
    type State = Option<T::State>;
    fn snapshot(&self) -> Self::State {
        self.as_ref().map(T::snapshot)
    }

    fn restore(&mut self, state: &Self::State) {
        same_shape::<Self>(self.is_some() == state.is_some());
        if let (Some(component), Some(state)) = (self, state) {
            component.restore(state);
        }
    }
}

impl<T: Stateful> Stateful for Box<T> {
    type State = T::State;
    fn snapshot(&self) -> T::State {
        (**self).snapshot()
    }

    fn restore(&mut self, state: &T::State) {
        (**self).restore(state);
    }
}

/// A `HashMap` serialized as its `(key, value)` pairs in key order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(from = "Vec<(K, V)>", into = "Vec<(K, V)>")]
pub struct StateMap<K: Ord + Hash + Clone, V: Clone>(HashMap<K, V>);

/// A `HashSet` serialized as its elements in order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(from = "Vec<K>", into = "Vec<K>")]
pub struct StateSet<K: Ord + Hash + Clone>(HashSet<K>);

impl<K: Ord + Hash + Clone, V: Clone> Default for StateMap<K, V> {
    fn default() -> Self {
        StateMap(HashMap::new())
    }
}

impl<K: Ord + Hash + Clone> Default for StateSet<K> {
    fn default() -> Self {
        StateSet(HashSet::new())
    }
}

impl<K: Ord + Hash + Clone, V: Clone> Deref for StateMap<K, V> {
    type Target = HashMap<K, V>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<K: Ord + Hash + Clone> Deref for StateSet<K> {
    type Target = HashSet<K>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<K: Ord + Hash + Clone, V: Clone> DerefMut for StateMap<K, V> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<K: Ord + Hash + Clone> DerefMut for StateSet<K> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<K: Ord + Hash + Clone, V: Clone> From<Vec<(K, V)>> for StateMap<K, V> {
    fn from(pairs: Vec<(K, V)>) -> Self {
        StateMap(pairs.into_iter().collect())
    }
}

impl<K: Ord + Hash + Clone> From<Vec<K>> for StateSet<K> {
    fn from(elements: Vec<K>) -> Self {
        StateSet(elements.into_iter().collect())
    }
}

impl<K: Ord + Hash + Clone, V: Clone> From<StateMap<K, V>> for Vec<(K, V)> {
    fn from(map: StateMap<K, V>) -> Self {
        let mut pairs: Vec<(K, V)> = map.0.into_iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        pairs
    }
}

impl<K: Ord + Hash + Clone> From<StateSet<K>> for Vec<K> {
    fn from(set: StateSet<K>) -> Self {
        let mut elements: Vec<K> = set.0.into_iter().collect();
        elements.sort_unstable();
        elements
    }
}

/// Records in numbered slots: a record is reached by index, not by hash,
/// and a freed slot's number is handed out again (the most recently freed
/// first), so a table of short-lived records stays as small as the most
/// it ever held at once. Slots and free list serialize as they are —
/// equal histories give equal bytes, and allocation order is part of a
/// deterministic component's history.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Stores `value` and returns the number of the slot it went to.
    pub fn insert(&mut self, value: T) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(value);
            return slot;
        }
        self.slots.push(Some(value));
        u32::try_from(self.slots.len() - 1).expect("a slab holds fewer than 2^32 records")
    }

    /// Empties `slot` for reuse and returns what it held.
    pub fn remove(&mut self, slot: u32) -> Option<T> {
        let value = self.slots.get_mut(slot as usize)?.take();
        if value.is_some() {
            self.free.push(slot);
        }
        value
    }

    /// The record in `slot`, if it holds one.
    pub fn get(&self, slot: u32) -> Option<&T> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// The record in `slot`, if it holds one.
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.slots.get_mut(slot as usize)?.as_mut()
    }

    /// Slots holding a record.
    pub fn occupied(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots ever allocated: the most records held at once.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The records held, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        (0..)
            .zip(&self.slots)
            .filter_map(|(i, s)| Some((i, s.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A component with a scratch field derived from its state.
    #[derive(Debug, Default)]
    struct Counter {
        state: u64,
        doubled: u64,
    }

    fn double(state: &u64) -> u64 {
        state * 2
    }

    crate::stateful!(Counter => u64, doubled = double);

    /// Boxed counters, absent where `states` says `None`.
    fn layers(states: &[Option<u64>]) -> Vec<Option<Box<Counter>>> {
        let counter = |state: u64| {
            let doubled = double(&state);
            Box::new(Counter { state, doubled })
        };
        states.iter().map(|s| s.map(counter)).collect()
    }

    /// Restoring a snapshot into a fresh container of the same shape gives
    /// back the snapshot, and every component's scratch hook ran.
    #[test]
    fn restore_then_snapshot_gives_back_the_snapshot() {
        let snap = layers(&[Some(3), None, Some(8)]).snapshot();
        assert_eq!(snap, [Some(3), None, Some(8)]);
        let mut fresh = layers(&[Some(0), None, Some(0)]);
        fresh.restore(&snap);
        assert_eq!(fresh.snapshot(), snap);
        let scratch: Vec<u64> = fresh.iter().flatten().map(|c| c.doubled).collect();
        assert_eq!(scratch, [6, 16]);
    }

    #[test]
    #[should_panic(expected = "snapshot of a differently configured alloc::vec::Vec<")]
    fn a_list_of_another_length_does_not_restore() {
        let mut two = layers(&[Some(0), Some(0)]);
        two.restore(&layers(&[Some(1), Some(2), Some(3)]).snapshot());
    }

    #[test]
    #[should_panic(expected = "snapshot of a differently configured core::option::Option<")]
    fn an_absent_layer_does_not_restore() {
        let mut absent = layers(&[None]);
        absent.restore(&layers(&[Some(1)]).snapshot());
    }

    /// Slots are reused last-freed-first, a vacant slot reads as `None`
    /// (a stale handle is caught, not served), and the serialized form
    /// round-trips slots and free list exactly.
    #[test]
    fn slab_reuses_slots_and_round_trips() {
        let mut slab = Slab::default();
        let (a, b, c) = (slab.insert("a"), slab.insert("b"), slab.insert("c"));
        assert_eq!((a, b, c, slab.occupied(), slab.slots()), (0, 1, 2, 3, 3));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.remove(c), Some("c"));
        assert_eq!(
            (slab.remove(c), slab.get(a), slab.occupied()),
            (None, None, 1)
        );
        assert_eq!(slab.iter().collect::<Vec<_>>(), [(1, &"b")]);
        let mut slab: Slab<u64> = [10, 11, 12].into_iter().fold(Slab::default(), |mut s, v| {
            s.insert(v);
            s
        });
        slab.remove(0);
        slab.remove(2);
        let json = serde_json::to_string(&slab).expect("serializes");
        assert_eq!(json, r#"{"slots":[null,11,null],"free":[0,2]}"#);
        let mut back: Slab<u64> = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, slab);
        assert_eq!((back.insert(7), back.insert(8), back.insert(9)), (2, 0, 3));
        assert_eq!(back.slots(), 4, "the high-water mark grows only when full");
    }

    /// Whatever the insertion order (and so the bucket order), the bytes
    /// are those of the key-sorted sequence, and they read back equal.
    #[test]
    fn serialized_form_is_the_sorted_sequence() {
        let mut map = StateMap::default();
        let mut set = StateSet::default();
        for k in [41u64, 7, 1_000, 0, 23, 512, 99, 3] {
            map.insert(k, k * 2);
            set.insert((k, !k));
        }
        let json = serde_json::to_string(&map).expect("serializes");
        assert_eq!(
            json,
            "[[0,0],[3,6],[7,14],[23,46],[41,82],[99,198],[512,1024],[1000,2000]]"
        );
        let back: StateMap<u64, u64> = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, map);
        assert_eq!(back.get(&23), Some(&46));

        let elements: Vec<(u64, u64)> = set.clone().into();
        assert!(elements.windows(2).all(|w| w[0] < w[1]), "{elements:?}");
        let json = serde_json::to_string(&set).expect("serializes");
        assert_eq!(json, serde_json::to_string(&elements).expect("serializes"));
        let back: StateSet<(u64, u64)> = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, set);
    }
}
