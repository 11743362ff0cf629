//! Hash containers for a component's `State` (DESIGN.md §15): the std
//! `HashMap`/`HashSet` the hot path uses, unchanged behind `Deref`, whose
//! serialized form is a key-sorted sequence — so equal states serialize
//! to equal bytes whatever their insertion history or hasher seed.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::ops::{Deref, DerefMut};

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

#[cfg(test)]
mod tests {
    use super::*;

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
