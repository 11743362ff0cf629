//! Tree pseudo-LRU replacement (both cache levels use pseudo-LRU,
//! Table 2), packed: the tree of one set of up to 64 ways is one `u64`,
//! and the way count lives once, in the array's configuration. The cache
//! array keeps the low 16 bits per set: it holds at most 16 ways, whose
//! tree has 15 nodes.
//!
//! Bit `i` of the word covers internal node `i` (root = 1; bit 0 is
//! unused): 0 = the left subtree is older, 1 = the right one. `ways`
//! must be a power of two in `1..=64` — [`crate::CacheArray::new`] checks
//! its own, narrower bound once for the whole array.
//!
//! # Examples
//!
//! ```
//! use rcsim_protocol::plru;
//!
//! let bits = (0..4).fold(0, |bits, way| plru::touch(bits, 4, way));
//! // After touching all ways in order, way 0 is the pseudo-LRU victim.
//! assert_eq!(plru::victim(bits, 4), 0);
//! ```

/// `bits` with `way` marked most-recently used: every node on the path
/// from the root to `way` points away from it.
pub fn touch(mut bits: u64, ways: usize, way: usize) -> u64 {
    debug_assert!(way < ways, "way {way} out of range");
    let mut node = 1usize;
    let mut span = ways;
    while span > 1 {
        span /= 2;
        let right = way & span != 0;
        if right {
            bits &= !(1 << node);
        } else {
            bits |= 1 << node;
        }
        node = node * 2 + usize::from(right);
    }
    bits
}

/// The pseudo-least-recently-used way of the tree `bits`.
pub fn victim(bits: u64, ways: usize) -> usize {
    let mut node = 1usize;
    let mut way = 0usize;
    let mut span = ways;
    while span > 1 {
        span /= 2;
        let right = bits & (1 << node) != 0;
        if right {
            way |= span;
        }
        node = node * 2 + usize::from(right);
    }
    way
}

#[cfg(test)]
pub(crate) use tests::TreePlru;

#[cfg(test)]
mod tests {
    use super::{touch, victim};

    /// The per-set PLRU object the packed functions replaced, kept
    /// verbatim as their oracle (and as the `RefArray`'s recency state in
    /// `cache.rs`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct TreePlru {
        /// Internal tree bits; bit i covers internal node i (root = 1), with
        /// 0 = left subtree older, 1 = right subtree older.
        bits: u64,
        ways: usize,
    }

    impl TreePlru {
        pub(crate) fn new(ways: usize) -> Self {
            assert!(
                ways.is_power_of_two() && (1..=64).contains(&ways),
                "ways must be a power of two in 1..=64"
            );
            Self { bits: 0, ways }
        }

        pub(crate) fn touch(&mut self, way: usize) {
            assert!(way < self.ways, "way {way} out of range");
            let mut node = 1usize;
            let mut span = self.ways;
            while span > 1 {
                span /= 2;
                let right = way & span != 0;
                // Point the bit AWAY from the touched way.
                if right {
                    self.bits &= !(1 << node);
                } else {
                    self.bits |= 1 << node;
                }
                node = node * 2 + usize::from(right);
            }
        }

        pub(crate) fn victim(&self) -> usize {
            let mut node = 1usize;
            let mut way = 0usize;
            let mut span = self.ways;
            while span > 1 {
                span /= 2;
                let right = self.bits & (1 << node) != 0;
                if right {
                    way |= span;
                }
                node = node * 2 + usize::from(right);
            }
            way
        }
    }

    /// Packed PLRU ≡ `TreePlru`, word for word and victim for victim, for
    /// every way count and a touch stream that visits every way.
    #[test]
    fn packed_equals_tree_plru_for_every_way_count() {
        for ways in [1usize, 2, 4, 8, 16, 32, 64] {
            let mut tree = TreePlru::new(ways);
            let mut bits = 0u64;
            assert_eq!(victim(bits, ways), tree.victim());
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..4_000usize {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let way = if i % 3 == 0 {
                    i % ways
                } else {
                    (x >> 33) as usize % ways
                };
                tree.touch(way);
                bits = touch(bits, ways, way);
                assert_eq!(bits, tree.bits, "{ways} ways, touch {i} of way {way}");
                assert_eq!(victim(bits, ways), tree.victim(), "{ways} ways, touch {i}");
            }
        }
    }

    #[test]
    fn single_way() {
        assert_eq!(victim(0, 1), 0);
        assert_eq!(touch(0, 1, 0), 0);
    }

    #[test]
    fn two_ways_alternate() {
        let bits = touch(0, 2, 0);
        assert_eq!(victim(bits, 2), 1);
        assert_eq!(victim(touch(bits, 2, 1), 2), 0);
    }

    #[test]
    fn victim_is_never_most_recent() {
        for ways in [2usize, 4, 8, 16, 64] {
            let mut bits = 0;
            for i in 0..1000usize {
                let w = (i * 7 + 3) % ways;
                bits = touch(bits, ways, w);
                assert_ne!(victim(bits, ways), w, "{ways} ways, touched {w}");
            }
        }
    }

    #[test]
    fn sequential_touch_16_ways() {
        let bits = (0..16).fold(0, |bits, w| touch(bits, 16, w));
        assert_eq!(victim(bits, 16), 0);
        assert_eq!(victim(touch(bits, 16, 0), 16), 8);
    }

    #[test]
    fn plru_approximates_lru_on_scan() {
        // Scanning ways in order repeatedly, the victim always lies in the
        // half least recently touched.
        let bits = (0..8).chain(0..4).fold(0, |bits, w| touch(bits, 8, w));
        assert!(victim(bits, 8) >= 4);
    }
}
