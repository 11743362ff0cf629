//! Round-robin arbitration, the primitive under the two-phase VC and
//! switch allocators of the baseline router (Table 4).

use serde::{Deserialize, Serialize};

/// A rotating-priority arbiter over `n` requesters — at most 64, the
/// width of a request mask, so the whole arbiter is two bytes.
///
/// After each grant the priority pointer moves past the winner, giving
/// strong fairness (every continuously-requesting input is served within
/// `n` grants).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRobin {
    next: u8,
    n: u8,
}

impl RoundRobin {
    /// An arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the 64 bits of a request mask.
    pub fn new(n: usize) -> Self {
        assert!(n <= 64, "arbiter wider than the request mask");
        Self {
            next: 0,
            n: n as u8,
        }
    }

    /// Grants one of the requesting indices (bit `i` of `requests` set)
    /// and advances the priority pointer. Returns `None`, leaving the
    /// pointer alone, when nothing requests — the request vector a
    /// hardware arbiter sees, so callers build it from asserted lines
    /// only. Bits at or above `n` must be clear.
    pub fn grant_mask(&mut self, requests: u64) -> Option<usize> {
        debug_assert!(
            self.n == 64 || requests >> self.n == 0,
            "request beyond the arbiter width"
        );
        if requests == 0 {
            return None;
        }
        // First requester at or after the pointer, else wrap to the lowest.
        let at_or_after = requests & (u64::MAX << self.next);
        let pick = if at_or_after != 0 {
            at_or_after
        } else {
            requests
        };
        let i = pick.trailing_zeros() as usize;
        self.advance_past(i);
        Some(i)
    }

    /// Moves the priority pointer just past `winner` (`< n`), wrapping
    /// by comparison: `n` is a run-time value, so `%` would be a divide.
    fn advance_past(&mut self, winner: usize) {
        self.next = if winner + 1 == usize::from(self.n) {
            0
        } else {
            winner as u8 + 1
        };
    }

    /// The linear-scan reference [`RoundRobin::grant_mask`] is tested
    /// against: grants one of the requesting indices (`requests[i] ==
    /// true`) and advances the priority pointer.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != n`.
    #[cfg(test)]
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        let (next, n) = (usize::from(self.next), usize::from(self.n));
        assert_eq!(requests.len(), n, "request vector size mismatch");
        for off in 0..n {
            let i = (next + off) % n;
            if requests[i] {
                self.next = ((i + 1) % n) as u8;
                return Some(i);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rotates_fairly() {
        let mut rr = RoundRobin::new(3);
        let all = [true, true, true];
        assert_eq!(rr.grant(&all), Some(0));
        assert_eq!(rr.grant(&all), Some(1));
        assert_eq!(rr.grant(&all), Some(2));
        assert_eq!(rr.grant(&all), Some(0));
    }

    #[test]
    fn skips_idle_requesters() {
        let mut rr = RoundRobin::new(4);
        assert_eq!(rr.grant(&[false, false, true, false]), Some(2));
        // Pointer is now at 3, which is idle; the grant wraps to 0.
        assert_eq!(rr.grant(&[true, false, true, false]), Some(0));
    }

    #[test]
    fn none_when_no_requests() {
        let mut rr = RoundRobin::new(2);
        assert_eq!(rr.grant(&[false, false]), None);
        assert_eq!(RoundRobin::new(0).grant(&[]), None);
    }

    #[test]
    fn grant_mask_respects_pointer() {
        let mut rr = RoundRobin::new(5);
        assert_eq!(rr.grant_mask(0b01010), Some(1));
        // Pointer now at 2: 3 wins over 1.
        assert_eq!(rr.grant_mask(0b01010), Some(3));
        // Pointer now at 4: wraps to 1.
        assert_eq!(rr.grant_mask(0b01010), Some(1));
        assert_eq!(rr.grant_mask(0), None);
    }

    #[test]
    fn grant_mask_rotates_and_wraps() {
        let mut rr = RoundRobin::new(4);
        assert_eq!(rr.grant_mask(0b0100), Some(2));
        // Pointer is now at 3, which is idle; the grant wraps to 0.
        assert_eq!(rr.grant_mask(0b0101), Some(0));
        assert_eq!(rr.grant_mask(0), None);
        assert_eq!(rr.grant_mask(0b0101), Some(2), "None left the pointer");
        let mut full = RoundRobin::new(64);
        assert_eq!(full.grant_mask(1 << 63), Some(63));
        assert_eq!(full.grant_mask(u64::MAX), Some(0), "pointer wrapped");
    }

    #[test]
    fn starvation_freedom() {
        // Input 0 always requests; input 1 requests too. Both must be
        // served infinitely often.
        let mut rr = RoundRobin::new(2);
        let mut counts = [0u32; 2];
        for _ in 0..100 {
            let w = rr.grant(&[true, true]).unwrap();
            counts[w] += 1;
        }
        assert_eq!(counts, [50, 50]);
    }

    proptest! {
        /// From any pointer state, the bit-vector grant and the
        /// linear-scan reference pick the same winner and leave the same
        /// pointer — over a whole request sequence, so pointer states
        /// reached only through earlier grants are covered too.
        #[test]
        fn grant_mask_matches_linear_scan(
            n in 1usize..=64,
            start in 0usize..64,
            masks in prop::collection::vec(any::<u64>(), 1..24),
        ) {
            let mut fast = RoundRobin { next: (start % n) as u8, n: n as u8 };
            let mut reference = fast;
            for m in masks {
                // Sparse request vectors matter most: thin the mask out.
                let m = (m & m.rotate_left(7)) & (u64::MAX >> (64 - n));
                let bools: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
                prop_assert_eq!(fast.grant_mask(m), reference.grant(&bools));
                prop_assert_eq!(&fast, &reference);
            }
        }
    }
}
