//! A generic set-associative cache array with pseudo-LRU replacement,
//! sized in memory by the lines a run has filled, not by the capacity it
//! models (DESIGN.md §13, "Cache arrays").

use crate::plru;
use rcsim_core::Slab;
use serde::{Deserialize, Serialize};

/// Geometry of a cache array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of sets (a power of two ≥ 1).
    pub sets: usize,
    /// Associativity (a power of two in `1..=64`).
    pub ways: usize,
    /// Banks the lines interleave over (≥ 1; 1 for a private cache). A
    /// bank of an address-interleaved shared cache sees the blocks
    /// `b + k·interleave`, so it indexes its sets by the bank-local line
    /// number `block / interleave` — indexing by `block` would reach only
    /// `sets / gcd(interleave, sets)` of them.
    pub interleave: usize,
}

impl CacheConfig {
    /// Geometry from total capacity in bytes, 64 B lines and given ways
    /// ([`CacheArray::new`] checks it).
    pub fn from_capacity(bytes: usize, ways: usize) -> Self {
        Self {
            sets: (bytes / 64).checked_div(ways).unwrap_or(0),
            ways,
            interleave: 1,
        }
    }

    /// The same geometry for one bank of a cache whose lines interleave
    /// over `banks` banks.
    pub fn with_interleave(mut self, banks: usize) -> Self {
        self.interleave = banks;
        self
    }
}

/// A set-associative array storing per-line metadata of type `M`, indexed
/// by cache-line address.
///
/// What the modelled capacity sizes is three integers per set. Tags and
/// slots exist only for sets that have held a line, one block each of the
/// smallest power of two of ways that covers the highest way the set has
/// filled, and metadata only for resident lines, in a slab. The serialized
/// form is the canonical sparse [`Image`]: equal contents give equal
/// bytes whatever blocks and slots were handed out on the way there.
///
/// # Examples
///
/// ```
/// use rcsim_protocol::{CacheArray, CacheConfig};
///
/// let mut l1: CacheArray<u32> = CacheArray::new(CacheConfig::from_capacity(32 * 1024, 4));
/// assert!(l1.get(0x40).is_none());
/// l1.insert(0x40, 7);
/// assert_eq!(l1.get(0x40), Some(&7));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(from = "Image<M>", into = "Image<M>")]
pub struct CacheArray<M: Clone> {
    cfg: CacheConfig,
    /// log2 of `cfg.sets`.
    set_bits: u32,
    /// log2 of `cfg.interleave` when that is a power of two (the split of
    /// a block address is then a shift and a mask, not a division).
    bank_bits: Option<u32>,
    /// Per set: bit `w` is set while way `w` holds a line.
    valid: Vec<u64>,
    /// Per set: the packed tree-PLRU word ([`plru`]).
    recency: Vec<u64>,
    /// Per set: the entry offset of its way block in `tags` and `slots`,
    /// shifted left by [`SIZE_BITS`], over 1 + log2 of the block's ways;
    /// or 0 while the set has never held a line. A set gets a block
    /// of one way on its first fill, moves to one twice as large when it
    /// fills the way past its block's end, and keeps its block when it
    /// empties, as it keeps its recency word.
    way_block: Vec<u32>,
    /// Way blocks of 1, 2, 4 … `ways` entries: way `w` of the block at
    /// offset `o` is at `o + w`. The tag last written there — stale once
    /// the way's valid bit is cleared, never read then.
    tags: Vec<u64>,
    /// Per way of a block: the slot of `lines` holding a valid way's
    /// metadata.
    slots: Vec<u32>,
    /// Per log2 of a block's ways: offsets of the blocks sets have
    /// outgrown, handed to the next set that grows to that size.
    free: [Vec<u32>; 7],
    /// Metadata of the resident lines. Which slot a line got is history,
    /// not state: nothing observable depends on it and no image records it.
    lines: Slab<M>,
}

/// The serialized form of a [`CacheArray`]: geometry, then only what is
/// not zero, in one canonical order.
#[derive(Serialize, Deserialize)]
struct Image<M> {
    cfg: CacheConfig,
    /// `(set, recency word)` of every set that holds a line or a recency
    /// bit, ascending. A set emptied by `remove` keeps its word, so that a
    /// resumed array equals the uninterrupted one word for word.
    sets: Vec<(u32, u64)>,
    /// `(set, way, tag, metadata)` of every resident line, set-major and
    /// way-minor.
    lines: Vec<(u32, u8, u64, M)>,
}

const RESIDENT: &str = "a valid way names a resident line";

/// The low bits of a `way_block` word: 1 + log2 of the block's ways
/// (1..=7), 0 for no block.
const SIZE_BITS: u32 = 3;
const SIZE_MASK: u32 = (1 << SIZE_BITS) - 1;
/// The most lines (`sets × ways`) an array may model. A set takes at most
/// one block of each size in turn, so `tags` never passes `2 · sets ·
/// ways` entries, and every offset fits in the `32 − SIZE_BITS` bits above
/// a `way_block` word's size bits.
const MAX_LINES: usize = 1 << (32 - SIZE_BITS - 1);

/// The set bit positions of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

impl<M: Clone> CacheArray<M> {
    /// An empty array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, unless `ways` is a power of two in
    /// `1..=64`, `sets` a power of two ≥ 1 with `sets × ways` at most
    /// 2^28, and `interleave` ≥ 1.
    pub fn new(cfg: CacheConfig) -> Self {
        let (sets, ways, banks) = (cfg.sets, cfg.ways, cfg.interleave);
        assert!(
            ways.is_power_of_two() && ways <= 64,
            "CacheConfig::ways must be a power of two in 1..=64, got {ways}"
        );
        assert!(
            sets.is_power_of_two(),
            "CacheConfig::sets must be a power of two ≥ 1, got {sets}"
        );
        assert!(
            sets.checked_mul(ways)
                .is_some_and(|lines| lines <= MAX_LINES),
            "CacheConfig::sets × ways must be at most 2^28 (way-block offsets \
             are 29 bits), got {sets} × {ways}"
        );
        assert!(banks >= 1, "CacheConfig::interleave must be ≥ 1");
        Self {
            cfg,
            set_bits: sets.trailing_zeros(),
            bank_bits: banks.is_power_of_two().then(|| banks.trailing_zeros()),
            valid: vec![0; sets],
            recency: vec![0; sets],
            way_block: vec![0; sets],
            tags: Vec::new(),
            slots: Vec::new(),
            free: Default::default(),
            lines: Slab::default(),
        }
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// `x` as (quotient, remainder) by the interleave.
    fn split(&self, x: u64) -> (u64, u64) {
        let banks = self.cfg.interleave as u64;
        match self.bank_bits {
            Some(b) => (x >> b, x & (banks - 1)),
            None => (x / banks, x % banks),
        }
    }

    /// The inverse of [`Self::split`].
    fn join(&self, quotient: u64, remainder: u64) -> u64 {
        match self.bank_bits {
            Some(b) => quotient << b | remainder,
            None => quotient * self.cfg.interleave as u64 + remainder,
        }
    }

    /// The set a block maps to: the low bits of its bank-local line number.
    pub fn set_of(&self, block: u64) -> usize {
        (self.split(block).0 as usize) & (self.cfg.sets - 1)
    }

    /// The set of a block and its tag: everything but the set bits (the
    /// bank-select remainder included), so (tag, set) gives the block back.
    fn locate(&self, block: u64) -> (usize, u64) {
        let (line, bank) = self.split(block);
        let set = (line as usize) & (self.cfg.sets - 1);
        (set, self.join(line >> self.set_bits, bank))
    }

    fn block_of(&self, tag: u64, set: usize) -> u64 {
        let (high, bank) = self.split(tag);
        self.join(high << self.set_bits | set as u64, bank)
    }

    /// Where (set, way) sits in `tags` and `slots`, for a way inside the
    /// set's block (a valid way always is).
    fn at(&self, set: usize, way: usize) -> usize {
        (self.way_block[set] >> SIZE_BITS) as usize + way
    }

    /// The ways of `set`'s block: 0 while it has none.
    fn block_ways(&self, set: usize) -> usize {
        match self.way_block[set] & SIZE_MASK {
            0 => 0,
            size => 1 << (size - 1),
        }
    }

    /// Moves `set` to a block of `ways` entries, more than its block has:
    /// one a set outgrew if there is one, else a new one at the end. The
    /// set's ways go with it, and its old block onto its size's free list.
    fn grow(&mut self, set: usize, ways: usize) {
        let log2 = ways.trailing_zeros();
        let to = match self.free[log2 as usize].pop() {
            Some(to) => to as usize,
            None => {
                let to = self.tags.len();
                self.tags.resize(to + ways, 0);
                self.slots.resize(to + ways, 0);
                to
            }
        };
        let old = self.way_block[set];
        if old != 0 {
            let from = (old >> SIZE_BITS) as usize;
            let len = self.block_ways(set);
            self.tags.copy_within(from..from + len, to);
            self.slots.copy_within(from..from + len, to);
            self.free[len.trailing_zeros() as usize].push(old >> SIZE_BITS);
        }
        // Below 2 · MAX_LINES, which `new` keeps within 29 bits.
        self.way_block[set] = (to as u32) << SIZE_BITS | (log2 + 1);
    }

    /// The way of `set` holding `tag`. The valid mask is read before
    /// anything else: a miss on an empty set loads no other word, and a
    /// cleared way's stale tag cannot match.
    fn way_of(&self, set: usize, tag: u64) -> Option<usize> {
        bits(self.valid[set]).find(|&w| self.tags[self.at(set, w)] == tag)
    }

    /// The (set, way) of a cached block.
    fn find(&self, block: u64) -> Option<(usize, usize)> {
        let (set, tag) = self.locate(block);
        Some((set, self.way_of(set, tag)?))
    }

    /// The metadata of a valid way.
    fn line(&self, set: usize, way: usize) -> &M {
        let slot = self.slots[self.at(set, way)];
        self.lines.get(slot).expect(RESIDENT)
    }

    fn line_mut(&mut self, set: usize, way: usize) -> &mut M {
        let slot = self.slots[self.at(set, way)];
        self.lines.get_mut(slot).expect(RESIDENT)
    }

    /// Makes the free `way` of `set` hold a line, first moving the set to
    /// the smallest block that covers `way` if its own does not.
    fn fill(&mut self, set: usize, way: usize, tag: u64, meta: M) {
        if way >= self.block_ways(set) {
            self.grow(set, (way + 1).next_power_of_two());
        }
        let i = self.at(set, way);
        self.tags[i] = tag;
        self.slots[i] = self.lines.insert(meta);
        self.valid[set] |= 1 << way;
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.recency[set] = plru::touch(self.recency[set], self.cfg.ways, way);
    }

    /// Metadata of a cached block, without touching recency.
    pub fn peek(&self, block: u64) -> Option<&M> {
        self.find(block).map(|(set, way)| self.line(set, way))
    }

    /// Metadata of a cached block, updating recency.
    pub fn get(&mut self, block: u64) -> Option<&M> {
        let (set, way) = self.find(block)?;
        self.touch(set, way);
        Some(self.line(set, way))
    }

    /// Mutable metadata of a cached block, updating recency.
    pub fn get_mut(&mut self, block: u64) -> Option<&mut M> {
        let (set, way) = self.find(block)?;
        self.touch(set, way);
        Some(self.line_mut(set, way))
    }

    /// Mutable metadata without touching recency (for message handling
    /// that should not perturb replacement).
    pub fn peek_mut(&mut self, block: u64) -> Option<&mut M> {
        self.find(block).map(|(set, way)| self.line_mut(set, way))
    }

    /// Inserts a block (which must not be present) into the first free
    /// way of its set, evicting the PLRU victim if the set is full.
    /// Returns the evicted `(block, meta)`.
    ///
    /// # Panics
    ///
    /// Panics if the block is already cached.
    pub fn insert(&mut self, block: u64, meta: M) -> Option<(u64, M)> {
        let (set, tag) = self.locate(block);
        assert!(
            self.way_of(set, tag).is_none(),
            "block {block:#x} already cached"
        );
        let ways = self.cfg.ways;
        if let Some(way) = bits(!self.valid[set]).next().filter(|&w| w < ways) {
            self.fill(set, way, tag, meta);
            self.touch(set, way);
            return None;
        }
        // A full set: the victim's way and slot change hands in place.
        let way = plru::victim(self.recency[set], ways);
        let i = self.at(set, way);
        let evicted = self.block_of(self.tags[i], set);
        self.tags[i] = tag;
        self.touch(set, way);
        Some((evicted, std::mem::replace(self.line_mut(set, way), meta)))
    }

    /// The block that would be evicted if `block` were inserted now
    /// (`None` if a free way exists). Recency is not modified.
    pub fn victim_for(&self, block: u64) -> Option<u64> {
        let (set, ways) = (self.set_of(block), self.cfg.ways);
        (self.valid[set].count_ones() as usize == ways).then(|| {
            let way = plru::victim(self.recency[set], ways);
            self.block_of(self.tags[self.at(set, way)], set)
        })
    }

    /// Blocks currently cached in the same set as `block` (eviction
    /// candidates when a victim must be chosen under constraints).
    pub fn set_blocks(&self, block: u64) -> Vec<u64> {
        let set = self.set_of(block);
        bits(self.valid[set])
            .map(|w| self.block_of(self.tags[self.at(set, w)], set))
            .collect()
    }

    /// Number of free ways in the set of `block`.
    pub fn free_ways(&self, block: u64) -> usize {
        self.cfg.ways - self.valid[self.set_of(block)].count_ones() as usize
    }

    /// Removes a block, returning its metadata.
    pub fn remove(&mut self, block: u64) -> Option<M> {
        let (set, way) = self.find(block)?;
        self.valid[set] &= !(1 << way);
        self.lines.remove(self.slots[self.at(set, way)])
    }

    /// Number of lines currently cached.
    pub fn len(&self) -> usize {
        self.lines.occupied()
    }

    /// `true` when no lines are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(block, meta)` of all cached lines, set-major and
    /// way-minor.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &M)> {
        (0..self.cfg.sets).flat_map(move |set| {
            let block = move |w| self.block_of(self.tags[self.at(set, w)], set);
            bits(self.valid[set]).map(move |w| (block(w), self.line(set, w)))
        })
    }
}

impl<M: Clone> From<CacheArray<M>> for Image<M> {
    fn from(mut array: CacheArray<M>) -> Self {
        let cfg = array.cfg;
        let mut sets = Vec::new();
        let mut lines = Vec::with_capacity(array.len());
        for (set, (&valid, &recency)) in array.valid.iter().zip(&array.recency).enumerate() {
            if valid | recency == 0 {
                continue;
            }
            sets.push((set as u32, recency));
            for w in bits(valid) {
                let i = array.at(set, w);
                let meta = array.lines.remove(array.slots[i]).expect(RESIDENT);
                lines.push((set as u32, w as u8, array.tags[i], meta));
            }
        }
        Image { cfg, sets, lines }
    }
}

impl<M: Clone> From<Image<M>> for CacheArray<M> {
    /// Panics on an image that is not one of its geometry: files are
    /// guarded by version, checksum and configuration before they get here.
    fn from(image: Image<M>) -> Self {
        let mut array = CacheArray::new(image.cfg);
        for (set, recency) in image.sets {
            array.recency[set as usize] = recency;
        }
        // Lines are set-major and way-minor: read backwards, a set's first
        // fill is its highest way, which sizes its one block.
        for (set, way, tag, meta) in image.lines.into_iter().rev() {
            let (set, way) = (set as usize, usize::from(way));
            assert!(
                way < array.cfg.ways && array.valid[set] >> way & 1 == 0,
                "cache image: way {way} of set {set} is out of range or named twice"
            );
            array.fill(set, way, tag, meta);
        }
        array
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plru::TreePlru;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    struct Line<M> {
        tag: u64,
        meta: M,
    }

    #[derive(Debug, Clone)]
    struct Set<M> {
        ways: Vec<Option<Line<M>>>,
        plru: TreePlru,
    }

    /// The array the flat one replaced, kept as its oracle: one `Set` per
    /// set, one `Option<Line>` per way, a `TreePlru` object per set. The
    /// bodies are the old ones verbatim; only the address split is new
    /// (and written the plain way: divide, multiply, remainder).
    #[derive(Debug, Clone)]
    struct RefArray<M> {
        cfg: CacheConfig,
        sets: Vec<Set<M>>,
    }

    impl<M> RefArray<M> {
        fn new(cfg: CacheConfig) -> Self {
            let sets = (0..cfg.sets)
                .map(|_| Set {
                    ways: (0..cfg.ways).map(|_| None).collect(),
                    plru: TreePlru::new(cfg.ways),
                })
                .collect();
            Self { cfg, sets }
        }

        fn set_of(&self, block: u64) -> usize {
            (block / self.cfg.interleave as u64) as usize % self.cfg.sets
        }

        fn tag_of(&self, block: u64) -> u64 {
            let banks = self.cfg.interleave as u64;
            block / banks / self.cfg.sets as u64 * banks + block % banks
        }

        fn block_of(&self, tag: u64, set: usize) -> u64 {
            let banks = self.cfg.interleave as u64;
            (tag / banks * self.cfg.sets as u64 + set as u64) * banks + tag % banks
        }

        fn find(&self, block: u64) -> Option<usize> {
            let s = self.set_of(block);
            let tag = self.tag_of(block);
            self.sets[s]
                .ways
                .iter()
                .position(|l| l.as_ref().is_some_and(|l| l.tag == tag))
        }

        fn peek(&self, block: u64) -> Option<&M> {
            let s = self.set_of(block);
            self.find(block)
                .map(|w| &self.sets[s].ways[w].as_ref().expect("found").meta)
        }

        fn get(&mut self, block: u64) -> Option<&M> {
            let s = self.set_of(block);
            let w = self.find(block)?;
            self.sets[s].plru.touch(w);
            Some(&self.sets[s].ways[w].as_ref().expect("found").meta)
        }

        fn get_mut(&mut self, block: u64) -> Option<&mut M> {
            let s = self.set_of(block);
            let w = self.find(block)?;
            self.sets[s].plru.touch(w);
            Some(&mut self.sets[s].ways[w].as_mut().expect("found").meta)
        }

        fn peek_mut(&mut self, block: u64) -> Option<&mut M> {
            let s = self.set_of(block);
            let w = self.find(block)?;
            Some(&mut self.sets[s].ways[w].as_mut().expect("found").meta)
        }

        fn insert(&mut self, block: u64, meta: M) -> Option<(u64, M)> {
            assert!(
                self.find(block).is_none(),
                "block {block:#x} already cached"
            );
            let s = self.set_of(block);
            let tag = self.tag_of(block);
            let set = &mut self.sets[s];
            let way = match set.ways.iter().position(Option::is_none) {
                Some(w) => w,
                None => set.plru.victim(),
            };
            let evicted_entry = set.ways[way].take();
            set.ways[way] = Some(Line { tag, meta });
            set.plru.touch(way);
            evicted_entry.map(|l| (self.block_of(l.tag, s), l.meta))
        }

        fn victim_for(&self, block: u64) -> Option<u64> {
            let s = self.set_of(block);
            let set = &self.sets[s];
            if set.ways.iter().any(Option::is_none) {
                return None;
            }
            let way = set.plru.victim();
            let tag = set.ways[way].as_ref().map(|l| l.tag)?;
            Some(self.block_of(tag, s))
        }

        fn set_blocks(&self, block: u64) -> Vec<u64> {
            let s = self.set_of(block);
            self.sets[s]
                .ways
                .iter()
                .flatten()
                .map(|l| self.block_of(l.tag, s))
                .collect()
        }

        fn free_ways(&self, block: u64) -> usize {
            let s = self.set_of(block);
            self.sets[s].ways.iter().filter(|w| w.is_none()).count()
        }

        fn remove(&mut self, block: u64) -> Option<M> {
            let s = self.set_of(block);
            let w = self.find(block)?;
            self.sets[s].ways[w].take().map(|l| l.meta)
        }

        fn len(&self) -> usize {
            self.sets
                .iter()
                .map(|s| s.ways.iter().flatten().count())
                .sum()
        }

        fn iter(&self) -> impl Iterator<Item = (u64, &M)> {
            self.sets.iter().enumerate().flat_map(move |(s, set)| {
                set.ways
                    .iter()
                    .flatten()
                    .map(move |l| (self.block_of(l.tag, s), &l.meta))
            })
        }
    }

    /// One call of the array's API; the `u64` picks the block.
    #[derive(Debug, Clone)]
    enum Op {
        Get(u64),
        GetMut(u64, u32),
        Peek(u64),
        PeekMut(u64, u32),
        Insert(u64, u32),
        Remove(u64),
        VictimFor(u64),
        SetBlocks(u64),
        FreeWays(u64),
        LenAndIter,
        /// Serialize, deserialize, continue on what came back.
        RoundTrip,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let block = || any::<u64>();
        prop::collection::vec(
            prop_oneof![
                (block(), any::<u32>()).prop_map(|(b, v)| Op::Insert(b, v)),
                (block(), any::<u32>()).prop_map(|(b, v)| Op::Insert(b, v)),
                (block(), any::<u32>()).prop_map(|(b, v)| Op::Insert(b, v)),
                block().prop_map(Op::Get),
                (block(), any::<u32>()).prop_map(|(b, v)| Op::GetMut(b, v)),
                block().prop_map(Op::Peek),
                (block(), any::<u32>()).prop_map(|(b, v)| Op::PeekMut(b, v)),
                block().prop_map(Op::Remove),
                block().prop_map(Op::Remove),
                block().prop_map(Op::VictimFor),
                block().prop_map(Op::SetBlocks),
                block().prop_map(Op::FreeWays),
                Just(Op::LenAndIter),
                Just(Op::RoundTrip),
            ],
            0..700,
        )
    }

    /// Small arrays, whose every set soon holds a line, and half the time
    /// an L2 bank's 1 024 × 16, where most sets never do — so round trips
    /// rebuild arrays whose way blocks have gaps and another order.
    fn geometry() -> impl Strategy<Value = CacheConfig> {
        let interleave = |i: usize| [1, 16, 48, 64][i];
        prop_oneof![
            (0usize..4, 0usize..3, 0usize..4).prop_map(move |(w, s, i)| CacheConfig {
                ways: [1, 2, 16, 64][w],
                sets: [1, 4, 8][s],
                interleave: interleave(i),
            }),
            (0usize..4).prop_map(move |i| CacheConfig {
                ways: 16,
                sets: 1024,
                interleave: interleave(i),
            }),
        ]
    }

    /// Folds a drawn number into a universe of three times the array's
    /// capacity (so sets fill, evict and empty again), spread over three
    /// bank-select remainders and, for one line number in eight, moved far
    /// up the address space (so tags carry high bits).
    fn block_in(cfg: CacheConfig, draw: u64) -> u64 {
        let banks = cfg.interleave as u64;
        let lines = (cfg.sets * cfg.ways * 3) as u64;
        let line = draw % lines + if draw >> 40 & 7 == 0 { lines << 24 } else { 0 };
        line * banks + (draw >> 32) % banks.min(3)
    }

    fn json(array: &CacheArray<u32>) -> String {
        serde_json::to_string(array).expect("serializes")
    }

    fn apply(array: &mut CacheArray<u32>, cfg: CacheConfig, op: &Op) {
        match *op {
            Op::Insert(b, v) if array.peek(block_in(cfg, b)).is_none() => {
                array.insert(block_in(cfg, b), v);
            }
            Op::Get(b) => {
                array.get(block_in(cfg, b));
            }
            Op::GetMut(b, v) => {
                if let Some(m) = array.get_mut(block_in(cfg, b)) {
                    *m = v;
                }
            }
            Op::PeekMut(b, v) => {
                if let Some(m) = array.peek_mut(block_in(cfg, b)) {
                    *m = v;
                }
            }
            Op::Remove(b) => {
                array.remove(block_in(cfg, b));
            }
            _ => {}
        }
    }

    /// Raises each set's highest filled way to its highest valid one: one
    /// call after every operation sees every fill, since an operation
    /// fills at most one way.
    fn note_fills(array: &CacheArray<u32>, highest: &mut [Option<usize>]) {
        for (high, &valid) in highest.iter_mut().zip(&array.valid) {
            if valid != 0 {
                *high = (*high).max(Some(63 - valid.leading_zeros() as usize));
            }
        }
    }

    /// The block law: each set's block is the smallest power of two of
    /// ways that covers the highest way it has filled (none while it has
    /// filled none), and `tags` and `slots` hold those blocks and the
    /// free-listed ones, nothing else.
    fn check_blocks(
        array: &CacheArray<u32>,
        highest: &[Option<usize>],
    ) -> Result<(), TestCaseError> {
        for (set, high) in highest.iter().enumerate() {
            let law = high.map_or(0, |w| (w + 1).next_power_of_two());
            prop_assert_eq!(array.block_ways(set), law, "set {}", set);
        }
        let live: usize = (0..highest.len()).map(|set| array.block_ways(set)).sum();
        let free: usize = (0..)
            .zip(&array.free)
            .map(|(size, f)| f.len() << size)
            .sum();
        prop_assert_eq!(array.tags.len(), live + free);
        prop_assert_eq!(array.slots.len(), live + free);
        Ok(())
    }

    proptest! {
        /// Every return value, every evicted `(block, meta)` and every
        /// iteration order of the flat array is the `RefArray`'s, across
        /// serialize → deserialize round trips in mid-sequence; and the
        /// array that went through them ends in the very bytes of one
        /// that never did. After every operation its blocks obey the block
        /// law, a round trip counting as a fresh start from what it holds.
        #[test]
        fn flat_array_matches_ref_array(cfg in geometry(), ops in ops()) {
            let mut array: CacheArray<u32> = CacheArray::new(cfg);
            let mut plain = array.clone();
            let mut oracle: RefArray<u32> = RefArray::new(cfg);
            let mut highest = vec![None; cfg.sets];
            for op in &ops {
                apply(&mut plain, cfg, op);
                match *op {
                    Op::Get(b) => {
                        let b = block_in(cfg, b);
                        prop_assert_eq!(array.get(b), oracle.get(b));
                    }
                    Op::GetMut(b, v) => {
                        let b = block_in(cfg, b);
                        let (got, want) = (array.get_mut(b), oracle.get_mut(b));
                        prop_assert_eq!(&got, &want);
                        if let (Some(got), Some(want)) = (got, want) {
                            (*got, *want) = (v, v);
                        }
                    }
                    Op::Peek(b) => {
                        let b = block_in(cfg, b);
                        prop_assert_eq!(array.peek(b), oracle.peek(b));
                    }
                    Op::PeekMut(b, v) => {
                        let b = block_in(cfg, b);
                        let (got, want) = (array.peek_mut(b), oracle.peek_mut(b));
                        prop_assert_eq!(&got, &want);
                        if let (Some(got), Some(want)) = (got, want) {
                            (*got, *want) = (v, v);
                        }
                    }
                    Op::Insert(b, v) => {
                        let b = block_in(cfg, b);
                        if oracle.peek(b).is_none() {
                            prop_assert_eq!(array.insert(b, v), oracle.insert(b, v));
                        }
                    }
                    Op::Remove(b) => {
                        let b = block_in(cfg, b);
                        prop_assert_eq!(array.remove(b), oracle.remove(b));
                    }
                    Op::VictimFor(b) => {
                        let b = block_in(cfg, b);
                        prop_assert_eq!(array.victim_for(b), oracle.victim_for(b));
                    }
                    Op::SetBlocks(b) => {
                        let b = block_in(cfg, b);
                        prop_assert_eq!(array.set_blocks(b), oracle.set_blocks(b));
                        prop_assert_eq!(array.set_of(b), oracle.set_of(b));
                    }
                    Op::FreeWays(b) => {
                        let b = block_in(cfg, b);
                        prop_assert_eq!(array.free_ways(b), oracle.free_ways(b));
                    }
                    Op::LenAndIter => {
                        prop_assert_eq!(array.len(), oracle.len());
                        prop_assert_eq!(array.is_empty(), oracle.len() == 0);
                        let got: Vec<(u64, u32)> = array.iter().map(|(b, m)| (b, *m)).collect();
                        let want: Vec<(u64, u32)> = oracle.iter().map(|(b, m)| (b, *m)).collect();
                        prop_assert_eq!(got, want);
                    }
                    Op::RoundTrip => {
                        let bytes = json(&array);
                        array = serde_json::from_str(&bytes).expect("deserializes");
                        prop_assert_eq!(json(&array), bytes);
                        // Not only in what the image shows: a set emptied
                        // before the round trip has its recency word after it.
                        prop_assert_eq!(&array.recency, &plain.recency);
                        highest.fill(None);
                    }
                }
                note_fills(&array, &mut highest);
                check_blocks(&array, &highest)?;
            }
            prop_assert_eq!(json(&array), json(&plain));
        }

        /// Equal contents give equal bytes. Calls on different sets
        /// commute in everything but the slab slots they are handed, so
        /// the same calls grouped by set build the same contents on
        /// another slot history and free list.
        #[test]
        fn equal_contents_serialize_to_equal_bytes(cfg in geometry(), ops in ops()) {
            let mut in_order: CacheArray<u32> = CacheArray::new(cfg);
            let mut by_set = in_order.clone();
            let set_of = |op: &Op| match *op {
                Op::Get(b) | Op::GetMut(b, _) | Op::PeekMut(b, _) | Op::Insert(b, _)
                | Op::Remove(b) => in_order.set_of(block_in(cfg, b)),
                _ => 0,
            };
            let mut grouped = ops.clone();
            grouped.sort_by_key(set_of);
            for op in &ops {
                apply(&mut in_order, cfg, op);
            }
            for op in &grouped {
                apply(&mut by_set, cfg, op);
            }
            prop_assert_eq!(json(&in_order), json(&by_set));
        }
    }

    /// The property above is not vacuous: the two histories do hand out
    /// different slots, and the image still names none of them.
    #[test]
    fn slot_numbers_are_not_in_the_image() {
        let mut a = small();
        let mut b = small();
        for block in [0, 1, 2] {
            a.insert(block, block as u32);
        }
        for block in [2, 1] {
            b.insert(block, block as u32);
        }
        b.remove(1);
        for block in [0, 1] {
            b.insert(block, block as u32);
        }
        assert_ne!(a.slots, b.slots);
        assert_eq!(json(&a), json(&b));
        assert_eq!(
            json(&a),
            r#"{"cfg":{"sets":4,"ways":2,"interleave":1},"sets":[[0,2],[1,2],[2,2]],"lines":[[0,0,0,0],[1,0,0,1],[2,0,0,2]]}"#
        );
        // Set 3 holds nothing but the recency bit block 7 left: it stays.
        a.insert(7, 7);
        a.remove(7);
        assert!(json(&a).contains("[2,2],[3,2]]"), "{}", json(&a));
    }

    /// A set gets ways when it first holds a line, as many as it has
    /// filled: an array restored from an image has blocks for the sets
    /// with lines in it, sized by their highest way, and none for the rest,
    /// a set that kept only its recency word included.
    #[test]
    fn restored_array_allocates_blocks_only_for_sets_with_lines() {
        let cfg = CacheConfig::from_capacity(1024 * 1024, 16);
        let mut array: CacheArray<u32> = CacheArray::new(cfg);
        assert!(array.tags.is_empty() && array.slots.is_empty());
        for block in [5, 900, 900 + 1024, 7] {
            array.insert(block, block as u32);
        }
        array.remove(7);
        let blocks = |a: &CacheArray<u32>| -> Vec<(usize, usize)> {
            (0..cfg.sets)
                .map(|set| (set, a.block_ways(set)))
                .filter(|&(_, ways)| ways != 0)
                .collect()
        };
        assert_eq!(blocks(&array), [(5, 1), (7, 1), (900, 2)]);
        assert_eq!(
            array.tags.len(),
            4,
            "set 7 took the one-way block set 900 outgrew"
        );
        assert!(array.free.iter().all(Vec::is_empty));
        let restored: CacheArray<u32> = serde_json::from_str(&json(&array)).expect("deserializes");
        assert_eq!(json(&restored), json(&array));
        assert_eq!((restored.tags.len(), restored.slots.len()), (3, 3));
        assert_eq!(blocks(&restored), [(5, 1), (900, 2)]);
        assert_ne!(restored.recency[7], 0, "set 7 keeps its recency word");
    }

    /// With a power-of-two interleave the set and the tag are, bit for
    /// bit, those of the shift-and-divide form the arrays used before.
    #[test]
    fn power_of_two_interleave_is_the_old_index_shift() {
        for (sets, shift) in [(1024usize, 4u32), (1024, 6), (64, 4), (128, 0)] {
            let c: CacheArray<u32> = CacheArray::new(CacheConfig {
                sets,
                ways: 4,
                interleave: 1 << shift,
            });
            let mut block = 0x1234_5678_9ABC_DEF0u64;
            for _ in 0..10_000 {
                block = block
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let old_set = ((block >> shift) as usize) & (sets - 1);
                let low = block & ((1u64 << shift) - 1);
                let old_tag = (((block >> shift) / sets as u64) << shift) | low;
                assert_eq!(c.locate(block), (old_set, old_tag));
                assert_eq!(c.block_of(old_tag, old_set), block);
            }
        }
    }

    fn small() -> CacheArray<u32> {
        CacheArray::new(CacheConfig {
            sets: 4,
            ways: 2,
            interleave: 1,
        })
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut c = small();
        assert!(c.is_empty());
        assert_eq!(c.insert(0x10, 1), None);
        assert_eq!(c.get(0x10), Some(&1));
        *c.get_mut(0x10).unwrap() = 2;
        assert_eq!(c.peek(0x10), Some(&2));
        assert_eq!(c.remove(0x10), Some(2));
        assert_eq!(c.get(0x10), None);
    }

    #[test]
    fn conflicting_blocks_evict_plru() {
        let mut c = small();
        // Blocks 0, 4, 8 all map to set 0 (sets = 4).
        c.insert(0, 10);
        c.insert(4, 14);
        c.get(0); // 0 recent, 4 is victim
        let evicted = c.insert(8, 18);
        assert_eq!(evicted, Some((4, 14)));
        assert_eq!(c.get(0), Some(&10));
        assert_eq!(c.get(8), Some(&18));
    }

    #[test]
    fn victim_for_reports_without_evicting() {
        let mut c = small();
        assert_eq!(c.victim_for(0), None);
        c.insert(0, 1);
        assert_eq!(c.victim_for(4), None, "one way still free");
        c.insert(4, 2);
        let v = c.victim_for(8).unwrap();
        assert!(v == 0 || v == 4);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn tag_reconstruction_is_exact() {
        let mut c = CacheArray::new(CacheConfig {
            sets: 8,
            ways: 2,
            interleave: 1,
        });
        // At most two blocks per set (sets = 8, ways = 2): no evictions.
        for block in [0u64, 7, 9, 255, (1 << 30) + 1] {
            c.insert(block, block as u32);
        }
        let mut found: Vec<u64> = c.iter().map(|(b, _)| b).collect();
        found.sort();
        assert_eq!(found, vec![0, 7, 9, 255, (1 << 30) + 1]);
    }

    #[test]
    fn capacity_constructor() {
        let cfg = CacheConfig::from_capacity(32 * 1024, 4);
        assert_eq!(cfg.sets, 128);
        let cfg = CacheConfig::from_capacity(1024 * 1024, 16);
        assert_eq!(cfg.sets, 1024);
    }

    /// Geometry is checked once, in `new`, and the message names the
    /// field — `from_capacity(_, 0)` used to divide by zero and a bad way
    /// count panicked inside the first set's PLRU.
    #[test]
    fn bad_geometry_names_the_field() {
        let message = |cfg: CacheConfig| {
            let panic = std::panic::catch_unwind(|| CacheArray::<u32>::new(cfg)).unwrap_err();
            match panic.downcast_ref::<String>() {
                Some(formatted) => formatted.clone(),
                None => panic.downcast_ref::<&str>().expect("a message").to_string(),
            }
        };
        let good = CacheConfig::from_capacity(32 * 1024, 4);
        for ways in [0, 3, 128] {
            assert!(message(CacheConfig { ways, ..good }).contains("CacheConfig::ways"));
        }
        assert!(message(CacheConfig::from_capacity(32 * 1024, 0)).contains("CacheConfig::ways"));
        for sets in [0, 3] {
            assert!(message(CacheConfig { sets, ..good }).contains("CacheConfig::sets"));
        }
        assert!(message(CacheConfig::from_capacity(3 * 64 * 4, 4)).contains("CacheConfig::sets"));
        assert!(message(good.with_interleave(0)).contains("CacheConfig::interleave"));
    }

    /// Way-block offsets are 29 bits, and a set may hold up to twice its
    /// ways in blocks over its life: the bound is on the lines modelled.
    #[test]
    #[should_panic(expected = "CacheConfig::sets × ways must be at most 2^28")]
    fn more_than_2_pow_28_lines_are_rejected() {
        CacheArray::<u32>::new(CacheConfig {
            sets: 1 << 23,
            ways: 64,
            interleave: 1,
        });
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_rejected() {
        let mut c = small();
        c.insert(0, 1);
        c.insert(0, 2);
    }
}
