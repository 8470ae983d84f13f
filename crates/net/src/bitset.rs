//! A fixed-capacity bitset: the simulator's one worklist type (routers
//! holding flits, nodes with pending deliveries, nodes scheduled to tick).
//! Insertion and removal are O(1); iteration is in ascending index order,
//! which the engines rely on for cycle-exact equivalence with naive full
//! scans.
//!
//! A per-cycle loop that mutates the set while walking it reads one
//! [`BitSet::word`] at a time and walks the copy with [`ones`]: an index
//! inserted behind the walk waits for the next cycle, one inserted ahead of
//! it is visited, and the index being visited may be removed freely.

/// A fixed-capacity set of `usize` indices backed by `u64` words.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
    count: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> BitSet {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            count: 0,
        }
    }

    /// Number of indices currently in the set.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether `index` is in the set.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Inserts `index`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        let bit = 1u64 << (index % 64);
        let word = self.words[index / 64];
        let fresh = word & bit == 0;
        self.words[index / 64] = word | bit;
        self.count += fresh as usize;
        fresh
    }

    /// Removes `index`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, index: usize) -> bool {
        let bit = 1u64 << (index % 64);
        let word = self.words[index / 64];
        let present = word & bit != 0;
        self.words[index / 64] = word & !bit;
        self.count -= present as usize;
        present
    }

    /// Removes every index.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }

    /// Number of 64-index words backing the set.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Word `w` by value: bit `b` is set iff index `64 * w + b` is in the
    /// set.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Iterates the set in ascending index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// The positions of the set bits of `word`, ascending.
#[inline]
pub fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if word == 0 {
            return None;
        }
        let bit = word.trailing_zeros() as usize;
        word &= word - 1;
        Some(bit)
    })
}

/// Ascending-order iterator over a [`BitSet`].
#[derive(Debug)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_prng::Prng;
    use std::collections::BTreeSet;

    /// Every operation, against `BTreeSet`, at capacities on both sides of
    /// a word boundary. CI runs this under the debug and release profiles.
    #[test]
    fn random_operations_match_a_btreeset_model() {
        for capacity in [1usize, 63, 64, 65, 4096] {
            let mut rng = Prng::from_label("bitset_model", capacity as u64);
            let mut set = BitSet::new(capacity);
            let mut model = BTreeSet::new();
            for _ in 0..20_000 {
                let i = rng.range_usize(0, capacity);
                match rng.range_u32(0, 16) {
                    0..=6 => assert_eq!(set.insert(i), model.insert(i), "insert {i}"),
                    7..=12 => assert_eq!(set.remove(i), model.remove(&i), "remove {i}"),
                    13 => assert_eq!(set.contains(i), model.contains(&i), "contains {i}"),
                    14 => {
                        assert!(set.iter().eq(model.iter().copied()), "iteration order");
                        let by_word = (0..set.word_count())
                            .flat_map(|w| ones(set.word(w)).map(move |b| 64 * w + b));
                        assert!(by_word.eq(model.iter().copied()), "word view");
                    }
                    _ if rng.chance(0.02) => {
                        set.clear();
                        model.clear();
                    }
                    _ => {}
                }
                assert_eq!(set.count(), model.len(), "count after touching {i}");
                assert_eq!(set.is_empty(), model.is_empty());
            }
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(200);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(199));
        assert!(!s.insert(64), "double insert reports not-fresh");
        assert_eq!(s.count(), 4);
        assert!(s.contains(63));
        assert!(!s.contains(62));
        assert!(s.remove(63));
        assert!(!s.remove(63), "double remove reports absent");
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn iterates_in_ascending_order() {
        let mut s = BitSet::new(300);
        for i in [257, 3, 64, 65, 0, 128] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 3, 64, 65, 128, 257]);
    }

    #[test]
    fn clear_empties_the_set() {
        let mut s = BitSet::new(100);
        s.insert(5);
        s.insert(99);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn empty_capacity_is_fine() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
