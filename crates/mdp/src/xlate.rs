//! The name-translation cache behind `ENTER` / `XLATE` / `PROBE`.
//!
//! The MDP accelerates virtual-name → value translation with a hardware
//! table: pairs are inserted with `enter` and retrieved with `xlate`
//! (3 cycles on a hit, §2.1). Misses fault to a software handler. The
//! paper's Table 5 shows CST programs issuing hundreds of millions of
//! xlates with a tiny miss ratio, so capacity and replacement matter only
//! at the margins; we model a bounded table with FIFO eviction.

use jm_isa::word::Word;
use std::collections::{HashMap, VecDeque};

/// Key type: full tagged words compare by tag and payload.
type Key = (u8, u32);

fn key_of(word: Word) -> Key {
    (word.tag().bits(), word.bits())
}

/// A bounded key→value map of tagged words with FIFO replacement. Both
/// tables start empty and grow with the entries; `capacity` is only the
/// eviction bound.
#[derive(Debug, Clone)]
pub struct XlateCache {
    map: HashMap<Key, Word>,
    /// The live keys, in insertion order.
    order: VecDeque<Key>,
    capacity: usize,
    evictions: u64,
}

impl XlateCache {
    /// Creates an empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> XlateCache {
        assert!(capacity > 0, "xlate cache capacity must be positive");
        XlateCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            evictions: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Inserts or replaces a binding (the `ENTER` instruction).
    pub fn enter(&mut self, key: Word, value: Word) {
        let k = key_of(key);
        if self.map.insert(k, value).is_none() {
            self.order.push_back(k);
            if self.map.len() > self.capacity {
                let victim = self.order.pop_front().expect("order holds the live keys");
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
    }

    /// Looks a key up (the `XLATE`/`PROBE` instructions).
    pub fn xlate(&self, key: Word) -> Option<Word> {
        self.map.get(&key_of(key)).copied()
    }

    /// Folds the cache state into a replay digest: the live keys in
    /// insertion order, each with its binding, so the fold never touches
    /// `HashMap` iteration order. Each entry keeps a presence byte, always
    /// 1, so the digest reads as it did when `order` could hold removed
    /// keys.
    pub fn fold_state(&self, h: &mut jm_trace::Fnv1a) {
        h.write_u32(self.map.len() as u32);
        for &(tag, bits) in &self.order {
            let v = self.map[&(tag, bits)];
            h.write_u8(tag);
            h.write_u32(bits);
            h.write_u8(1);
            h.write_u8(v.tag().bits());
            h.write_u32(v.bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_isa::tag::Tag;

    #[test]
    fn enter_then_xlate() {
        let mut c = XlateCache::new(4);
        c.enter(Word::sym(9), Word::int(42));
        assert_eq!(c.xlate(Word::sym(9)), Some(Word::int(42)));
        assert_eq!(c.xlate(Word::sym(8)), None);
        // Same payload, different tag → different key.
        assert_eq!(c.xlate(Word::new(Tag::Int, 9)), None);
    }

    #[test]
    fn replaces_existing_binding() {
        let mut c = XlateCache::new(2);
        c.enter(Word::sym(1), Word::int(10));
        c.enter(Word::sym(1), Word::int(20));
        assert_eq!(c.xlate(Word::sym(1)), Some(Word::int(20)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_fifo_beyond_capacity() {
        let mut c = XlateCache::new(2);
        c.enter(Word::sym(1), Word::int(1));
        c.enter(Word::sym(2), Word::int(2));
        c.enter(Word::sym(3), Word::int(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.xlate(Word::sym(1)), None);
        assert_eq!(c.xlate(Word::sym(3)), Some(Word::int(3)));
    }
}
