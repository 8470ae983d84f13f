//! Per-node memory: internal SRAM plus external DRAM, word-addressed.

use jm_isa::consts::{EMEM_BASE, MEM_WORDS};
use jm_isa::word::Word;

/// Words per lazily allocated DRAM page (32 KiB of `Word`s).
const PAGE_WORDS: usize = 4096;
/// Number of DRAM pages covering `EMEM_BASE..MEM_WORDS`.
const PAGE_COUNT: usize = (MEM_WORDS - EMEM_BASE) as usize / PAGE_WORDS;

/// A node's directly addressed memory: 4K words of on-chip SRAM at
/// `0..EMEM_BASE` followed by 256K words of DRAM.
///
/// `Memory` is storage only; access *timing* and the memory-mapped queue and
/// staging windows live in the execution engine.
///
/// The SRAM is allocated eagerly (every handler touches it), but the DRAM
/// is demand-paged in [`PAGE_WORDS`]-word chunks: an unwritten page reads
/// as [`Word::NIL`] without existing. A node that never spills to external
/// memory costs ~33 KiB instead of the 2.1 MiB a flat array would take —
/// the difference between a 16×16×16 mesh (4096 nodes) needing ~140 MiB
/// and needing 8.5 GiB.
#[derive(Debug, Clone)]
pub struct Memory {
    /// On-chip SRAM, `0..EMEM_BASE`.
    imem: Box<[Word]>,
    /// External DRAM pages, `None` until first written.
    pages: Vec<Option<Box<[Word]>>>,
}

impl Memory {
    /// Creates nil-initialized memory.
    pub fn new() -> Memory {
        Memory {
            imem: vec![Word::NIL; EMEM_BASE as usize].into_boxed_slice(),
            pages: (0..PAGE_COUNT).map(|_| None).collect(),
        }
    }

    /// Reads a word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range; callers bounds-check first (the
    /// execution engine raises a Bounds fault instead).
    #[inline]
    pub fn read(&self, addr: u32) -> Word {
        if addr < EMEM_BASE {
            return self.imem[addr as usize];
        }
        let off = (addr - EMEM_BASE) as usize;
        debug_assert!(addr < MEM_WORDS, "read past external memory");
        match &self.pages[off / PAGE_WORDS] {
            Some(page) => page[off % PAGE_WORDS],
            None => Word::NIL,
        }
    }

    /// Writes a word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn write(&mut self, addr: u32, word: Word) {
        if addr < EMEM_BASE {
            self.imem[addr as usize] = word;
            return;
        }
        let off = (addr - EMEM_BASE) as usize;
        debug_assert!(addr < MEM_WORDS, "write past external memory");
        let page = self.pages[off / PAGE_WORDS]
            .get_or_insert_with(|| vec![Word::NIL; PAGE_WORDS].into_boxed_slice());
        page[off % PAGE_WORDS] = word;
    }

    /// Whether an address is in internal (on-chip) memory.
    #[inline]
    pub fn is_internal(addr: u32) -> bool {
        addr < EMEM_BASE
    }

    /// Whether a write to `addr` lands in storage that already exists: the
    /// SRAM, or a DRAM page some earlier write allocated. Allocation is
    /// state (see [`Self::fold_state`]), so a write that would allocate
    /// cannot be undone by restoring one word.
    #[inline]
    pub fn is_mapped(&self, addr: u32) -> bool {
        addr < EMEM_BASE || self.pages[(addr - EMEM_BASE) as usize / PAGE_WORDS].is_some()
    }

    /// Bulk-writes a slice starting at `base` (host-side loader).
    ///
    /// # Panics
    ///
    /// Panics if the slice exceeds memory.
    pub fn load(&mut self, base: u32, words: &[Word]) {
        assert!(
            (base as usize) + words.len() <= MEM_WORDS as usize,
            "bulk load past the end of memory"
        );
        for (i, &word) in words.iter().enumerate() {
            self.write(base + i as u32, word);
        }
    }

    /// Folds the full memory image into a replay digest: the SRAM verbatim,
    /// then every allocated DRAM page tagged with its index. Unallocated
    /// pages contribute nothing — demand paging is write-driven, so the
    /// allocation pattern is itself deterministic and engine-independent.
    ///
    /// Runs of [`Word::NIL`] are folded as a run length instead of word by
    /// word: memory is overwhelmingly NIL, and the checkpoint hash sits on
    /// the replay capture's hot path (the bench gate holds capture
    /// overhead under 10%). The encoding stays positional and unambiguous
    /// — the `0xFF` run marker cannot collide with a real word's leading
    /// tag byte, which carries at most 4 tag bits.
    pub fn fold_state(&self, h: &mut jm_trace::Fnv1a) {
        fold_words_rle(h, &self.imem);
        for (i, page) in self.pages.iter().enumerate() {
            if let Some(page) = page {
                h.write_u32(i as u32);
                fold_words_rle(h, page);
            }
        }
    }

    /// Reads `len` words starting at `base` (host-side extraction).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds memory.
    pub fn dump(&self, base: u32, len: u32) -> Vec<Word> {
        assert!(
            (base as usize) + len as usize <= MEM_WORDS as usize,
            "dump past the end of memory"
        );
        (base..base + len).map(|a| self.read(a)).collect()
    }
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

/// Folds a word array with NIL runs collapsed to `(0xFF, run_len)`.
fn fold_words_rle(h: &mut jm_trace::Fnv1a, words: &[Word]) {
    let mut run: u32 = 0;
    for &w in words {
        if w == Word::NIL {
            run += 1;
            continue;
        }
        if run > 0 {
            h.write_u8(0xFF);
            h.write_u32(run);
            run = 0;
        }
        crate::hash::fold_word(h, w);
    }
    if run > 0 {
        h.write_u8(0xFF);
        h.write_u32(run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = Memory::new();
        m.write(0, Word::int(1));
        m.write(MEM_WORDS - 1, Word::int(2));
        assert_eq!(m.read(0).as_i32(), 1);
        assert_eq!(m.read(MEM_WORDS - 1).as_i32(), 2);
        assert_eq!(m.read(100), Word::NIL);
    }

    #[test]
    fn region_classification() {
        assert!(Memory::is_internal(0));
        assert!(Memory::is_internal(EMEM_BASE - 1));
        assert!(!Memory::is_internal(EMEM_BASE));
    }

    #[test]
    fn bulk_load_and_dump() {
        let mut m = Memory::new();
        let data = vec![Word::int(7), Word::int(8), Word::int(9)];
        m.load(5000, &data);
        assert_eq!(m.dump(5000, 3), data);
    }

    #[test]
    fn unwritten_dram_reads_nil_without_allocating() {
        let m = Memory::new();
        assert_eq!(m.read(EMEM_BASE), Word::NIL);
        assert_eq!(m.read(MEM_WORDS - 1), Word::NIL);
        assert!(m.pages.iter().all(Option::is_none));
    }

    #[test]
    fn dram_pages_allocate_on_first_write_only() {
        let mut m = Memory::new();
        m.write(EMEM_BASE + 1, Word::int(9));
        assert_eq!(m.pages.iter().filter(|p| p.is_some()).count(), 1);
        assert_eq!(m.read(EMEM_BASE + 1).as_i32(), 9);
        assert_eq!(m.read(EMEM_BASE), Word::NIL);
        // A cross-page bulk load touches exactly the pages it spans.
        let span = vec![Word::int(1); PAGE_WORDS + 2];
        m.load(MEM_WORDS - span.len() as u32, &span);
        assert_eq!(
            m.dump(MEM_WORDS - span.len() as u32, 3),
            vec![Word::int(1); 3]
        );
    }
}
