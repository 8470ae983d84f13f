//! Per-node memory: internal SRAM plus external DRAM, word-addressed.

use jm_isa::consts::{EMEM_BASE, MEM_WORDS};
use jm_isa::word::Word;

/// Words per SRAM page (4 KiB of `Word`s).
const SRAM_PAGE_WORDS: usize = 512;
/// Number of SRAM pages covering `0..EMEM_BASE`.
const SRAM_PAGES: usize = EMEM_BASE as usize / SRAM_PAGE_WORDS;
/// Words per DRAM page (32 KiB of `Word`s).
const DRAM_PAGE_WORDS: usize = 4096;
/// Number of DRAM pages covering `EMEM_BASE..MEM_WORDS`.
const DRAM_PAGES: usize = (MEM_WORDS - EMEM_BASE) as usize / DRAM_PAGE_WORDS;

/// A demand-allocated page of `N` words: `None` until its first write,
/// and read as [`Word::NIL`] until then.
type Page<const N: usize> = Option<Box<[Word; N]>>;

#[inline]
fn page_read<const N: usize>(page: &Page<N>, off: usize) -> Word {
    match page {
        Some(words) => words[off],
        None => Word::NIL,
    }
}

#[inline]
fn page_write<const N: usize>(page: &mut Page<N>, off: usize, word: Word) {
    page.get_or_insert_with(nil_page)[off] = word;
}

/// A fresh page, out of line so that a write's fast path stays small.
#[cold]
#[inline(never)]
fn nil_page<const N: usize>() -> Box<[Word; N]> {
    let nil = vec![Word::NIL; N].into_boxed_slice();
    nil.try_into().expect("a page is N words")
}

/// Host-side storage counters of a node or a machine: the memory pages
/// and queue words its program's writes have allocated. They describe
/// the simulator's footprint, so they stay outside every statistic and
/// digest; DRAM allocation alone is state (see [`Memory::fold_state`]),
/// so `dram_pages` is the same under every engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// SRAM pages allocated. A stretch may allocate one and be rewound,
    /// so this depends on the engine.
    pub sram_pages: u64,
    /// DRAM pages allocated.
    pub dram_pages: u64,
    /// Message-queue words stored (each ring grows to its high-water
    /// mark on its first pass).
    pub queue_words: u64,
}

impl MemoryStats {
    /// Adds another node's counters.
    pub fn merge(&mut self, other: &MemoryStats) {
        self.sram_pages += other.sram_pages;
        self.dram_pages += other.dram_pages;
        self.queue_words += other.queue_words;
    }
}

/// A node's directly addressed memory: 4K words of on-chip SRAM at
/// `0..EMEM_BASE` followed by 256K words of DRAM.
///
/// `Memory` is storage only; access *timing* and the memory-mapped queue and
/// staging windows live in the execution engine.
///
/// Both regions are demand-paged: the SRAM in eight 512-word pages, the
/// DRAM in 4096-word pages, and a page that was never written reads as
/// [`Word::NIL`] without existing. A node's memory costs its 576-byte
/// page table plus 4 KiB per SRAM page and 32 KiB per DRAM page its
/// program has written, instead of the 2.1 MiB a flat array would take.
/// The exchange loop writes one SRAM page a node and no DRAM, so its
/// 16×16×16 run (jmbench `exchange4096`) peaks at 57 MiB of RSS, where an
/// eagerly allocated SRAM and queues made it 231 MiB.
#[derive(Debug, Clone)]
pub struct Memory {
    /// On-chip SRAM pages, `0..EMEM_BASE`.
    sram: [Page<SRAM_PAGE_WORDS>; SRAM_PAGES],
    /// External DRAM pages, `EMEM_BASE..MEM_WORDS`.
    dram: Box<[Page<DRAM_PAGE_WORDS>; DRAM_PAGES]>,
}

impl Memory {
    /// Creates nil-initialized memory.
    pub fn new() -> Memory {
        Memory {
            sram: [const { None }; SRAM_PAGES],
            dram: Box::new([const { None }; DRAM_PAGES]),
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
        let a = addr as usize;
        if addr < EMEM_BASE {
            return page_read(&self.sram[a / SRAM_PAGE_WORDS], a % SRAM_PAGE_WORDS);
        }
        let off = a - EMEM_BASE as usize;
        debug_assert!(addr < MEM_WORDS, "read past external memory");
        page_read(&self.dram[off / DRAM_PAGE_WORDS], off % DRAM_PAGE_WORDS)
    }

    /// Writes a word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn write(&mut self, addr: u32, word: Word) {
        let a = addr as usize;
        if addr < EMEM_BASE {
            page_write(
                &mut self.sram[a / SRAM_PAGE_WORDS],
                a % SRAM_PAGE_WORDS,
                word,
            );
            return;
        }
        let off = a - EMEM_BASE as usize;
        debug_assert!(addr < MEM_WORDS, "write past external memory");
        page_write(
            &mut self.dram[off / DRAM_PAGE_WORDS],
            off % DRAM_PAGE_WORDS,
            word,
        );
    }

    /// Whether an address is in internal (on-chip) memory.
    #[inline]
    pub fn is_internal(addr: u32) -> bool {
        addr < EMEM_BASE
    }

    /// Whether a write to `addr` can be undone by restoring one word: any
    /// SRAM address, or a DRAM page some earlier write allocated. DRAM
    /// allocation is state (see [`Self::fold_state`]), so a write that
    /// would allocate a DRAM page cannot be undone; SRAM allocation is
    /// not, so an SRAM page a rewound write left allocated and NIL folds
    /// as if it had never been written.
    #[inline]
    pub fn is_mapped(&self, addr: u32) -> bool {
        addr < EMEM_BASE || self.dram[(addr - EMEM_BASE) as usize / DRAM_PAGE_WORDS].is_some()
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

    /// Folds the full memory image into a replay digest: the 4 096 SRAM
    /// words as one run, an unallocated SRAM page counting as 512 NILs,
    /// then every allocated DRAM page tagged with its index. Unallocated
    /// DRAM pages contribute nothing — DRAM paging is write-driven, so its
    /// allocation pattern is itself deterministic and engine-independent.
    /// SRAM allocation is not folded, and the fold allocates nothing.
    ///
    /// Runs of [`Word::NIL`] are folded as a run length instead of word by
    /// word: memory is overwhelmingly NIL, and the checkpoint hash sits on
    /// the replay capture's hot path (the bench gate holds capture
    /// overhead under 10%). The encoding stays positional and unambiguous
    /// — the `0xFF` run marker cannot collide with a real word's leading
    /// tag byte, which carries at most 4 tag bits.
    pub fn fold_state(&self, h: &mut jm_trace::Fnv1a) {
        let mut sram = NilRuns::default();
        for page in &self.sram {
            match page {
                Some(words) => sram.words(h, &words[..]),
                None => sram.run += SRAM_PAGE_WORDS as u32,
            }
        }
        sram.end(h);
        for (i, page) in self.dram.iter().enumerate() {
            if let Some(words) = page {
                h.write_u32(i as u32);
                let mut run = NilRuns::default();
                run.words(h, &words[..]);
                run.end(h);
            }
        }
    }

    /// The pages this memory has allocated, as `(sram, dram)`.
    pub(crate) fn allocated_pages(&self) -> (usize, usize) {
        let sram = self.sram.iter().filter(|p| p.is_some()).count();
        (sram, self.dram.iter().filter(|p| p.is_some()).count())
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

/// A word fold with runs of [`Word::NIL`] collapsed to `(0xFF, run_len)`;
/// `run` is the NIL run still open.
#[derive(Default)]
struct NilRuns {
    run: u32,
}

impl NilRuns {
    fn words(&mut self, h: &mut jm_trace::Fnv1a, words: &[Word]) {
        for &w in words {
            if w == Word::NIL {
                self.run += 1;
                continue;
            }
            self.end(h);
            crate::hash::fold_word(h, w);
        }
    }

    /// Closes the open run, if any.
    fn end(&mut self, h: &mut jm_trace::Fnv1a) {
        if self.run > 0 {
            h.write_u8(0xFF);
            h.write_u32(self.run);
            self.run = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_isa::tag::Tag;
    use jm_prng::Prng;
    use jm_trace::Fnv1a;

    /// The flat fold this memory replaced, kept as the oracle: the whole
    /// SRAM word by word, then each allocated DRAM page tagged with its
    /// index, NIL runs collapsed within each array.
    fn flat_fold(sram: &[Word], dram: &[(usize, &[Word])]) -> u64 {
        fn fold_words_rle(h: &mut Fnv1a, words: &[Word]) {
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
        let mut h = Fnv1a::new();
        fold_words_rle(&mut h, sram);
        for &(i, page) in dram {
            h.write_u32(i as u32);
            fold_words_rle(&mut h, page);
        }
        h.finish()
    }

    fn fold(m: &Memory) -> u64 {
        let mut h = Fnv1a::new();
        m.fold_state(&mut h);
        h.finish()
    }

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
        assert_eq!(m.allocated_pages(), (0, 0));
    }

    #[test]
    fn dram_pages_allocate_on_first_write_only() {
        let mut m = Memory::new();
        m.write(EMEM_BASE + 1, Word::int(9));
        assert_eq!(m.allocated_pages(), (0, 1));
        assert_eq!(m.read(EMEM_BASE + 1).as_i32(), 9);
        assert_eq!(m.read(EMEM_BASE), Word::NIL);
        // A cross-page bulk load touches exactly the pages it spans.
        let span = vec![Word::int(1); DRAM_PAGE_WORDS + 2];
        m.load(MEM_WORDS - span.len() as u32, &span);
        assert_eq!(
            m.dump(MEM_WORDS - span.len() as u32, 3),
            vec![Word::int(1); 3]
        );
        assert_eq!(m.allocated_pages(), (0, 3));
    }

    /// The SRAM is paged the same way, and the fold reads an unallocated
    /// SRAM page as 512 NILs without allocating it.
    #[test]
    fn sram_pages_allocate_on_first_write_only() {
        let mut m = Memory::new();
        for addr in [0, 511, 512, EMEM_BASE - 1] {
            assert_eq!(m.read(addr), Word::NIL);
        }
        assert_eq!(fold(&m), flat_fold(&[Word::NIL; EMEM_BASE as usize], &[]));
        assert_eq!(
            m.allocated_pages(),
            (0, 0),
            "reads and the fold allocate nothing"
        );
        m.write(512, Word::int(8));
        assert_eq!(m.allocated_pages(), (1, 0));
        assert_eq!(m.read(511), Word::NIL);
        assert_eq!(m.read(512).as_i32(), 8);
    }

    #[test]
    fn an_sram_page_written_back_to_nil_folds_as_unwritten() {
        let mut m = Memory::new();
        let fresh = fold(&m);
        m.write(1024, Word::int(5));
        assert_ne!(fold(&m), fresh);
        m.write(1024, Word::NIL);
        assert_eq!(m.allocated_pages(), (1, 0));
        assert_eq!(fold(&m), fresh, "SRAM allocation is not state");
        // DRAM allocation is.
        m.write(EMEM_BASE, Word::int(5));
        m.write(EMEM_BASE, Word::NIL);
        assert_ne!(fold(&m), fresh);
    }

    /// Random reads and writes against a flat model of both regions,
    /// crowded onto the page edges: every read agrees, an unwritten SRAM
    /// word reads NIL without allocating, and the fold — taken every 25
    /// operations, so with pages still unallocated — equals the flat fold
    /// of the model.
    #[test]
    fn matches_a_flat_model() {
        const EDGES: [u32; 8] = [
            0,
            511,
            512,
            1023,
            EMEM_BASE - 1,
            EMEM_BASE,
            EMEM_BASE + DRAM_PAGE_WORDS as u32,
            MEM_WORDS - 1,
        ];
        for seed in 0..16 {
            let mut rng = Prng::from_label("memory-model", seed);
            let mut m = Memory::new();
            let mut flat = vec![Word::NIL; MEM_WORDS as usize];
            let mut dram_written = [false; DRAM_PAGES];
            let mut sram_written = [false; SRAM_PAGES];
            let flat_fold_of = |flat: &[Word], dram_written: &[bool]| {
                let dram: Vec<_> = (0..DRAM_PAGES)
                    .filter(|&i| dram_written[i])
                    .map(|i| {
                        let at = EMEM_BASE as usize + i * DRAM_PAGE_WORDS;
                        (i, &flat[at..at + DRAM_PAGE_WORDS])
                    })
                    .collect();
                flat_fold(&flat[..EMEM_BASE as usize], &dram)
            };
            for step in 0..400 {
                if step % 25 == 0 {
                    assert_eq!(fold(&m), flat_fold_of(&flat, &dram_written), "step {step}");
                }
                let addr = match rng.range_u32(0, 4) {
                    0 => {
                        let edge = EDGES[rng.range_usize(0, EDGES.len())];
                        edge.saturating_add_signed(rng.range_i32(-2, 3))
                            .min(MEM_WORDS - 1)
                    }
                    1 => rng.range_u32(0, EMEM_BASE),
                    _ => rng.range_u32(0, MEM_WORDS),
                };
                if rng.chance(0.5) {
                    assert_eq!(m.read(addr), flat[addr as usize], "read {addr}");
                    continue;
                }
                let word = match rng.range_u32(0, 3) {
                    0 => Word::NIL,
                    1 => Word::int(rng.range_i32(-3, 3)),
                    _ => Word::new(Tag::Sym, rng.next_u32()),
                };
                m.write(addr, word);
                flat[addr as usize] = word;
                if addr < EMEM_BASE {
                    sram_written[addr as usize / SRAM_PAGE_WORDS] = true;
                } else {
                    dram_written[(addr - EMEM_BASE) as usize / DRAM_PAGE_WORDS] = true;
                }
                let sram = sram_written.iter().filter(|&&w| w).count();
                let dram = dram_written.iter().filter(|&&w| w).count();
                assert_eq!(m.allocated_pages(), (sram, dram), "after writing {addr}");
            }
            assert_eq!(fold(&m), flat_fold_of(&flat, &dram_written), "seed {seed}");
            assert_eq!(m.dump(0, MEM_WORDS), flat, "seed {seed}");
        }
    }
}
