//! Per-node memory: internal SRAM plus external DRAM, word-addressed.

use jm_isa::consts::{EMEM_BASE, EMEM_WORDS, IMEM_WORDS, MEM_WORDS};
use jm_isa::word::Word;

/// Words per SRAM page (512 bytes of `Word`s).
pub const SRAM_PAGE_WORDS: u32 = 64;
/// Words per DRAM page (4 KiB of `Word`s).
pub const DRAM_PAGE_WORDS: u32 = 512;
/// Number of SRAM pages covering `0..EMEM_BASE`.
const SRAM_PAGES: usize = (IMEM_WORDS / SRAM_PAGE_WORDS) as usize;
/// Number of DRAM pages covering `EMEM_BASE..MEM_WORDS`.
const DRAM_PAGES: usize = (EMEM_WORDS / DRAM_PAGE_WORDS) as usize;

const _: () = assert!(IMEM_WORDS.is_multiple_of(SRAM_PAGE_WORDS));
const _: () = assert!(EMEM_WORDS.is_multiple_of(DRAM_PAGE_WORDS));

/// A demand-allocated page of `N` words: `None` until its first write,
/// and read as [`Word::NIL`] until then.
type Page<const N: usize> = Option<Box<[Word; N]>>;
type SramPage = Page<{ SRAM_PAGE_WORDS as usize }>;
type DramPage = Page<{ DRAM_PAGE_WORDS as usize }>;
/// The DRAM page table, allocated on the node's first DRAM write.
type DramTable = [DramPage; DRAM_PAGES];

#[inline]
fn page_read<const N: usize>(page: &Page<N>, off: u32) -> Word {
    match page {
        Some(words) => words[off as usize],
        None => Word::NIL,
    }
}

#[inline]
fn page_write<const N: usize>(page: &mut Page<N>, off: u32, word: Word) {
    page.get_or_insert_with(nil_page)[off as usize] = word;
}

/// A fresh page, out of line so that a write's fast path stays small.
#[cold]
#[inline(never)]
fn nil_page<const N: usize>() -> Box<[Word; N]> {
    let nil = vec![Word::NIL; N].into_boxed_slice();
    nil.try_into().expect("a page is N words")
}

/// A fresh DRAM page table, out of line for the same reason.
#[cold]
#[inline(never)]
fn nil_table() -> Box<DramTable> {
    Box::new([const { None }; DRAM_PAGES])
}

/// Host-side storage counters of a node or a machine: the memory pages
/// and queue words its program's writes have allocated. They describe
/// the simulator's footprint, so they stay outside every statistic and
/// digest. A stretch may allocate a page and be rewound, leaving the page
/// allocated and NIL, so the page counts depend on the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// SRAM pages ([`SRAM_PAGE_WORDS`] words each) allocated.
    pub sram_pages: u64,
    /// DRAM pages ([`DRAM_PAGE_WORDS`] words each) allocated.
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
/// Both regions are demand-paged at the grain programs write: the SRAM in
/// 64 pages of 64 words behind an inline table, so an SRAM access costs
/// one page-pointer load, and the DRAM in 512 pages of 512 words behind
/// a table that exists only once the node writes DRAM. A page that was
/// never written reads as [`Word::NIL`] without existing. A page is host
/// storage, not state: the node's state holds the non-NIL words
/// ([`Self::words`]), so a page written back to NIL is as if it had never
/// been written, in either region. A node's memory
/// costs its 520-byte inline table, 512 bytes per SRAM page and 4 KiB
/// per DRAM page its program has written, and a 4 KiB DRAM table if it
/// wrote any, instead of the 2.1 MiB a flat array would take. The
/// exchange loop writes one SRAM page a node and no DRAM, so its
/// 16×16×16 run (jmbench `exchange4096`) peaks at 24.3 MiB of RSS, where
/// 512-word SRAM pages made it 38.6 MiB; radix sort's 512 nodes each
/// write one 160-word run of keys to DRAM, and `radix512` peaks at
/// 13.8 MiB, where an eager table of 4 096-word DRAM pages made it
/// 27.5 MiB (2-vCPU Xeon host, seed 7).
#[derive(Debug, Clone)]
pub(crate) struct Memory {
    /// On-chip SRAM pages, `0..EMEM_BASE`.
    sram: [SramPage; SRAM_PAGES],
    /// External DRAM pages, `EMEM_BASE..MEM_WORDS`, once any is written.
    dram: Option<Box<DramTable>>,
}

impl Memory {
    /// Creates nil-initialized memory.
    pub(crate) fn new() -> Memory {
        Memory {
            sram: [const { None }; SRAM_PAGES],
            dram: None,
        }
    }

    /// Reads a word.
    ///
    /// `addr` must be in range: callers bounds-check first (the execution
    /// engine raises a Bounds fault instead). Out of range it panics, or
    /// reads NIL from a node that never wrote DRAM.
    #[inline]
    pub(crate) fn read(&self, addr: u32) -> Word {
        if addr < EMEM_BASE {
            let page = &self.sram[(addr / SRAM_PAGE_WORDS) as usize];
            return page_read(page, addr % SRAM_PAGE_WORDS);
        }
        debug_assert!(addr < MEM_WORDS, "read past external memory");
        let off = addr - EMEM_BASE;
        match &self.dram {
            Some(table) => page_read(
                &table[(off / DRAM_PAGE_WORDS) as usize],
                off % DRAM_PAGE_WORDS,
            ),
            None => Word::NIL,
        }
    }

    /// Writes a word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub(crate) fn write(&mut self, addr: u32, word: Word) {
        if addr < EMEM_BASE {
            let page = &mut self.sram[(addr / SRAM_PAGE_WORDS) as usize];
            page_write(page, addr % SRAM_PAGE_WORDS, word);
            return;
        }
        debug_assert!(addr < MEM_WORDS, "write past external memory");
        let off = addr - EMEM_BASE;
        let table = self.dram.get_or_insert_with(nil_table);
        page_write(
            &mut table[(off / DRAM_PAGE_WORDS) as usize],
            off % DRAM_PAGE_WORDS,
            word,
        );
    }

    /// Whether an address is in internal (on-chip) memory.
    #[inline]
    pub(crate) fn is_internal(addr: u32) -> bool {
        addr < EMEM_BASE
    }

    /// Bulk-writes a slice starting at `base` (host-side loader).
    ///
    /// # Panics
    ///
    /// Panics if the slice exceeds memory.
    pub(crate) fn load(&mut self, base: u32, words: &[Word]) {
        assert!(
            (base as usize) + words.len() <= MEM_WORDS as usize,
            "bulk load past the end of memory"
        );
        for (i, &word) in words.iter().enumerate() {
            self.write(base + i as u32, word);
        }
    }

    /// The non-NIL words in address order: the memory's part of the
    /// node's architectural state. An unallocated page holds none, so
    /// allocation is never state.
    pub(crate) fn words(&self) -> impl Iterator<Item = (u32, Word)> + '_ {
        fn pages<const N: usize>(
            base: u32,
            pages: &[Page<N>],
        ) -> impl Iterator<Item = (u32, Word)> + '_ {
            let pages = pages
                .iter()
                .enumerate()
                .filter_map(|(p, page)| Some((p, page.as_ref()?)));
            pages.flat_map(move |(p, words)| {
                let at = base + (p * N) as u32;
                (at..)
                    .zip(words.iter().copied())
                    .filter(|&(_, w)| w != Word::NIL)
            })
        }
        let dram = self.dram.as_deref().map_or(&[][..], |table| &table[..]);
        pages(0, &self.sram).chain(pages(EMEM_BASE, dram))
    }

    /// The pages this memory has allocated, as `(sram, dram)`.
    pub(crate) fn allocated_pages(&self) -> (usize, usize) {
        let sram = self.sram.iter().filter(|p| p.is_some()).count();
        let dram = self
            .dram
            .as_ref()
            .map_or(0, |table| table.iter().filter(|p| p.is_some()).count());
        (sram, dram)
    }

    /// Reads `len` words starting at `base` (host-side extraction).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds memory.
    pub(crate) fn dump(&self, base: u32, len: u32) -> Vec<Word> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use jm_isa::tag::Tag;
    use jm_prng::Prng;

    /// The non-NIL words of a flat image, kept as the oracle.
    fn flat_words(image: &[Word]) -> Vec<(u32, Word)> {
        (0..)
            .zip(image.iter().copied())
            .filter(|&(_, w)| w != Word::NIL)
            .collect()
    }

    fn words(m: &Memory) -> Vec<(u32, Word)> {
        m.words().collect()
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
        assert_eq!(m.read(EMEM_BASE + DRAM_PAGE_WORDS), Word::NIL);
        assert_eq!(m.allocated_pages(), (0, 1));
        // A cross-page bulk load touches exactly the pages it spans.
        let span = vec![Word::int(1); DRAM_PAGE_WORDS as usize + 2];
        m.load(MEM_WORDS - span.len() as u32, &span);
        assert_eq!(
            m.dump(MEM_WORDS - span.len() as u32, 3),
            vec![Word::int(1); 3]
        );
        assert_eq!(m.allocated_pages(), (0, 3));
    }

    /// The SRAM is paged the same way, and the state reads an unallocated
    /// SRAM page as 64 NILs without allocating it.
    #[test]
    fn sram_pages_allocate_on_first_write_only() {
        let mut m = Memory::new();
        for addr in [0, SRAM_PAGE_WORDS - 1, SRAM_PAGE_WORDS, EMEM_BASE - 1] {
            assert_eq!(m.read(addr), Word::NIL);
        }
        assert_eq!(words(&m), []);
        assert_eq!(
            m.allocated_pages(),
            (0, 0),
            "reads and the state allocate nothing"
        );
        m.write(SRAM_PAGE_WORDS, Word::int(8));
        assert_eq!(m.allocated_pages(), (1, 0));
        assert_eq!(m.read(SRAM_PAGE_WORDS - 1), Word::NIL);
        assert_eq!(m.read(SRAM_PAGE_WORDS).as_i32(), 8);
    }

    /// A page is host storage in either region: a word written and
    /// written back to NIL leaves its page allocated, and the memory's
    /// state is as if it had never been written.
    #[test]
    fn a_page_written_back_to_nil_folds_as_unwritten() {
        let fresh = words(&Memory::new());
        for (addr, pages) in [
            (1024, (1, 0)),
            (EMEM_BASE + 3 * DRAM_PAGE_WORDS + 7, (0, 1)),
        ] {
            let mut m = Memory::new();
            m.write(addr, Word::int(5));
            assert_eq!(words(&m), [(addr, Word::int(5))], "{addr}");
            m.write(addr, Word::NIL);
            assert_eq!(m.allocated_pages(), pages, "{addr}");
            assert_eq!(words(&m), fresh, "{addr}: allocation is not state");
        }
    }

    /// Random reads and writes against a flat model of both regions,
    /// crowded onto the page edges — SRAM's 64-word pages and DRAM's
    /// 512-word pages: every read agrees, an unwritten word reads NIL
    /// without allocating, a page is allocated exactly when it was
    /// written, and the state — taken every 25 operations, so with pages
    /// still unallocated — holds the model's non-NIL words.
    #[test]
    fn matches_a_flat_model() {
        const EDGES: [u32; 8] = [
            0,
            SRAM_PAGE_WORDS - 1,
            SRAM_PAGE_WORDS,
            EMEM_BASE - 1,
            EMEM_BASE,
            EMEM_BASE + DRAM_PAGE_WORDS - 1,
            EMEM_BASE + DRAM_PAGE_WORDS,
            MEM_WORDS - 1,
        ];
        for seed in 0..16 {
            let mut rng = Prng::from_label("memory-model", seed);
            let mut m = Memory::new();
            let mut flat = vec![Word::NIL; MEM_WORDS as usize];
            let mut dram_pages = [false; DRAM_PAGES];
            let mut sram_pages = [false; SRAM_PAGES];
            for step in 0..600 {
                if step % 25 == 0 {
                    assert_eq!(words(&m), flat_words(&flat), "step {step}");
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
                match addr.checked_sub(EMEM_BASE) {
                    None => sram_pages[(addr / SRAM_PAGE_WORDS) as usize] = true,
                    Some(off) => dram_pages[(off / DRAM_PAGE_WORDS) as usize] = true,
                }
                let sram = sram_pages.iter().filter(|&&w| w).count();
                let dram = dram_pages.iter().filter(|&&w| w).count();
                assert_eq!(m.allocated_pages(), (sram, dram), "after writing {addr}");
            }
            assert_eq!(words(&m), flat_words(&flat), "seed {seed}");
            assert_eq!(m.dump(0, MEM_WORDS), flat, "seed {seed}");
        }
    }
}
