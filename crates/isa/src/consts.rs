//! Architectural constants: the memory map and machine parameters from the
//! paper, plus the fault repertoire.

use std::fmt;

/// Processor clock, Hz. The prototype runs at 12.5 MHz (§2.2).
pub const CLOCK_HZ: u64 = 12_500_000;

/// Words of on-chip SRAM (4K × 36 bits, §1).
pub const IMEM_WORDS: u32 = 4096;

/// Words of external DRAM (1 MByte per node, §1). 3 chips of 1M×4 hold
/// 256K 32-bit data words (the extra bits hold ECC on the real machine).
pub const EMEM_WORDS: u32 = 262_144;

/// First word address of external memory; internal memory occupies
/// `0..EMEM_BASE`.
pub const EMEM_BASE: u32 = IMEM_WORDS;

/// Total addressable words per node.
pub const MEM_WORDS: u32 = IMEM_WORDS + EMEM_WORDS;

/// Number of fault vectors at the base of internal memory.
pub const VECTOR_COUNT: u32 = 16;

/// Capacity of the priority-0 message queue, in words.
///
/// §4.3.3: the queue "can contain no more than 256 minimum-length messages
/// (four words)" = 1024 words, "and is configured for 128 of these messages
/// in Tuned-J" = 512 words. jmsim models the Tuned-J configuration.
pub const QUEUE0_WORDS: u32 = 512;

/// Capacity of the priority-1 message queue, in words.
pub const QUEUE1_WORDS: u32 = 256;

/// Sets of a node's name-translation table, the SRAM region behind
/// `ENTER`/`XLATE`/`PROBE`. A key's set is its payload modulo the set
/// count. An assumption: the paper gives the table's cost (§2.1), not its
/// geometry (DESIGN.md §6).
pub const XLATE_SETS: u32 = 128;

/// Ways per set of the name-translation table, each a (key, value) pair of
/// words.
pub const XLATE_WAYS: u32 = 2;

/// Words of the name-translation table.
pub const XLATE_WORDS: u32 = XLATE_SETS * XLATE_WAYS * 2;

/// First word of the name-translation table, which ends at the top of
/// SRAM: a program's code and SRAM data end here.
pub const XLATE_BASE: u32 = EMEM_BASE - XLATE_WORDS;

// Queues are carved out of node memory and hold at least one word. A key's
// set is its low payload bits, and the table leaves SRAM room above the
// vectors.
const _: () = assert!(QUEUE0_WORDS >= 1 && QUEUE0_WORDS <= MEM_WORDS);
const _: () = assert!(QUEUE1_WORDS >= 1 && QUEUE1_WORDS <= MEM_WORDS);
const _: () = assert!(XLATE_SETS.is_power_of_two() && XLATE_WAYS >= 1);
const _: () = assert!(XLATE_WORDS < IMEM_WORDS - VECTOR_COUNT);

/// Data bits per word that count toward transfer rates (32 of the 36).
pub const DATA_BITS_PER_WORD: u64 = 32;

/// Peak channel bandwidth in words per cycle (§2.1: 0.5 words/cycle).
pub const CHANNEL_WORDS_PER_CYCLE: f64 = 0.5;

/// Converts a cycle count to microseconds at the prototype clock.
pub fn cycles_to_us(cycles: u64) -> f64 {
    cycles as f64 * 1e6 / CLOCK_HZ as f64
}

/// The processor fault repertoire.
///
/// Each fault vectors through a dedicated `ip`-tagged word at the base of
/// internal memory (vector address = discriminant). Runtime software installs
/// the handlers at boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FaultKind {
    /// Operand read of a `cfut`-tagged word (consumer arrived early).
    CFutRead = 0,
    /// Computing use of a `fut`-tagged word.
    FutUse = 1,
    /// Operand tag unsuitable for the operation (e.g. arithmetic on `sym`).
    TagMismatch = 2,
    /// Segment bounds violation or non-`addr` word in an address register.
    Bounds = 3,
    /// Integer division by zero.
    DivZero = 4,
    /// `XLATE` key not present in the name table.
    XlateMiss = 5,
    /// Reserved: the MDP's fault for a message arriving at a full queue.
    /// Nothing raises it here — a full queue makes the network hold the
    /// message, which is offered again the next cycle — but its vector
    /// slot stays, since vector order is state and every later fault's
    /// vector would move.
    QueueOverflow = 6,
    /// Early suspension: `SUSPEND` with the message not fully arrived is
    /// fine, but reading beyond the end of the current message faults.
    MsgBounds = 7,
    /// An illegal or privileged instruction (e.g. `RESUME` outside a
    /// handler).
    Illegal = 8,
    /// The head of a message queue is not a `msg`-tagged header word —
    /// the queue pointers have desynchronized from the word stream. Unlike
    /// the other faults this one is not recoverable by a handler: the node
    /// halts with a machine-level error, and the vector slot exists only so
    /// the statistics hardware can count occurrences uniformly.
    QueueDesync = 9,
    /// A message failed its checksum validation at dispatch (fault-injection
    /// runs only; see `jm-fault`). The damaged message is dropped — counted
    /// loss instead of a silent wrong answer — and recovery is left to the
    /// runtime's idempotent resend protocol.
    CorruptMessage = 10,
}

impl FaultKind {
    /// All faults in vector order.
    pub const ALL: [FaultKind; 11] = [
        FaultKind::CFutRead,
        FaultKind::FutUse,
        FaultKind::TagMismatch,
        FaultKind::Bounds,
        FaultKind::DivZero,
        FaultKind::XlateMiss,
        FaultKind::QueueOverflow,
        FaultKind::MsgBounds,
        FaultKind::Illegal,
        FaultKind::QueueDesync,
        FaultKind::CorruptMessage,
    ];

    /// The word address of this fault's vector.
    #[inline]
    pub fn vector(self) -> u32 {
        self as u32
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultKind::CFutRead => "cfut-read",
            FaultKind::FutUse => "fut-use",
            FaultKind::TagMismatch => "tag-mismatch",
            FaultKind::Bounds => "bounds",
            FaultKind::DivZero => "div-zero",
            FaultKind::XlateMiss => "xlate-miss",
            FaultKind::QueueOverflow => "queue-overflow",
            FaultKind::MsgBounds => "msg-bounds",
            FaultKind::Illegal => "illegal",
            FaultKind::QueueDesync => "queue-desync",
            FaultKind::CorruptMessage => "corrupt-message",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_map_is_consistent() {
        assert_eq!(EMEM_BASE, IMEM_WORDS);
        assert_eq!(MEM_WORDS, IMEM_WORDS + EMEM_WORDS);
        assert!(VECTOR_COUNT as usize >= FaultKind::ALL.len());
        // 1 MByte of DRAM = 256K data words.
        assert_eq!(EMEM_WORDS * 4, 1 << 20);
        // The name table is the top eighth of SRAM.
        assert_eq!((XLATE_BASE, XLATE_WORDS), (3584, 512));
    }

    #[test]
    fn unit_conversions() {
        // 12.5 cycles = 1 microsecond at 12.5 MHz.
        assert!((cycles_to_us(125) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fault_vectors_are_dense_and_in_range() {
        for (i, fault) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(fault.vector() as usize, i);
            assert!(fault.vector() < VECTOR_COUNT);
        }
    }

    #[test]
    fn queue_defaults_match_tuned_j() {
        assert_eq!(QUEUE0_WORDS, 512);
        assert_eq!(QUEUE0_WORDS / 4, 128); // 128 minimum-length messages
    }
}
