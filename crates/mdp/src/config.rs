//! Node configuration: the timing model's costs and the memory map's
//! windows, constants of the chip, and the one per-node switch.

/// Virtual base addresses of the two message-queue windows (priority 0 and
/// priority 1). A dispatched handler's `A3` descriptor points into this
/// window; reads resolve into the queue ring buffer.
pub const QUEUE_VBASE: [u32; 2] = [0x8_0000, 0xC_0000];

/// Virtual base address of the register staging buffers, one 16-word frame
/// per priority bank (background, P0, P1). On any fault the hardware copies
/// the faulting bank here (R0–R3 at +0..4, A0–A3 at +4..8, IP at +8);
/// runtime handlers read it to save a context and write it back before
/// `RESUME`.
pub const STAGING_VBASE: u32 = 0xF_0000;

/// Words per staging frame.
pub const STAGING_FRAME: u32 = 16;

// Per-instruction timing, in cycles: facts of the chip, reproducing
// §2.1/§3/§4 of the paper; see `DESIGN.md` §6 for the calibration table.

/// Base cost of any instruction.
pub(crate) const BASE: u64 = 1;
/// Extra cycles for an operand (read or write) in internal SRAM
/// ("two cycles if one operand is in internal memory").
pub(crate) const IMEM_OPERAND: u64 = 1;
/// Extra cycles for an operand in external DRAM (6-cycle latency).
pub(crate) const EMEM_OPERAND: u64 = 5;
/// Extra cycles for an operand in the message-queue window (the queue
/// has a direct path to the datapath; a queue read costs the base cycle
/// only, making "relocate to Imem" cost 3 cycles as in §4.3.2).
pub(crate) const QUEUE_OPERAND: u64 = 0;
/// Extra cycles per instruction when fetching code from external memory
/// (two instructions per word; drops execution below 2 MIPS as in §2.1).
pub(crate) const EMEM_FETCH: u64 = 3;
/// Extra cycles for a large (extension-word) immediate.
pub(crate) const IMM_EXT: u64 = 1;
/// Extra cycles on a taken branch (prefetch refill).
pub(crate) const BRANCH_TAKEN: u64 = 1;
/// Extra cycles for `JMP`/`JAL`.
pub(crate) const JUMP: u64 = 1;
/// Extra cycles for multiply.
pub(crate) const MUL: u64 = 1;
/// Extra cycles for divide/remainder.
pub(crate) const DIV: u64 = 9;
/// Hardware task-dispatch cost ("a task is dispatched … in four
/// processor cycles").
pub(crate) const DISPATCH: u64 = 4;
/// Fault-entry cost (staging save + vector fetch).
pub(crate) const FAULT_ENTRY: u64 = 4;
/// Total cost of a successful `XLATE`/`PROBE` (3 cycles, §2.1);
/// expressed as extra over `BASE`.
pub(crate) const XLATE_EXTRA: u64 = 2;
/// Extra cost of `ENTER`.
pub(crate) const ENTER_EXTRA: u64 = 3;
/// Extra cost of `RESUME`.
pub(crate) const RESUME_EXTRA: u64 = 2;

// The paper's figures (§2.1, §4.3.2). Register to register: 1 cycle; one
// internal-memory operand: 2; an external one: 6.
const _: () = assert!(BASE == 1 && BASE + IMEM_OPERAND == 2 && BASE + EMEM_OPERAND == 6);
// Queue word relocation to internal memory: read (1) + write (2) = 3.
const _: () = assert!(BASE + QUEUE_OPERAND + BASE + IMEM_OPERAND == 3);
// Dispatch: 4 cycles; `XLATE`: 3.
const _: () = assert!(DISPATCH == 4 && BASE + XLATE_EXTRA == 3);

/// Full node configuration. The node's costs are the constants above; its
/// sizes — its two queues and its name table — are the constants
/// `QUEUE0_WORDS`, `QUEUE1_WORDS` and `XLATE_SETS`/`XLATE_WAYS` of
/// [`jm_isa::consts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MdpConfig {
    /// Checksummed-message mode (fault-injection runs): every message
    /// carries one extra trailer word — an FNV-1a fold of its header and
    /// payload — appended at injection and validated at dispatch. A
    /// mismatch drops the message and counts a
    /// [`jm_isa::consts::FaultKind::CorruptMessage`] instead of letting a
    /// handler run on damaged arguments. Off by default: fault-free runs
    /// carry no trailer and take the unchecked dispatch path. Under a
    /// `JMachine`, `try_new` derives it from the fault spec and replaces
    /// any value set here.
    pub checksum_msgs: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_fit_segment_descriptors() {
        use jm_isa::word::SegDesc;
        for base in QUEUE_VBASE {
            assert!(base <= SegDesc::MAX_BASE);
        }
        const _: () = assert!(STAGING_VBASE + 3 * STAGING_FRAME <= SegDesc::MAX_BASE);
    }
}
