//! Node configuration: timing model and microarchitectural parameters.

use jm_isa::consts::MAX_CYCLE_COST;

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

/// Per-instruction timing, in cycles. Values reproduce §2.1/§3/§4 of the
/// paper; see `DESIGN.md` for the calibration table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// Base cost of any instruction.
    pub base: u64,
    /// Extra cycles for an operand (read or write) in internal SRAM
    /// ("two cycles if one operand is in internal memory").
    pub imem_operand: u64,
    /// Extra cycles for an operand in external DRAM (6-cycle latency).
    pub emem_operand: u64,
    /// Extra cycles for an operand in the message-queue window (the queue
    /// has a direct path to the datapath; a queue read costs the base cycle
    /// only, making "relocate to Imem" cost 3 cycles as in §4.3.2).
    pub queue_operand: u64,
    /// Extra cycles per instruction when fetching code from external memory
    /// (two instructions per word; drops execution below 2 MIPS as in §2.1).
    pub emem_fetch: u64,
    /// Extra cycles for a large (extension-word) immediate.
    pub imm_ext: u64,
    /// Extra cycles on a taken branch (prefetch refill).
    pub branch_taken: u64,
    /// Extra cycles for `JMP`/`JAL`.
    pub jump: u64,
    /// Extra cycles for multiply.
    pub mul: u64,
    /// Extra cycles for divide/remainder.
    pub div: u64,
    /// Hardware task-dispatch cost ("a task is dispatched … in four
    /// processor cycles").
    pub dispatch: u64,
    /// Fault-entry cost (staging save + vector fetch).
    pub fault_entry: u64,
    /// Total cost of a successful `XLATE`/`PROBE` (3 cycles, §2.1);
    /// expressed as extra over `base`.
    pub xlate_extra: u64,
    /// Extra cost of `ENTER`.
    pub enter_extra: u64,
    /// Extra cost of `RESUME`.
    pub resume_extra: u64,
}

impl Default for TimingConfig {
    fn default() -> TimingConfig {
        TimingConfig {
            base: 1,
            imem_operand: 1,
            emem_operand: 5,
            queue_operand: 0,
            emem_fetch: 3,
            imm_ext: 1,
            branch_taken: 1,
            jump: 1,
            mul: 1,
            div: 9,
            dispatch: 4,
            fault_entry: 4,
            xlate_extra: 2,
            enter_extra: 3,
            resume_extra: 2,
        }
    }
}

impl TimingConfig {
    /// Whether every cost is one the clock can be charged
    /// ([`MAX_CYCLE_COST`]).
    ///
    /// # Errors
    ///
    /// The name of the first field over the ceiling.
    pub fn validate(&self) -> Result<(), &'static str> {
        macro_rules! ceiling {
            ($($field:ident),*) => {$(
                if self.$field > MAX_CYCLE_COST {
                    return Err(concat!(
                        "mdp.timing.",
                        stringify!($field),
                        " is over MAX_CYCLE_COST"
                    ));
                }
            )*};
        }
        ceiling!(
            base,
            imem_operand,
            emem_operand,
            queue_operand,
            emem_fetch,
            imm_ext,
            branch_taken,
            jump,
            mul,
            div,
            dispatch,
            fault_entry,
            xlate_extra,
            enter_extra,
            resume_extra
        );
        Ok(())
    }
}

/// Full node configuration. The node's sizes — its two queues and its
/// name cache — are the constants `QUEUE0_WORDS`, `QUEUE1_WORDS` and
/// `XLATE_ENTRIES` of [`jm_isa::consts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MdpConfig {
    /// Timing model.
    pub timing: TimingConfig,
    /// Checksummed-message mode (fault-injection runs): every message
    /// carries one extra trailer word — an FNV-1a fold of its header and
    /// payload — appended at injection and validated at dispatch. A
    /// mismatch drops the message and counts a
    /// [`jm_isa::consts::FaultKind::CorruptMessage`] instead of letting a
    /// handler run on damaged arguments. Off by default: fault-free runs
    /// carry no trailer and take the unchecked dispatch path.
    pub checksum_msgs: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_figures() {
        let t = TimingConfig::default();
        // Register-register: 1 cycle; one Imem operand: 2 cycles.
        assert_eq!(t.base, 1);
        assert_eq!(t.base + t.imem_operand, 2);
        // Emem operand: 6 cycles total.
        assert_eq!(t.base + t.emem_operand, 6);
        // Queue word relocation to Imem: read (1) + write (2) = 3 (§4.3.2).
        assert_eq!(t.base + t.queue_operand + t.base + t.imem_operand, 3);
        // Dispatch: 4 cycles; xlate: 3 cycles.
        assert_eq!(t.dispatch, 4);
        assert_eq!(t.base + t.xlate_extra, 3);
    }

    #[test]
    fn windows_fit_segment_descriptors() {
        use jm_isa::word::SegDesc;
        for base in QUEUE_VBASE {
            assert!(base <= SegDesc::MAX_BASE);
        }
        const _: () = assert!(STAGING_VBASE + 3 * STAGING_FRAME <= SegDesc::MAX_BASE);
    }
}
