//! Running a thread on past its visit: the checkpoint that makes a
//! stretch exact.
//!
//! A thread is visible outside its node only when it commits a `SEND…E`,
//! ends, reads a queue word that has not arrived, or is preempted at an
//! instruction boundary by a higher-priority message, which dispatches on
//! header arrival (§2.1). Everything in between is node-private, so an
//! engine that gives [`MdpNode::advance`] room lets the thread keep
//! retiring instructions that start before the room's end — a *stretch* —
//! and [`crate::exec`] stops it before any instruction that is not
//! private. The one thing a stretch cannot see coming is a delivery into a
//! higher-priority queue at a cycle inside it. It is not predicted: the
//! stretch keeps one checkpoint (the running bank, the counters it bumps,
//! the compose length and class, and an undo log of the memory words it
//! overwrote), and [`MdpNode::deliver_traced`] — or the machine's drive,
//! stopping on another node's error — rewinds to the cycle in question and
//! re-executes the instructions that started before it.

use crate::node::MdpNode;
use jm_isa::instr::StatClass;
use jm_isa::reg::{Priority, RegBank};
use jm_isa::word::Word;

/// Host-side counters of stretched execution: how much work ran on past
/// the visits that started it, and how much of it was done twice. They
/// describe the simulator, not the machine, so they stay outside
/// [`NodeStats`](crate::NodeStats), its `PartialEq` and every digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StretchStats {
    /// Visits that ran on past their first instruction.
    pub stretches: u64,
    /// Instructions retired inside stretches and standing (a rewind takes
    /// back the ones it undoes): of a node's retired instructions, those a
    /// visit of its own did not pay for.
    pub retired: u64,
    /// Stretches rewound because a delivery or a drive's stop landed inside.
    pub rewinds: u64,
    /// Instructions retired a second time after a rewind.
    pub reexecuted: u64,
}

impl StretchStats {
    /// Adds another node's counters.
    pub fn merge(&mut self, other: &StretchStats) {
        self.stretches += other.stretches;
        self.retired += other.retired;
        self.rewinds += other.rewinds;
        self.reexecuted += other.reexecuted;
    }
}

/// The running stretch's checkpoint: the thread's state where the stretch
/// began, after its visit's first instruction. Boxed, so that none of it
/// shares a cache line with what a visit touches.
#[derive(Debug, Default)]
pub(crate) struct Stretch {
    /// The stretching thread.
    pub(crate) priority: Priority,
    bank: RegBank,
    class: StatClass,
    compose_len: usize,
    /// Start cycle of the stretch's first instruction.
    from: u64,
    cycles: [u64; 7],
    instructions: u64,
    sends: u64,
    handler_instructions: u64,
    /// Memory words the stretch overwrote, as `(address, old word)`.
    pub(crate) undo: Vec<(u32, Word)>,
    pub(crate) stats: StretchStats,
}

impl MdpNode {
    /// Checkpoints `priority`'s thread at `busy_until`, where its stretch
    /// begins, and where its attribution class was `class` (before any
    /// `MARK` the stretch's first instruction follows).
    pub(crate) fn checkpoint(&mut self, priority: Priority, class: StatClass) {
        let pi = priority.index();
        let s = &mut *self.stretch;
        s.priority = priority;
        s.bank.clone_from(self.regs.bank(priority));
        s.class = class;
        s.compose_len = self.compose[pi].len();
        s.from = self.busy_until;
        s.cycles = self.stats.cycles;
        s.instructions = self.stats.instructions;
        s.sends = self.stats.sends;
        s.handler_instructions = self
            .stats
            .handlers
            .slot_mut(self.handler_slot[pi])
            .instructions;
        s.undo.clear();
    }

    /// Rewinds the stretch to cycle `to`, inside it: back to the
    /// checkpoint, then forward through the instructions that started
    /// before `to` — the ones a node ticked every cycle has retired when
    /// something lands at `to`. What they read is unchanged (only their own
    /// writes, undone here, and words arriving in queues, which a stretch
    /// never reads before they arrive), so they retire as they did.
    pub(crate) fn rewind(&mut self, to: u64) {
        let s = &mut *self.stretch;
        let (priority, pi) = (s.priority, s.priority.index());
        let undone = self.stats.instructions - s.instructions;
        for &(addr, old) in s.undo.iter().rev() {
            self.mem.write(addr, old);
        }
        self.regs.bank_mut(priority).clone_from(&s.bank);
        self.class[pi] = s.class;
        self.compose[pi].truncate(s.compose_len);
        self.busy_until = s.from;
        self.stats.cycles = s.cycles;
        self.stats.instructions = s.instructions;
        self.stats.sends = s.sends;
        self.stats
            .handlers
            .slot_mut(self.handler_slot[pi])
            .instructions = s.handler_instructions;
        let redone = self.run_on(priority, to);
        let counts = &mut self.stretch.stats;
        counts.rewinds += 1;
        counts.retired = counts.retired + redone - undone;
        counts.reexecuted += redone;
    }

    /// Settles the node at cycle `at`, where a drive stops: a stretch that
    /// retired instructions starting at `at` or later is rewound to `at`.
    /// Returns whether it was (the node's `busy_until` moved back). Only
    /// a stop no stretch was bounded by — another node's error — needs it.
    pub fn settle(&mut self, at: u64) -> bool {
        let inside = at < self.spec_end;
        if inside {
            self.rewind(at);
        }
        inside
    }

    /// The node's host-side stretch counters.
    pub fn stretch_stats(&self) -> StretchStats {
        self.stretch.stats
    }
}
