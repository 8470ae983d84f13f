//! Table 2: local producer-consumer synchronization with and without
//! hardware presence tags, plus the thread save/restore costs.
//!
//! The four events, timestamped in-guest with the cycle counter:
//!
//! * **Success** — reading data that is ready: with tags a plain `MOVE`;
//!   without tags a flag test, branch, and read.
//! * **Failure** — attempting to read unavailable data: with tags the cost
//!   to detect and vector (fault entry); without tags the flag test and
//!   taken branch.
//! * **Write** — producing data: with tags a waiter check (`CHECK` on the
//!   `ctx` tag) plus the store; without tags the flag read, data store,
//!   and flag store.
//! * **Restart** — both schemes hand the woken thread its value for free
//!   (0 cycles beyond save/restore).
//!
//! Save/restore (the dominant cost of a failed synchronization) is
//! measured from the runtime futures library: the host splits a
//! park/resume run into its two phases and reads the Sync-class cycle
//! counters.

use crate::rows::Row;
use jm_asm::{Builder, Region};
use jm_isa::consts::FaultKind;
use jm_isa::instr::{AluOp, MsgPriority, StatClass};
use jm_isa::node::NodeId;
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::tag::Tag;
use jm_isa::word::Word;
use jm_machine::{Engine, JMachine, MachineConfig, MachineError, StartPolicy};
use jm_runtime::futures;

/// Measured Table 2 values, in cycles.
#[derive(Debug, Clone, Copy)]
pub struct SyncCosts {
    /// Ready read, with tags.
    pub success_tags: u64,
    /// Ready read, without tags.
    pub success_notags: u64,
    /// Unavailable read, with tags (detect + vector).
    pub failure_tags: u64,
    /// Unavailable read, without tags (test + taken branch).
    pub failure_notags: u64,
    /// Produce, with tags.
    pub write_tags: u64,
    /// Produce, without tags.
    pub write_notags: u64,
    /// Thread save cost (fault entry to suspension).
    pub save: u64,
    /// Thread restore cost (resume message to re-execution).
    pub restore: u64,
}

// Slot block: [0] ready value, [1] flag, [2] flagged data, [3] write-tags
// target, [4] cfut slot, [5] zero flag. Results in "t2_r"[0..6].

fn sequences_program() -> jm_asm::Program {
    let mut b = Builder::new();
    b.data(
        "t2_s",
        Region::Imem,
        vec![
            Word::int(7),
            Word::int(1),
            Word::int(7),
            Word::cfut(),
            Word::cfut(),
            Word::int(0),
        ],
    );
    b.data("t2_r", Region::Imem, vec![Word::int(0); 6]);

    let stamp = |b: &mut Builder, slot: u32| {
        b.mov(R3, Special::Cycle);
        b.alu(AluOp::Sub, R3, R3, R2);
        b.subi(R3, R3, 1);
        b.mov(MemRef::disp(A2, slot), R3);
    };

    b.label("main");
    b.load_seg(A1, "t2_s");
    b.load_seg(A2, "t2_r");

    // Success, tags: one MOVE.
    b.mov(R2, Special::Cycle);
    b.mov(R1, MemRef::disp(A1, 0));
    stamp(&mut b, 0);

    // Success, no tags: test flag, branch (not taken), read.
    b.mov(R2, Special::Cycle);
    b.mov(R1, MemRef::disp(A1, 1));
    b.bz(R1, "dead");
    b.mov(R1, MemRef::disp(A1, 2));
    stamp(&mut b, 1);

    // Failure, tags: the cfut read vectors; the handler stamps.
    b.mov(R2, Special::Cycle);
    b.mov(R1, MemRef::disp(A1, 4)); // faults; resumes here afterwards

    // Failure, no tags: test zero flag, taken branch.
    b.mov(R2, Special::Cycle);
    b.mov(R1, MemRef::disp(A1, 5));
    b.bz(R1, "nf_fail");
    b.label("nf_cont");

    // Write, tags: waiter check + store.
    b.mov(R2, Special::Cycle);
    b.check(R1, MemRef::disp(A1, 3), Tag::Ctx);
    b.bt(R1, "dead");
    b.mov(MemRef::disp(A1, 3), 5);
    stamp(&mut b, 4);

    // Write, no tags: read flag, store data, store flag.
    b.mov(R2, Special::Cycle);
    b.mov(R1, MemRef::disp(A1, 1));
    b.mov(MemRef::disp(A1, 2), 5);
    b.mov(MemRef::disp(A1, 1), 1);
    stamp(&mut b, 5);
    b.halt();

    b.label("nf_fail");
    stamp(&mut b, 3);
    b.br("nf_cont");

    // cfut fault handler: stamp, fill the slot, resume (re-executes the
    // read, which now succeeds).
    b.label("t2_cfut");
    stamp(&mut b, 2);
    b.mov(MemRef::disp(A1, 4), 9);
    b.resume();

    b.label("dead");
    b.halt();

    b.entry("main");
    b.assemble().expect("table2 assembles")
}

/// Park/resume scenario for save/restore measurement.
fn park_program() -> jm_asm::Program {
    let mut b = Builder::new();
    b.data("slot", Region::Imem, vec![Word::cfut()]);
    b.reserve("out", Region::Imem, 1);
    b.label("consumer");
    b.load_seg(A2, "slot");
    b.mov(R1, MemRef::disp(A2, 0));
    b.load_seg(A2, "out");
    b.mov(MemRef::disp(A2, 0), R1);
    b.suspend();
    b.label("producer");
    b.load_seg(A1, "slot");
    b.movi(R0, 17);
    b.call(futures::SYNC_WRITE);
    b.suspend();
    futures::install(&mut b, 4);
    b.assemble().expect("park assembles")
}

/// Measures Table 2.
///
/// # Errors
///
/// Propagates machine failures.
pub fn measure(engine: Engine) -> Result<SyncCosts, MachineError> {
    let config = MachineConfig::new(1).engine(engine);
    // Phase A: the six short sequences.
    let p = sequences_program();
    let results = p.segment("t2_r");
    let mut m = JMachine::new(p, config.start(StartPolicy::AllNodes));
    m.install_vector(NodeId(0), FaultKind::CFutRead, "t2_cfut");
    m.run_until_quiescent(100_000)?;
    let r = |i: u32| m.read_word(NodeId(0), results.base + i).as_i32() as u64;

    // Phase B: full park / resume through the futures runtime.
    let p = park_program();
    let mut m = JMachine::new(p, config.start(StartPolicy::None));
    m.install_vector_all(FaultKind::CFutRead, futures::CFUT_HANDLER);
    m.deliver_message(NodeId(0), MsgPriority::P0, "consumer", &[]);
    m.run(400); // consumer faults and parks
    let save = m.stats().nodes.class_cycles(StatClass::Sync);
    m.deliver_message(NodeId(0), MsgPriority::P0, "producer", &[]);
    m.run_until_quiescent(100_000)?;
    let total_sync = m.stats().nodes.class_cycles(StatClass::Sync);

    Ok(SyncCosts {
        success_tags: r(0),
        success_notags: r(1),
        failure_tags: r(2),
        failure_notags: r(3),
        write_tags: r(4),
        write_notags: r(5),
        save,
        restore: total_sync - save,
    })
}

/// Table 2 as rows: `table2/<event>` with and without tags, and the
/// thread `save` / `restore` costs under `table2/thread`. (Restart is free
/// under both schemes by construction, so it has no measured row.)
pub fn rows(c: &SyncCosts) -> Vec<Row> {
    [
        ("table2/Success", "tags", c.success_tags),
        ("table2/Success", "no tags", c.success_notags),
        ("table2/Failure", "tags", c.failure_tags),
        ("table2/Failure", "no tags", c.failure_notags),
        ("table2/Write", "tags", c.write_tags),
        ("table2/Write", "no tags", c.write_notags),
        ("table2/thread/save", "cycles", c.save),
        ("table2/thread/restore", "cycles", c.restore),
    ]
    .map(|(line, metric, cycles)| Row::simulated(line, metric, cycles as f64, "cycles"))
    .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_beat_flags_and_costs_are_small() {
        let c = measure(Engine::Event).unwrap();
        assert!(c.success_tags < c.success_notags);
        assert!(c.write_tags < c.write_notags);
        // A failed read with tags is a fault entry, yet still costs less
        // than the context save it leads to; restoring is no cheaper than
        // the produce that triggers it.
        assert!(c.success_tags < c.failure_tags && c.failure_tags < c.save);
        assert!(c.write_tags < c.restore);
    }
}
