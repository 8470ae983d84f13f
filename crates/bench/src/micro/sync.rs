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

use crate::registry::{Ctx, Point};
use crate::rows::Row;
use jm_asm::{Builder, Region};
use jm_isa::consts::FaultKind;
use jm_isa::instr::{AluOp, MsgPriority, StatClass};
use jm_isa::node::NodeId;
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::tag::Tag;
use jm_isa::word::Word;
use jm_machine::{MachineConfig, MachineError, StartPolicy};
use jm_runtime::futures;

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

/// A Table 2 row: `cycles` of one event or thread phase.
fn row(line: &str, metric: &str, cycles: u64) -> Row {
    Row::simulated(line, metric, cycles as f64, "cycles")
}

/// The six short sequences, timestamped in-guest: `table2/<event>` with and
/// without tags.
fn sequences() -> Point {
    let p = sequences_program();
    let results = p.segment("t2_r");
    let config = MachineConfig::new(1).start(StartPolicy::AllNodes);
    Point::new(p, config, move |m| {
        m.install_vector(NodeId(0), FaultKind::CFutRead, "t2_cfut");
        m.run_until_quiescent(100_000)?;
        let events = ["Success", "Failure", "Write"].map(|e| format!("table2/{e}"));
        let slots = events.iter().flat_map(|e| [(e, "tags"), (e, "no tags")]);
        let cycles = |i| m.read_word(NodeId(0), results.base + i).as_i32() as u64;
        Ok((slots.zip(0..))
            .map(|((e, metric), i)| row(e, metric, cycles(i)))
            .collect())
    })
}

/// A full park / resume through the futures runtime, split into its two
/// phases by the Sync-class cycle counters: `table2/thread/save` and
/// `table2/thread/restore`.
fn park() -> Point {
    let config = MachineConfig::new(1).start(StartPolicy::None);
    Point::new(park_program(), config, |m| {
        m.install_vector_all(FaultKind::CFutRead, futures::CFUT_HANDLER);
        m.deliver_message(NodeId(0), MsgPriority::P0, "consumer", &[]);
        m.run(400); // consumer faults and parks
        let save = m.stats().nodes.class_cycles(StatClass::Sync);
        m.deliver_message(NodeId(0), MsgPriority::P0, "producer", &[]);
        m.run_until_quiescent(100_000)?;
        let restore = m.stats().nodes.class_cycles(StatClass::Sync) - save;
        Ok(vec![
            row("table2/thread/save", "cycles", save),
            row("table2/thread/restore", "cycles", restore),
        ])
    })
}

/// Table 2 as rows: `table2/<event>` with and without tags, and the
/// thread `save` / `restore` costs under `table2/thread`. (Restart is free
/// under both schemes by construction, so it has no measured row.)
///
/// # Errors
///
/// Propagates machine failures.
pub fn table2(ctx: &mut Ctx, _: u32) -> Result<Vec<Row>, MachineError> {
    Ok(ctx.run_all(vec![sequences(), park()])?.concat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_machine::Engine;

    #[test]
    fn tags_beat_flags_and_costs_are_small() {
        let rows = table2(&mut Ctx::new(Engine::Event, false, 7), 0).unwrap();
        let c = |line: &str, metric| crate::rows::value(&rows, line, metric).unwrap();
        let tags = |event: &str| c(&format!("table2/{event}"), "tags");
        let no_tags = |event: &str| c(&format!("table2/{event}"), "no tags");
        let thread = |phase: &str| c(&format!("table2/thread/{phase}"), "cycles");
        assert!(tags("Success") < no_tags("Success"));
        assert!(tags("Write") < no_tags("Write"));
        // A failed read with tags is a fault entry, yet still costs less
        // than the context save it leads to; restoring is no cheaper than
        // the produce that triggers it.
        assert!(tags("Success") < tags("Failure") && tags("Failure") < thread("save"));
        assert!(tags("Write") < thread("restore"));
    }
}
