//! Whole-log mutation: a replay log is input from outside the program, so
//! no byte string may make the reader or the replayer panic, or make the
//! reader allocate out of proportion to what it was given.
//!
//! One small recorded log (a ping-pong with a vector install, a host
//! delivery and a memory poke, so every op kind is present) is mutated
//! every way a single fault can: each bit flipped, and cut at each offset.
//! The hand-picked damage cases ride the same loop with the error they must
//! produce. Every mutant must parse to `Ok` or `Err`; every one that parses
//! must build under [`MachineFactory`] and take all its ops; and one whose
//! cycle costs differ from the recorded ones must also run, since those are
//! added to the clock on every step and the test profile checks overflow.

use jm_asm::{hdr, Builder, Region};
use jm_isa::consts::FaultKind;
use jm_isa::instr::{AluOp, MsgPriority};
use jm_isa::node::{MeshDims, NodeId};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::tag::Tag;
use jm_isa::word::Word;
use jm_machine::{JMachine, MachineConfig, MachineFactory};
use jm_replay::{Record, ReplayLog, MAGIC};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Largest single allocation requested since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, recording the size of every request.
struct Watch;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is an atomic store
// of the requested size, which touches no allocator state.
unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watch = Watch;

/// Node 0 ping-pongs a counter with node 1 four times; `poke` is a handler
/// only the host delivers to.
fn recorded_log() -> ReplayLog {
    const P0: MsgPriority = MsgPriority::P0;
    let mut b = Builder::new();
    b.reserve("out", Region::Imem, 2);
    b.label("main");
    b.movi(R0, 1); // route word of (1,0,0)
    b.wtag(R0, R0, Tag::Route.bits() as i32);
    b.send(P0, R0);
    b.send2(P0, hdr("pong", 3), 0);
    b.sende(P0, Special::Nnr);
    b.suspend();
    b.label("pong");
    b.mov(R0, MemRef::disp(A3, 1));
    b.addi(R0, R0, 1);
    b.send(P0, MemRef::disp(A3, 2));
    b.send2e(P0, hdr("ping", 2), R0);
    b.suspend();
    b.label("ping");
    b.mov(R0, MemRef::disp(A3, 1));
    b.alu(AluOp::Lt, R1, R0, 4);
    b.bf(R1, "poke");
    b.movi(R2, 1);
    b.wtag(R2, R2, Tag::Route.bits() as i32);
    b.send(P0, R2);
    b.send2(P0, hdr("pong", 3), R0);
    b.sende(P0, Special::Nnr);
    b.suspend();
    b.label("poke");
    b.mov(R0, MemRef::disp(A3, 1));
    b.load_seg(A0, "out");
    b.mov(MemRef::disp(A0, 0), R0);
    b.suspend();
    b.entry("main");
    let config = MachineConfig::with_dims(MeshDims::new(2, 1, 1));
    let mut m = JMachine::new(b.assemble().unwrap(), config);
    m.record_replay(32);
    m.install_vector_all(FaultKind::CFutRead, "poke");
    m.install_vector(NodeId(1), FaultKind::FutUse, "poke");
    m.deliver_message(NodeId(1), P0, "poke", &[Word::int(9)]);
    m.run_until_quiescent(10_000).unwrap();
    m.write_word(NodeId(1), 0x200, Word::int(77));
    m.run(40);
    m.finish_replay().unwrap()
}

#[test]
fn every_mutant_of_a_log_errors_or_replays() {
    let log = recorded_log();
    let ops = |log: &ReplayLog| {
        let is_op = |r: &&Record| matches!(r, Record::Op { .. });
        log.records.iter().filter(is_op).count()
    };
    assert_eq!(ops(&log), 4, "the log exercises every op kind");
    assert!(log.checkpoints() > 2, "and several checkpoints");
    let bytes = log.to_bytes();

    // (what was done to the log, the bytes, the error it must produce).
    let mut mutants: Vec<(String, Vec<u8>, Option<&str>)> = Vec::new();
    mutants.push(("untouched".into(), bytes.clone(), None));
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut m = bytes.clone();
            m[at] ^= 1 << bit;
            mutants.push((format!("bit {bit} of byte {at} flipped"), m, None));
        }
        mutants.push((format!("cut to {at} bytes"), bytes[..at].to_vec(), None));
    }
    mutants.push(("not a log".into(), b"not a log".to_vec(), Some("magic")));
    // A previous-format log stops at the magic check, not in a misparse.
    let mut old = bytes.clone();
    old[4] = b'3';
    mutants.push(("previous format".into(), old, Some("bad magic")));
    // A corrupted mesh extent (the three bytes after the magic) is a parse
    // error, not a panic in `MeshDims`.
    for (offset, extent) in [(0, 0), (1, 32), (2, 255)] {
        let mut bad = bytes.clone();
        bad[MAGIC.len() + offset] = extent;
        let what = format!("extent {offset} set to {extent}");
        mutants.push((what, bad, Some("mesh dimensions")));
    }
    // A data block whose end overflows the address type.
    let mut wrapped = log.clone();
    wrapped.program.data[0].base = u32::MAX - 1;
    mutants.push((
        "data block past 4G".into(),
        wrapped.to_bytes(),
        Some("program image"),
    ));
    // Cycle costs that would overflow the clock they are added to.
    let mut slow = log.clone();
    slow.config.mdp.timing.div = u64::MAX;
    mutants.push(("endless divide".into(), slow.to_bytes(), Some("timing.div")));
    let mut stuck = log.clone();
    stuck.config.net.inject_latency = 1 << 40;
    let what = "2^40-cycle injection".into();
    mutants.push((what, stuck.to_bytes(), Some("inject_latency")));
    // A discriminant byte past its enum: the start policy and engine of the
    // header, the vector kind and priority of a host op.
    let record_offset = |index: usize| {
        let mut head = log.clone();
        head.records.truncate(index);
        head.to_bytes().len()
    };
    let third = &log.records[2];
    assert!(matches!(
        third,
        Record::Op {
            op: jm_replay::HostOp::Deliver { .. },
            ..
        }
    ));
    for (what, at, byte, names) in [
        ("start policy", MAGIC.len() + 3, 3, "bad start policy 3"),
        ("engine", MAGIC.len() + 4, 3, "bad engine 3"),
        // The log opens with the all-node install, the one-node install
        // and the delivery. An op is its tag, its cycle, then (all-node
        // install) the kind or (delivery) the node id and the priority.
        (
            "vector kind",
            record_offset(0) + 9,
            255,
            "bad vector kind 255",
        ),
        ("priority", record_offset(2) + 13, 2, "bad priority 2"),
    ] {
        let mut bad = bytes.clone();
        bad[at] = byte;
        mutants.push((format!("{what} set to {byte}"), bad, Some(names)));
    }
    // A count no log of this size could hold.
    let code_count = program_offset(&log);
    let mut huge = bytes.clone();
    huge[code_count..code_count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    mutants.push(("4G instructions".into(), huge, Some("bytes remain")));

    let costs = |log: &ReplayLog| (log.config.mdp.timing, log.config.net.inject_latency);
    let (mut parsed, mut applied, mut ran) = (0, 0, 0);
    for (what, mutant, must_fail_with) in &mutants {
        LARGEST.store(0, Relaxed);
        let result = ReplayLog::from_bytes(mutant);
        let largest = LARGEST.load(Relaxed);
        assert!(
            largest <= 16 * mutant.len() + 4096,
            "{what}: reading {} bytes allocated {largest} at once",
            mutant.len()
        );
        match (result, must_fail_with) {
            (Err(e), Some(why)) => assert!(e.to_string().contains(why), "{what}: {e}"),
            (Ok(_), Some(why)) => panic!("{what}: parsed, expected an error about {why}"),
            (Err(_), None) => {}
            (Ok(mutant), None) => {
                parsed += 1;
                let mut m = MachineFactory::recorded().build(&mutant);
                for r in &mutant.records {
                    if let Record::Op { op, .. } = r {
                        m.apply_op(op);
                        applied += 1;
                    }
                }
                if costs(&mutant) != costs(&log) {
                    m.run(300);
                    ran += 1;
                }
            }
        }
    }
    // The loop is not vacuous: hash and cycle bytes flip freely, and a cut
    // at a record boundary is a shorter log.
    assert!(parsed > mutants.len() / 10, "{parsed} of {}", mutants.len());
    assert!(applied > parsed, "{applied} ops over {parsed} logs");
    // Sixteen cost fields, the low 21 bits of each under the bound.
    assert!(ran >= 16 * 20, "{ran} mutants with other cycle costs ran");
}

/// Byte offset of the program section, whose first field is the
/// instruction count. The format has no offsets table, but everything
/// before the section is fixed by the config, fault and traffic specs, so a
/// copy with an empty program and no records ends right after it.
fn program_offset(log: &ReplayLog) -> usize {
    let mut head = log.clone();
    head.program = jm_asm::Program::default();
    head.records.clear();
    // Empty program: code count, code base, code words, block count, symbol
    // count (4 bytes each) and the entry flag.
    head.to_bytes().len() - (4 * 5 + 1)
}
