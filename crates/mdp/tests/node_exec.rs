//! Behavioural tests of the MDP node: timing, dispatch, presence-tag
//! faults, queue streaming, send faults, and name translation.

use jm_asm::{hdr, seg, Builder, Program, Region};
use jm_isa::consts::FaultKind;
use jm_isa::instr::{AluOp, MsgPriority, StatClass};
use jm_isa::node::{MeshDims, NodeId};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::tag::Tag;
use jm_isa::word::{MsgHeader, Word};
use jm_isa::TraceId;
use jm_mdp::{InjectAck, MdpConfig, MdpNode, NetPort};
use std::sync::Arc;

/// A recording network port; optionally stalls the first `stall_count`
/// commit attempts.
#[derive(Default)]
struct MockNet {
    /// Flattened committed words with their priority and end-of-message
    /// marker, mirroring the old word-wise trace shape.
    words: Vec<(MsgPriority, Word, bool)>,
    stall_count: u32,
}

impl NetPort for MockNet {
    fn commit(&mut self, priority: MsgPriority, words: &[Word]) -> InjectAck {
        if self.stall_count > 0 {
            self.stall_count -= 1;
            return InjectAck::Stall;
        }
        for (i, &w) in words.iter().enumerate() {
            self.words.push((priority, w, i + 1 == words.len()));
        }
        InjectAck::Accepted
    }
}

fn node_for(program: Program) -> MdpNode {
    MdpNode::new(
        NodeId(0),
        MeshDims::new(2, 2, 2),
        Arc::new(program),
        MdpConfig::default(),
        true,
    )
}

/// A host delivery at cycle `now`: one untraced word into a queue.
fn deliver(node: &mut MdpNode, priority: MsgPriority, word: Word, now: u64) {
    assert!(node.deliver_traced(priority, word, TraceId::NONE, now));
}

/// Runs the node until it has no work or `max` cycles pass; returns the
/// cycle count at quiescence.
fn run(node: &mut MdpNode, net: &mut MockNet, max: u64) -> u64 {
    for now in 0..max {
        if let Some(err) = node.error() {
            panic!("node error at cycle {now}: {err}");
        }
        if !node.has_work() && now >= 1 {
            return now;
        }
        node.tick(now, net);
    }
    panic!("node did not quiesce in {max} cycles");
}

#[test]
fn background_arithmetic_and_store() {
    let mut b = Builder::new();
    b.reserve("out", Region::Imem, 2);
    b.label("main");
    b.movi(R0, 20);
    b.alu(AluOp::Mul, R0, R0, 2);
    b.addi(R0, R0, 2);
    b.load_seg(A0, "out");
    b.mov(MemRef::disp(A0, 0), R0);
    b.halt();
    b.entry("main");
    let p = b.assemble().unwrap();
    let out = p.segment("out");
    let mut node = node_for(p);
    let mut net = MockNet::default();
    run(&mut node, &mut net, 100);
    assert_eq!(node.read_mem(out.base).as_i32(), 42);
    assert!(node.is_halted());
}

#[test]
fn timing_matches_paper_model() {
    // MOVE reg,reg = 1 cycle; with an Imem operand = 2; with an Emem
    // operand = 6; dispatch = 4. Measure via stats.
    let mut b = Builder::new();
    b.reserve("fast", Region::Imem, 1);
    b.reserve("slow", Region::Emem, 1);
    b.label("main");
    b.mov(R0, R1); // 1
    b.load_seg(A0, "fast"); // imm ext: 1 + 1 = 2
    b.load_seg(A1, "slow"); // 2
    b.mov(R0, MemRef::disp(A0, 0)); // 2
    b.mov(R0, MemRef::disp(A1, 0)); // 6
    b.halt(); // 1
    b.entry("main");
    let p = b.assemble().unwrap();
    let mut node = node_for(p);
    let mut net = MockNet::default();
    run(&mut node, &mut net, 100);
    assert_eq!(node.stats().class_cycles(StatClass::Compute), 14);
    assert_eq!(node.stats().instructions, 6);
}

#[test]
fn message_dispatch_runs_handler() {
    let mut b = Builder::new();
    b.reserve("out", Region::Imem, 1);
    b.label("handler");
    b.mov(R0, MemRef::disp(A3, 1)); // first argument
    b.load_seg(A0, "out");
    b.mov(MemRef::disp(A0, 0), R0);
    b.suspend();
    let p = b.assemble().unwrap();
    let out = p.segment("out");
    let handler = p.handler("handler");
    let mut node = node_for(p);
    let mut net = MockNet::default();
    deliver(
        &mut node,
        MsgPriority::P0,
        MsgHeader::new(handler, 2).to_word(),
        0,
    );
    deliver(&mut node, MsgPriority::P0, Word::int(77), 0);
    run(&mut node, &mut net, 100);
    assert_eq!(node.read_mem(out.base).as_i32(), 77);
    assert_eq!(node.stats().threads, 1);
    assert_eq!(node.stats().msgs_received, 1);
    assert_eq!(node.stats().class_cycles(StatClass::Dispatch), 4);
    let hs = &node.stats().handlers[&handler];
    assert_eq!(hs.threads, 1);
    assert_eq!(hs.msg_words, 2);
}

#[test]
fn handler_stalls_until_argument_arrives() {
    let mut b = Builder::new();
    b.reserve("out", Region::Imem, 1);
    b.label("handler");
    b.mov(R0, MemRef::disp(A3, 1));
    b.load_seg(A0, "out");
    b.mov(MemRef::disp(A0, 0), R0);
    b.suspend();
    let p = b.assemble().unwrap();
    let out = p.segment("out");
    let handler = p.handler("handler");
    let mut node = node_for(p);
    let mut net = MockNet::default();
    deliver(
        &mut node,
        MsgPriority::P0,
        MsgHeader::new(handler, 2).to_word(),
        0,
    );
    // Argument arrives only at cycle 40.
    for now in 0..80 {
        if now == 40 {
            deliver(&mut node, MsgPriority::P0, Word::int(5), now);
        }
        node.tick(now, &mut net);
        assert!(node.error().is_none(), "{:?}", node.error());
    }
    assert_eq!(node.read_mem(out.base).as_i32(), 5);
    assert!(node.stats().arrival_stalls > 20);
}

#[test]
fn priority_one_preempts_priority_zero() {
    // A long-running P0 handler is interrupted by a P1 message; the P1
    // handler's store must land while the P0 handler still runs.
    let mut b = Builder::new();
    b.reserve("out", Region::Imem, 2);
    b.label("p0_handler");
    b.movi(R0, 200);
    b.label("loop");
    b.subi(R0, R0, 1);
    b.bnz(R0, "loop");
    b.load_seg(A0, "out");
    b.mov(MemRef::disp(A0, 0), R0);
    b.suspend();
    b.label("p1_handler");
    b.load_seg(A0, "out");
    b.mov(MemRef::disp(A0, 1), Word::int(1));
    b.suspend();
    let p = b.assemble().unwrap();
    let out = p.segment("out");
    let (h0, h1) = (p.handler("p0_handler"), p.handler("p1_handler"));
    let mut node = node_for(p);
    let mut net = MockNet::default();
    deliver(
        &mut node,
        MsgPriority::P0,
        MsgHeader::new(h0, 1).to_word(),
        0,
    );
    let mut p1_done_at = None;
    let mut p0_done_at = None;
    for now in 0..2000 {
        if now == 20 {
            deliver(
                &mut node,
                MsgPriority::P1,
                MsgHeader::new(h1, 1).to_word(),
                now,
            );
        }
        node.tick(now, &mut net);
        if p1_done_at.is_none() && node.read_mem(out.base + 1).as_i32() == 1 {
            p1_done_at = Some(now);
        }
        if p0_done_at.is_none() && node.read_mem(out.base).tag() == Tag::Int {
            p0_done_at = Some(now);
        }
    }
    let (p1_at, p0_at) = (
        p1_done_at.expect("p1 ran"),
        p0_done_at.expect("p0 finished"),
    );
    assert!(p1_at < p0_at, "P1 at {p1_at}, P0 at {p0_at}");
    assert!(p1_at < 60, "P1 was not prompt: {p1_at}");
}

#[test]
fn cfut_read_faults_and_resume_reexecutes() {
    // The handler writes the value into the slot and RESUMEs; the faulting
    // MOVE re-executes and succeeds.
    let mut b = Builder::new();
    b.data("slot", Region::Imem, vec![Word::cfut()]);
    b.reserve("out", Region::Imem, 1);
    b.label("main");
    b.load_seg(A0, "slot");
    b.mov(R1, MemRef::disp(A0, 0)); // faults: cfut
    b.load_seg(A1, "out");
    b.mov(MemRef::disp(A1, 0), R1);
    b.halt();
    // cfut fault handler: fill the slot, then resume.
    b.label("cfut_handler");
    b.load_seg(A0, "slot");
    b.mov(MemRef::disp(A0, 0), Word::int(99));
    b.resume();
    b.entry("main");
    let p = b.assemble().unwrap();
    let out = p.segment("out");
    let handler = p.handler("cfut_handler");
    let mut node = node_for(p);
    node.install_vector(FaultKind::CFutRead, handler);
    let mut net = MockNet::default();
    run(&mut node, &mut net, 200);
    assert_eq!(node.read_mem(out.base).as_i32(), 99);
    assert_eq!(node.stats().fault_count(FaultKind::CFutRead), 1);
    assert!(node.stats().class_cycles(StatClass::Sync) > 0);
}

#[test]
fn fut_moves_but_faults_on_use() {
    let mut b = Builder::new();
    b.data("slot", Region::Imem, vec![Word::fut(7)]);
    b.label("main");
    b.load_seg(A0, "slot");
    b.mov(R1, MemRef::disp(A0, 0)); // futures copy fine
    b.addi(R2, R1, 1); // but using one faults
    b.halt();
    b.label("fut_handler");
    b.halt();
    b.entry("main");
    let p = b.assemble().unwrap();
    let handler = p.handler("fut_handler");
    let mut node = node_for(p);
    node.install_vector(FaultKind::FutUse, handler);
    let mut net = MockNet::default();
    run(&mut node, &mut net, 100);
    assert_eq!(node.stats().fault_count(FaultKind::FutUse), 1);
    assert_eq!(node.stats().fault_count(FaultKind::CFutRead), 0);
}

#[test]
fn unhandled_fault_stops_the_node() {
    let mut b = Builder::new();
    b.label("main");
    b.alu(AluOp::Div, R0, 1, 0);
    b.halt();
    b.entry("main");
    let mut node = node_for(b.assemble().unwrap());
    let mut net = MockNet::default();
    for now in 0..10 {
        node.tick(now, &mut net);
    }
    assert!(matches!(
        node.error(),
        Some(jm_mdp::NodeError::UnhandledFault { .. })
    ));
    assert!(!node.has_work());
}

#[test]
fn send_builds_messages_and_retries_on_stall() {
    let mut b = Builder::new();
    b.label("main");
    b.mov(R0, Special::Nnr);
    b.send(MsgPriority::P0, R0);
    b.send2e(MsgPriority::P0, hdr("main", 2), 5);
    b.halt();
    b.entry("main");
    let p = b.assemble().unwrap();
    let mut node = node_for(p);
    let mut net = MockNet {
        stall_count: 3,
        ..MockNet::default()
    };
    run(&mut node, &mut net, 200);
    assert_eq!(net.words.len(), 3);
    assert_eq!(net.words[0].1.tag(), Tag::Route);
    assert!(!net.words[0].2);
    assert_eq!(net.words[1].1.tag(), Tag::Msg);
    assert_eq!(net.words[2].1.as_i32(), 5);
    assert!(net.words[2].2, "last word must end the message");
    assert_eq!(node.stats().send_faults, 3);
    assert_eq!(node.stats().msgs_sent, 1);
    assert_eq!(node.stats().sends, 2);
}

#[test]
fn xlate_enter_probe_and_miss_fault() {
    let mut b = Builder::new();
    b.reserve("out", Region::Imem, 3);
    b.label("main");
    b.load_seg(A0, "out");
    b.enter(Word::sym(5), Word::int(50));
    b.xlate(R0, Word::sym(5));
    b.mov(MemRef::disp(A0, 0), R0);
    b.probe(R1, Word::sym(6)); // miss → nil, no fault
    b.check(R2, R1, Tag::Nil);
    b.mov(MemRef::disp(A0, 1), R2);
    b.xlate(R0, Word::sym(6)); // miss → fault
    b.halt();
    b.label("miss_handler");
    b.enter(Word::sym(6), Word::int(60));
    b.resume();
    b.entry("main");
    let p = b.assemble().unwrap();
    let out = p.segment("out");
    let handler = p.handler("miss_handler");
    let mut node = node_for(p);
    node.install_vector(FaultKind::XlateMiss, handler);
    let mut net = MockNet::default();
    run(&mut node, &mut net, 200);
    assert_eq!(node.read_mem(out.base).as_i32(), 50);
    assert!(node.read_mem(out.base + 1).as_bool());
    assert_eq!(node.stats().xlates, 4); // xlate + probe + miss + re-execute
    assert_eq!(node.stats().xlate_misses, 2);
    assert_eq!(node.stats().fault_count(FaultKind::XlateMiss), 1);
}

#[test]
fn bounds_fault_on_bad_descriptor_and_index() {
    let mut b = Builder::new();
    b.data("buf", Region::Imem, vec![Word::int(0), Word::int(0)]);
    b.label("main");
    b.load_seg(A0, "buf");
    b.mov(R0, MemRef::disp(A0, 2)); // out of bounds (len 2)
    b.halt();
    b.label("bounds_handler");
    b.halt();
    b.entry("main");
    let p = b.assemble().unwrap();
    let handler = p.handler("bounds_handler");
    let mut node = node_for(p);
    node.install_vector(FaultKind::Bounds, handler);
    let mut net = MockNet::default();
    run(&mut node, &mut net, 100);
    assert_eq!(node.stats().fault_count(FaultKind::Bounds), 1);
}

#[test]
fn mark_switches_attribution_for_free() {
    let mut b = Builder::new();
    b.label("main");
    b.mark(StatClass::NnrCalc);
    b.nop();
    b.nop();
    b.mark(StatClass::Compute);
    b.nop();
    b.halt();
    b.entry("main");
    let mut node = node_for(b.assemble().unwrap());
    let mut net = MockNet::default();
    run(&mut node, &mut net, 100);
    assert_eq!(node.stats().class_cycles(StatClass::NnrCalc), 2);
    assert_eq!(node.stats().class_cycles(StatClass::Compute), 2); // nop + halt
    assert_eq!(node.stats().instructions, 4);
}

#[test]
fn specials_report_identity() {
    let mut b = Builder::new();
    b.reserve("out", Region::Imem, 3);
    b.label("main");
    b.load_seg(A0, "out");
    b.mov(MemRef::disp(A0, 0), Special::Nid);
    b.mov(MemRef::disp(A0, 1), Special::NNodes);
    b.mov(MemRef::disp(A0, 2), Special::Nnr);
    b.halt();
    b.entry("main");
    let p = b.assemble().unwrap();
    let out = p.segment("out");
    let mut node = MdpNode::new(
        NodeId(5),
        MeshDims::new(2, 2, 2),
        Arc::new(p),
        MdpConfig::default(),
        true,
    );
    let mut net = MockNet::default();
    run(&mut node, &mut net, 100);
    assert_eq!(node.read_mem(out.base).as_i32(), 5);
    assert_eq!(node.read_mem(out.base + 1).as_i32(), 8);
    let route = node.read_mem(out.base + 2);
    assert_eq!(route.tag(), Tag::Route);
    // Node 5 in a 2x2x2 mesh is (1, 0, 1).
    assert_eq!(route.bits() & 0x1f, 1);
    assert_eq!((route.bits() >> 10) & 0x1f, 1);
}

#[test]
fn call_and_return_convention() {
    let mut b = Builder::new();
    b.reserve("out", Region::Imem, 1);
    b.label("main");
    b.movi(R0, 3);
    b.call("double");
    b.load_seg(A0, "out");
    b.mov(MemRef::disp(A0, 0), R0);
    b.halt();
    b.label("double");
    b.alu(AluOp::Add, R0, R0, R0);
    b.ret();
    b.entry("main");
    let p = b.assemble().unwrap();
    let out = p.segment("out");
    let mut node = node_for(p);
    let mut net = MockNet::default();
    run(&mut node, &mut net, 100);
    assert_eq!(node.read_mem(out.base).as_i32(), 6);
}

#[test]
fn seg_reference_via_message_and_queue_window_is_readonly() {
    // A handler that tries to write into its message faults.
    let mut b = Builder::new();
    b.label("handler");
    b.mov(MemRef::disp(A3, 1), Word::int(0));
    b.suspend();
    b.label("bounds_handler");
    b.halt();
    let p = b.assemble().unwrap();
    let handler = p.handler("handler");
    let bounds = p.handler("bounds_handler");
    let mut node = node_for(p);
    node.install_vector(FaultKind::Bounds, bounds);
    let mut net = MockNet::default();
    deliver(
        &mut node,
        MsgPriority::P0,
        MsgHeader::new(handler, 2).to_word(),
        0,
    );
    deliver(&mut node, MsgPriority::P0, Word::int(1), 0);
    for now in 0..100 {
        node.tick(now, &mut net);
    }
    assert_eq!(node.stats().fault_count(FaultKind::Bounds), 1);
}

#[test]
fn emem_code_runs_slower() {
    // Same loop, once with code in Imem and once padded into Emem.
    fn loop_cycles(pad: usize) -> u64 {
        let mut b = Builder::new();
        b.label("main");
        for _ in 0..pad {
            b.nop();
        }
        b.label("start");
        b.movi(R0, 100);
        b.label("loop");
        b.subi(R0, R0, 1);
        b.bnz(R0, "loop");
        b.halt();
        if pad > 0 {
            b.entry("start");
        } else {
            b.entry("main");
        }
        let mut node = node_for(b.assemble().unwrap());
        let mut net = MockNet::default();
        run(&mut node, &mut net, 100_000)
    }
    let fast = loop_cycles(0);
    let slow = loop_cycles(9000); // pushes the loop body past the Imem boundary
    assert!(
        slow > fast * 2,
        "Emem code should be much slower: {fast} vs {slow}"
    );
}

#[test]
fn wtag_builds_route_words_in_software() {
    // The "NNR calc" pattern: compute a route word from a linear node id.
    let mut b = Builder::new();
    b.reserve("out", Region::Imem, 1);
    b.label("main");
    b.mark(StatClass::NnrCalc);
    b.movi(R0, 5); // target node id in a 2x2x2 mesh
    b.alu(AluOp::Rem, R1, R0, 2); // x = id % 2
    b.alu(AluOp::Div, R0, R0, 2);
    b.alu(AluOp::Rem, R2, R0, 2); // y
    b.alu(AluOp::Div, R0, R0, 2); // z
    b.alu(AluOp::Lsh, R2, R2, 5);
    b.alu(AluOp::Lsh, R0, R0, 10);
    b.alu(AluOp::Or, R1, R1, R2);
    b.alu(AluOp::Or, R1, R1, R0);
    b.wtag(R1, R1, Tag::Route.bits() as i32);
    b.mark(StatClass::Compute);
    b.load_seg(A0, "out");
    b.mov(MemRef::disp(A0, 0), R1);
    b.halt();
    b.entry("main");
    let p = b.assemble().unwrap();
    let out = p.segment("out");
    let mut node = node_for(p);
    let mut net = MockNet::default();
    run(&mut node, &mut net, 200);
    let route = node.read_mem(out.base);
    assert_eq!(route.tag(), Tag::Route);
    assert_eq!(route.bits(), 1 | (1 << 10));
    assert!(node.stats().class_cycles(StatClass::NnrCalc) > 10);
}

#[test]
fn data_blocks_load_and_seg_resolves() {
    let mut b = Builder::new();
    b.data(
        "tbl",
        Region::Emem,
        vec![Word::int(10), Word::int(20), Word::int(30)],
    );
    b.reserve("out", Region::Imem, 1);
    b.label("main");
    b.mov(A0, seg("tbl"));
    b.movi(R1, 2);
    b.mov(R0, MemRef::reg(A0, R1));
    b.load_seg(A1, "out");
    b.mov(MemRef::disp(A1, 0), R0);
    b.halt();
    b.entry("main");
    let p = b.assemble().unwrap();
    let out = p.segment("out");
    let mut node = node_for(p);
    let mut net = MockNet::default();
    run(&mut node, &mut net, 100);
    assert_eq!(node.read_mem(out.base).as_i32(), 30);
}

/// Builds the shared store-first-argument handler program used by the
/// checksum tests.
fn checksum_program() -> Program {
    let mut b = Builder::new();
    b.reserve("out", Region::Imem, 1);
    b.label("handler");
    b.mov(R0, MemRef::disp(A3, 1));
    b.load_seg(A0, "out");
    b.mov(MemRef::disp(A0, 0), R0);
    b.suspend();
    b.assemble().unwrap()
}

#[test]
fn checksum_mode_drops_corrupt_messages_and_passes_clean_ones() {
    let p = checksum_program();
    let out = p.segment("out");
    let handler = p.handler("handler");
    let cfg = MdpConfig {
        checksum_msgs: true,
        ..MdpConfig::default()
    };
    let mut node = MdpNode::new(NodeId(0), MeshDims::new(2, 2, 2), Arc::new(p), cfg, true);
    let mut net = MockNet::default();

    // A damaged message first: the trailer is computed over the intended
    // words, then a different argument arrives (as link corruption would
    // deliver it).
    let intended = [MsgHeader::new(handler, 2).to_word(), Word::int(13)];
    let trailer = jm_fault::checksum_words(&intended);
    deliver(&mut node, MsgPriority::P0, intended[0], 0);
    deliver(&mut node, MsgPriority::P0, Word::int(99), 0);
    deliver(&mut node, MsgPriority::P0, trailer, 0);
    // Then a clean one.
    let clean = [MsgHeader::new(handler, 2).to_word(), Word::int(42)];
    deliver(&mut node, MsgPriority::P0, clean[0], 0);
    deliver(&mut node, MsgPriority::P0, clean[1], 0);
    deliver(
        &mut node,
        MsgPriority::P0,
        jm_fault::checksum_words(&clean),
        0,
    );
    run(&mut node, &mut net, 200);
    // The damaged message was dropped whole — its argument never reached
    // memory, no thread ran for it — and the clean one dispatched normally.
    assert_eq!(node.read_mem(out.base).as_i32(), 42);
    assert_eq!(node.stats().threads, 1);
    assert_eq!(node.stats().msgs_received, 1);
    assert_eq!(node.stats().fault_count(FaultKind::CorruptMessage), 1);
    assert!(node.error().is_none());
}

#[test]
fn checksum_mode_defers_dispatch_until_full_arrival() {
    let p = checksum_program();
    let out = p.segment("out");
    let handler = p.handler("handler");
    let cfg = MdpConfig {
        checksum_msgs: true,
        ..MdpConfig::default()
    };
    let mut node = MdpNode::new(NodeId(0), MeshDims::new(2, 2, 2), Arc::new(p), cfg, true);
    let mut net = MockNet::default();
    let msg = [MsgHeader::new(handler, 2).to_word(), Word::int(7)];
    deliver(&mut node, MsgPriority::P0, msg[0], 0);
    deliver(&mut node, MsgPriority::P0, msg[1], 0);
    // Trailer not yet arrived: validation cannot run, so dispatch waits
    // (in plain mode the header alone would have started the handler).
    for now in 0..40 {
        node.tick(now, &mut net);
    }
    assert_eq!(node.stats().threads, 0);
    deliver(
        &mut node,
        MsgPriority::P0,
        jm_fault::checksum_words(&msg),
        40,
    );
    for now in 40..120 {
        node.tick(now, &mut net);
    }
    assert_eq!(node.stats().threads, 1);
    assert_eq!(node.read_mem(out.base).as_i32(), 7);
    assert!(node.error().is_none());
}

#[test]
fn idle_is_the_gap_between_two_acts() {
    // One node ticked only where it has something to do — an idle tick at
    // 0, a dispatch at 40 (the header's arrival), the handler's SUSPEND at
    // 41, an idle tick at 300 — against a twin ticked every cycle: at every
    // cycle the sparse node's counters plus what it is owed are the twin's,
    // and every cycle either has lived through is in exactly one class.
    let mut b = Builder::new();
    b.label("handler");
    b.suspend();
    let p = Arc::new(b.assemble().unwrap());
    let header = MsgHeader::new(p.handler("handler"), 1).to_word();
    let mut cfg = MdpConfig::default();
    cfg.timing.dispatch = 1;
    let boot = || {
        MdpNode::new(
            NodeId(0),
            MeshDims::new(2, 2, 2),
            Arc::clone(&p),
            cfg,
            false,
        )
    };
    let (mut sparse, mut twin) = (boot(), boot());
    let mut net = MockNet::default();
    for now in 0..=300 {
        if now == 40 {
            deliver(&mut sparse, MsgPriority::P0, header, now);
            deliver(&mut twin, MsgPriority::P0, header, now);
        }
        twin.tick(now, &mut net);
        if [0, 40, 41, 300].contains(&now) {
            sparse.tick(now, &mut net);
        }
        let mut owed = sparse.stats().clone();
        owed.add_cycles(StatClass::Idle, sparse.idle_owed(now + 1));
        assert_eq!(&owed, twin.stats(), "after cycle {now}");
        assert_eq!(twin.idle_owed(now + 1), 0);
        assert_eq!(owed.total_cycles(), now + 1);
    }
    assert_eq!(sparse.stats(), twin.stats());
    assert_eq!(twin.stats().threads, 1);
    assert_eq!(twin.stats().class_cycles(StatClass::Idle), 299);
    // A tick before `busy_until` claims nothing, and nothing is owed for
    // a cycle that has not come.
    sparse.tick(200, &mut net);
    assert_eq!(sparse.stats(), twin.stats());
    assert_eq!(sparse.idle_owed(200), 0);
}

#[test]
fn a_stretch_rewinds_to_a_delivery_at_any_cycle_inside_it() {
    // A background loop that folds the cycle into what it stores, and a P0
    // handler that overwrites the word the loop reads. One node is advanced
    // at cycle 0 with room to run on to LIMIT, then handed the handler's
    // header at cycle d, inside the stretch; its twin is ticked every cycle
    // and handed the header at d. Rewound to d, the first is the node the
    // twin is — and so it stays.
    const LIMIT: u64 = 48;
    let mut b = Builder::new();
    b.data("buf", Region::Imem, vec![Word::int(0); 8]);
    b.label("main");
    b.load_seg(A0, "buf");
    b.movi(R0, 0);
    b.label("loop");
    b.mov(R1, MemRef::disp(A0, 1));
    b.alu(AluOp::Add, R1, R1, Special::Cycle);
    b.alu(AluOp::And, R2, R0, 7);
    b.mov(MemRef::reg(A0, R2), R1);
    b.addi(R0, R0, 1);
    b.br("loop");
    b.label("handler");
    b.load_seg(A0, "buf");
    b.mov(MemRef::disp(A0, 1), Special::Cycle);
    b.suspend();
    b.entry("main");
    let p = Arc::new(b.assemble().unwrap());
    let header = MsgHeader::new(p.handler("handler"), 1).to_word();
    let boot = || {
        MdpNode::new(
            NodeId(0),
            MeshDims::new(2, 2, 2),
            Arc::clone(&p),
            MdpConfig::default(),
            true,
        )
    };
    let mut net = MockNet::default();
    for d in 1..LIMIT {
        let (mut run_on, mut twin) = (boot(), boot());
        run_on.advance(0, LIMIT, &mut net);
        assert!(run_on.busy_until() >= LIMIT, "no stretch");
        for now in 0..d {
            twin.tick(now, &mut net);
        }
        deliver(&mut run_on, MsgPriority::P0, header, d);
        deliver(&mut twin, MsgPriority::P0, header, d);
        assert_eq!(run_on.busy_until(), twin.busy_until(), "delivery at {d}");
        assert_eq!(run_on.stats(), twin.stats(), "delivery at {d}");
        assert_eq!(
            run_on.state_components(d),
            twin.state_components(d),
            "delivery at {d}"
        );
        for now in d..d + 100 {
            run_on.tick(now, &mut net);
            twin.tick(now, &mut net);
            assert_eq!(run_on.stats(), twin.stats(), "delivery at {d}, cycle {now}");
            assert_eq!(
                run_on.state_components(now + 1),
                twin.state_components(now + 1),
                "delivery at {d}, cycle {now}"
            );
        }
        assert_eq!(twin.stats().threads, 1);
        assert_eq!(run_on.stretch_stats().stretches, 1);
    }
}
