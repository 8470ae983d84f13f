//! The canned workloads the tools and the integration suites share: a
//! token ring (idle-dominated), the Figure-3 exchange loop
//! (load-dominated), an idle-skip ping-pong, the traffic sink, and the
//! traced many-to-one gather. One copy each, so a differential test and
//! the bench it guards run the same program.

use crate::micro::load;
use jm_asm::{hdr, Builder, Program, Region};
use jm_isa::instr::{AluOp, MsgPriority::P0};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::tag::Tag;
use jm_isa::word::Word;
use jm_runtime::nnr;

/// Token ring over an id-ordered ring: each token makes `rounds` laps,
/// every visit bumping the visited node's `acc` word. With `all_nodes`
/// false only node 0 launches a token — one message in flight, most nodes
/// idle most of the time, the event engine's and the bulk path's home
/// regime; with it true every node launches one, so tokens stream past
/// each other and interrupt any in-progress bulk message.
pub fn ring_program(rounds: i32, all_nodes: bool) -> Program {
    let mut b = Builder::new();
    b.data("acc", Region::Imem, vec![Word::int(0)]);
    b.reserve("next_route", Region::Imem, 1);
    b.label("main");
    b.mov(R0, Special::Nid);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Rem, R0, R0, Special::NNodes);
    b.call(nnr::NID_TO_ROUTE);
    b.load_seg(A0, "next_route");
    b.mov(MemRef::disp(A0, 0), R0);
    if !all_nodes {
        b.mov(R0, Special::Nid);
        b.bnz(R0, "main_done");
    }
    b.mov(R1, Special::NNodes);
    b.alu(AluOp::Mul, R1, R1, rounds);
    b.load_seg(A1, "next_route");
    b.send(P0, MemRef::disp(A1, 0));
    b.send2e(P0, hdr("token", 2), R1);
    b.label("main_done");
    b.suspend();
    b.label("token");
    b.mov(R1, MemRef::disp(A3, 1));
    b.load_seg(A0, "acc");
    b.mov(R2, MemRef::disp(A0, 0));
    b.addi(R2, R2, 1);
    b.mov(MemRef::disp(A0, 0), R2);
    b.subi(R1, R1, 1);
    b.bz(R1, "token_done");
    b.load_seg(A1, "next_route");
    b.send(P0, MemRef::disp(A1, 0));
    b.send2e(P0, hdr("token", 2), R1);
    b.label("token_done");
    b.suspend();
    b.entry("main");
    nnr::install(&mut b);
    b.assemble().expect("ring assembles")
}

/// The Figure-3 exchange loop at the operating point every host-speed
/// measurement uses (4-word messages, 20 spin iterations): every node busy
/// every cycle.
pub fn exchange_program() -> Program {
    load::program(4, 20)
}

/// Ping-pong between node pairs (partner: flip the low node-id bit), eight
/// volleys per pair, each hit bumping the receiver's `hits` word. Run with
/// a dispatch cost near or above the parallel quantum (64 cycles) or the
/// replay checkpoint interval, every wake-up lands that far out, so
/// idle-skip fast-forwards cross those boundaries many times per rally.
pub fn pingpong_program() -> Program {
    const VOLLEYS: i32 = 8;
    let mut b = Builder::new();
    b.data("hits", Region::Imem, vec![Word::int(0)]);
    b.reserve("peer", Region::Imem, 1);
    b.label("main");
    b.mov(R0, Special::Nid);
    b.alu(AluOp::Xor, R0, R0, 1);
    b.call(nnr::NID_TO_ROUTE);
    b.load_seg(A0, "peer");
    b.mov(MemRef::disp(A0, 0), R0);
    b.mov(R0, Special::Nid);
    b.alu(AluOp::And, R0, R0, 1);
    b.bnz(R0, "main_done"); // odd nodes wait for the first serve
    b.movi(R1, VOLLEYS);
    b.load_seg(A1, "peer");
    b.send(P0, MemRef::disp(A1, 0));
    b.send2e(P0, hdr("rally", 2), R1);
    b.label("main_done");
    b.suspend();
    b.label("rally");
    b.mov(R1, MemRef::disp(A3, 1));
    b.load_seg(A0, "hits");
    b.mov(R2, MemRef::disp(A0, 0));
    b.addi(R2, R2, 1);
    b.mov(MemRef::disp(A0, 0), R2);
    b.subi(R1, R1, 1);
    b.bz(R1, "rally_done");
    b.load_seg(A1, "peer");
    b.send(P0, MemRef::disp(A1, 0));
    b.send2e(P0, hdr("rally", 2), R1);
    b.label("rally_done");
    b.suspend();
    b.entry("main");
    nnr::install(&mut b);
    b.assemble().expect("pingpong assembles")
}

/// A sink program: generated messages dispatch `sink`, which folds the
/// first payload word into a per-node accumulator — enough real handler
/// work that a lost or reordered message corrupts visible memory.
pub fn sink_program() -> Program {
    let mut b = Builder::new();
    b.data("acc", Region::Imem, vec![Word::int(0)]);
    b.label("sink");
    b.load_seg(A0, "acc");
    b.mov(R0, MemRef::disp(A0, 0));
    b.mov(R1, MemRef::disp(A3, 1));
    b.alu(AluOp::Add, R0, R0, R1);
    b.mov(MemRef::disp(A0, 0), R0);
    b.suspend();
    b.assemble().expect("sink assembles")
}

/// The gather program: every node RPCs its id to node 0, whose handler
/// accumulates the sender ids (`sum[0]`) and counts them (`sum[1]`).
pub fn gather_program() -> Program {
    let mut b = Builder::new();
    b.data("sum", Region::Imem, vec![Word::int(0); 2]);

    b.label("main");
    // Route word for node (0,0,0): zero coordinate bits under the route tag.
    b.movi(R0, 0);
    b.wtag(R0, R0, Tag::Route.bits() as i32);
    b.send(P0, R0);
    b.send2e(P0, hdr("recv", 2), Special::Nid);
    b.suspend();

    // Handler: sum += sender id; count += 1.
    b.label("recv");
    b.mov(R0, MemRef::disp(A3, 1));
    b.load_seg(A0, "sum");
    b.mov(R1, MemRef::disp(A0, 0));
    b.alu(AluOp::Add, R1, R1, R0);
    b.mov(MemRef::disp(A0, 0), R1);
    b.mov(R2, MemRef::disp(A0, 1));
    b.addi(R2, R2, 1);
    b.mov(MemRef::disp(A0, 1), R2);
    b.suspend();

    b.entry("main");
    b.assemble().expect("gather assembles")
}
