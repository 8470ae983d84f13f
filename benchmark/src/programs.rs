//! The measured guest programs, vendored.
//!
//! These are copies of the ring (`engine_perf`), exchange (`micro::load`)
//! and sink (`jm_bench::traffic`) programs as they stood when the benchmark
//! was defined, plus a network-free kernel loop. They live here so that a
//! refactor of `crates/bench` cannot change the traffic the benchmark
//! measures: a baseline taken before such a refactor stays comparable.

use jm_asm::{hdr, Builder, Program, Region};
use jm_isa::instr::{AluOp, MsgPriority::P0, StatClass};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::word::Word;
use jm_runtime::{nnr, rand as jrand};

/// Token ring: one message circulates all nodes `rounds` times, so at any
/// instant one node works and the rest idle.
pub fn ring(rounds: u32) -> Program {
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
    b.mov(R0, Special::Nid);
    b.bnz(R0, "main_done");
    b.mov(R1, Special::NNodes);
    b.alu(AluOp::Mul, R1, R1, rounds as i32);
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

/// The paper's Figure 3 exchange loop: every node picks a random
/// destination, sends an `l`-word message, awaits an `l`-word echo, then
/// spins `idle_iters` iterations. `lcg_add` is the additive constant of each
/// node's destination-LCG seed (`nid * 2654435 + lcg_add`); the benchmark
/// derives it from its `--seed`, which is what varies the traffic.
///
/// # Panics
///
/// Panics if `l < 2` (a message needs its header and the reply route).
pub fn exchange(l: u32, idle_iters: u32, lcg_add: i32) -> Program {
    assert!(l >= 2, "need at least header + reply route");
    let mut b = Builder::new();
    // f3_r layout (per node): [0] rt_sum, [1] count, [2] seed, [3] t0.
    b.data("f3_r", Region::Imem, vec![Word::int(0); 4]);
    b.reserve("f3_flag", Region::Imem, 1);

    b.label("main");
    b.load_seg(A2, "f3_r");
    b.mov(R0, Special::Nid);
    b.alu(AluOp::Mul, R0, R0, 2_654_435);
    b.addi(R0, R0, lcg_add);
    b.mov(MemRef::disp(A2, 2), R0);
    // De-synchronize the SPMD lockstep start so loads do not arrive in
    // machine-wide bursts: stagger by a node-dependent spin.
    let modulus = (3 * idle_iters + 64) as i32;
    b.mov(R1, Special::Nid);
    b.alu(AluOp::Mul, R1, R1, 97);
    b.alu(AluOp::Rem, R1, R1, modulus);
    b.addi(R1, R1, 1);
    b.label("stagger");
    b.subi(R1, R1, 1);
    b.bnz(R1, "stagger");
    b.label("loop");
    b.mark(StatClass::Comm);
    b.mov(R0, MemRef::disp(A2, 2));
    b.call(jrand::LCG_NEXT);
    b.mov(MemRef::disp(A2, 2), R0);
    b.alu(AluOp::Rem, R0, R0, Special::NNodes);
    b.call(nnr::NID_TO_ROUTE);
    b.mark(StatClass::Comm);
    b.load_seg(A2, "f3_r");
    b.load_seg(A1, "f3_flag");
    b.mov(MemRef::disp(A1, 0), 0);
    b.mov(R2, Special::Cycle);
    b.mov(MemRef::disp(A2, 3), R2);
    b.send(P0, R0);
    send_padded(&mut b, "f3_echo", l, Special::Nnr);
    b.label("wait");
    b.mov(R1, MemRef::disp(A1, 0));
    b.bz(R1, "wait");
    b.mov(R1, Special::Cycle);
    b.alu(AluOp::Sub, R1, R1, MemRef::disp(A2, 3));
    b.mov(R2, MemRef::disp(A2, 0));
    b.alu(AluOp::Add, R2, R2, R1);
    b.mov(MemRef::disp(A2, 0), R2);
    b.mov(R2, MemRef::disp(A2, 1));
    b.addi(R2, R2, 1);
    b.mov(MemRef::disp(A2, 1), R2);
    // "Computation": the grain-size spin.
    b.mark(StatClass::Compute);
    if idle_iters > 0 {
        b.movi(R1, idle_iters as i32);
        b.label("spin");
        b.subi(R1, R1, 1);
        b.bnz(R1, "spin");
    }
    b.br("loop");

    // Echo: reply with an equal-length message to the embedded route.
    b.label("f3_echo");
    b.mark(StatClass::Comm);
    // Touch the final word first: the exchange is of whole l-word
    // messages, so the reply waits for the full request.
    b.mov(R1, MemRef::disp(A3, l - 1));
    b.send(P0, MemRef::disp(A3, 1));
    send_padded(&mut b, "f3_ack", l, 0);
    b.suspend();

    b.label("f3_ack");
    b.mark(StatClass::Comm);
    b.mov(R1, MemRef::disp(A3, l - 1)); // stall until fully arrived
    b.load_seg(A0, "f3_flag");
    b.mov(MemRef::disp(A0, 0), 1);
    b.suspend();

    b.entry("main");
    nnr::install(&mut b);
    jrand::install(&mut b);
    b.assemble().expect("exchange assembles")
}

/// Sends `[hdr(handler, l), second, 0, …]`, `l` words in all, after a route
/// word the caller has already sent.
fn send_padded(b: &mut Builder, handler: &str, l: u32, second: impl Into<jm_asm::PSrc>) {
    if l == 2 {
        b.send2e(P0, hdr(handler, l), second);
        return;
    }
    b.send2(P0, hdr(handler, l), second);
    for _ in 0..l - 3 {
        b.send(P0, 0);
    }
    b.sende(P0, 0);
}

/// Sink for generated traffic: the `sink` handler folds the first payload
/// word into a per-node accumulator and suspends.
pub fn sink() -> Program {
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

/// Network-free interpreter kernel: an endless loop of ALU operations,
/// indexed loads and stores into a 16-word buffer, and branches. It never
/// sends, so a node running it needs no network.
pub fn kernel_loop() -> Program {
    let mut b = Builder::new();
    b.data("k_buf", Region::Imem, vec![Word::int(1); 16]);
    b.label("main");
    b.load_seg(A0, "k_buf");
    b.movi(R0, 0);
    b.movi(R1, 1);
    b.label("loop");
    b.mov(R2, MemRef::reg(A0, R0));
    b.alu(AluOp::Add, R1, R1, R2);
    b.alu(AluOp::Xor, R2, R1, 0x5a5a);
    b.mov(MemRef::reg(A0, R0), R2);
    b.addi(R0, R0, 1);
    b.alu(AluOp::And, R0, R0, 15);
    b.alu(AluOp::Lt, R3, R1, 0);
    b.bt(R3, "loop");
    b.br("loop");
    b.entry("main");
    b.assemble().expect("kernel loop assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_isa::node::NodeId;
    use jm_machine::{JMachine, MachineConfig, StartPolicy};

    #[test]
    fn ring_visits_every_node_every_round() {
        let mut m = JMachine::new(ring(3), MachineConfig::new(8).start(StartPolicy::AllNodes));
        m.run_until_quiescent(1_000_000).unwrap();
        let acc = m.program().segment("acc");
        for id in 0..8 {
            assert_eq!(m.read_word(NodeId(id), acc.base).as_i32(), 3, "node {id}");
        }
    }

    #[test]
    fn exchange_seed_changes_the_traffic_and_nothing_else() {
        let run = |lcg_add| {
            let mut m = JMachine::new(
                exchange(4, 20, lcg_add),
                MachineConfig::new(8).start(StartPolicy::AllNodes),
            );
            m.run(5_000);
            assert!(m.node_errors().is_empty());
            m.stats()
        };
        let (a, b) = (run(1), run(2));
        assert!(a.net.delivered_msgs > 0);
        assert_eq!(run(1), a, "same seed, same run");
        assert_ne!(a.net.flit_hops, b.net.flit_hops, "the seed moved nothing");
    }

    #[test]
    fn kernel_loop_never_stops_or_sends() {
        let mut m = JMachine::new(kernel_loop(), MachineConfig::new(1));
        m.run(10_000);
        let stats = m.stats();
        assert!(m.node_errors().is_empty());
        assert!(stats.nodes.instructions > 5_000);
        assert_eq!(stats.nodes.sends, 0);
    }
}
