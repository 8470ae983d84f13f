//! The scan-style barrier of Table 3.
//!
//! A dissemination barrier in `log2(N)` waves: in wave `w`, node `i` sends
//! one 3-word message to node `i XOR 2^w` — the butterfly pattern mapped
//! onto the 3-D grid that the paper describes, with "incoming messages
//! invok\[ing\] a different handler for each wave … through the use of the
//! fast hardware dispatch mechanism" (we key waves by a message field
//! rather than by distinct entry points; the dispatch cost is identical).
//!
//! Rounds are stamped so that back-to-back barriers do not confuse early
//! arrivals from a fast neighbour.
//!
//! ## Protocol
//!
//! The calling thread executes `JAL R3, bar_enter` with `R0` holding the
//! *continuation*: a `msg` header word (length 1) to be dispatched on this
//! node when the barrier completes. `bar_enter` returns quickly; the caller
//! must then suspend. Completion is signalled by the continuation handler
//! running.
//!
//! Works for any power-of-two machine size (including 1, which completes
//! immediately).

use crate::nnr;
use jm_asm::{hdr, Builder, Region};
use jm_isa::instr::{AluOp, MsgPriority::P0, StatClass};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::word::Word;

/// Barrier entry routine label.
pub const BAR_ENTER: &str = "bar_enter";
/// Wave-message handler label.
pub const BAR_WAVE: &str = "bar_wave";
/// State block name.
pub const STATE: &str = "bar_state";

// State layout: [0] round, [1] wave, [2] continuation, [3] nwaves,
// [4] route-cache valid, [5] scratch, [6..17] per-wave flags holding the
// latest round received — one more than the ten waves of the largest
// (1024-node) machine, because a node that has finished its round still
// tests `flags[nwaves]` when the next round's first wave overtakes it —
// and [17..27] cached partner route words (a tuned implementation converts
// node ids to router addresses once, not per barrier — NNR calculation is
// expensive, §5).
//
// Every state transition happens in a priority-0 handler (`bar_start` or
// `bar_wave`), so transitions are serialized by the dispatch hardware. The
// enter routine only records the continuation and posts `bar_start` to its
// own node — entering from background or handler context is equally safe.

/// Offset of the partner-route cache in the state block.
const ROUTES: i32 = 17;

/// Installs the barrier library. Requires [`nnr::install`] in the same
/// program.
pub fn install(b: &mut Builder) {
    b.data(STATE, Region::Imem, vec![Word::int(0); 32]);

    // --- bar_enter: R0 = continuation header; clobbers R0-R2, A0. ---
    b.label(BAR_ENTER);
    b.mark(StatClass::Sync);
    b.load_seg(A0, STATE);
    b.mov(MemRef::disp(A0, 2), R0);
    b.send(P0, Special::Nnr);
    b.sende(P0, hdr("bar_start", 1));
    b.ret();

    // --- bar_start (P0): begin a round. ---
    b.label("bar_start");
    b.mark(StatClass::Sync);
    b.load_seg(A0, STATE);
    b.mov(R1, MemRef::disp(A0, 0));
    b.addi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 0), R1); // round++
    b.mov(MemRef::disp(A0, 1), 0); // wave = 0
                                   // nwaves = log2(NNODES)
    b.mov(R1, Special::NNodes);
    b.movi(R2, 0);
    b.label("bar_log");
    b.alu(AluOp::Ash, R1, R1, -1);
    b.bz(R1, "bar_logdone");
    b.addi(R2, R2, 1);
    b.br("bar_log");
    b.label("bar_logdone");
    b.mov(MemRef::disp(A0, 3), R2);
    b.bz(R2, "bar_complete");
    // Fill the partner-route cache once per run.
    b.mov(R1, MemRef::disp(A0, 4));
    b.bnz(R1, "bar_send");
    b.mov(MemRef::disp(A0, 5), 0);
    b.label("bar_cache");
    b.mov(R1, MemRef::disp(A0, 5));
    b.alu(AluOp::Eq, R2, R1, MemRef::disp(A0, 3));
    b.bt(R2, "bar_cached");
    b.movi(R0, 1);
    b.alu(AluOp::Lsh, R0, R0, R1);
    b.mov(R2, Special::Nid);
    b.alu(AluOp::Xor, R0, R0, R2);
    b.jal(R3, nnr::NID_TO_ROUTE);
    b.mark(StatClass::Sync);
    b.mov(R1, MemRef::disp(A0, 5));
    b.alu(AluOp::Add, R2, R1, ROUTES);
    b.mov(MemRef::reg(A0, R2), R0);
    b.addi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 5), R1);
    b.br("bar_cache");
    b.label("bar_cached");
    b.mov(MemRef::disp(A0, 4), 1);

    // --- send current wave's message, then try to advance ---
    b.label("bar_send");
    b.mov(R2, MemRef::disp(A0, 1));
    b.addi(R2, R2, ROUTES);
    b.send(P0, MemRef::reg(A0, R2)); // cached partner route
    b.send2(P0, hdr(BAR_WAVE, 3), MemRef::disp(A0, 1));
    b.sende(P0, MemRef::disp(A0, 0));

    // --- advance while the current wave's partner has arrived ---
    b.label("bar_advance");
    b.mov(R2, MemRef::disp(A0, 1));
    b.addi(R2, R2, 6);
    b.mov(R1, MemRef::reg(A0, R2)); // flags[wave]
    b.alu(AluOp::Ge, R1, R1, MemRef::disp(A0, 0));
    b.bf(R1, "bar_wait");
    b.mov(R1, MemRef::disp(A0, 1));
    b.addi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 1), R1);
    b.alu(AluOp::Eq, R1, R1, MemRef::disp(A0, 3));
    b.bf(R1, "bar_send");

    // --- complete: dispatch the continuation locally ---
    b.label("bar_complete");
    b.send(P0, Special::Nnr);
    b.sende(P0, MemRef::disp(A0, 2));
    b.label("bar_wait");
    b.suspend();

    // --- wave handler: [hdr, wave, round] ---
    b.label(BAR_WAVE);
    b.mark(StatClass::Sync);
    b.load_seg(A0, STATE);
    b.mov(R2, MemRef::disp(A3, 1));
    b.addi(R2, R2, 6);
    b.mov(R1, MemRef::disp(A3, 2));
    b.mov(MemRef::reg(A0, R2), R1); // flags[wave] = round
    b.br("bar_advance");
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_isa::node::NodeId;
    use jm_machine::{JMachine, MachineConfig, StartPolicy};

    /// Every node enters the barrier `ROUNDS` times back to back, bumping a
    /// local counter after each completion; staggered start times stress
    /// early arrivals.
    fn barrier_program(rounds: i32) -> jm_asm::Program {
        let mut b = Builder::new();
        b.reserve("count", Region::Imem, 1);
        b.reserve("t_done", Region::Imem, 1);

        b.label("main");
        // Stagger: node i busy-waits i*7 cycles before the first barrier.
        b.mov(R0, Special::Nid);
        b.alu(AluOp::Mul, R0, R0, 7);
        b.label("stagger");
        b.subi(R0, R0, 1);
        b.alu(AluOp::Ge, R1, R0, 0);
        b.bt(R1, "stagger");
        b.mov(R0, hdr("bar_cont", 1));
        b.call(BAR_ENTER);
        b.suspend();

        b.label("bar_cont");
        b.mark(StatClass::Compute);
        b.load_seg(A0, "count");
        b.mov(R0, MemRef::disp(A0, 0));
        b.check(R1, R0, jm_isa::Tag::Nil);
        b.bf(R1, "have_count");
        b.movi(R0, 0);
        b.label("have_count");
        b.addi(R0, R0, 1);
        b.mov(MemRef::disp(A0, 0), R0);
        b.alu(AluOp::Lt, R1, R0, rounds);
        b.bf(R1, "done");
        b.mov(R0, hdr("bar_cont", 1));
        b.call(BAR_ENTER);
        b.suspend();
        b.label("done");
        b.load_seg(A1, "t_done");
        b.mov(MemRef::disp(A1, 0), Special::Cycle);
        b.suspend();

        b.entry("main");
        install(&mut b);
        nnr::install(&mut b);
        b.assemble().unwrap()
    }

    #[test]
    fn repeated_barriers_synchronize_all_nodes() {
        for nodes in [1u32, 2, 8, 16] {
            let rounds = 3;
            let p = barrier_program(rounds);
            let count = p.segment("count");
            let mut m = JMachine::new(p, MachineConfig::new(nodes).start(StartPolicy::AllNodes));
            m.run_until_quiescent(2_000_000)
                .unwrap_or_else(|e| panic!("{nodes} nodes: {e}"));
            for id in 0..nodes {
                assert_eq!(
                    m.read_word(NodeId(id), count.base).as_i32(),
                    rounds,
                    "node {id} of {nodes}"
                );
            }
        }
    }

    #[test]
    fn no_node_finishes_round_two_before_all_reach_round_one() {
        // With a big stagger, the last node enters the barrier late; nobody
        // may complete before it has entered. We check message counts:
        // every node sends exactly rounds*log2(N) wave messages.
        let p = barrier_program(2);
        let nodes = 8u32;
        let mut m = JMachine::new(p, MachineConfig::new(nodes).start(StartPolicy::AllNodes));
        m.run_until_quiescent(2_000_000).unwrap();
        let stats = m.stats();
        // wave msgs + bar_start + continuation: rounds * (log2(N) + 2)
        // per node.
        let expected = u64::from(nodes) * 2 * (3 + 2);
        assert_eq!(stats.nodes.msgs_sent, expected);
    }
}
