//! A binary combining tree over node ids (parent of `i` is `(i-1)/2`).
//!
//! Every node contributes one value per round with `JAL R3, tree_add`
//! (value in `R0`); internal nodes accumulate their subtree sum and forward
//! it upward; when the root's count completes it posts the configured
//! continuation to itself with the machine-wide total as the argument.
//!
//! The paper's Radix Sort combines its counts "using a binary
//! combining/distributing tree" (§4.3.2); `jm_apps::radix` plays that role
//! with a hypercube scan instead (same message count, no root bottleneck),
//! so this tree's one user is the barrier ablation,
//! `examples/barrier_tree.rs`.
//!
//! **Rounds must not overlap**: a node may contribute to round `k+1` only
//! after the round-`k` result has been observed (true for phase-structured
//! uses like a barrier).

use crate::nnr;
use jm_asm::{hdr, lab, Builder, Region};
use jm_isa::instr::{AluOp, MsgPriority::P0, StatClass};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::tag::Tag;
use jm_isa::word::Word;

/// Per-node contribution routine label.
pub const TREE_ADD: &str = "tree_add";
/// Per-node initialization routine label (call once before first use).
pub const TREE_INIT: &str = "tree_init";
/// Upward-combining message handler label.
pub const TREE_UP: &str = "tree_up";
/// State block name.
pub const STATE: &str = "tree_state";

// State layout: [0] acc, [1] arrived, [2] expected, [3] stash, [4] exit.

/// Installs the combining tree. On completion the root node posts
/// `[hdr(cont_label, 2), total]` to itself; `cont_label` must be defined by
/// the caller's program. Requires [`nnr::install`].
pub fn install(b: &mut Builder, cont_label: &str) {
    b.data(STATE, Region::Imem, vec![Word::int(0); 8]);

    // --- tree_init: expected = 1 + #children; clobbers R0-R2, A0. ---
    b.label(TREE_INIT);
    b.load_seg(A0, STATE);
    b.mov(MemRef::disp(A0, 0), 0);
    b.mov(MemRef::disp(A0, 1), 0);
    b.mov(R0, Special::Nid);
    b.alu(AluOp::Lsh, R1, R0, 1);
    b.addi(R1, R1, 1); // 2i+1
    b.movi(R2, 1);
    b.alu(AluOp::Lt, R0, R1, Special::NNodes);
    b.wtag(R0, R0, Tag::Int.bits() as i32);
    b.alu(AluOp::Add, R2, R2, R0);
    b.addi(R1, R1, 1); // 2i+2
    b.alu(AluOp::Lt, R0, R1, Special::NNodes);
    b.wtag(R0, R0, Tag::Int.bits() as i32);
    b.alu(AluOp::Add, R2, R2, R0);
    b.mov(MemRef::disp(A0, 2), R2);
    b.ret();

    // --- tree_add: R0 = contribution; clobbers R0-R2, A0, A1. ---
    b.label(TREE_ADD);
    b.mark(StatClass::Sync);
    b.load_seg(A0, STATE);
    b.mov(MemRef::disp(A0, 4), R3);
    b.br("tree_accum");

    // --- upward handler: [hdr, value] ---
    b.label(TREE_UP);
    b.mark(StatClass::Sync);
    b.load_seg(A0, STATE);
    b.mov(R0, lab("tree_exit"));
    b.mov(MemRef::disp(A0, 4), R0);
    b.mov(R0, MemRef::disp(A3, 1));

    b.label("tree_accum");
    b.mov(R1, MemRef::disp(A0, 0));
    b.alu(AluOp::Add, R1, R1, R0);
    b.mov(MemRef::disp(A0, 0), R1);
    b.mov(R1, MemRef::disp(A0, 1));
    b.addi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 1), R1);
    b.alu(AluOp::Eq, R2, R1, MemRef::disp(A0, 2));
    b.bf(R2, "tree_done");
    // Subtree complete: reset and forward.
    b.mov(R1, MemRef::disp(A0, 0));
    b.mov(MemRef::disp(A0, 0), 0);
    b.mov(MemRef::disp(A0, 1), 0);
    b.mov(MemRef::disp(A0, 3), R1);
    b.mov(R0, Special::Nid);
    b.bz(R0, "tree_root");
    b.subi(R0, R0, 1);
    b.alu(AluOp::Ash, R0, R0, -1); // parent
    b.jal(R3, nnr::NID_TO_ROUTE);
    b.mark(StatClass::Sync);
    b.send(P0, R0);
    b.send2e(P0, hdr(TREE_UP, 2), MemRef::disp(A0, 3));
    b.br("tree_done");
    b.label("tree_root");
    b.send(P0, Special::Nnr);
    b.send2e(P0, hdr(cont_label, 2), MemRef::disp(A0, 3));
    b.label("tree_done");
    b.jmp(MemRef::disp(A0, 4));
    b.label("tree_exit");
    b.suspend();
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_isa::node::NodeId;
    use jm_machine::{JMachine, MachineConfig, StartPolicy};

    /// Every node contributes `nid + 1`; the root's continuation stores the
    /// grand total.
    fn sum_program() -> jm_asm::Program {
        let mut b = Builder::new();
        b.reserve("total", Region::Imem, 1);
        b.label("main");
        b.call(TREE_INIT);
        b.mov(R0, Special::Nid);
        b.addi(R0, R0, 1);
        b.call(TREE_ADD);
        b.suspend();
        b.label("sum_done");
        b.mark(StatClass::Compute);
        b.mov(R0, MemRef::disp(A3, 1));
        b.load_seg(A0, "total");
        b.mov(MemRef::disp(A0, 0), R0);
        b.suspend();
        b.entry("main");
        install(&mut b, "sum_done");
        nnr::install(&mut b);
        b.assemble().unwrap()
    }

    #[test]
    fn combines_across_machine_sizes() {
        for nodes in [1u32, 2, 4, 8, 16, 64] {
            let p = sum_program();
            let total = p.segment("total");
            let mut m = JMachine::new(p, MachineConfig::new(nodes).start(StartPolicy::AllNodes));
            m.run_until_quiescent(2_000_000)
                .unwrap_or_else(|e| panic!("{nodes} nodes: {e}"));
            let expected = (nodes * (nodes + 1) / 2) as i32;
            assert_eq!(
                m.read_word(NodeId(0), total.base).as_i32(),
                expected,
                "{nodes} nodes"
            );
        }
    }

    #[test]
    fn internal_nodes_send_exactly_one_upward_message() {
        let p = sum_program();
        let mut m = JMachine::new(p, MachineConfig::new(8).start(StartPolicy::AllNodes));
        m.run_until_quiescent(2_000_000).unwrap();
        // 7 upward messages (every non-root) + 1 root continuation.
        assert_eq!(m.stats().nodes.msgs_sent, 8);
    }
}
