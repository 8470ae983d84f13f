//! N-Queens (paper §4.3.3).
//!
//! A graph-search problem whose central challenge is controlling explosive
//! parallelism. Following the paper: the board space is first expanded
//! breadth-first to a fixed depth, producing one task message per safe
//! prefix; tasks are spread round-robin over the machine and each performs
//! a local depth-first traversal, returning its solution count in a small
//! message (boards are 8-word messages and results 3-word messages in the
//! paper's Table 4). All work is generated up-front, so load imbalance
//! shows up as idle time (15% at 64 nodes in the paper) — task messages
//! simply wait in the hardware message queue, whose limited capacity §4.3.3
//! discusses at length.
//!
//! Node 0 expands twice: a counting pass (so the expected task count is
//! known before any result can arrive) and a sending pass.

use crate::{App, Run};
use jm_asm::{hdr, Builder, Program, Region};
use jm_isa::instr::{AluOp, MsgPriority::P0, StatClass};
use jm_isa::node::{Coord, RouteWord};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::word::Word;
use jm_machine::{JMachine, MachineConfig, MachineError};
use jm_runtime::nnr;

/// Problem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NqConfig {
    /// Board size (the paper runs 13; the simulator default is smaller).
    pub n: u32,
    /// Breadth-first expansion depth; `None` picks the smallest depth that
    /// yields at least three tasks per node.
    pub expand_depth: Option<u32>,
}

impl NqConfig {
    /// The paper's 13-queens problem.
    pub fn paper() -> NqConfig {
        NqConfig {
            n: 13,
            expand_depth: None,
        }
    }

    /// A scaled problem with the same structure.
    pub fn scaled() -> NqConfig {
        NqConfig {
            n: 9,
            expand_depth: None,
        }
    }

    /// Resolves the expansion depth for a machine size.
    pub fn depth_for(&self, nodes: u32) -> u32 {
        if let Some(d) = self.expand_depth {
            return d.clamp(1, (self.n - 1).max(1));
        }
        for d in 1..self.n {
            if prefix_count(self.n, d) >= 3 * u64::from(nodes) {
                return d;
            }
        }
        (self.n - 1).max(1)
    }
}

/// Host reference: number of solutions to n-queens.
pub fn reference(n: u32) -> u64 {
    fn go(n: u32, row: u32, cols: u32, d1: u32, d2: u32) -> u64 {
        if row == n {
            return 1;
        }
        let mut count = 0;
        let mut free = !(cols | d1 | d2) & ((1 << n) - 1);
        while free != 0 {
            let bit = free & free.wrapping_neg();
            free ^= bit;
            count += go(n, row + 1, cols | bit, (d1 | bit) << 1, (d2 | bit) >> 1);
        }
        count
    }
    go(n, 0, 0, 0, 0)
}

/// Number of safe placements of the first `depth` rows (task count).
pub fn prefix_count(n: u32, depth: u32) -> u64 {
    fn go(n: u32, row: u32, depth: u32, cols: u32, d1: u32, d2: u32) -> u64 {
        if row == depth {
            return 1;
        }
        let mut count = 0;
        let mut free = !(cols | d1 | d2) & ((1 << n) - 1);
        while free != 0 {
            let bit = free & free.wrapping_neg();
            free ^= bit;
            count += go(
                n,
                row + 1,
                depth,
                cols | bit,
                (d1 | bit) << 1,
                (d2 | bit) >> 1,
            );
        }
        count
    }
    go(n, 0, depth, 0, 0, 0)
}

// nq_p layout: [0] mode (0 count / 1 send), [1] task counter, [2] done,
// [3] total, [4] expected, [5] worker solution count, [6] finished flag,
// [7] saved row, [8] unused, [9] expansion return link.

/// Builds the SPMD n-queens program for `nodes` nodes.
///
/// # Panics
///
/// Panics if the board size is outside 2..=16 or the expansion depth is
/// infeasible.
pub fn program(cfg: &NqConfig, nodes: u32) -> Program {
    let n = cfg.n as i32;
    let d = cfg.depth_for(nodes) as i32;
    assert!((2..=16).contains(&n), "board size out of range");
    assert!(d >= 1 && d < n, "bad expansion depth {d} for n={n}");
    let task_len = (2 + d) as u32; // hdr, depth, d columns

    let mut b = Builder::new();
    b.data("nq_p", Region::Imem, vec![Word::int(0); 10]);
    b.reserve("nq_cols", Region::Imem, cfg.n + 1); // worker DFS placements
    b.reserve("nq_ecols", Region::Imem, cfg.n + 1); // expansion placements

    // ------------- node 0 background: two-pass expansion -------------
    b.label("main");
    b.load_seg(A0, "nq_p");
    b.mov(MemRef::disp(A0, 0), 0);
    b.mov(MemRef::disp(A0, 1), 0);
    b.call("nq_expand");
    b.load_seg(A0, "nq_p");
    b.mov(R0, MemRef::disp(A0, 1));
    b.mov(MemRef::disp(A0, 4), R0); // expected tasks
    b.mov(MemRef::disp(A0, 0), 1);
    b.mov(MemRef::disp(A0, 1), 0);
    b.call("nq_expand");
    b.suspend();

    // ------------- expansion: DFS over rows 0..d -------------
    // R0 = row, R1 = trial column, R2/R3 scratch; A0 = nq_p, A1 = nq_ecols.
    b.label("nq_expand");
    b.load_seg(A0, "nq_p");
    b.mov(MemRef::disp(A0, 9), R3);
    b.load_seg(A1, "nq_ecols");
    b.movi(R0, 0);
    b.mov(MemRef::disp(A1, 0), -1);
    b.label("exp_try");
    b.mov(R1, MemRef::reg(A1, R0));
    b.addi(R1, R1, 1);
    b.mov(MemRef::reg(A1, R0), R1);
    b.alu(AluOp::Eq, R2, R1, n);
    b.bt(R2, "exp_back");
    b.movi(R2, 0);
    b.label("exp_safe");
    b.alu(AluOp::Eq, R3, R2, R0);
    b.bt(R3, "exp_place");
    b.mov(R3, MemRef::reg(A1, R2));
    b.alu(AluOp::Sub, R3, R3, R1);
    b.bz(R3, "exp_try");
    b.alu(AluOp::Add, R3, R3, R2);
    b.alu(AluOp::Eq, R3, R3, R0);
    b.bt(R3, "exp_try");
    b.mov(R3, MemRef::reg(A1, R2));
    b.alu(AluOp::Sub, R3, R1, R3);
    b.alu(AluOp::Add, R3, R3, R2);
    b.alu(AluOp::Eq, R3, R3, R0);
    b.bt(R3, "exp_try");
    b.addi(R2, R2, 1);
    b.br("exp_safe");
    b.label("exp_place");
    b.alu(AluOp::Add, R2, R0, 1);
    b.alu(AluOp::Eq, R3, R2, d);
    b.bt(R3, "exp_emit");
    b.mov(R0, R2);
    b.mov(MemRef::reg(A1, R0), -1);
    b.br("exp_try");
    b.label("exp_back");
    b.subi(R0, R0, 1);
    b.alu(AluOp::Lt, R2, R0, 0);
    b.bt(R2, "exp_done");
    b.br("exp_try");
    b.label("exp_done");
    b.jmp(MemRef::disp(A0, 9));

    // A full prefix: count it, or send it as a task.
    b.label("exp_emit");
    b.mov(R2, MemRef::disp(A0, 0));
    b.bnz(R2, "exp_send");
    b.mov(R2, MemRef::disp(A0, 1));
    b.addi(R2, R2, 1);
    b.mov(MemRef::disp(A0, 1), R2);
    b.br("exp_try");
    b.label("exp_send");
    // Ownership filter: every node enumerates the full prefix space but
    // self-posts only its share (task index mod N == NID) — even static
    // distribution without a single-node scatter bottleneck.
    b.mov(R2, MemRef::disp(A0, 1));
    b.alu(AluOp::Rem, R2, R2, Special::NNodes);
    b.alu(AluOp::Eq, R2, R2, Special::Nid);
    b.bf(R2, "exp_count");
    b.mark(StatClass::Comm);
    b.send(P0, Special::Nnr);
    b.send2(P0, hdr("nq_task", task_len), d);
    for i in 0..d as u32 {
        let src = MemRef::disp(A1, i);
        if i + 1 == d as u32 {
            b.sende(P0, src);
        } else {
            b.send(P0, src);
        }
    }
    b.mark(StatClass::Compute);
    b.label("exp_count");
    b.mov(R2, MemRef::disp(A0, 1));
    b.addi(R2, R2, 1);
    b.mov(MemRef::disp(A0, 1), R2);
    b.br("exp_try");

    // ------------- worker: [hdr, depth, c0..c_{d-1}] -------------
    b.label("nq_task");
    b.load_seg(A0, "nq_p");
    b.load_seg(A1, "nq_cols");
    b.mov(MemRef::disp(A0, 5), 0); // solutions = 0
                                   // Copy the prefix into the placement array.
    b.movi(R0, 0);
    b.label("nqt_copy");
    b.addi(R1, R0, 2);
    b.mov(R2, MemRef::reg(A3, R1));
    b.mov(MemRef::reg(A1, R0), R2);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Lt, R2, R0, d);
    b.bt(R2, "nqt_copy");
    // R0 = row = d; start searching.
    b.mov(MemRef::reg(A1, R0), -1);
    b.label("dfs_try");
    b.mov(R1, MemRef::reg(A1, R0));
    b.addi(R1, R1, 1);
    b.mov(MemRef::reg(A1, R0), R1);
    b.alu(AluOp::Eq, R2, R1, n);
    b.bt(R2, "dfs_back");
    b.movi(R2, 0);
    b.label("dfs_safe");
    b.alu(AluOp::Eq, R3, R2, R0);
    b.bt(R3, "dfs_place");
    b.mov(R3, MemRef::reg(A1, R2));
    b.alu(AluOp::Sub, R3, R3, R1);
    b.bz(R3, "dfs_try");
    b.alu(AluOp::Add, R3, R3, R2);
    b.alu(AluOp::Eq, R3, R3, R0);
    b.bt(R3, "dfs_try");
    b.mov(R3, MemRef::reg(A1, R2));
    b.alu(AluOp::Sub, R3, R1, R3);
    b.alu(AluOp::Add, R3, R3, R2);
    b.alu(AluOp::Eq, R3, R3, R0);
    b.bt(R3, "dfs_try");
    b.addi(R2, R2, 1);
    b.br("dfs_safe");
    b.label("dfs_place");
    b.alu(AluOp::Add, R2, R0, 1);
    b.alu(AluOp::Eq, R3, R2, n);
    b.bf(R3, "dfs_deeper");
    b.mov(R3, MemRef::disp(A0, 5));
    b.addi(R3, R3, 1);
    b.mov(MemRef::disp(A0, 5), R3);
    b.br("dfs_try");
    b.label("dfs_deeper");
    b.mov(R0, R2);
    b.mov(MemRef::reg(A1, R0), -1);
    b.br("dfs_try");
    b.label("dfs_back");
    b.subi(R0, R0, 1);
    b.alu(AluOp::Lt, R2, R0, d);
    b.bt(R2, "dfs_done");
    b.br("dfs_try");
    b.label("dfs_done");
    // Report to node 0 ("NQDone": 3 words in the paper).
    b.mark(StatClass::Comm);
    b.send(P0, RouteWord::new(Coord::new(0, 0, 0)).to_word());
    b.send2(P0, hdr("nq_done", 3), MemRef::disp(A0, 5));
    b.sende(P0, Special::Nid);
    b.suspend();

    // ------------- accumulator on node 0: [hdr, count, src] -------------
    b.label("nq_done");
    b.load_seg(A0, "nq_p");
    b.mov(R0, MemRef::disp(A3, 1));
    b.mov(R1, MemRef::disp(A0, 3));
    b.alu(AluOp::Add, R1, R1, R0);
    b.mov(MemRef::disp(A0, 3), R1);
    b.mov(R1, MemRef::disp(A0, 2));
    b.addi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 2), R1);
    b.alu(AluOp::Eq, R2, R1, MemRef::disp(A0, 4));
    b.bf(R2, "nqd_end");
    b.mov(MemRef::disp(A0, 6), 1);
    b.label("nqd_end");
    b.suspend();

    b.entry("main");
    nnr::install(&mut b);
    b.assemble().expect("nqueens assembles")
}

/// The thread types of Table 4: `(name, entry label)`.
pub const THREADS: [(&str, &str); 2] = [("NQueens", "nq_task"), ("NQDone", "nq_done")];

/// Reads back the solution count node 0 has summed.
///
/// # Panics
///
/// Panics if node 0 has not heard from every task.
pub fn result(m: &JMachine) -> u64 {
    assert_eq!(crate::word(m, 0, "nq_p", 6), 1, "n-queens did not finish");
    crate::word(m, 0, "nq_p", 3) as u64
}

/// Builds, runs, and validates n-queens on the machine `mcfg` describes
/// (size, engine, fault plan, mesh shape); every node starts at the entry
/// point.
///
/// # Errors
///
/// Propagates machine failures.
///
/// # Panics
///
/// Panics if the search did not finish or the solution count differs from
/// the host reference.
pub fn run(mcfg: MachineConfig, cfg: &NqConfig, max_cycles: u64) -> Result<Run, MachineError> {
    let nodes = mcfg.nodes();
    let mut m = crate::boot(program(cfg, nodes), mcfg);
    let cycles = m.run_until_quiescent(max_cycles)?;
    let (solutions, expected) = (result(&m), reference(cfg.n));
    assert_eq!(solutions, expected, "n-queens mismatch on {nodes} nodes");
    Ok(crate::finish(App::NQueens, &m, cycles, solutions, &THREADS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_known_counts() {
        assert_eq!(reference(4), 2);
        assert_eq!(reference(6), 4);
        assert_eq!(reference(8), 92);
        assert_eq!(reference(10), 724);
    }

    #[test]
    fn prefix_counts_grow_with_depth() {
        assert_eq!(prefix_count(8, 1), 8);
        assert!(prefix_count(8, 2) > 8);
        assert_eq!(prefix_count(8, 8), 92);
    }

    #[test]
    fn solves_on_machines() {
        let cfg = NqConfig {
            n: 6,
            expand_depth: None,
        };
        for nodes in [1u32, 4, 8] {
            let run = run(MachineConfig::new(nodes), &cfg, 100_000_000)
                .unwrap_or_else(|e| panic!("{nodes} nodes: {e}"));
            assert_eq!(run.answer, 4);
            // `THREADS[0]`, `nq_task`, is dispatched once per task.
            assert!(run.threads[0].1.threads >= 3);
        }
    }

    #[test]
    fn eight_queens_parallel() {
        let cfg = NqConfig {
            n: 8,
            expand_depth: Some(2),
        };
        let run = run(MachineConfig::new(4), &cfg, 200_000_000).unwrap();
        assert_eq!(run.answer, 92);
        assert_eq!(run.threads[0].1.threads, prefix_count(8, 2));
    }
}
