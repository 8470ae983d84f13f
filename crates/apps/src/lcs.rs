//! Longest Common Subsequence (paper §4.3.1).
//!
//! One string is distributed evenly across the nodes; the other is placed
//! on node 0 and streamed through the machine systolically, one 4-word
//! message per character. Each node holds a strip of the DP row and a
//! single message handler dominates execution. The paper's numbers: 232
//! instructions per `NxtChar` thread at 64 nodes, handler entry/exit
//! overhead growing from 9% (64 nodes) to 33% (512), idle time from load
//! imbalance at node 0 plus systolic skew.

use crate::{App, Run};
use jm_asm::{hdr, Builder, Program, Region};
use jm_isa::instr::{AluOp, MsgPriority::P0, StatClass};
use jm_isa::node::NodeId;
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::word::Word;
use jm_machine::{JMachine, MachineConfig, MachineError};
use jm_prng::Prng;
use jm_runtime::nnr;

/// Problem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LcsConfig {
    /// Length of the distributed string (must be divisible by the node
    /// count).
    pub a_len: u32,
    /// Length of the streamed string.
    pub b_len: u32,
    /// Seed for string generation.
    pub seed: u64,
    /// Alphabet size (small alphabets give long common subsequences).
    pub alphabet: u8,
}

impl LcsConfig {
    /// The paper's problem: |A| = 1024, |B| = 4096.
    pub fn paper() -> LcsConfig {
        LcsConfig {
            a_len: 1024,
            b_len: 4096,
            seed: 0x1c5,
            alphabet: 4,
        }
    }

    /// A scaled problem that keeps the same structure at simulator speed.
    pub fn scaled() -> LcsConfig {
        LcsConfig {
            a_len: 256,
            b_len: 1024,
            seed: 0x1c5,
            alphabet: 4,
        }
    }

    /// Generates the two strings.
    pub fn strings(&self) -> (Vec<u8>, Vec<u8>) {
        let mut rng = Prng::new(self.seed);
        let a = (0..self.a_len)
            .map(|_| rng.range_u32(0, u32::from(self.alphabet)) as u8)
            .collect();
        let b = (0..self.b_len)
            .map(|_| rng.range_u32(0, u32::from(self.alphabet)) as u8)
            .collect();
        (a, b)
    }
}

/// Host reference: classic O(|A|·|B|) dynamic program.
pub fn reference(a: &[u8], b: &[u8]) -> u32 {
    let mut row = vec![0u32; a.len() + 1];
    for &bc in b {
        let mut diag = 0;
        for (j, &ac) in a.iter().enumerate() {
            let up = row[j + 1];
            row[j + 1] = if ac == bc {
                diag + 1
            } else {
                row[j + 1].max(row[j])
            };
            diag = up;
        }
    }
    row[a.len()]
}

// Parameter block layout: [0] K, [1] next route, [2] is_last, [3] processed,
// [4] |B|, [5] result, [6] diag, [7] tmp.

/// Builds the SPMD program for `nodes` nodes.
///
/// # Panics
///
/// Panics if `a_len` is not divisible by `nodes`.
pub fn program(cfg: &LcsConfig, nodes: u32) -> Program {
    assert_eq!(
        cfg.a_len % nodes,
        0,
        "|A| must divide evenly across the machine"
    );
    let k = cfg.a_len / nodes;
    let mut b = Builder::new();
    b.reserve("lcs_a", Region::Imem, k);
    b.data("lcs_up", Region::Imem, vec![Word::int(0); k as usize]);
    b.reserve("lcs_b", Region::Emem, cfg.b_len);
    b.data("lcs_p", Region::Imem, vec![Word::int(0); 8]);

    // --- background init (+ generator on node 0) ---
    b.label("main");
    b.load_seg(A0, "lcs_p");
    b.mov(MemRef::disp(A0, 0), k as i32);
    b.mov(MemRef::disp(A0, 4), cfg.b_len as i32);
    b.mov(R0, Special::Nid);
    b.mov(R1, Special::NNodes);
    b.subi(R1, R1, 1);
    b.alu(AluOp::Eq, R2, R0, R1);
    b.wtag(R2, R2, 0);
    b.mov(MemRef::disp(A0, 2), R2);
    b.bnz(R2, "skip_route");
    b.addi(R0, R0, 1);
    b.call(nnr::NID_TO_ROUTE);
    b.mark(StatClass::Compute);
    b.load_seg(A0, "lcs_p");
    b.mov(MemRef::disp(A0, 1), R0);
    b.label("skip_route");
    b.mov(R0, Special::Nid);
    b.bnz(R0, "main_done");
    // Node 0 streams |B| characters to itself.
    b.load_seg(A1, "lcs_b");
    b.movi(R1, 0);
    b.label("gen_loop");
    b.mark(StatClass::Comm);
    b.send(P0, Special::Nnr);
    b.send(P0, hdr("lcs_char", 4));
    b.mov(R2, MemRef::reg(A1, R1));
    b.send2(P0, R2, 0);
    b.sende(P0, 0);
    b.addi(R1, R1, 1);
    b.alu(AluOp::Lt, R2, R1, cfg.b_len as i32);
    b.bt(R2, "gen_loop");
    b.label("main_done");
    b.suspend();

    // --- the NxtChar handler: [hdr, char, left, prev_up] ---
    b.label("lcs_char");
    b.load_seg(A0, "lcs_p");
    b.load_seg(A1, "lcs_a");
    b.load_seg(A2, "lcs_up");
    b.mov(R3, MemRef::disp(A3, 1)); // char
    b.mov(R1, MemRef::disp(A3, 2)); // left
    b.mov(R2, MemRef::disp(A3, 3)); // prev_up (initial diagonal)
    b.mov(MemRef::disp(A0, 6), R2);
    b.movi(R0, 0);
    b.label("k_loop");
    b.mov(R2, MemRef::reg(A2, R0)); // up[k]
    b.mov(MemRef::disp(A0, 7), R2); // save as next diagonal
    b.alu(AluOp::Eq, R2, R3, MemRef::reg(A1, R0));
    b.bt(R2, "matched");
    b.mov(R2, MemRef::reg(A2, R0));
    b.alu(AluOp::Max, R1, R1, R2);
    b.br("store");
    b.label("matched");
    b.mov(R1, MemRef::disp(A0, 6));
    b.addi(R1, R1, 1);
    b.label("store");
    b.mov(MemRef::reg(A2, R0), R1);
    b.mov(R2, MemRef::disp(A0, 7));
    b.mov(MemRef::disp(A0, 6), R2);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Lt, R2, R0, MemRef::disp(A0, 0));
    b.bt(R2, "k_loop");
    // Epilogue: forward or record.
    b.mov(R2, MemRef::disp(A0, 2));
    b.bnz(R2, "last_node");
    b.mark(StatClass::Comm);
    b.send(P0, MemRef::disp(A0, 1));
    b.send(P0, hdr("lcs_char", 4));
    b.send2(P0, R3, R1);
    b.sende(P0, MemRef::disp(A0, 6));
    b.suspend();
    b.label("last_node");
    b.mov(R2, MemRef::disp(A0, 3));
    b.addi(R2, R2, 1);
    b.mov(MemRef::disp(A0, 3), R2);
    b.alu(AluOp::Eq, R2, R2, MemRef::disp(A0, 4));
    b.bf(R2, "lc_end");
    b.mov(MemRef::disp(A0, 5), R1);
    b.label("lc_end");
    b.suspend();

    b.entry("main");
    nnr::install(&mut b);
    b.assemble().expect("lcs assembles")
}

/// Writes the input strings into node memories.
pub fn setup(m: &mut JMachine, cfg: &LcsConfig) -> (Vec<u8>, Vec<u8>) {
    let (a, b) = cfg.strings();
    let nodes = m.node_count();
    let k = cfg.a_len / nodes;
    let a_seg = m.program().segment("lcs_a");
    let b_seg = m.program().segment("lcs_b");
    for node in 0..nodes {
        for j in 0..k {
            let ch = a[(node * k + j) as usize];
            m.write_word(NodeId(node), a_seg.base + j, Word::int(i32::from(ch)));
        }
    }
    for (i, &ch) in b.iter().enumerate() {
        m.write_word(NodeId(0), b_seg.base + i as u32, Word::int(i32::from(ch)));
    }
    (a, b)
}

/// The thread types of Table 4: `(name, entry label)`.
pub const THREADS: [(&str, &str); 2] = [("NxtChar", "lcs_char"), ("StartUp", "main")];

/// Reads back the LCS length, which the last node records.
pub fn result(m: &JMachine) -> u32 {
    crate::word(m, m.node_count() - 1, "lcs_p", 5) as u32
}

/// Builds, loads, runs, and validates LCS on the machine `mcfg` describes
/// (size, engine, fault plan, mesh shape); every node starts at the entry
/// point.
///
/// # Errors
///
/// Propagates machine failures (timeout, node errors).
///
/// # Panics
///
/// Panics if the machine's answer differs from the host reference.
pub fn run(mcfg: MachineConfig, cfg: &LcsConfig, max_cycles: u64) -> Result<Run, MachineError> {
    let nodes = mcfg.nodes();
    let mut m = crate::boot(program(cfg, nodes), mcfg);
    let (a, b) = setup(&mut m, cfg);
    let cycles = m.run_until_quiescent(max_cycles)?;
    let length = result(&m);
    assert_eq!(length, reference(&a, &b), "LCS mismatch on {nodes} nodes");
    Ok(crate::finish(App::Lcs, &m, cycles, length.into(), &THREADS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_sane() {
        assert_eq!(reference(b"abcde", b"ace"), 3);
        assert_eq!(reference(b"abc", b"xyz"), 0);
        assert_eq!(reference(b"", b"abc"), 0);
        assert_eq!(reference(b"same", b"same"), 4);
    }

    #[test]
    fn machine_matches_reference_small() {
        let cfg = LcsConfig {
            a_len: 32,
            b_len: 64,
            seed: 7,
            alphabet: 3,
        };
        for nodes in [1u32, 2, 8] {
            let run = run(MachineConfig::new(nodes), &cfg, 20_000_000).unwrap();
            assert!(run.answer > 0);
        }
    }

    #[test]
    fn speedup_with_more_nodes() {
        let cfg = LcsConfig {
            a_len: 64,
            b_len: 128,
            seed: 9,
            alphabet: 4,
        };
        let t1 = run(MachineConfig::new(1), &cfg, 50_000_000).unwrap().cycles;
        let t8 = run(MachineConfig::new(8), &cfg, 50_000_000).unwrap().cycles;
        assert!(
            t8 * 2 < t1,
            "expected speedup: 1 node {t1} cycles, 8 nodes {t8}"
        );
    }
}
