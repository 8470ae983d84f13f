//! Radix Sort (paper §4.3.2).
//!
//! Sorts 28-bit integer keys 4 bits at a time (7 passes of a stable
//! counting sort), written in the paper's "fine-grained" style: every key
//! is scattered to its destination with a 3-word message as soon as its
//! slot is known, instead of being blocked up — the one application that
//! stresses the communication mechanisms and the machine's global
//! bandwidth.
//!
//! Per pass, per node:
//!
//! 1. **Count** — histogram the local strip's current digit (16 buckets).
//! 2. **Combine** — a hypercube vector *scan* (`log2 N` waves of 18-word
//!    messages) yields both the global bucket totals and this node's
//!    exclusive prefix; this plays the paper's "binary
//!    combining/distributing tree" role as a butterfly (same message count,
//!    no root bottleneck).
//! 3. **Reorder** — each key's global position is computed and the key is
//!    sent to node `position / K` as `[hdr, idx, key]`; a node knows the
//!    pass is complete when it has received exactly `K` writes.
//!
//! Source/destination arrays alternate by pass parity; write messages carry
//! the destination parity so a fast neighbour's next-pass writes can never
//! corrupt the current pass.

use crate::{App, Run};
use jm_asm::{hdr, Builder, Program, Region};
use jm_isa::instr::{Alu1Op, AluOp, MsgPriority::P0, StatClass};
use jm_isa::node::NodeId;
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::word::Word;
use jm_machine::{JMachine, MachineConfig, MachineError};
use jm_prng::Prng;
use jm_runtime::nnr;

/// Bits per digit.
pub const BITS: u32 = 4;
/// Buckets per pass.
pub const BUCKETS: u32 = 16;
/// Passes (28-bit keys, 4 bits at a time — §4.3.2).
pub const PASSES: u32 = 7;
/// Maximum supported `log2(nodes)`.
const MAX_WAVES: u32 = 10;

/// Problem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadixConfig {
    /// Total number of keys (must divide evenly across nodes; per-node
    /// strip at most 65536).
    pub keys: u32,
    /// Seed for key generation.
    pub seed: u64,
}

impl RadixConfig {
    /// The paper's problem: 65 536 keys of 28 bits.
    pub fn paper() -> RadixConfig {
        RadixConfig {
            keys: 65_536,
            seed: 0xad1,
        }
    }

    /// A scaled problem with identical structure.
    pub fn scaled() -> RadixConfig {
        RadixConfig {
            keys: 4096,
            seed: 0xad1,
        }
    }

    /// Generates the keys (28-bit non-negative integers).
    pub fn generate(&self) -> Vec<u32> {
        let mut rng = Prng::new(self.seed);
        (0..self.keys).map(|_| rng.range_u32(0, 1 << 28)).collect()
    }
}

/// Host reference: a stable sort.
pub fn reference(keys: &[u32]) -> Vec<u32> {
    let mut sorted = keys.to_vec();
    sorted.sort();
    sorted
}

// Parameter block layout:
// [0] pass, [1] K, [2] recv[0], [3] recv[1], [4] log2(N), [5] wave,
// [6] scratch (lower-partner flag / parity'<<16), [7] key scratch,
// [8] saved loop index, [9] saved payload, [10] shift, [11] spare.

/// Builds the SPMD radix-sort program for `nodes` nodes.
///
/// # Panics
///
/// Panics if `keys` does not divide evenly or a strip exceeds 65536 keys.
pub fn program(cfg: &RadixConfig, nodes: u32) -> Program {
    assert_eq!(cfg.keys % nodes, 0, "keys must divide across nodes");
    let k = cfg.keys / nodes;
    assert!((1..=65_536).contains(&k), "strip size out of range: {k}");
    let mut b = Builder::new();
    b.reserve("rs_arr0", Region::Emem, k);
    b.reserve("rs_arr1", Region::Emem, k);
    b.reserve("rs_hist", Region::Imem, BUCKETS);
    b.reserve("rs_scanv", Region::Imem, BUCKETS);
    b.reserve("rs_sumv", Region::Imem, BUCKETS);
    b.reserve("rs_gpos", Region::Imem, BUCKETS);
    b.data(
        "rs_buf",
        Region::Imem,
        vec![Word::int(0); (MAX_WAVES * 2 * (BUCKETS + 1)) as usize],
    );
    b.data("rs_p", Region::Imem, vec![Word::int(0); 12]);

    // ---------------- background main: the "Sort" thread ----------------
    b.label("main");
    b.load_seg(A0, "rs_p");
    b.mov(MemRef::disp(A0, 1), k as i32);
    // log2(N)
    b.mov(R1, Special::NNodes);
    b.movi(R2, 0);
    b.label("rs_log");
    b.alu(AluOp::Ash, R1, R1, -1);
    b.bz(R1, "rs_logdone");
    b.addi(R2, R2, 1);
    b.br("rs_log");
    b.label("rs_logdone");
    b.mov(MemRef::disp(A0, 4), R2);

    b.label("pass_loop");
    // ---- count ----
    b.mark(StatClass::Compute);
    b.load_seg(A1, "rs_hist");
    b.movi(R0, 0);
    b.label("zh");
    b.mov(MemRef::reg(A1, R0), 0);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Lt, R1, R0, BUCKETS as i32);
    b.bt(R1, "zh");
    // src = arr[pass & 1]
    b.mov(R1, MemRef::disp(A0, 0));
    b.alu(AluOp::And, R1, R1, 1);
    b.bnz(R1, "csrc1");
    b.load_seg(A2, "rs_arr0");
    b.br("csrc_done");
    b.label("csrc1");
    b.load_seg(A2, "rs_arr1");
    b.label("csrc_done");
    // shift = -(pass * BITS)
    b.mov(R3, MemRef::disp(A0, 0));
    b.alu(AluOp::Mul, R3, R3, BITS as i32);
    b.alu1(Alu1Op::Neg, R3, R3);
    b.mov(MemRef::disp(A0, 10), R3);
    b.movi(R0, 0);
    b.label("count_loop");
    b.mov(R1, MemRef::reg(A2, R0));
    b.alu(AluOp::Lsh, R1, R1, R3);
    b.alu(AluOp::And, R1, R1, (BUCKETS - 1) as i32);
    b.mov(R2, MemRef::reg(A1, R1));
    b.addi(R2, R2, 1);
    b.mov(MemRef::reg(A1, R1), R2);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Lt, R2, R0, MemRef::disp(A0, 1));
    b.bt(R2, "count_loop");

    // ---- combine: hypercube vector scan ----
    b.mark(StatClass::Sync);
    b.load_seg(A1, "rs_scanv");
    b.movi(R0, 0);
    b.label("zs");
    b.mov(MemRef::reg(A1, R0), 0);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Lt, R1, R0, BUCKETS as i32);
    b.bt(R1, "zs");
    b.load_seg(A1, "rs_sumv");
    b.load_seg(A2, "rs_hist");
    b.movi(R0, 0);
    b.label("cphist");
    b.mov(R1, MemRef::reg(A2, R0));
    b.mov(MemRef::reg(A1, R0), R1);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Lt, R2, R0, BUCKETS as i32);
    b.bt(R2, "cphist");
    b.mov(MemRef::disp(A0, 5), 0); // wave = 0
    b.label("wave_loop");
    b.mov(R1, MemRef::disp(A0, 5));
    b.alu(AluOp::Eq, R2, R1, MemRef::disp(A0, 4));
    b.bt(R2, "scan_done");
    // partner route
    b.movi(R0, 1);
    b.alu(AluOp::Lsh, R0, R0, R1);
    b.mov(R2, Special::Nid);
    b.alu(AluOp::Xor, R0, R0, R2);
    b.call(nnr::NID_TO_ROUTE);
    b.mark(StatClass::Sync);
    b.send(P0, R0);
    // wavepar = wave | (pass & 1) << 16
    b.mov(R1, MemRef::disp(A0, 0));
    b.alu(AluOp::And, R1, R1, 1);
    b.alu(AluOp::Lsh, R1, R1, 16);
    b.alu(AluOp::Or, R1, R1, MemRef::disp(A0, 5));
    b.send2(P0, hdr("rs_scan", BUCKETS + 2), R1);
    b.load_seg(A1, "rs_sumv");
    for pair in 0..(BUCKETS / 2) {
        b.mov(R1, MemRef::disp(A1, 2 * pair));
        b.mov(R2, MemRef::disp(A1, 2 * pair + 1));
        if pair + 1 == BUCKETS / 2 {
            b.send2e(P0, R1, R2);
        } else {
            b.send2(P0, R1, R2);
        }
    }
    // poll the wave buffer
    b.mov(R1, MemRef::disp(A0, 5));
    b.alu(AluOp::Lsh, R1, R1, 1);
    b.mov(R2, MemRef::disp(A0, 0));
    b.alu(AluOp::And, R2, R2, 1);
    b.alu(AluOp::Add, R1, R1, R2);
    b.alu(AluOp::Mul, R1, R1, (BUCKETS + 1) as i32);
    b.load_seg(A1, "rs_buf");
    b.label("scan_poll");
    b.mov(R2, MemRef::reg(A1, R1));
    b.bz(R2, "scan_poll");
    b.mov(MemRef::reg(A1, R1), 0); // consume flag
                                   // lower partner? bit `wave` of NID set means the partner id is lower.
    b.movi(R2, 1);
    b.alu(AluOp::Lsh, R2, R2, MemRef::disp(A0, 5));
    b.alu(AluOp::And, R2, R2, Special::Nid);
    b.mov(MemRef::disp(A0, 6), R2);
    b.movi(R0, 0);
    b.label("combine");
    b.addi(R1, R1, 1);
    b.mov(R2, MemRef::reg(A1, R1)); // received sum[k]
    b.load_seg(A2, "rs_sumv");
    b.mov(R3, MemRef::reg(A2, R0));
    b.alu(AluOp::Add, R3, R3, R2);
    b.mov(MemRef::reg(A2, R0), R3);
    b.mov(R3, MemRef::disp(A0, 6));
    b.bz(R3, "no_low");
    b.load_seg(A2, "rs_scanv");
    b.mov(R3, MemRef::reg(A2, R0));
    b.alu(AluOp::Add, R3, R3, R2);
    b.mov(MemRef::reg(A2, R0), R3);
    b.label("no_low");
    b.addi(R0, R0, 1);
    b.alu(AluOp::Lt, R2, R0, BUCKETS as i32);
    b.bt(R2, "combine");
    b.mov(R1, MemRef::disp(A0, 5));
    b.addi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 5), R1);
    b.br("wave_loop");

    b.label("scan_done");
    // ---- positions: gpos[v] = prefix(totals)[v] + scanv[v] ----
    b.mark(StatClass::Compute);
    b.load_seg(A1, "rs_sumv");
    b.load_seg(A2, "rs_gpos");
    b.movi(R0, 0);
    b.movi(R1, 0);
    b.label("gs");
    b.mov(MemRef::reg(A2, R0), R1);
    b.mov(R2, MemRef::reg(A1, R0));
    b.alu(AluOp::Add, R1, R1, R2);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Lt, R2, R0, BUCKETS as i32);
    b.bt(R2, "gs");
    b.load_seg(A1, "rs_scanv");
    b.movi(R0, 0);
    b.label("ps");
    b.mov(R1, MemRef::reg(A1, R0));
    b.mov(R2, MemRef::reg(A2, R0));
    b.alu(AluOp::Add, R1, R1, R2);
    b.mov(MemRef::reg(A2, R0), R1);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Lt, R2, R0, BUCKETS as i32);
    b.bt(R2, "ps");

    // ---- reorder ----
    b.mark(StatClass::Comm);
    // parity' << 16 into [6]
    b.mov(R1, MemRef::disp(A0, 0));
    b.addi(R1, R1, 1);
    b.alu(AluOp::And, R1, R1, 1);
    b.alu(AluOp::Lsh, R1, R1, 16);
    b.mov(MemRef::disp(A0, 6), R1);
    // src desc
    b.mov(R1, MemRef::disp(A0, 0));
    b.alu(AluOp::And, R1, R1, 1);
    b.bnz(R1, "rsrc1");
    b.load_seg(A1, "rs_arr0");
    b.br("rsrc_done");
    b.label("rsrc1");
    b.load_seg(A1, "rs_arr1");
    b.label("rsrc_done");
    b.mov(MemRef::disp(A0, 11), A1); // stash src descriptor for reloads
    b.load_seg(A2, "rs_gpos");
    b.mov(R3, MemRef::disp(A0, 10)); // shift
    b.movi(R0, 0);
    b.label("reorder_loop");
    b.mov(R1, MemRef::reg(A1, R0)); // key
    b.mov(MemRef::disp(A0, 7), R1);
    b.mov(R2, R1);
    b.alu(AluOp::Lsh, R2, R2, R3);
    b.alu(AluOp::And, R2, R2, (BUCKETS - 1) as i32); // digit
    b.mov(R1, MemRef::reg(A2, R2)); // p
    b.addi(R1, R1, 1);
    b.mov(MemRef::reg(A2, R2), R1);
    b.subi(R1, R1, 1);
    b.alu(AluOp::Div, R2, R1, MemRef::disp(A0, 1)); // destination node
    b.alu(AluOp::Rem, R1, R1, MemRef::disp(A0, 1)); // destination index
    b.alu(AluOp::Or, R1, R1, MemRef::disp(A0, 6)); // | parity'<<16
    b.mov(MemRef::disp(A0, 8), R0);
    b.mov(MemRef::disp(A0, 9), R1);
    b.mov(R0, R2);
    b.call(nnr::NID_TO_ROUTE);
    b.mark(StatClass::Comm);
    b.send(P0, R0);
    b.send2(P0, hdr("rs_write", 3), MemRef::disp(A0, 9));
    b.sende(P0, MemRef::disp(A0, 7));
    b.mov(R0, MemRef::disp(A0, 8));
    b.addi(R0, R0, 1);
    b.alu(AluOp::Lt, R1, R0, MemRef::disp(A0, 1));
    b.bf(R1, "reorder_done");
    // The route call clobbers R1/R2/A1: reload the loop's register set.
    b.mov(R3, MemRef::disp(A0, 10));
    b.mov(A1, MemRef::disp(A0, 11));
    b.load_seg(A2, "rs_gpos");
    b.br("reorder_loop");
    b.label("reorder_done");

    // ---- wait for all K incoming writes of parity' ----
    b.mark(StatClass::Idle);
    b.mov(R1, MemRef::disp(A0, 6));
    b.alu(AluOp::Lsh, R1, R1, -16);
    b.addi(R1, R1, 2); // recv counter slot
    b.label("wait_writes");
    b.mov(R2, MemRef::reg(A0, R1));
    b.alu(AluOp::Lt, R2, R2, MemRef::disp(A0, 1));
    b.bt(R2, "wait_writes");
    b.mov(MemRef::reg(A0, R1), 0);
    // next pass
    b.mark(StatClass::Compute);
    b.mov(R1, MemRef::disp(A0, 0));
    b.addi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 0), R1);
    b.alu(AluOp::Lt, R2, R1, PASSES as i32);
    b.bt(R2, "pass_loop");
    b.halt();

    // ---------------- handlers ----------------
    // rs_write: [hdr, idx | parity<<16, key] — the "Write" thread of
    // Table 4.
    b.label("rs_write");
    b.mark(StatClass::Comm);
    b.mov(R0, MemRef::disp(A3, 1));
    b.mov(R1, R0);
    b.alu(AluOp::Lsh, R1, R1, -16);
    b.alu(AluOp::And, R0, R0, 0xffff);
    b.bnz(R1, "w1");
    b.load_seg(A0, "rs_arr0");
    b.br("wst");
    b.label("w1");
    b.load_seg(A0, "rs_arr1");
    b.label("wst");
    b.mov(R2, MemRef::disp(A3, 2));
    b.mov(MemRef::reg(A0, R0), R2);
    b.load_seg(A0, "rs_p");
    b.addi(R1, R1, 2);
    b.mov(R2, MemRef::reg(A0, R1));
    b.addi(R2, R2, 1);
    b.mov(MemRef::reg(A0, R1), R2);
    b.suspend();

    // rs_scan: [hdr, wave | parity<<16, 16 partial sums]
    b.label("rs_scan");
    b.mark(StatClass::Sync);
    b.mov(R0, MemRef::disp(A3, 1));
    b.mov(R1, R0);
    b.alu(AluOp::Lsh, R1, R1, -16);
    b.alu(AluOp::And, R0, R0, 0xffff);
    b.alu(AluOp::Lsh, R0, R0, 1);
    b.alu(AluOp::Add, R0, R0, R1);
    b.alu(AluOp::Mul, R0, R0, (BUCKETS + 1) as i32);
    b.load_seg(A0, "rs_buf");
    for kk in 0..BUCKETS {
        b.addi(R0, R0, 1);
        b.mov(R2, MemRef::disp(A3, 2 + kk));
        b.mov(MemRef::reg(A0, R0), R2);
    }
    b.subi(R0, R0, BUCKETS as i32);
    b.mov(MemRef::reg(A0, R0), 1); // arrival flag, written last
    b.suspend();

    b.entry("main");
    nnr::install(&mut b);
    b.assemble().expect("radix assembles")
}

/// Writes the key strips into node memories; returns the full key vector.
pub fn setup(m: &mut JMachine, cfg: &RadixConfig) -> Vec<u32> {
    let keys = cfg.generate();
    let nodes = m.node_count();
    let k = cfg.keys / nodes;
    let arr0 = m.program().segment("rs_arr0");
    for node in 0..nodes {
        for j in 0..k {
            m.write_word(
                NodeId(node),
                arr0.base + j,
                Word::int(keys[(node * k + j) as usize] as i32),
            );
        }
    }
    keys
}

/// Reads back the sorted array (pass count decides which buffer).
pub fn result(m: &JMachine, cfg: &RadixConfig) -> Vec<u32> {
    let name = if PASSES % 2 == 1 {
        "rs_arr1"
    } else {
        "rs_arr0"
    };
    let nodes = m.node_count();
    let k = cfg.keys / nodes;
    let mut out = Vec::with_capacity(cfg.keys as usize);
    for node in 0..nodes {
        let block = m.read_block(NodeId(node), name);
        out.extend(block[..k as usize].iter().map(|w| w.bits()));
    }
    out
}

/// The thread types of Table 4: `(name, entry label)`.
pub const THREADS: [(&str, &str); 3] =
    [("Sort", "main"), ("Write", "rs_write"), ("Scan", "rs_scan")];

/// Builds, loads, runs, and validates radix sort on the machine `mcfg`
/// describes (size, engine, fault plan, mesh shape); every node starts at
/// the entry point.
///
/// # Errors
///
/// Propagates machine failures.
///
/// # Panics
///
/// Panics if the sorted output differs from the host reference.
pub fn run(mcfg: MachineConfig, cfg: &RadixConfig, max_cycles: u64) -> Result<Run, MachineError> {
    let nodes = mcfg.nodes();
    let mut m = crate::boot(program(cfg, nodes), mcfg);
    let keys = setup(&mut m, cfg);
    let cycles = m.run_until_quiescent(max_cycles)?;
    let (sorted, expected) = (result(&m, cfg), reference(&keys));
    assert_eq!(sorted, expected, "radix sort mismatch on {nodes} nodes");
    let answer = u64::from(cfg.keys);
    Ok(crate::finish(App::Radix, &m, cycles, answer, &THREADS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_on_one_node() {
        let cfg = RadixConfig { keys: 64, seed: 3 };
        run(MachineConfig::new(1), &cfg, 50_000_000).unwrap();
    }

    #[test]
    fn sorts_across_machine_sizes() {
        let cfg = RadixConfig { keys: 256, seed: 5 };
        for nodes in [2u32, 4, 8, 16] {
            run(MachineConfig::new(nodes), &cfg, 100_000_000)
                .unwrap_or_else(|e| panic!("{nodes} nodes: {e}"));
        }
    }

    #[test]
    fn duplicate_heavy_keys_sort_correctly() {
        let cfg = RadixConfig {
            keys: 128,
            seed: 11,
        };
        let p = program(&cfg, 4);
        let mut m = crate::boot(p, MachineConfig::new(4));
        let arr0 = m.program().segment("rs_arr0");
        let k = cfg.keys / 4;
        let mut keys = Vec::new();
        for i in 0..cfg.keys {
            let v = (i % 7) * 1000;
            keys.push(v);
            m.write_word(NodeId(i / k), arr0.base + (i % k), Word::int(v as i32));
        }
        m.run_until_quiescent(100_000_000).unwrap();
        let got = result(&m, &cfg);
        assert_eq!(got, reference(&keys));
    }
}
