//! Traveling Salesperson Problem (paper §4.3.4).
//!
//! The paper's TSP is written in Concurrent Smalltalk on the COSMOS
//! runtime, whose style this module mirrors ("COSMOS-lite"):
//!
//! * the distance matrix is a **global named object**: every access goes
//!   through `XLATE` of its global id (entered into the name table at
//!   boot), reproducing CST's enormous xlate rates with a tiny miss ratio
//!   (Table 5);
//! * **tasks are messages**: a task is a unique subpath of a given length
//!   (`[hdr, visited-mask, last-city, cost]`), spread evenly at start —
//!   every node enumerates the prefix space and self-posts its share;
//! * the **worker thread is periodically suspended** — every `yield_every`
//!   expansion steps it re-posts itself as a continuation message, the
//!   paper's "null procedure call" that lets queued bound updates dispatch;
//! * **bound propagation**: a new best tour is sent to node 0 and
//!   broadcast down a binary tree; receivers prune against the tightened
//!   bound mid-task;
//! * **work-requesting**: an idle worker asks rotating victims for a
//!   pooled task, the paper's dynamic load balancing that keeps TSP idle
//!   time down at 3.8%; a termination broadcast from node 0 quenches the
//!   requests once every tour is accounted for.
//!
//! Every node enumerates the prefixes twice (count, then post) so the
//! completion count is known before any result arrives.

use crate::{App, Run};
use jm_asm::{hdr, Builder, Program, Region};
use jm_isa::instr::{AluOp, MsgPriority::P0, StatClass};
use jm_isa::node::{Coord, NodeId, RouteWord};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::word::Word;
use jm_machine::{JMachine, MachineConfig, MachineError};
use jm_prng::Prng;
use jm_runtime::nnr;

/// Words per task context slot: free-link, saved sp, padding, then up to 16
/// frames of 4 words.
const SLOT_WORDS: u32 = 8 + 16 * 4;
/// Context slots per node.
const NSLOTS: u32 = 128;
/// The distance matrix's global object id.
const DIST_OBJ: u32 = 1;
/// "Infinity" initial bound.
const BIG: i32 = 1_000_000_000;

/// Problem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TspConfig {
    /// Number of cities (tour starts and ends at city 0).
    pub cities: u32,
    /// Seed for the distance matrix.
    pub seed: u64,
    /// Task prefix length in cities (including city 0); `None` picks the
    /// smallest depth giving at least three tasks per node.
    pub task_depth: Option<u32>,
    /// Expansion steps between voluntary suspensions (the CST null-call
    /// period).
    pub yield_every: u32,
}

impl TspConfig {
    /// The paper's 14-city configuration.
    pub fn paper() -> TspConfig {
        TspConfig {
            cities: 14,
            seed: 0x75b,
            task_depth: None,
            yield_every: 64,
        }
    }

    /// A scaled configuration with identical structure.
    pub fn scaled() -> TspConfig {
        TspConfig {
            cities: 9,
            seed: 0x75b,
            task_depth: None,
            yield_every: 32,
        }
    }

    /// Generates the (asymmetric) distance matrix, entries 1..100.
    pub fn matrix(&self) -> Vec<u32> {
        let c = self.cities as usize;
        let mut rng = Prng::new(self.seed);
        let mut m = vec![0u32; c * c];
        for i in 0..c {
            for j in 0..c {
                if i != j {
                    m[i * c + j] = rng.range_u32(1, 100);
                }
            }
        }
        m
    }

    /// Number of depth-`d` prefixes (tasks): (C-1)(C-2)…(C-d+1).
    pub fn task_count(&self, depth: u32) -> u64 {
        let mut t = 1u64;
        for k in 1..depth {
            t *= u64::from(self.cities - k);
        }
        t
    }

    /// Resolves the task depth for a machine size.
    pub fn depth_for(&self, nodes: u32) -> u32 {
        if let Some(d) = self.task_depth {
            return d.clamp(2, self.cities - 1);
        }
        for d in 2..self.cities {
            if self.task_count(d) >= 3 * u64::from(nodes) {
                return d;
            }
        }
        self.cities - 1
    }
}

/// Host reference: branch-and-bound minimum tour cost.
pub fn reference(matrix: &[u32], cities: u32) -> u32 {
    let c = cities as usize;
    fn go(m: &[u32], c: usize, mask: u32, last: usize, cost: u32, best: &mut u32) {
        if cost >= *best {
            return;
        }
        if mask == (1 << c) - 1 {
            let total = cost + m[last * c];
            if total < *best {
                *best = total;
            }
            return;
        }
        for next in 1..c {
            if mask & (1 << next) == 0 {
                go(
                    m,
                    c,
                    mask | (1 << next),
                    next,
                    cost + m[last * c + next],
                    best,
                );
            }
        }
    }
    let mut best = u32::MAX;
    go(matrix, c, 1, 0, 0, &mut best);
    best
}

// tsp_p layout: [0] mode, [1] task counter, [2] done, [3] expected,
// [4] finished, [5] enum mask, [6] current context slot (-1 = none),
// [7] sp, [8] budget, [9] enum saved level, [10] bit scratch,
// [11] cost scratch, [12] bound saved cost, [13] saved child,
// [14] enum link, [15] spare, [16] pending tasks, [17] steal probe,
// [18] stop flag, [19] worker-awake flag, [20..24] spare.

/// Builds the SPMD TSP program for `nodes` nodes.
///
/// # Panics
///
/// Panics on infeasible configurations (too many cities, or more
/// outstanding tasks per node than the queue and context pool can hold).
pub fn program(cfg: &TspConfig, nodes: u32) -> Program {
    let c = cfg.cities as i32;
    assert!((4..=16).contains(&c), "city count out of range");
    let d = cfg.depth_for(nodes) as i32;
    assert!(d >= 2 && d < c, "bad task depth {d}");
    let tasks = cfg.task_count(d as u32);
    let per_node = tasks.div_ceil(u64::from(nodes));
    assert!(
        per_node <= 96,
        "{per_node} tasks/node would overflow the message queue (paper §4.3.3)"
    );
    let full = (1i32 << c) - 1;
    let slot = SLOT_WORDS as i32;
    let route0 = RouteWord::new(Coord::new(0, 0, 0)).to_word();
    let sym_dist = Word::sym(DIST_OBJ);

    let mut b = Builder::new();
    b.reserve("tsp_dist", Region::Imem, (c * c) as u32);
    b.data("tsp_best", Region::Imem, vec![Word::int(BIG)]);
    // tsp_p: see the layout comment above; [6] (current context slot)
    // boots as -1 = "no task in progress".
    let mut tsp_p = vec![Word::int(0); 24];
    tsp_p[6] = Word::int(-1);
    b.data("tsp_p", Region::Imem, tsp_p);
    // Pending-task pool: 3-word records, sized for the queue-bounded
    // maximum plus stolen arrivals.
    b.data("tsp_taskq", Region::Imem, vec![Word::int(0); 128 * 3]);
    b.reserve("tsp_ep", Region::Imem, 17); // enumeration path
    b.reserve("tsp_ec", Region::Imem, 17); // enumeration costs
    let mut pool = vec![Word::int(0); (NSLOTS * SLOT_WORDS) as usize];
    for i in 0..NSLOTS {
        let next = if i + 1 == NSLOTS { -1 } else { i as i32 + 1 };
        pool[(i * SLOT_WORDS) as usize] = Word::int(next);
    }
    b.data("tsp_pool", Region::Emem, pool);
    b.data("tsp_free", Region::Imem, vec![Word::int(0)]);

    // ---------------- background: boot + SPMD enumeration ----------
    b.label("main");
    // COSMOS-lite boot: register the distance matrix as a global object.
    b.mark(StatClass::Xlate);
    b.enter(sym_dist, jm_asm::seg("tsp_dist"));
    b.mark(StatClass::Compute);
    // Every node enumerates the full prefix space (count pass, then a
    // self-posting pass that keeps only its own share).
    b.load_seg(A0, "tsp_p");
    b.mov(MemRef::disp(A0, 0), 0);
    b.mov(MemRef::disp(A0, 1), 0);
    b.call("tsp_expand");
    b.load_seg(A0, "tsp_p");
    b.mov(R0, MemRef::disp(A0, 1));
    b.mov(MemRef::disp(A0, 3), R0); // expected completions (used on node 0)
    b.mov(MemRef::disp(A0, 0), 1);
    b.mov(MemRef::disp(A0, 1), 0);
    b.call("tsp_expand");
    // Open the work-requesting gate: stealing before distribution ends
    // would storm the P0 queue and starve this enumerator. If the worker
    // went to sleep against the closed gate, wake it to go stealing.
    b.load_seg(A0, "tsp_p");
    b.mov(MemRef::disp(A0, 21), 1);
    b.mov(R2, MemRef::disp(A0, 19));
    b.bnz(R2, "main_end");
    b.mov(MemRef::disp(A0, 19), 1);
    b.send(P0, Special::Nnr);
    b.sende(P0, hdr("tsp_work", 1));
    b.label("main_end");
    b.suspend();

    // ---------------- prefix enumeration (background) -----------
    // A0 = tsp_p, A1 = tsp_ep, A2 = dist, A3 = tsp_ec;
    // R0 = level, R1 = trial city, R2/R3 scratch.
    b.label("tsp_expand");
    b.load_seg(A0, "tsp_p");
    b.mov(MemRef::disp(A0, 14), R3);
    b.load_seg(A1, "tsp_ep");
    b.load_seg(A2, "tsp_dist");
    b.load_seg(A3, "tsp_ec");
    b.mov(MemRef::disp(A1, 0), 0); // city 0 at level 0
    b.mov(MemRef::disp(A3, 0), 0); // cost 0
    b.mov(MemRef::disp(A0, 5), 1); // mask = {0}
    b.movi(R0, 1);
    b.mov(MemRef::disp(A1, 1), 0); // level-1 trials start at city 1
    b.label("e_try");
    b.mov(R1, MemRef::reg(A1, R0));
    b.addi(R1, R1, 1);
    b.mov(MemRef::reg(A1, R0), R1);
    b.alu(AluOp::Eq, R2, R1, c);
    b.bt(R2, "e_back");
    b.movi(R2, 1);
    b.alu(AluOp::Lsh, R2, R2, R1);
    b.alu(AluOp::And, R2, R2, MemRef::disp(A0, 5));
    b.bnz(R2, "e_try"); // visited
                        // place: cost' = ec[l-1] + dist[ep[l-1]][c]
    b.subi(R2, R0, 1);
    b.mov(R3, MemRef::reg(A1, R2)); // previous city
    b.alu(AluOp::Mul, R3, R3, c);
    b.alu(AluOp::Add, R3, R3, R1);
    b.mov(R3, MemRef::reg(A2, R3)); // distance
    b.subi(R2, R0, 1);
    b.mov(R2, MemRef::reg(A3, R2)); // ec[l-1]
    b.alu(AluOp::Add, R3, R3, R2);
    b.mov(MemRef::reg(A3, R0), R3); // ec[l]
                                    // mask |= 1<<c
    b.movi(R2, 1);
    b.alu(AluOp::Lsh, R2, R2, R1);
    b.alu(AluOp::Or, R2, R2, MemRef::disp(A0, 5));
    b.mov(MemRef::disp(A0, 5), R2);
    // emit or descend
    b.alu(AluOp::Add, R2, R0, 1);
    b.alu(AluOp::Eq, R3, R2, d);
    b.bt(R3, "e_emit");
    b.mov(R0, R2);
    b.mov(MemRef::reg(A1, R0), 0);
    b.br("e_try");
    b.label("e_back");
    b.subi(R0, R0, 1);
    b.bz(R0, "e_done");
    // clear the bit of the city we are returning to
    b.mov(R1, MemRef::reg(A1, R0));
    b.movi(R2, 1);
    b.alu(AluOp::Lsh, R2, R2, R1);
    b.alu1(jm_isa::Alu1Op::Inv, R2, R2);
    b.alu(AluOp::And, R2, R2, MemRef::disp(A0, 5));
    b.mov(MemRef::disp(A0, 5), R2);
    b.br("e_try");
    b.label("e_done");
    b.jmp(MemRef::disp(A0, 14));

    b.label("e_emit");
    b.mov(R2, MemRef::disp(A0, 0));
    b.bnz(R2, "e_send");
    b.mov(R2, MemRef::disp(A0, 1));
    b.addi(R2, R2, 1);
    b.mov(MemRef::disp(A0, 1), R2);
    b.br("e_unplace");
    b.label("e_send");
    // Ownership filter: self-post only tasks whose index maps to this node
    // (even initial distribution, no single-node scatter bottleneck; the
    // work-requesting protocol rebalances from there).
    b.mov(R2, MemRef::disp(A0, 1));
    b.alu(AluOp::Rem, R2, R2, Special::NNodes);
    b.alu(AluOp::Eq, R2, R2, Special::Nid);
    b.bf(R2, "e_count");
    b.mark(StatClass::Comm);
    b.send(P0, Special::Nnr);
    b.send2(P0, hdr("tsp_task", 4), MemRef::disp(A0, 5)); // mask
    b.mov(R2, MemRef::reg(A1, R0));
    b.send2e(P0, R2, MemRef::reg(A3, R0)); // last city, cost
    b.mark(StatClass::Compute);
    b.label("e_count");
    b.mov(R2, MemRef::disp(A0, 1));
    b.addi(R2, R2, 1);
    b.mov(MemRef::disp(A0, 1), R2);
    b.label("e_unplace");
    // clear current city's bit; continue trying at this level
    b.mov(R1, MemRef::reg(A1, R0));
    b.movi(R2, 1);
    b.alu(AluOp::Lsh, R2, R2, R1);
    b.alu1(jm_isa::Alu1Op::Inv, R2, R2);
    b.alu(AluOp::And, R2, R2, MemRef::disp(A0, 5));
    b.mov(MemRef::disp(A0, 5), R2);
    b.br("e_try");

    // ---------------- task intake: push into the local pool ----------------
    // Tasks are queued in node memory (not processed inline) so they can be
    // redistributed — the paper's dynamic load balancing ("incomplete tours
    // can be redistributed to balance the load").
    b.label("tsp_task");
    b.load_seg(A0, "tsp_p");
    b.load_seg(A1, "tsp_taskq");
    b.mov(R0, MemRef::disp(A0, 16)); // pending
    b.alu(AluOp::Mul, R1, R0, 3);
    b.mov(R2, MemRef::disp(A3, 1));
    b.mov(MemRef::reg(A1, R1), R2); // mask
    b.addi(R1, R1, 1);
    b.mov(R2, MemRef::disp(A3, 2));
    b.mov(MemRef::reg(A1, R1), R2); // last
    b.addi(R1, R1, 1);
    b.mov(R2, MemRef::disp(A3, 3));
    b.mov(MemRef::reg(A1, R1), R2); // cost
    b.addi(R0, R0, 1);
    b.mov(MemRef::disp(A0, 16), R0);
    // Wake the worker if it is asleep.
    b.mov(R2, MemRef::disp(A0, 19));
    b.bnz(R2, "tt_end");
    b.mov(MemRef::disp(A0, 19), 1);
    b.send(P0, Special::Nnr);
    b.sende(P0, hdr("tsp_work", 1));
    b.label("tt_end");
    b.suspend();

    // ---------------- the worker: the "task-processing" thread ----------
    // A0 = tsp_p, A2 = context pool; per step: R0 = frame base index.
    b.label("tsp_work");
    b.load_seg(A0, "tsp_p");
    b.mov(A2, jm_asm::seg("tsp_pool"));
    b.mov(MemRef::disp(A0, 8), cfg.yield_every as i32);
    b.label("w_step");
    // Have a task in progress?
    b.mov(R0, MemRef::disp(A0, 6));
    b.alu(AluOp::Ge, R2, R0, 0);
    b.bt(R2, "t_step");
    // Acquire: pop the local pool, or go work-requesting.
    b.mov(R1, MemRef::disp(A0, 16));
    b.bz(R1, "w_steal");
    b.subi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 16), R1);
    // Allocate a search context.
    b.load_seg(A1, "tsp_free");
    b.mov(R0, MemRef::disp(A1, 0));
    b.mov(MemRef::disp(A0, 6), R0);
    b.mov(MemRef::disp(A0, 7), 0); // sp = 0
    b.alu(AluOp::Mul, R2, R0, slot);
    b.mov(R3, MemRef::reg(A2, R2)); // next free
    b.mov(MemRef::disp(A1, 0), R3);
    // Copy the task record into frame 0.
    b.alu(AluOp::Mul, R0, R1, 3);
    b.addi(R2, R2, 8);
    b.load_seg(A1, "tsp_taskq");
    for _ in 0..3 {
        b.mov(R3, MemRef::reg(A1, R0));
        b.mov(MemRef::reg(A2, R2), R3);
        b.addi(R0, R0, 1);
        b.addi(R2, R2, 1);
    }
    b.mov(MemRef::reg(A2, R2), 0); // tried = 0
    b.br("w_step");

    // No local work: request some (the paper's "work-requesting" threads).
    b.label("w_steal");
    b.mov(R2, MemRef::disp(A0, 18)); // stopped?
    b.bnz(R2, "w_off");
    b.mov(R2, MemRef::disp(A0, 21)); // distribution still running?
    b.bz(R2, "w_off");
    b.mov(R1, MemRef::disp(A0, 17));
    b.addi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 17), R1);
    b.mov(R0, Special::Nid);
    b.alu(AluOp::Add, R0, R0, R1);
    b.alu(AluOp::Rem, R0, R0, Special::NNodes);
    b.alu(AluOp::Eq, R2, R0, Special::Nid);
    b.bf(R2, "w_victim");
    b.addi(R0, R0, 1);
    b.alu(AluOp::Rem, R0, R0, Special::NNodes);
    b.label("w_victim");
    b.call(nnr::NID_TO_ROUTE);
    b.mark(StatClass::Compute);
    b.send(P0, R0);
    b.send2e(P0, hdr("tsp_req", 2), Special::Nnr);
    b.label("w_off");
    b.mov(MemRef::disp(A0, 19), 0); // worker asleep
    b.suspend();

    b.label("t_step");
    b.mov(R1, MemRef::disp(A0, 7));
    b.alu(AluOp::Lt, R2, R1, 0);
    b.bt(R2, "t_task_done");
    // frame base = slot*SLOT + 8 + 4*sp
    b.mov(R0, MemRef::disp(A0, 6));
    b.alu(AluOp::Mul, R0, R0, slot);
    b.alu(AluOp::Lsh, R1, R1, 2);
    b.alu(AluOp::Add, R0, R0, R1);
    b.addi(R0, R0, 8);
    // c = ++frame.tried
    b.addi(R1, R0, 3);
    b.mov(R2, MemRef::reg(A2, R1));
    b.addi(R2, R2, 1);
    b.mov(MemRef::reg(A2, R1), R2);
    b.alu(AluOp::Eq, R3, R2, c);
    b.bt(R3, "t_pop");
    // visited?
    b.movi(R3, 1);
    b.alu(AluOp::Lsh, R3, R3, R2);
    b.mov(R1, MemRef::reg(A2, R0)); // mask
    b.alu(AluOp::And, R1, R1, R3);
    b.bnz(R1, "t_budget");
    b.mov(MemRef::disp(A0, 10), R3); // stash bit
                                     // CST-style object access: xlate the matrix's global name.
    b.mark(StatClass::Xlate);
    b.xlate(A1, sym_dist);
    b.mark(StatClass::Compute);
    // newcost = frame.cost + dist[frame.last * C + c]
    b.addi(R1, R0, 2);
    b.mov(R1, MemRef::reg(A2, R1)); // cost
    b.addi(R3, R0, 1);
    b.mov(R3, MemRef::reg(A2, R3)); // last
    b.alu(AluOp::Mul, R3, R3, c);
    b.alu(AluOp::Add, R3, R3, R2);
    b.mov(R3, MemRef::reg(A1, R3)); // distance
    b.alu(AluOp::Add, R1, R1, R3);
    // prune against the global bound
    b.load_seg(A1, "tsp_best");
    b.alu(AluOp::Ge, R3, R1, MemRef::disp(A1, 0));
    b.bt(R3, "t_budget");
    // complete tour?
    b.mov(R3, MemRef::reg(A2, R0));
    b.alu(AluOp::Or, R3, R3, MemRef::disp(A0, 10));
    b.alu(AluOp::Eq, R3, R3, full);
    b.bt(R3, "t_complete");
    // push frame: [mask|bit, c, newcost, 0]
    b.mov(MemRef::disp(A0, 11), R1); // stash newcost
    b.addi(R3, R0, 4);
    b.mov(R1, MemRef::reg(A2, R0));
    b.alu(AluOp::Or, R1, R1, MemRef::disp(A0, 10));
    b.mov(MemRef::reg(A2, R3), R1);
    b.addi(R3, R3, 1);
    b.mov(MemRef::reg(A2, R3), R2);
    b.addi(R3, R3, 1);
    b.mov(R1, MemRef::disp(A0, 11));
    b.mov(MemRef::reg(A2, R3), R1);
    b.addi(R3, R3, 1);
    b.mov(MemRef::reg(A2, R3), 0);
    b.mov(R1, MemRef::disp(A0, 7));
    b.addi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 7), R1);
    b.br("t_budget");

    b.label("t_complete");
    // tour cost = newcost + dist[c][0]
    b.mark(StatClass::Xlate);
    b.xlate(A1, sym_dist);
    b.mark(StatClass::Compute);
    b.alu(AluOp::Mul, R2, R2, c);
    b.mov(R2, MemRef::reg(A1, R2));
    b.alu(AluOp::Add, R1, R1, R2);
    b.load_seg(A1, "tsp_best");
    b.alu(AluOp::Ge, R2, R1, MemRef::disp(A1, 0));
    b.bt(R2, "t_budget");
    b.mov(MemRef::disp(A1, 0), R1);
    b.mark(StatClass::Comm);
    b.send(P0, route0);
    b.send2e(P0, hdr("tsp_bound", 2), R1);
    b.mark(StatClass::Compute);
    b.br("t_budget");

    b.label("t_pop");
    b.mov(R1, MemRef::disp(A0, 7));
    b.subi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 7), R1);
    b.label("t_budget");
    b.mov(R1, MemRef::disp(A0, 8));
    b.subi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 8), R1);
    b.bnz(R1, "w_step");
    // Voluntary suspension (the CST null call): repost the worker so
    // queued bound updates and task messages can dispatch, then yield.
    b.mark(StatClass::Sync);
    b.send(P0, Special::Nnr);
    b.sende(P0, hdr("tsp_work", 1));
    b.suspend();

    b.label("t_task_done");
    // free the context, report completion to node 0, continue working
    b.mov(R0, MemRef::disp(A0, 6));
    b.alu(AluOp::Mul, R1, R0, slot);
    b.load_seg(A1, "tsp_free");
    b.mov(R2, MemRef::disp(A1, 0));
    b.mov(MemRef::reg(A2, R1), R2);
    b.mov(MemRef::disp(A1, 0), R0);
    b.movi(R1, -1);
    b.mov(MemRef::disp(A0, 6), R1);
    b.mark(StatClass::Comm);
    b.send(P0, route0);
    b.sende(P0, hdr("tsp_done", 1));
    b.mark(StatClass::Compute);
    b.br("t_budget");

    // ---------------- bound broadcast ----------------
    b.label("tsp_bound");
    b.mark(StatClass::Sync);
    b.load_seg(A0, "tsp_best");
    b.mov(R0, MemRef::disp(A3, 1));
    b.alu(AluOp::Ge, R1, R0, MemRef::disp(A0, 0));
    b.bt(R1, "tb_end");
    b.mov(MemRef::disp(A0, 0), R0);
    // forward to tree children 2i+1, 2i+2
    b.load_seg(A1, "tsp_p");
    b.mov(MemRef::disp(A1, 12), R0);
    b.mov(R1, Special::Nid);
    b.alu(AluOp::Lsh, R1, R1, 1);
    b.addi(R1, R1, 1);
    b.alu(AluOp::Lt, R2, R1, Special::NNodes);
    b.bf(R2, "tb_end");
    b.mov(MemRef::disp(A1, 13), R1);
    b.mov(R0, R1);
    b.call(nnr::NID_TO_ROUTE);
    b.mark(StatClass::Sync);
    b.send(P0, R0);
    b.load_seg(A1, "tsp_p");
    b.send2e(P0, hdr("tsp_bound", 2), MemRef::disp(A1, 12));
    b.mov(R1, MemRef::disp(A1, 13));
    b.addi(R1, R1, 1);
    b.alu(AluOp::Lt, R2, R1, Special::NNodes);
    b.bf(R2, "tb_end");
    b.mov(R0, R1);
    b.call(nnr::NID_TO_ROUTE);
    b.mark(StatClass::Sync);
    b.send(P0, R0);
    b.load_seg(A1, "tsp_p");
    b.send2e(P0, hdr("tsp_bound", 2), MemRef::disp(A1, 12));
    b.label("tb_end");
    b.suspend();

    // ---------------- work redistribution ----------------
    // tsp_req: [hdr, requester_route] — hand over a pooled task, or say no.
    b.label("tsp_req");
    b.load_seg(A0, "tsp_p");
    b.mov(R1, MemRef::disp(A0, 16));
    b.bz(R1, "rq_none");
    b.subi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 16), R1);
    b.alu(AluOp::Mul, R0, R1, 3);
    b.load_seg(A1, "tsp_taskq");
    b.mark(StatClass::Comm);
    b.send(P0, MemRef::disp(A3, 1));
    b.send(P0, hdr("tsp_task", 4));
    b.mov(R2, MemRef::reg(A1, R0));
    b.send(P0, R2);
    b.addi(R0, R0, 1);
    b.mov(R2, MemRef::reg(A1, R0));
    b.send(P0, R2);
    b.addi(R0, R0, 1);
    b.mov(R2, MemRef::reg(A1, R0));
    b.sende(P0, R2);
    b.suspend();
    b.label("rq_none");
    b.mark(StatClass::Comm);
    b.send(P0, MemRef::disp(A3, 1));
    b.sende(P0, hdr("tsp_none", 1));
    b.suspend();

    // tsp_none: the victim had nothing — retry elsewhere unless stopped.
    b.label("tsp_none");
    b.load_seg(A0, "tsp_p");
    b.mov(R2, MemRef::disp(A0, 18));
    b.bnz(R2, "tn_end");
    b.mov(R2, MemRef::disp(A0, 19));
    b.bnz(R2, "tn_end");
    b.mov(MemRef::disp(A0, 19), 1);
    b.send(P0, Special::Nnr);
    b.sende(P0, hdr("tsp_work", 1));
    b.label("tn_end");
    b.suspend();

    // tsp_stop: tree-broadcast termination (quenches work-requesting).
    b.label("tsp_stop");
    b.load_seg(A0, "tsp_p");
    b.mov(MemRef::disp(A0, 18), 1);
    b.mov(R1, Special::Nid);
    b.alu(AluOp::Lsh, R1, R1, 1);
    b.addi(R1, R1, 1);
    b.alu(AluOp::Lt, R2, R1, Special::NNodes);
    b.bf(R2, "ts_end");
    b.mov(MemRef::disp(A0, 13), R1);
    b.mov(R0, R1);
    b.call(nnr::NID_TO_ROUTE);
    b.mark(StatClass::Compute);
    b.send(P0, R0);
    b.sende(P0, hdr("tsp_stop", 1));
    b.load_seg(A0, "tsp_p");
    b.mov(R1, MemRef::disp(A0, 13));
    b.addi(R1, R1, 1);
    b.alu(AluOp::Lt, R2, R1, Special::NNodes);
    b.bf(R2, "ts_end");
    b.mov(R0, R1);
    b.call(nnr::NID_TO_ROUTE);
    b.mark(StatClass::Compute);
    b.send(P0, R0);
    b.sende(P0, hdr("tsp_stop", 1));
    b.label("ts_end");
    b.suspend();

    // ---------------- completion counting on node 0 ----------------
    b.label("tsp_done");
    b.load_seg(A0, "tsp_p");
    b.mov(R1, MemRef::disp(A0, 2));
    b.addi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 2), R1);
    b.alu(AluOp::Eq, R2, R1, MemRef::disp(A0, 3));
    b.bf(R2, "td_end");
    b.mov(MemRef::disp(A0, 4), 1);
    // All tours explored: broadcast termination from the root.
    b.send(P0, route0);
    b.sende(P0, hdr("tsp_stop", 1));
    b.label("td_end");
    b.suspend();

    b.entry("main");
    nnr::install(&mut b);
    b.assemble().expect("tsp assembles")
}

/// Loads the distance matrix onto every node; returns it.
pub fn setup(m: &mut JMachine, cfg: &TspConfig) -> Vec<u32> {
    let matrix = cfg.matrix();
    let seg = m.program().segment("tsp_dist");
    for node in 0..m.node_count() {
        for (i, &v) in matrix.iter().enumerate() {
            m.write_word(NodeId(node), seg.base + i as u32, Word::int(v as i32));
        }
    }
    matrix
}

/// The thread types of Table 5, `(name, entry label)`: the first
/// [`USER_THREADS`] are the application's, the rest the object runtime's.
pub const THREADS: [(&str, &str); 6] = [
    ("Task", "tsp_work"),
    ("Intake", "tsp_task"),
    ("Bound", "tsp_bound"),
    ("WorkReq", "tsp_req"),
    ("WorkNone", "tsp_none"),
    ("Done", "tsp_done"),
];

/// How many of [`THREADS`] are user code.
pub const USER_THREADS: usize = 2;

/// Reads back the best tour's cost, which node 0 holds.
///
/// # Panics
///
/// Panics if node 0 has not accounted for every tour.
pub fn result(m: &JMachine) -> u32 {
    assert_eq!(crate::word(m, 0, "tsp_p", 4), 1, "tsp did not finish");
    crate::word(m, 0, "tsp_best", 0) as u32
}

/// Builds, runs, and validates TSP on the machine `mcfg` describes (size,
/// engine, fault plan, mesh shape); every node starts at the entry point.
///
/// # Errors
///
/// Propagates machine failures.
///
/// # Panics
///
/// Panics if the search did not finish or the tour cost differs from the
/// host reference.
pub fn run(mcfg: MachineConfig, cfg: &TspConfig, max_cycles: u64) -> Result<Run, MachineError> {
    let nodes = mcfg.nodes();
    let mut m = crate::boot(program(cfg, nodes), mcfg);
    let matrix = setup(&mut m, cfg);
    let cycles = m.run_until_quiescent(max_cycles)?;
    let (best, expected) = (result(&m), reference(&matrix, cfg.cities));
    assert_eq!(best, expected, "tsp mismatch on {nodes} nodes");
    Ok(crate::finish(App::Tsp, &m, cycles, best.into(), &THREADS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_on_a_tiny_square() {
        // 4 cities in a cycle of cost 4.
        #[rustfmt::skip]
        let m = vec![
            0, 1, 9, 1,
            1, 0, 1, 9,
            9, 1, 0, 1,
            1, 9, 1, 0,
        ];
        assert_eq!(reference(&m, 4), 4);
    }

    #[test]
    fn solves_small_instances() {
        let cfg = TspConfig {
            cities: 7,
            seed: 42,
            task_depth: None,
            yield_every: 16,
        };
        for nodes in [1u32, 4, 8] {
            let r = run(MachineConfig::new(nodes), &cfg, 500_000_000)
                .unwrap_or_else(|e| panic!("{nodes} nodes: {e}"));
            assert!(r.answer > 0);
        }
    }

    #[test]
    fn xlates_dominate_like_cst() {
        let cfg = TspConfig {
            cities: 7,
            seed: 42,
            task_depth: None,
            yield_every: 16,
        };
        let r = run(MachineConfig::new(4), &cfg, 500_000_000).unwrap();
        // One xlate per expansion: xlates should be plentiful, with an
        // (almost) zero miss ratio — Table 5's shape.
        assert!(
            r.stats.nodes.xlates > 200,
            "{} xlates",
            r.stats.nodes.xlates
        );
        assert!(r.stats.nodes.xlate_misses * 100 < r.stats.nodes.xlates.max(1));
    }
}
