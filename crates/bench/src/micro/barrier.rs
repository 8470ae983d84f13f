//! Table 3: software barrier synchronization time vs. machine size.
//!
//! Every node enters the runtime's dissemination barrier `rounds` times;
//! node 0 timestamps from its call until its continuation thread resumes —
//! exactly the paper's definition ("from the point at which the current
//! thread calls the barrier routine until the time this single thread is
//! resumed").

use crate::baselines;
use crate::registry::{sizes, Ctx, Point};
use crate::rows::Row;
use jm_asm::{hdr, Builder};
use jm_isa::consts::cycles_to_us;
use jm_isa::instr::{AluOp, StatClass};
use jm_isa::node::NodeId;
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::word::Word;
use jm_machine::{MachineConfig, MachineError, StartPolicy};
use jm_runtime::{barrier, nnr};

// t3_r layout: [0] rounds remaining, [1] t0, [2] sum, [3] count.

fn program(rounds: i32) -> jm_asm::Program {
    let mut b = Builder::new();
    b.data("t3_r", jm_asm::Region::Imem, vec![Word::int(0); 4]);
    b.label("main");
    b.load_seg(A0, "t3_r");
    b.mov(MemRef::disp(A0, 0), rounds);
    b.br("enter");

    b.label("bar_cont");
    b.mark(StatClass::Compute);
    b.load_seg(A0, "t3_r");
    // Node 0 accumulates its timing.
    b.mov(R0, Special::Nid);
    b.bnz(R0, "next");
    b.mov(R1, Special::Cycle);
    b.alu(AluOp::Sub, R1, R1, MemRef::disp(A0, 1));
    b.mov(R2, MemRef::disp(A0, 2));
    b.alu(AluOp::Add, R2, R2, R1);
    b.mov(MemRef::disp(A0, 2), R2);
    b.mov(R2, MemRef::disp(A0, 3));
    b.addi(R2, R2, 1);
    b.mov(MemRef::disp(A0, 3), R2);
    b.label("next");
    b.mov(R1, MemRef::disp(A0, 0));
    b.subi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 0), R1);
    b.bz(R1, "finish");
    b.label("enter");
    b.mov(R1, Special::Cycle);
    b.mov(MemRef::disp(A0, 1), R1);
    b.mov(R0, hdr("bar_cont", 1));
    b.call(barrier::BAR_ENTER);
    b.suspend();
    b.label("finish");
    b.suspend();

    b.entry("main");
    barrier::install(&mut b);
    nnr::install(&mut b);
    b.assemble().expect("table3 assembles")
}

/// The barrier on `nodes` nodes, `rounds` times: `table3/<nodes>` holds
/// the mean microseconds per barrier at 12.5 MHz and, where the iPSC/860's
/// barrier is published, how many times faster the J-Machine's is — the
/// comparison the paper's table is there to make.
pub fn point(nodes: u32, rounds: u32) -> Point {
    let p = program(rounds as i32);
    let seg = p.segment("t3_r");
    let config = MachineConfig::new(nodes).start(StartPolicy::AllNodes);
    Point::new(p, config, move |m| {
        m.run_until_quiescent(50_000_000)?;
        let sum = m.read_word(NodeId(0), seg.base + 2).as_i32() as u64;
        let count = m.read_word(NodeId(0), seg.base + 3).as_i32() as u64;
        assert_eq!(count, u64::from(rounds), "barrier round count mismatch");
        let us = cycles_to_us(1) * (sum as f64 / count as f64);
        let line = format!("table3/{nodes}");
        let mut rows = vec![Row::simulated(&line, "J-Machine", us, "us")];
        if let Some(ipsc) = baselines::published(&line, "iPSC/860") {
            rows.push(Row::simulated(&line, "iPSC/860 over J", ipsc / us, "x"));
        }
        Ok(rows)
    })
}

/// Table 3: eight barriers at every power of two from 2 to `max_nodes`.
///
/// # Errors
///
/// Propagates machine failures.
pub fn table3(ctx: &mut Ctx, max_nodes: u32) -> Result<Vec<Row>, MachineError> {
    let points = sizes(1, max_nodes).into_iter().map(|n| point(n, 8));
    Ok(ctx.run_all(points.collect())?.concat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_machine::Engine;

    #[test]
    fn barrier_scales_logarithmically() {
        let ctx = Ctx::new(Engine::Event, false, 7);
        let us = |nodes, rounds| ctx.run(point(nodes, rounds)).unwrap()[0].value;
        let (p2, p16, p64) = (us(2, 3), us(16, 3), us(64, 3));
        assert!(p2 < p16);
        assert!(p16 < p64);
        // Log growth: 64 nodes should cost far less than 8x the 2-node time.
        assert!(p64 < p2 * 8.0);
        // Under the iPSC/860 from the start, and by an order of magnitude
        // once there is a machine to synchronize. (How far from the
        // paper's own 4.4 and 16.5 us is the table's verdict on
        // `table3/*`.)
        let ipsc = |nodes| baselines::published(&format!("table3/{nodes}"), "iPSC/860").unwrap();
        assert!(p2 < ipsc(2), "2 nodes: {p2} us");
        assert!(p64 * 10.0 < ipsc(64), "64 nodes: {p64} us");
        // Ten waves, back to back: the largest machine the paper names. (A
        // second round's first wave overtakes a node still finishing the
        // first; its `flags[nwaves]` probe once read a route word here.)
        assert!(p64 < us(1024, 2));
    }
}
