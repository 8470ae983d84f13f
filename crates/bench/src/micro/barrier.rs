//! Table 3: software barrier synchronization time vs. machine size.
//!
//! Every node enters the runtime's dissemination barrier `rounds` times;
//! node 0 timestamps from its call until its continuation thread resumes —
//! exactly the paper's definition ("from the point at which the current
//! thread calls the barrier routine until the time this single thread is
//! resumed").

use crate::baselines;
use crate::table::{fnum, TextTable};
use jm_asm::{hdr, Builder};
use jm_isa::consts::cycles_to_us;
use jm_isa::instr::{AluOp, StatClass};
use jm_isa::node::NodeId;
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::word::Word;
use jm_machine::{Engine, JMachine, MachineConfig, MachineError, StartPolicy};
use jm_runtime::{barrier, nnr};

/// Measured barrier time at one machine size.
#[derive(Debug, Clone, Copy)]
pub struct BarrierPoint {
    /// Nodes.
    pub nodes: u32,
    /// Mean cycles per barrier.
    pub cycles: f64,
    /// Mean microseconds per barrier at 12.5 MHz.
    pub us: f64,
}

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

/// Measures the barrier at one machine size.
///
/// # Errors
///
/// Propagates machine failures.
pub fn measure_point(
    engine: Engine,
    nodes: u32,
    rounds: u32,
) -> Result<BarrierPoint, MachineError> {
    let p = program(rounds as i32);
    let seg = p.segment("t3_r");
    let config = MachineConfig::new(nodes)
        .start(StartPolicy::AllNodes)
        .engine(engine);
    let mut m = JMachine::new(p, config);
    m.run_until_quiescent(50_000_000)?;
    let sum = m.read_word(NodeId(0), seg.base + 2).as_i32() as u64;
    let count = m.read_word(NodeId(0), seg.base + 3).as_i32() as u64;
    assert_eq!(count, u64::from(rounds), "barrier round count mismatch");
    let cycles = sum as f64 / count as f64;
    Ok(BarrierPoint {
        nodes,
        cycles,
        us: cycles_to_us(1) * cycles,
    })
}

/// Measures across machine sizes.
///
/// # Errors
///
/// Propagates machine failures.
pub fn measure(
    engine: Engine,
    sizes: &[u32],
    rounds: u32,
) -> Result<Vec<BarrierPoint>, MachineError> {
    sizes
        .iter()
        .map(|&n| measure_point(engine, n, rounds))
        .collect()
}

/// Renders Table 3 with the published comparison columns.
pub fn render(points: &[BarrierPoint]) -> String {
    let mut out = String::new();
    out.push_str("Table 3: software barrier synchronization (microseconds)\n\n");
    let models = baselines::table3_models();
    let paper = baselines::paper_jmachine_barrier();
    let mut header = vec![
        "nodes".to_string(),
        "J (measured)".to_string(),
        "J (paper)".to_string(),
    ];
    for m in &models {
        header.push(m.name.to_string());
    }
    let mut t = TextTable::new(header);
    for p in points {
        let mut row = vec![p.nodes.to_string(), format!("{:.1}", p.us)];
        row.push(
            paper
                .iter()
                .find(|(n, _)| *n == p.nodes)
                .map_or("-".to_string(), |(_, us)| format!("{us:.1}")),
        );
        for m in &models {
            row.push(m.at(p.nodes).map_or("-".to_string(), fnum));
        }
        t.row(row);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_scales_logarithmically() {
        let p2 = measure_point(Engine::Event, 2, 3).unwrap();
        let p16 = measure_point(Engine::Event, 16, 3).unwrap();
        let p64 = measure_point(Engine::Event, 64, 3).unwrap();
        assert!(p2.cycles < p16.cycles);
        assert!(p16.cycles < p64.cycles);
        // Log growth: 64 nodes should cost far less than 8x the 2-node time.
        assert!(p64.cycles < p2.cycles * 8.0);
        // Order of magnitude near the paper: 2 nodes = 4.4 us = 55 cycles,
        // 64 nodes = 16.5 us = 206 cycles. Accept a factor-of-2.5 band.
        assert!(p2.us > 1.5 && p2.us < 12.0, "2 nodes: {} us", p2.us);
        assert!(p64.us > 7.0 && p64.us < 45.0, "64 nodes: {} us", p64.us);
    }
}
