//! Table 1: one-way message overhead — the sum of the fixed send and
//! receive costs, excluding network latency.
//!
//! The J-Machine row is measured: the sender timestamps its injection
//! sequence, the receiver's costs are the 4-cycle hardware dispatch plus
//! its (timestamped) handler epilogue. The per-byte cost comes from the
//! slope between 2-word and 10-word messages. Comparison rows are the
//! published constants of [`crate::baselines`].

use crate::registry::{Ctx, Point};
use crate::rows::{line, Row};
use jm_asm::{hdr, Builder, Program};
use jm_isa::consts::CLOCK_HZ;
use jm_isa::instr::{AluOp, MsgPriority::P0};
use jm_isa::node::{Coord, NodeId, RouteWord};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_machine::{MachineConfig, MachineError, StartPolicy};

/// Builds the measurement program for an `l`-word message (header + pad).
fn program(l: u32) -> Program {
    assert!(l >= 2);
    let mut b = Builder::new();
    b.data("t1_r", jm_asm::Region::Imem, vec![jm_isa::Word::int(0); 2]);
    b.label("main");
    b.load_seg(A0, "t1_r");
    b.mov(R2, Special::Cycle);
    b.send(P0, RouteWord::new(Coord::new(1, 0, 0)).to_word());
    b.send(P0, hdr("t1_sink", l));
    for i in 0..l - 1 {
        if i + 1 == l - 1 {
            b.sende(P0, 0);
        } else {
            b.send(P0, 0);
        }
    }
    b.mov(R3, Special::Cycle);
    b.alu(AluOp::Sub, R3, R3, R2);
    b.subi(R3, R3, 1); // the t1 CYCLE read itself
    b.mov(MemRef::disp(A0, 0), R3);
    b.halt();

    // The null receiver: its entire cost is dispatch + one SUSPEND, the
    // hardware's "task creation" price.
    b.label("t1_sink");
    b.suspend();
    b.entry("main");
    b.assemble().expect("table1 assembles")
}

/// The sender's cycles to inject one `l`-word message.
fn send_cycles(l: u32) -> Point<u64> {
    let p = program(l);
    let seg = p.segment("t1_r");
    // A 2×1×1 machine so the +x neighbour exists.
    let dims = jm_isa::MeshDims::new(2, 1, 1);
    let config = MachineConfig::with_dims(dims).start(StartPolicy::Node0);
    Point::new(p, config, move |m| {
        m.run_until_quiescent(100_000)?;
        Ok(m.read_word(NodeId(0), seg.base).as_i32() as u64)
    })
}

/// The measured J-Machine line of Table 1, `table1/J-Machine`: the fixed
/// one-way overhead (send + dispatch + receive) and the incremental cost
/// per byte, in cycles and in microseconds at the prototype clock.
///
/// # Errors
///
/// Propagates machine failures.
pub fn table1(ctx: &mut Ctx, _: u32) -> Result<Vec<Row>, MachineError> {
    let sends = ctx.run_all(vec![send_cycles(2), send_cycles(10)])?;
    let (t2, t10) = (sends[0] as f64, sends[1] as f64);
    // Receiver: 4-cycle dispatch + 1-cycle SUSPEND.
    let cycles_per_msg = t2 + 5.0;
    // 8 extra words = 32 extra bytes between the two runs.
    let cycles_per_byte = (t10 - t2) / 32.0;
    let us = |cycles: f64| cycles * 1e6 / CLOCK_HZ as f64;
    let numbers = [
        ("us/msg", us(cycles_per_msg), "us"),
        ("us/byte", us(cycles_per_byte), "us"),
        ("cycles/msg", cycles_per_msg, "cycles"),
        ("cycles/byte", cycles_per_byte, "cycles"),
    ];
    Ok(line("table1/J-Machine", &numbers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::published;
    use jm_machine::Engine;

    #[test]
    fn overhead_is_order_of_magnitude_below_baselines() {
        let rows = table1(&mut Ctx::new(Engine::Event, false, 7), 0).unwrap();
        let measured = |metric| crate::rows::value(&rows, "table1/J-Machine", metric).unwrap();
        // The paper's claim, against its own best comparison machine: the
        // whole overhead is an order of magnitude under Active Messages on
        // the CM-5, per message and per byte. (That it is the paper's 11
        // and 0.5 cycles is the table's hold on `table1/J-Machine`.)
        let cm5 = |metric| published("table1/CM-5 (Active)", metric).unwrap();
        for metric in ["cycles/msg", "cycles/byte"] {
            assert!(measured(metric) > 0.0 && measured(metric) * 10.0 < cm5(metric));
        }
    }
}
