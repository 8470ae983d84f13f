//! Table 1: one-way message overhead — the sum of the fixed send and
//! receive costs, excluding network latency.
//!
//! The J-Machine row is measured: the sender timestamps its injection
//! sequence, the receiver's costs are the 4-cycle hardware dispatch plus
//! its (timestamped) handler epilogue. The per-byte cost comes from the
//! slope between 2-word and 10-word messages. Comparison rows are the
//! published constants of [`crate::baselines`].

use crate::rows::Row;
use jm_asm::{hdr, Builder, Program};
use jm_isa::consts::CLOCK_HZ;
use jm_isa::instr::{AluOp, MsgPriority::P0};
use jm_isa::node::{Coord, NodeId, RouteWord};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_machine::{Engine, JMachine, MachineConfig, MachineError, StartPolicy};

/// Measured J-Machine overheads.
#[derive(Debug, Clone, Copy)]
pub struct Overhead {
    /// Fixed one-way overhead in cycles (send + dispatch + receive).
    pub cycles_per_msg: f64,
    /// Incremental cost per byte, in cycles.
    pub cycles_per_byte: f64,
}

impl Overhead {
    /// Microseconds per message at the prototype clock.
    pub fn us_per_msg(&self) -> f64 {
        self.cycles_per_msg * 1e6 / CLOCK_HZ as f64
    }

    /// Microseconds per byte.
    pub fn us_per_byte(&self) -> f64 {
        self.cycles_per_byte * 1e6 / CLOCK_HZ as f64
    }
}

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

fn send_cycles(engine: Engine, l: u32) -> Result<u64, MachineError> {
    let p = program(l);
    let seg = p.segment("t1_r");
    // A 2×1×1 machine so the +x neighbour exists.
    let dims = jm_isa::MeshDims::new(2, 1, 1);
    let config = MachineConfig::with_dims(dims)
        .start(StartPolicy::Node0)
        .engine(engine);
    let mut m = JMachine::new(p, config);
    m.run_until_quiescent(100_000)?;
    Ok(m.read_word(NodeId(0), seg.base).as_i32() as u64)
}

/// Measures the J-Machine overheads.
///
/// # Errors
///
/// Propagates machine failures.
pub fn measure(engine: Engine) -> Result<Overhead, MachineError> {
    let t2 = send_cycles(engine, 2)?;
    let t10 = send_cycles(engine, 10)?;
    // Receiver: 4-cycle dispatch + 1-cycle SUSPEND.
    let recv = 5.0;
    let cycles_per_msg = t2 as f64 + recv;
    // 8 extra words = 32 extra bytes between the two runs.
    let cycles_per_byte = (t10 as f64 - t2 as f64) / 32.0;
    Ok(Overhead {
        cycles_per_msg,
        cycles_per_byte,
    })
}

/// The measured J-Machine line of Table 1.
pub fn rows(measured: &Overhead) -> Vec<Row> {
    [
        ("us/msg", measured.us_per_msg(), "us"),
        ("us/byte", measured.us_per_byte(), "us"),
        ("cycles/msg", measured.cycles_per_msg, "cycles"),
        ("cycles/byte", measured.cycles_per_byte, "cycles"),
    ]
    .map(|(metric, value, unit)| Row::simulated("table1/J-Machine", metric, value, unit))
    .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::published;

    #[test]
    fn overhead_is_order_of_magnitude_below_baselines() {
        let o = measure(Engine::Event).unwrap();
        // The paper's claim, against its own best comparison machine: the
        // whole overhead is an order of magnitude under Active Messages on
        // the CM-5, per message and per byte. (That it is the paper's 11
        // and 0.5 cycles is the table's hold on `table1/J-Machine`.)
        let cm5 = |metric| published("table1/CM-5 (Active)", metric).unwrap();
        assert!(o.cycles_per_msg > 0.0 && o.cycles_per_msg * 10.0 < cm5("cycles/msg"));
        assert!(o.cycles_per_byte > 0.0 && o.cycles_per_byte * 10.0 < cm5("cycles/byte"));
    }
}
