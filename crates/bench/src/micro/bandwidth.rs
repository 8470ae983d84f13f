//! Figure 4: terminal network bandwidth between two adjacent nodes vs.
//! message size, for three consumption modes: discard on arrival, copy to
//! internal memory, copy to external memory.
//!
//! The sender streams `L`-word messages back-to-back (send faults throttle
//! it to whatever the channel and the consumer sustain); the receiver's
//! consumption rate is read from its handler statistics over a measurement
//! window.

use crate::rows::Row;
use jm_asm::{hdr, Builder, Program};
use jm_isa::consts::CLOCK_HZ;
use jm_isa::instr::{MsgPriority::P0, StatClass};
use jm_isa::node::{Coord, NodeId, RouteWord};
use jm_isa::operand::MemRef;
use jm_isa::reg::{AReg::*, DReg::*};
use jm_machine::{Engine, JMachine, MachineConfig, MachineError, StartPolicy};

/// What the receiving handler does with the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Dispatch and discard (upper curve).
    Discard,
    /// Copy every payload word into on-chip memory.
    CopyImem,
    /// Copy every payload word into external memory.
    CopyEmem,
}

impl Sink {
    /// All modes, figure order.
    pub const ALL: [Sink; 3] = [Sink::Discard, Sink::CopyImem, Sink::CopyEmem];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Sink::Discard => "Discard Data",
            Sink::CopyImem => "Copy to Imem",
            Sink::CopyEmem => "Copy to Emem",
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct BwPoint {
    /// Message size in words.
    pub msg_len: u32,
    /// Consumption mode.
    pub sink: Sink,
    /// Sustained data rate in Mbit/s (32 data bits per delivered word).
    pub mbits: f64,
}

fn program(l: u32, sink: Sink) -> Program {
    assert!(l >= 1);
    let mut b = Builder::new();
    b.reserve("f4_ibuf", jm_asm::Region::Imem, l.max(1));
    b.reserve("f4_ebuf", jm_asm::Region::Emem, l.max(1));
    b.label("main");
    // Node 0 streams to its +x neighbour forever.
    b.label("loop");
    b.mark(StatClass::Comm);
    b.send(P0, RouteWord::new(Coord::new(1, 0, 0)).to_word());
    if l == 1 {
        b.sende(P0, hdr("f4_sink", l));
    } else {
        b.send(P0, hdr("f4_sink", l));
        for i in 0..l - 1 {
            if i + 1 == l - 1 {
                b.sende(P0, i as i32);
            } else {
                b.send(P0, i as i32);
            }
        }
    }
    b.br("loop");

    b.label("f4_sink");
    b.mark(StatClass::Comm);
    match sink {
        Sink::Discard => {}
        Sink::CopyImem => {
            b.load_seg(A0, "f4_ibuf");
            for i in 1..l {
                b.mov(R0, MemRef::disp(A3, i));
                b.mov(MemRef::disp(A0, i), R0);
            }
        }
        Sink::CopyEmem => {
            b.load_seg(A0, "f4_ebuf");
            for i in 1..l {
                b.mov(R0, MemRef::disp(A3, i));
                b.mov(MemRef::disp(A0, i), R0);
            }
        }
    }
    b.suspend();
    b.entry("main");
    b.assemble().expect("fig4 assembles")
}

/// Measures one point.
///
/// # Errors
///
/// Propagates machine failures.
pub fn measure_point(
    engine: Engine,
    l: u32,
    sink: Sink,
    warmup: u64,
    window: u64,
) -> Result<BwPoint, MachineError> {
    let p = program(l, sink);
    let handler = p.handler("f4_sink");
    // A 2×1×1 machine so the +x neighbour exists.
    let dims = jm_isa::MeshDims::new(2, 1, 1);
    let config = MachineConfig::with_dims(dims)
        .start(StartPolicy::Node0)
        .engine(engine);
    let mut m = JMachine::new(p, config);
    m.run(warmup);
    if !m.node_errors().is_empty() {
        return Err(jm_machine::MachineError::NodeErrors(m.node_errors()));
    }
    let words0 = m
        .node(NodeId(1))
        .stats()
        .handlers
        .get(&handler)
        .map_or(0, |h| h.msg_words);
    m.run(window);
    if !m.node_errors().is_empty() {
        return Err(jm_machine::MachineError::NodeErrors(m.node_errors()));
    }
    let words1 = m
        .node(NodeId(1))
        .stats()
        .handlers
        .get(&handler)
        .map_or(0, |h| h.msg_words);
    let words = words1 - words0;
    let mbits = words as f64 * 32.0 * CLOCK_HZ as f64 / window as f64 / 1e6;
    Ok(BwPoint {
        msg_len: l,
        sink,
        mbits,
    })
}

/// Runs the full Figure 4 sweep.
///
/// # Errors
///
/// Propagates machine failures.
pub fn measure(
    engine: Engine,
    lengths: &[u32],
    warmup: u64,
    window: u64,
) -> Result<Vec<BwPoint>, MachineError> {
    let mut out = Vec::new();
    for sink in Sink::ALL {
        for &l in lengths {
            out.push(measure_point(engine, l, sink, warmup, window)?);
        }
    }
    Ok(out)
}

/// Figure 4 as rows: `fig4/<words>` holds each consumption mode's rate.
pub fn rows(points: &[BwPoint]) -> Vec<Row> {
    let row = |p: &BwPoint| {
        let line = format!("fig4/{}", p.msg_len);
        Row::simulated(&line, p.sink.name(), p.mbits, "Mbit/s")
    };
    points.iter().map(row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::published;

    #[test]
    fn discard_rate_grows_with_message_size_toward_peak() {
        let p2 = measure_point(Engine::Event, 2, Sink::Discard, 1_000, 8_000).unwrap();
        let p8 = measure_point(Engine::Event, 8, Sink::Discard, 1_000, 8_000).unwrap();
        let p16 = measure_point(Engine::Event, 16, Sink::Discard, 1_000, 8_000).unwrap();
        assert!(p8.mbits > p2.mbits);
        assert!(p16.mbits >= p8.mbits * 0.95);
        // The channel's peak bounds every rate (how near 16-word messages
        // come to it is the table's hold on `fig4/16`).
        assert!(p16.mbits <= published("fig4/16", "Discard Data").unwrap());
        // 2-word messages already beat half the eventual peak (paper).
        assert!(
            p2.mbits * 2.0 > p16.mbits,
            "p2 {} p16 {}",
            p2.mbits,
            p16.mbits
        );
    }

    #[test]
    fn slow_sinks_reduce_throughput() {
        let d = measure_point(Engine::Event, 8, Sink::Discard, 1_000, 8_000).unwrap();
        let i = measure_point(Engine::Event, 8, Sink::CopyImem, 1_000, 8_000).unwrap();
        let e = measure_point(Engine::Event, 8, Sink::CopyEmem, 1_000, 8_000).unwrap();
        assert!(d.mbits >= i.mbits);
        assert!(i.mbits > e.mbits);
    }
}
