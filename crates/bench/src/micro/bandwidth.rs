//! Figure 4: terminal network bandwidth between two adjacent nodes vs.
//! message size, for three consumption modes: discard on arrival, copy to
//! internal memory, copy to external memory.
//!
//! The sender streams `L`-word messages back-to-back (send faults throttle
//! it to whatever the channel and the consumer sustain); the receiver's
//! consumption rate is read from its handler statistics over a measurement
//! window.

use crate::registry::{Ctx, Point};
use crate::rows::Row;
use jm_asm::{hdr, Builder, Program};
use jm_isa::consts::CLOCK_HZ;
use jm_isa::instr::{MsgPriority::P0, StatClass};
use jm_isa::node::{Coord, NodeId, RouteWord};
use jm_isa::operand::MemRef;
use jm_isa::reg::{AReg::*, DReg::*};
use jm_machine::{MachineConfig, MachineError, StartPolicy};

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

/// One point: `l`-word messages into `sink`, the rate measured over
/// `window` cycles after `warmup`, as the row `fig4/<l>` — sustained data
/// in Mbit/s, 32 data bits per delivered word.
pub fn point(l: u32, sink: Sink, warmup: u64, window: u64) -> Point {
    let p = program(l, sink);
    let handler = p.handler("f4_sink");
    // A 2×1×1 machine so the +x neighbour exists.
    let dims = jm_isa::MeshDims::new(2, 1, 1);
    let config = MachineConfig::with_dims(dims).start(StartPolicy::Node0);
    Point::new(p, config, move |m| {
        let words = |m: &jm_machine::JMachine| {
            let handlers = &m.node(NodeId(1)).stats().handlers;
            handlers.get(&handler).map_or(0, |h| h.msg_words)
        };
        m.run(warmup);
        let words0 = words(m);
        m.run(window);
        let mbits = (words(m) - words0) as f64 * 32.0 * CLOCK_HZ as f64 / window as f64 / 1e6;
        let line = format!("fig4/{l}");
        Ok(vec![Row::simulated(&line, sink.name(), mbits, "Mbit/s")])
    })
}

/// Figure 4: `fig4/<words>` holds each consumption mode's rate.
///
/// # Errors
///
/// Propagates machine failures.
pub fn fig4(ctx: &mut Ctx, _: u32) -> Result<Vec<Row>, MachineError> {
    let lengths = [1, 2, 3, 4, 6, 8, 12, 16];
    let points = Sink::ALL.map(|sink| lengths.map(|l| point(l, sink, 2_000, 20_000)));
    Ok(ctx
        .run_all(points.into_iter().flatten().collect())?
        .concat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::published;
    use jm_machine::Engine;

    /// The rate of one point on the event engine.
    fn rate(l: u32, sink: Sink) -> f64 {
        let ctx = Ctx::new(Engine::Event, false, 7);
        ctx.run(point(l, sink, 1_000, 8_000)).unwrap()[0].value
    }

    #[test]
    fn discard_rate_grows_with_message_size_toward_peak() {
        let [p2, p8, p16] = [2, 8, 16].map(|l| rate(l, Sink::Discard));
        assert!(p8 > p2);
        assert!(p16 >= p8 * 0.95);
        // The channel's peak bounds every rate (how near 16-word messages
        // come to it is the table's hold on `fig4/16`).
        assert!(p16 <= published("fig4/16", "Discard Data").unwrap());
        // 2-word messages already beat half the eventual peak (paper).
        assert!(p2 * 2.0 > p16, "p2 {p2} p16 {p16}");
    }

    #[test]
    fn slow_sinks_reduce_throughput() {
        let [d, i, e] = Sink::ALL.map(|sink| rate(8, sink));
        assert!(d >= i);
        assert!(i > e);
    }
}
