//! Figure 3: one-way message latency vs. bisection traffic (left) and
//! processor efficiency vs. grain size (right).
//!
//! Every node runs the paper's loop: pick a uniformly random destination,
//! send an `L`-word message, await an `L`-word acknowledgement, then "idle"
//! for a computation phase of `Z` spin iterations. The idle time sets the
//! offered load. Round-trip times accumulate in guest memory; the host
//! zeroes the accumulators after a warm-up window, measures over a fixed
//! window, and derives:
//!
//! * one-way latency = round-trip / 2 (the paper's method);
//! * bisection traffic from the network's flit counters;
//! * efficiency = compute cycles / total cycles (the right-hand plot).

use crate::registry::{Ctx, Point};
use crate::rows::{line, metric, Row};
use jm_asm::{hdr, Builder, Program};
use jm_isa::instr::{AluOp, MsgPriority::P0, StatClass};
use jm_isa::node::NodeId;
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_machine::{MachineConfig, MachineError, StartPolicy};
use jm_runtime::{nnr, rand as jrand};

/// Message lengths of Figure 3, in words.
const LENGTHS: [u32; 4] = [2, 4, 8, 16];

/// The idle ladder each length runs over: spin iterations per exchange.
const IDLES: [u32; 6] = [0, 50, 150, 400, 1000, 3000];

// f3_r layout (per node): [0] rt_sum, [1] count, [2] seed, [3] t0.

/// Builds the exchange-loop program for `l`-word messages and an
/// `idle_iters`-iteration computation phase.
pub fn program(l: u32, idle_iters: u32) -> Program {
    assert!(l >= 2, "need at least header + reply route");
    let mut b = Builder::new();
    b.data("f3_r", jm_asm::Region::Imem, vec![jm_isa::Word::int(0); 4]);
    b.reserve("f3_flag", jm_asm::Region::Imem, 1);

    b.label("main");
    b.load_seg(A2, "f3_r");
    // Distinct seeds per node.
    b.mov(R0, Special::Nid);
    b.alu(AluOp::Mul, R0, R0, 2_654_435);
    b.addi(R0, R0, 12345);
    b.mov(MemRef::disp(A2, 2), R0);
    // De-synchronize the SPMD lockstep start so loads do not arrive in
    // machine-wide bursts: stagger by a node-dependent spin.
    let modulus = (3 * idle_iters + 64) as i32;
    b.mov(R1, Special::Nid);
    b.alu(AluOp::Mul, R1, R1, 97);
    b.alu(AluOp::Rem, R1, R1, modulus);
    b.addi(R1, R1, 1);
    b.label("stagger");
    b.subi(R1, R1, 1);
    b.bnz(R1, "stagger");
    b.label("loop");
    b.mark(StatClass::Comm);
    // Random destination.
    b.mov(R0, MemRef::disp(A2, 2));
    b.call(jrand::LCG_NEXT);
    b.mov(MemRef::disp(A2, 2), R0);
    b.alu(AluOp::Rem, R0, R0, Special::NNodes);
    b.call(nnr::NID_TO_ROUTE);
    b.mark(StatClass::Comm);
    b.load_seg(A2, "f3_r"); // route call clobbered A1 only, but reload for clarity
    b.load_seg(A1, "f3_flag");
    b.mov(MemRef::disp(A1, 0), 0);
    b.mov(R2, Special::Cycle);
    b.mov(MemRef::disp(A2, 3), R2);
    b.send(P0, R0);
    if l == 2 {
        b.send2e(P0, hdr("f3_echo", l), Special::Nnr);
    } else {
        b.send2(P0, hdr("f3_echo", l), Special::Nnr);
        for i in 0..l - 2 {
            if i + 1 == l - 2 {
                b.sende(P0, 0);
            } else {
                b.send(P0, 0);
            }
        }
    }
    b.label("wait");
    b.mov(R1, MemRef::disp(A1, 0));
    b.bz(R1, "wait");
    b.mov(R1, Special::Cycle);
    b.alu(AluOp::Sub, R1, R1, MemRef::disp(A2, 3));
    b.mov(R2, MemRef::disp(A2, 0));
    b.alu(AluOp::Add, R2, R2, R1);
    b.mov(MemRef::disp(A2, 0), R2);
    b.mov(R2, MemRef::disp(A2, 1));
    b.addi(R2, R2, 1);
    b.mov(MemRef::disp(A2, 1), R2);
    // "Computation": the grain-size spin.
    b.mark(StatClass::Compute);
    if idle_iters > 0 {
        b.movi(R1, idle_iters as i32);
        b.label("spin");
        b.subi(R1, R1, 1);
        b.bnz(R1, "spin");
    }
    b.br("loop");

    // Echo: reply with an equal-length message to the embedded route.
    b.label("f3_echo");
    b.mark(StatClass::Comm);
    // Touch the final word first: the exchange is of whole L-word
    // messages, so the reply waits for the full request.
    b.mov(R1, MemRef::disp(A3, l - 1));
    b.send(P0, MemRef::disp(A3, 1));
    if l == 2 {
        b.send2e(P0, hdr("f3_ack", l), 0);
    } else {
        b.send2(P0, hdr("f3_ack", l), 0);
        for i in 0..l - 2 {
            if i + 1 == l - 2 {
                b.sende(P0, 0);
            } else {
                b.send(P0, 0);
            }
        }
    }
    b.suspend();

    b.label("f3_ack");
    b.mark(StatClass::Comm);
    b.mov(R1, MemRef::disp(A3, l - 1)); // stall until fully arrived
    b.load_seg(A0, "f3_flag");
    b.mov(MemRef::disp(A0, 0), 1);
    b.suspend();

    b.entry("main");
    nnr::install(&mut b);
    jrand::install(&mut b);
    b.assemble().expect("fig3 assembles")
}

/// One operating point on a machine of `nodes` nodes: `msg_len`-word
/// messages and `idle_iters` spins per exchange, measured over `window`
/// cycles after `warmup`, as the rows `fig3/<len>/<idle>` — the bisection
/// traffic and one-way latency (left plot), the computation per message
/// and the efficiency, its share of all cycles (right plot).
pub fn point(nodes: u32, msg_len: u32, idle_iters: u32, warmup: u64, window: u64) -> Point {
    let p = program(msg_len, idle_iters);
    let seg = p.segment("f3_r");
    let config = MachineConfig::new(nodes).start(StartPolicy::AllNodes);
    Point::new(p, config, move |m| {
        m.run(warmup);
        // Zero the guest accumulators and snapshot host-side counters.
        for n in 0..nodes {
            m.write_word(NodeId(n), seg.base, jm_isa::Word::int(0));
            m.write_word(NodeId(n), seg.base + 1, jm_isa::Word::int(0));
        }
        let net0 = m.network().stats().clone();
        let stats0 = m.stats();
        m.run(window);
        let net1 = m.network().stats().since(&net0);
        let stats1 = m.stats();
        let mut rt_sum = 0u64;
        let mut count = 0u64;
        for n in 0..nodes {
            rt_sum += m.read_word(NodeId(n), seg.base).as_i32() as u64;
            count += m.read_word(NodeId(n), seg.base + 1).as_i32() as u64;
        }
        let latency = if count == 0 {
            0.0
        } else {
            rt_sum as f64 / count as f64 / 2.0
        };
        let compute = stats1.nodes.class_cycles(StatClass::Compute)
            - stats0.nodes.class_cycles(StatClass::Compute);
        let total = u64::from(nodes) * window;
        // Mean cycles between exchanges: the loop period.
        let period = if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        };
        let efficiency = compute as f64 / total as f64;
        let numbers = [
            (
                "traffic Mbit/s",
                net1.bisection_bits_per_sec(window) / 1e6,
                "Mbit/s",
            ),
            ("latency cycles", latency, "cycles"),
            ("grain cycles", efficiency * period, "cycles"),
            ("efficiency", efficiency, "ratio"),
        ];
        Ok(line(&format!("fig3/{msg_len}/{idle_iters}"), &numbers))
    })
}

/// The computation per message at which efficiency crosses one half:
/// linear between the two operating points of `points` (one message
/// length, grain ascending) that straddle it. `None` if none do.
fn half_efficiency_grain(points: &[Vec<Row>]) -> Option<f64> {
    let (efficiency, grain) = (|p| metric(p, "efficiency"), |p| metric(p, "grain cycles"));
    points.windows(2).find_map(|w| {
        let (lo, hi) = (&w[0], &w[1]);
        (efficiency(lo) < 0.5 && efficiency(hi) >= 0.5).then(|| {
            let t = (0.5 - efficiency(lo)) / (efficiency(hi) - efficiency(lo));
            grain(lo) + t * (grain(hi) - grain(lo))
        })
    })
}

/// Figure 3 on a machine of `nodes` nodes: `fig3` holds the mesh's
/// bisection capacity and the heaviest traffic any point carried,
/// `fig3/<len>` the half-efficiency grain of one message length,
/// `fig3/<len>/<idle>` both projections of one operating point.
///
/// # Errors
///
/// Propagates machine failures.
pub fn fig3(ctx: &mut Ctx, nodes: u32) -> Result<Vec<Row>, MachineError> {
    let points = LENGTHS.map(|l| IDLES.map(|z| point(nodes, l, z, 3_000, 20_000)));
    let measured = ctx.run_all(points.into_iter().flatten().collect())?;
    let dims = jm_isa::MeshDims::for_nodes(nodes);
    let capacity = jm_net::NetConfig::new(dims).bisection_capacity_bits() / 1e6;
    let traffic = measured.iter().map(|p| metric(p, "traffic Mbit/s"));
    let mut rows = vec![
        Row::simulated("fig3", "capacity", capacity, "Mbit/s"),
        Row::simulated("fig3", "saturation", traffic.fold(0.0, f64::max), "Mbit/s"),
    ];
    for (l, of_len) in LENGTHS.iter().zip(measured.chunks(IDLES.len())) {
        if let Some(grain) = half_efficiency_grain(of_len) {
            let metric = "half-efficiency grain";
            rows.push(Row::simulated(
                &format!("fig3/{l}"),
                metric,
                grain,
                "cycles",
            ));
        }
        rows.extend(of_len.concat());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_machine::Engine;

    #[test]
    fn latency_rises_with_load() {
        // Heavy load (no idle) must show higher latency than light load
        // (large idle), and much higher bisection traffic.
        let ctx = Ctx::new(Engine::Event, false, 7);
        let light = ctx.run(point(64, 8, 2000, 4_000, 80_000)).unwrap();
        let heavy = ctx.run(point(64, 8, 0, 4_000, 30_000)).unwrap();
        let traffic = |p| metric(p, "traffic Mbit/s");
        assert!(traffic(&heavy) > 4.0 * traffic(&light));
        let latency = |p| metric(p, "latency cycles");
        assert!(
            latency(&heavy) > latency(&light),
            "heavy {} vs light {}",
            latency(&heavy),
            latency(&light)
        );
        assert!(metric(&light, "efficiency") > metric(&heavy, "efficiency"));
    }
}
