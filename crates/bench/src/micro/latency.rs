//! Figure 2: round-trip latency of a null RPC vs. distance and transfer.
//!
//! Node 0 (a corner of the mesh) timestamps a request/reply exchange with a
//! node at each distance along an X-then-Y-then-Z walk, for five transfer
//! kinds: a 2-word ping with a 1-word ack, and remote reads of 1 or 6 words
//! from internal or external memory.

use crate::registry::{Ctx, Point};
use crate::rows::Row;
use jm_asm::{Builder, Program};
use jm_isa::instr::{AluOp, MsgPriority::P0};
use jm_isa::node::{Coord, MeshDims, NodeId, RouteWord};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_machine::{MachineConfig, MachineError, StartPolicy};
use jm_runtime::rpc;

/// The five curves of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcKind {
    /// 2-word request, 1-word acknowledgement.
    Ping,
    /// Remote read of 1 word from internal memory (reply: 2 words).
    Read1Imem,
    /// Remote read of 1 word from external memory.
    Read1Emem,
    /// Remote read of 6 words from internal memory (reply: 7 words).
    Read6Imem,
    /// Remote read of 6 words from external memory.
    Read6Emem,
}

impl RpcKind {
    /// All curves, in the figure's legend order.
    pub const ALL: [RpcKind; 5] = [
        RpcKind::Ping,
        RpcKind::Read1Imem,
        RpcKind::Read1Emem,
        RpcKind::Read6Imem,
        RpcKind::Read6Emem,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RpcKind::Ping => "Ping",
            RpcKind::Read1Imem => "Read 1 (Imem)",
            RpcKind::Read1Emem => "Read 1 (Emem)",
            RpcKind::Read6Imem => "Read 6 (Imem)",
            RpcKind::Read6Emem => "Read 6 (Emem)",
        }
    }
}

/// The least-squares line `(slope, base)` of one transfer's round trips,
/// `curve[h]` at `h` hops: cycles per hop, and the extrapolated
/// zero-distance latency. The 0-hop self-exchange serializes the
/// requester, the handler, and the loopback on a single processor, so (as
/// in the paper, which reports it separately as the "ping itself" base
/// case) it is excluded from the fit.
fn fit(curve: &[Row]) -> (f64, f64) {
    let remote: Vec<(f64, f64)> = (curve.iter().enumerate().skip(1))
        .map(|(h, r)| (h as f64, r.value))
        .collect();
    let n = remote.len() as f64;
    let sx: f64 = remote.iter().map(|(h, _)| h).sum();
    let sy: f64 = remote.iter().map(|(_, c)| c).sum();
    let sxx: f64 = remote.iter().map(|(h, _)| h * h).sum();
    let sxy: f64 = remote.iter().map(|(h, c)| h * c).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    (slope, sy / n - slope * sx / n)
}

fn program(kind: RpcKind) -> Program {
    let mut b = Builder::new();
    b.data("f2_p", jm_asm::Region::Imem, vec![jm_isa::Word::int(0); 2]);
    b.label("main");
    b.load_seg(A0, "f2_p");
    b.load_seg(A1, rpc::FLAG);
    b.mov(MemRef::disp(A1, 0), 0);
    b.mov(R2, Special::Cycle);
    match kind {
        RpcKind::Ping => {
            b.send(P0, MemRef::disp(A0, 0));
            b.send2e(P0, jm_asm::hdr("rpc_ping", 2), Special::Nnr);
        }
        RpcKind::Read1Imem | RpcKind::Read1Emem => {
            let src = if kind == RpcKind::Read1Imem {
                rpc::SRC_IMEM
            } else {
                rpc::SRC_EMEM
            };
            b.send(P0, MemRef::disp(A0, 0));
            b.send2(P0, jm_asm::hdr("rpc_read1", 3), jm_asm::seg(src));
            b.sende(P0, Special::Nnr);
        }
        RpcKind::Read6Imem | RpcKind::Read6Emem => {
            let src = if kind == RpcKind::Read6Imem {
                rpc::SRC_IMEM
            } else {
                rpc::SRC_EMEM
            };
            b.send(P0, MemRef::disp(A0, 0));
            b.send2(P0, jm_asm::hdr("rpc_read6", 3), jm_asm::seg(src));
            b.sende(P0, Special::Nnr);
        }
    }
    b.label("wait");
    b.mov(R1, MemRef::disp(A1, 0));
    b.bz(R1, "wait");
    b.mov(R3, Special::Cycle);
    b.alu(AluOp::Sub, R3, R3, R2);
    b.mov(MemRef::disp(A0, 1), R3);
    b.halt();
    b.entry("main");
    rpc::install(&mut b);
    b.assemble().expect("fig2 assembles")
}

/// Target coordinate at `hops` from the origin corner: walk X, then Y,
/// then Z.
fn target_at(dims: MeshDims, hops: u32) -> Coord {
    let max = u32::from(dims.x - 1) + u32::from(dims.y - 1) + u32::from(dims.z - 1);
    assert!(
        hops <= max,
        "distance {hops} exceeds machine diameter {max}"
    );
    let x = hops.min(u32::from(dims.x - 1));
    let rest = hops - x;
    let y = rest.min(u32::from(dims.y - 1));
    let z = rest - y;
    Coord::new(x as u8, y as u8, z as u8)
}

/// One round trip: `kind` between node 0 and the node `hops` away, as the
/// row `fig2/<hops>`.
fn point(dims: MeshDims, kind: RpcKind, hops: u32) -> Point {
    let p = program(kind);
    let param = p.segment("f2_p");
    let config = MachineConfig::with_dims(dims).start(StartPolicy::Node0);
    let target = RouteWord::new(target_at(dims, hops)).to_word();
    Point::new(p, config, move |m| {
        m.write_word(NodeId(0), param.base, target);
        m.run_until_quiescent(1_000_000)?;
        let cycles = m.read_word(NodeId(0), param.base + 1).as_i32() as u64;
        let line = format!("fig2/{hops}");
        Ok(vec![Row::simulated(
            &line,
            kind.name(),
            cycles as f64,
            "cycles",
        )])
    })
}

/// Figure 2 on a machine of `nodes` nodes: `fig2/<hops>` holds each
/// transfer's round trip at every distance from 0 to the diameter, and
/// `fig2/fit/<transfer>` its least-squares line.
///
/// # Errors
///
/// Propagates machine failures.
pub fn fig2(ctx: &mut Ctx, nodes: u32) -> Result<Vec<Row>, MachineError> {
    let dims = MeshDims::for_nodes(nodes);
    let diameter = u32::from(dims.x - 1) + u32::from(dims.y - 1) + u32::from(dims.z - 1);
    let points = RpcKind::ALL.map(|kind| (0..=diameter).map(move |hops| point(dims, kind, hops)));
    let measured = ctx.run_all(points.into_iter().flatten().collect())?;
    let mut rows = Vec::new();
    for (kind, curve) in RpcKind::ALL
        .iter()
        .zip(measured.chunks(diameter as usize + 1))
    {
        let curve = curve.concat();
        let (slope, base) = fit(&curve);
        rows.extend(curve);
        let line = format!("fig2/fit/{}", kind.name());
        rows.push(Row::simulated(&line, "slope", slope, "cycles/hop"));
        rows.push(Row::simulated(&line, "base", base, "cycles"));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_machine::Engine;

    #[test]
    fn target_walk_is_monotone() {
        let dims = MeshDims::new(4, 4, 4);
        for h in 0..=9 {
            let c = target_at(dims, h);
            assert_eq!(Coord::new(0, 0, 0).hops_to(c), h);
        }
    }

    #[test]
    fn slope_is_one_cycle_per_hop_each_way() {
        let rows = fig2(&mut Ctx::new(Engine::Event, false, 7), 64).unwrap();
        let fit = |k: RpcKind, metric| {
            crate::rows::value(&rows, &format!("fig2/fit/{}", k.name()), metric).unwrap()
        };
        // Distance costs every transfer the same: the slopes agree (that
        // they are the paper's 2 is the table's hold on `fig2/fit/*`).
        for k in RpcKind::ALL {
            let (slope, ping) = (fit(k, "slope"), fit(RpcKind::Ping, "slope"));
            assert!((slope - ping).abs() < 1e-9, "{}: {slope}", k.name());
        }
        // Reads cost more than pings; external reads more than internal.
        let base = |k: RpcKind| fit(k, "base");
        assert!(base(RpcKind::Read1Imem) > base(RpcKind::Ping));
        assert!(base(RpcKind::Read1Emem) > base(RpcKind::Read1Imem));
        assert!(base(RpcKind::Read6Emem) > base(RpcKind::Read6Imem));
    }
}
