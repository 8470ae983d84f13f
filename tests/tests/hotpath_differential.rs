//! Differential tests for the network's wormhole bulk-advance law: it is a
//! pure performance mechanism, so every observable — quiescence cycle, full
//! machine statistics (fault counters included), final memory, state hash
//! and the lifecycle trace — must be bit-identical under every engine.
//!
//! The law engages only while one shard covers the whole mesh. On the
//! 2×2×4 mesh used here `Naive` and `Event` run one shard and the
//! `Parallel` columns two (which `jm_tests::agree` insists on), so the
//! crew is the bulk-free control every run is held to, and the host counters
//! ([`jm_net::BulkStats`]) show which columns the law actually ran in.
//!
//! Node `n` of the mesh sits at `(n % 2, n / 2 % 2, n / 4)`, and e-cube
//! routes resolve x, then y, then z. The shapes bracket the mechanism:
//!
//! * a single token circulating a ring (idle-dominated) — the network is
//!   empty at every send, so the law carries every flit;
//! * every node launching a token at once (load-dominated) — sixteen
//!   messages on the law together;
//! * the same storm under a seeded fault plan with a mid-run router-stall
//!   window — the law must decline entirely (it does not model blocked
//!   moves), without double-counting any `FaultStats`;
//! * the single token traced — the law synthesizes hop and delivery events
//!   from its timing, and they must hash like the buffered path's;
//! * two messages timed against each other to the cycle, one shape per
//!   rule of the law: disjoint routes, a link reused the cycle it becomes
//!   free, a link still in use, and a destination's ejection port.

use jm_asm::{hdr, Builder, Program, Region};
use jm_bench::workloads::ring_program;
use jm_isa::instr::MsgPriority::P0;
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::word::Word;
use jm_isa::{AluOp, MeshDims};
use jm_machine::{FaultSpec, FaultWindow, MachineConfig, StartPolicy};
use jm_net::BulkStats;
use jm_runtime::nnr;
use jm_tests::{agree, observe, Observation};
use jm_trace::MachineTrace;

const MAX_CYCLES: u64 = 1_000_000;

fn mesh() -> MachineConfig {
    MachineConfig::with_dims(MeshDims::new(2, 2, 4)).start(StartPolicy::AllNodes)
}

/// Runs `program` under `config` on every engine, holds each engine's
/// observation and trace (when traced) to the naive reference's, and checks
/// that the parallel engines never took the law. Returns the reference
/// observation and trace, and the naive and event engines' bulk counters.
fn per_engine(
    program: Program,
    config: MachineConfig,
) -> (Observation, Option<MachineTrace>, [BulkStats; 2]) {
    let drive = |m: &mut _| (observe(m, MAX_CYCLES), m.take_trace());
    let ((naive, trace), machines) = agree("bulk", &program, config, drive);
    let bulk: Vec<BulkStats> = machines.iter().map(|m| m.bulk_stats()).collect();
    let crew = &bulk[2..];
    assert!(
        crew.iter().all(|b| b.engaged == 0),
        "{crew:?}: not a bulk-free control"
    );
    (naive, trace, [bulk[0], bulk[1]])
}

/// One token, empty network at every send: the event engine takes the law
/// for every message, never has to undo one, and makes every flit move.
#[test]
fn bulk_advance_bit_identical_when_engaged() {
    let (naive, _, [_, event, ..]) = per_engine(ring_program(3, false), mesh());
    let net = naive.stats.net;
    assert!(net.injected_msgs > 0, "the ring sent nothing");
    // Two flits per word, and a route word ahead of each message's payload.
    let moves = net.flit_hops + 2 * (net.delivered_words + net.delivered_msgs);
    let once_each = BulkStats {
        engaged: net.injected_msgs,
        materialized: 0,
        moves,
        peak: 1,
    };
    assert_eq!(event, once_each);
}

/// All nodes inject at once: the sixteen tokens chase each other round the
/// ring in step, their routes never contend, and all of them ride the law
/// together.
#[test]
fn bulk_storm_rides_the_law_together() {
    let (obs, _, [naive, event, ..]) = per_engine(ring_program(3, true), mesh());
    assert_eq!(naive, event, "the naive engine runs the same single shard");
    assert_eq!(event.engaged, obs.stats.net.injected_msgs);
    assert_eq!((event.materialized, event.peak), (0, 16), "{event:?}");
}

/// A mid-run router stall plus flaky links: the law's preconditions fail
/// (a fault plan is armed), so every flit moves the slow way on every
/// engine, and the plan must have actually fired, or the test is vacuous.
#[test]
fn bulk_declines_under_fault_windows() {
    let spec = FaultSpec::new(11)
        .flaky(5_000)
        .window(FaultWindow::router_stall(5, 40, 400));
    let (naive, _, bulk) = per_engine(ring_program(3, true), mesh().fault(spec));
    assert!(
        naive.stats.net.faults.blocked_moves > 0,
        "fault plan never fired — the differential is vacuous"
    );
    assert!(bulk.iter().all(|b| b.engaged == 0), "{bulk:?}");
}

/// Lifecycle tracing observes individual flit hops and deliveries; the law
/// synthesizes those events per cycle from its timing instead of from
/// buffer moves, and the streams must hash identically.
#[test]
fn bulk_trace_hash_identical() {
    let (naive, _, [_, event, ..]) = per_engine(ring_program(3, false), mesh().traced());
    assert_eq!(event.engaged, naive.stats.net.injected_msgs);
}

/// Each `(source, destination, nops)` of `sends`: the source runs `nops`
/// `nop`s, then sends one three-word message (route, header, its id) to
/// the destination; every other node stops at once. The messages dispatch
/// `sink`, which counts them.
fn two_sends(sends: [(u32, u32, u32); 2]) -> Program {
    let mut b = Builder::new();
    b.data("got", Region::Imem, vec![Word::int(0)]);
    b.label("main");
    b.mov(R0, Special::Nid);
    for (k, &(from, _, _)) in sends.iter().enumerate() {
        b.alu(AluOp::Sub, R1, R0, from as i32);
        b.bz(R1, format!("send{k}"));
    }
    b.suspend();
    for (k, &(_, to, nops)) in sends.iter().enumerate() {
        b.label(format!("send{k}"));
        for _ in 0..nops {
            b.nop();
        }
        b.movi(R0, to as i32);
        b.call(nnr::NID_TO_ROUTE);
        b.send(P0, R0);
        b.send2e(P0, hdr("sink", 2), Special::Nid);
        b.suspend();
    }
    b.label("sink");
    b.load_seg(A0, "got");
    b.mov(R1, MemRef::disp(A0, 0));
    b.addi(R1, R1, 1);
    b.mov(MemRef::disp(A0, 0), R1);
    b.suspend();
    b.entry("main");
    nnr::install(&mut b);
    b.assemble().expect("two sends assemble")
}

/// Runs a [`two_sends`] program traced under every engine, checks that the
/// second message was committed `gap` cycles after the first — each shape
/// below is timed to the cycle — and returns the event engine's counters.
fn shape(first: (u32, u32), second: (u32, u32), gap: u32) -> BulkStats {
    // The first branch of `main` is two instructions shorter than the
    // second, so two `nop`s give the two sources the same start.
    let program = two_sends([(first.0, first.1, 2), (second.0, second.1, gap)]);
    let (naive, trace, [_, event, ..]) = per_engine(program, mesh().traced());
    assert_eq!(naive.stats.net.delivered_msgs, 2);
    let msgs = trace.expect("traced").messages();
    let at = |src| msgs.iter().find(|m| m.src.0 == src).expect("sent").inject;
    let gap = u64::from(gap);
    assert_eq!(at(second.0) - at(first.0), gap, "the shape is mistimed");
    event
}

/// Disjoint routes, committed in the same cycle: 0 → 1 and 2 → 3 are both
/// on the law at once, and neither touches the other.
#[test]
fn disjoint_routes_ride_the_law_together() {
    let b = shape((0, 1), (2, 3), 0);
    assert_eq!((b.engaged, b.materialized, b.peak), (2, 0, 2));
}

/// 0 → 15 climbs x, y, then z; its six flits (`q = commit + 2`) leave
/// router 3, so free the link 1 → 3, in cycle `commit + 9`. 1 → 3,
/// committed 7 cycles after it, enters that link in cycle `commit + 9`:
/// the cycle it is free, so it engages with 0 → 15 still streaming up z.
/// A link released when the tail leaves the *sending* router would engage
/// it a cycle earlier, into the tail (the next test).
#[test]
fn a_link_is_reused_the_cycle_the_tail_clears_it() {
    let b = shape((0, 15), (1, 3), 7);
    assert_eq!((b.engaged, b.materialized, b.peak), (2, 0, 2));
}

/// The same two messages a cycle closer: 1 → 3's head would enter the link
/// while 0 → 15's tail still moves through it, so 0 → 15 is materialized —
/// it and nothing else — and both continue flit by flit.
#[test]
fn bulk_interference_materializes_exactly() {
    let b = shape((0, 15), (1, 3), 6);
    assert_eq!((b.engaged, b.materialized, b.peak), (1, 1, 1));
}

/// 0 → 3 ejects its tail in cycle `commit + 9`; 2 → 3, committed 7 cycles
/// later, would not eject its head before cycle `commit + 10`, but a
/// destination's ejection port takes one law message at a time (the first
/// one's words may still sit in its FIFO), so it goes buffered and the
/// first stays on the law.
#[test]
fn one_destination_takes_one_law_message_at_a_time() {
    let b = shape((0, 3), (2, 3), 7);
    assert_eq!((b.engaged, b.materialized, b.peak), (1, 0, 1));
}
