//! Differential tests: the event-driven and parallel engines must be
//! **cycle-exact** with the naive reference engine. Every workload runs
//! through [`agree`] under each engine of `jm_tests::ENGINES` — the
//! parallel engine with two threads and with four, on a mesh it cuts into
//! two slabs or more (z ≥ 4), and with four only where that is another
//! crew than two's — and every observable is compared: the
//! `run_until_quiescent` outcome (success cycle count or error), the
//! aggregated machine statistics (per-class cycles, per-handler counters,
//! network counters), the final contents of every declared data block on
//! every node, and the state hash.
//!
//! The crew decides only at the multiples of the 64-cycle quantum
//! (DESIGN.md §4.5), and the sharded engines' nodes run on past their
//! visits, so the workloads include the schedules most likely to break
//! that: an idle skip across a quantum boundary, a fixed run whose last
//! quantum is truncated, a machine resumed after the crew overran its
//! quiescence, node errors, and stretches rewound by a preempting word.

use jm_asm::{hdr, Builder, Program, Region};
use jm_bench::workloads::pingpong_program;
use jm_isa::consts::{FaultKind, EMEM_BASE, QUEUE0_WORDS, XLATE_SETS};
use jm_isa::instr::{AluOp, MsgPriority};
use jm_isa::node::{MeshDims, NodeId};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::word::Word;
use jm_isa::{Coord, RouteWord};
use jm_machine::FaultSpec;
use jm_machine::StartPolicy;
use jm_machine::{JMachine, MachineConfig, TraceConfig, TrafficSpec};
use jm_mdp::{StretchStats, DRAM_PAGE_WORDS, SRAM_PAGE_WORDS as SRAM_PAGE};
use jm_runtime::nnr;
use jm_tests::{agree, observe, Observation};

/// Route word of (1,1,3), the far corner of a 2×2×4 mesh: in the other
/// slab of the crew's two-slab cut from node 0.
const FAR_CORNER: i32 = 0xC21;

/// Micro workload: an RPC with long idle spans — node 0 asks the far
/// corner of a 2×2×4 mesh to increment a value and store the reply.
fn rpc_program() -> Program {
    let mut b = Builder::new();
    b.reserve("out", Region::Imem, 1);
    b.label("main");
    b.movi(R0, FAR_CORNER);
    b.wtag(R0, R0, jm_isa::Tag::Route.bits() as i32);
    b.send(MsgPriority::P0, R0);
    b.send2(MsgPriority::P0, hdr("incr", 3), 41);
    b.sende(MsgPriority::P0, Special::Nnr);
    b.suspend();
    b.label("incr");
    b.mov(R0, MemRef::disp(A3, 1));
    b.addi(R0, R0, 1);
    b.send(MsgPriority::P0, MemRef::disp(A3, 2));
    b.send2e(MsgPriority::P0, hdr("store", 2), R0);
    b.suspend();
    b.label("store");
    b.mov(R0, MemRef::disp(A3, 1));
    b.load_seg(A0, "out");
    b.mov(MemRef::disp(A0, 0), R0);
    b.suspend();
    b.entry("main");
    b.assemble().unwrap()
}

#[test]
fn micro_rpc_is_engine_exact() {
    let config = MachineConfig::new(16);
    let (obs, _) = agree("rpc", &rpc_program(), config, |m| observe(m, 10_000));
    // Sanity: the workload did what it claims (value stored, 2 messages).
    assert_eq!(obs.stats.nodes.msgs_sent, 2);
    assert!(obs.outcome.is_ok());
}

/// Micro workload: one token circulates an id-ordered ring for three laps,
/// keeping most nodes idle most of the time — the event engine's favorite
/// case, and the one where idle accounting is easiest to get wrong.
fn ring_program() -> Program {
    jm_bench::workloads::ring_program(3, false)
}

#[test]
fn micro_ring_is_engine_exact() {
    let config = MachineConfig::new(16).start(StartPolicy::AllNodes);
    let (obs, _) = agree("ring", &ring_program(), config, |m| observe(m, 1_000_000));
    assert!(obs.outcome.is_ok());
    // Every node's accumulator saw all 3 rounds.
    assert!(obs.memory.iter().all(|words| words[0].as_i32() == 3));
}

#[test]
fn fixed_cycle_run_is_engine_exact() {
    // `run(n)` drives the parallel engine through its fixed-deadline mode
    // (no quiescence detection), and 1 499 is no multiple of the 64-cycle
    // quantum, so the crew's last quantum is cut short: stopping
    // mid-workload must leave every engine at the same cycle with the same
    // statistics and state.
    let config = MachineConfig::new(16).start(StartPolicy::AllNodes);
    let (run, _) = agree("fixed run", &ring_program(), config, |m| {
        m.run(1_499);
        (m.cycle(), m.stats(), m.state_hash())
    });
    assert_eq!(run.0, 1_499, "wrong stop cycle");
}

/// Ping-pong workload built to force **idle-skip fast-forward across
/// quantum boundaries**: a traffic window that dispatches `rally` opens
/// long after the rallies end, so the whole machine goes net-idle with the
/// next wake-up hundreds of cycles out. The skip target then lies past the
/// next multiple of the 64-cycle quantum, exercising the decide-path that
/// jumps `p/x` straight to the wake cycle (DESIGN.md §4.5).
#[test]
fn idle_skip_across_quantum_boundary_is_exact() {
    const OPENS: u64 = 1_000;
    let program = pingpong_program();
    let config = MachineConfig::new(16).start(StartPolicy::AllNodes);
    // The premise: the rallies alone end a whole quantum and more before
    // the window opens.
    let mut rallies = JMachine::new(program.clone(), config);
    let rallied = rallies.run_until_quiescent(OPENS).unwrap();
    assert!(rallied + 2 * 64 < OPENS, "rallies end at {rallied}");
    // A generated message's one payload word is 1: `rally` counts a hit
    // and sends nothing back.
    let spec = TrafficSpec::new(5)
        .load(50_000)
        .msg_words(2)
        .window(OPENS, OPENS + 100)
        .handler(program.handler("rally"));
    let (obs, _) = agree("idle-skip", &program, config.traffic(spec), |m| {
        observe(m, 1_000_000)
    });
    // The rallies completed (8 volleys split across each pair), and the
    // window's messages each counted one hit after the skip.
    let total_hits: i32 = obs.memory.iter().map(|w| w[0].as_i32()).sum();
    let accepted = obs.stats.net.traffic.accepted_msgs;
    assert!(accepted > 0);
    assert_eq!(total_hits as u64, 8 * 8 + accepted);
    assert!(
        obs.outcome.as_ref().is_ok_and(|&cycles| cycles > OPENS),
        "{:?}",
        obs.outcome
    );
}

#[test]
fn resuming_a_quiesced_machine_is_engine_exact() {
    // The code lies in external memory, so every instruction pays a
    // 3-cycle fetch and a SUSPEND costs 4: when the last handler's SUSPEND
    // issues the machine is quiet — no work, no flit — one cycle later,
    // while every node is still scheduled for the cycle the SUSPEND
    // retires. The sequential engines stop there and leave the nodes
    // scheduled; a crew finds out up to a quantum late, and an overrun past
    // three cycles reaches those wake-ups: the nodes are parked. The next
    // round's host delivery then lands *before* their `busy_until`, and
    // everything a host can see must still agree, round after round.
    let mut b = Builder::new();
    b.data("hits", Region::Imem, vec![Word::int(0)]);
    b.label("hit");
    b.load_seg(A0, "hits");
    b.mov(R0, MemRef::disp(A0, 0));
    b.addi(R0, R0, 1);
    b.mov(MemRef::disp(A0, 0), R0);
    b.suspend();
    let mut program = b.assemble().unwrap();
    program.code_base = EMEM_BASE;
    let config = MachineConfig::new(16).start(StartPolicy::None);
    let (rounds, _) = agree("resume", &program, config, |m| {
        let mut seen = Vec::new();
        for _ in 0..3 {
            for id in 0..m.node_count() {
                m.deliver_message(NodeId(id), MsgPriority::P0, "hit", &[]);
            }
            let cycles = m.run_until_quiescent(10_000).unwrap();
            seen.push((cycles, m.cycle(), m.stats(), m.state_hash()));
        }
        let hits = m.program().segment("hits").base;
        assert!((0..16).all(|id| m.read_word(NodeId(id), hits).as_i32() == 3));
        seen
    });
    // The premise: the machine stops one cycle into the SUSPEND, with every
    // node's counters already three cycles past the clock.
    let (_, stop, stats, _) = &rounds[0];
    assert_eq!(stats.nodes.total_cycles(), 16 * (stop + 3));
}

/// One token walks the id-ordered ring for a lap (one node live at a time);
/// a host-delivered `storm` then has every node fire a volley of six-word
/// messages half the machine away (every node and most routers live); then
/// the mesh drains.
fn surge_program() -> Program {
    use jm_runtime::nnr;
    let mut b = Builder::new();
    b.data("acc", Region::Imem, vec![Word::int(0)]);
    b.reserve("next_route", Region::Imem, 1);
    b.reserve("far_route", Region::Imem, 1);
    b.label("main");
    b.mov(R0, Special::Nid);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Rem, R0, R0, Special::NNodes);
    b.call(nnr::NID_TO_ROUTE);
    b.load_seg(A0, "next_route");
    b.mov(MemRef::disp(A0, 0), R0);
    b.mov(R0, Special::NNodes);
    b.alu(AluOp::Ash, R0, R0, -1);
    b.alu(AluOp::Add, R0, R0, Special::Nid);
    b.alu(AluOp::Rem, R0, R0, Special::NNodes);
    b.call(nnr::NID_TO_ROUTE);
    b.load_seg(A0, "far_route");
    b.mov(MemRef::disp(A0, 0), R0);
    b.mov(R0, Special::Nid);
    b.bnz(R0, "main_done");
    b.mov(R1, Special::NNodes);
    b.load_seg(A1, "next_route");
    b.send(MsgPriority::P0, MemRef::disp(A1, 0));
    b.send2e(MsgPriority::P0, hdr("token", 2), R1);
    b.label("main_done");
    b.suspend();
    b.label("token");
    b.mov(R1, MemRef::disp(A3, 1));
    b.subi(R1, R1, 1);
    b.bz(R1, "token_done");
    b.load_seg(A1, "next_route");
    b.send(MsgPriority::P0, MemRef::disp(A1, 0));
    b.send2e(MsgPriority::P0, hdr("token", 2), R1);
    b.label("token_done");
    b.suspend();
    b.label("storm");
    b.movi(R2, 8);
    b.load_seg(A1, "far_route");
    b.label("volley");
    b.send(MsgPriority::P0, MemRef::disp(A1, 0));
    b.send2(MsgPriority::P0, hdr("hit", 6), R2);
    b.send2(MsgPriority::P0, R2, R2);
    b.send2e(MsgPriority::P0, R2, R2);
    b.subi(R2, R2, 1);
    b.bnz(R2, "volley");
    b.suspend();
    b.label("hit");
    b.load_seg(A0, "acc");
    b.mov(R0, MemRef::disp(A0, 0));
    b.alu(AluOp::Add, R0, R0, MemRef::disp(A3, 1));
    b.mov(MemRef::disp(A0, 0), R0);
    b.suspend();
    b.entry("main");
    nnr::install(&mut b);
    b.assemble().unwrap()
}

/// The node scheduler and the router scan each walk one live bitset whatever
/// the occupancy. One run takes both from a single live component to all of
/// them and back to none — on 64 nodes (one bitset word) and on 16×16×4
/// (sixteen words; eight per slab under the crew) — and every engine must
/// agree on the outcome, statistics and memory, traced or not, and traced
/// on the trace hash and every occupancy sample.
#[test]
fn surge_from_one_live_node_to_all_and_back_is_engine_exact() {
    for dims in [MeshDims::new(4, 4, 4), MeshDims::new(16, 16, 4)] {
        let nodes = dims.nodes();
        let config = MachineConfig::with_dims(dims).start(StartPolicy::AllNodes);
        let run = |m: &mut JMachine| {
            let ring = m.run_until_quiescent(1_000_000).expect("ring quiesces");
            for id in 0..nodes {
                m.deliver_message(NodeId(id), MsgPriority::P0, "storm", &[]);
            }
            let storm = m.run_until_quiescent(1_000_000).expect("storm drains");
            let acc = m.program().segment("acc").base;
            let memory: Vec<i32> = (0..nodes)
                .map(|id| m.read_word(NodeId(id), acc).as_i32())
                .collect();
            let trace = m.take_trace().map(|t| (jm_trace::hash(&t), t.samples));
            ((ring, storm, m.stats(), memory), trace)
        };
        let label = format!("surge on {dims}");
        let traced = config.trace(TraceConfig::on().sample_every(4));
        let [(plain, _), (with_trace, trace)] =
            [config, traced].map(|config| agree(&label, &surge_program(), config, run).0);
        assert_eq!(plain, with_trace, "{dims}: tracing changed the run");
        let (ring_cycles, _, _, memory) = plain;
        // Eight hits of 8 + 7 + … + 1 on every node.
        assert!(memory.iter().all(|&acc| acc == 36), "{dims}: hits lost");
        let (_, samples) = trace.expect("tracing was on");
        // The run really spans the occupancy range, past where the scans
        // used to switch structure (down at 1/4 live, up at 5/8): once boot
        // is over the ring keeps one node and a few routers live, and the
        // storm has every node busy and most routers holding flits at once.
        let mut ring = samples
            .iter()
            .filter(|s| (256..ring_cycles).contains(&s.cycle));
        assert!(ring.all(|s| s.busy_nodes <= 1 && s.active_routers * 4 <= nodes));
        let peak_nodes = samples.iter().map(|s| s.busy_nodes).max().unwrap();
        let peak_routers = samples.iter().map(|s| s.active_routers).max().unwrap();
        assert_eq!(peak_nodes, nodes, "{dims}: storm never had every node busy");
        assert!(
            peak_routers * 8 >= nodes * 5,
            "{dims}: storm peaked at {peak_routers} of {nodes} active routers"
        );
    }
}

#[test]
fn host_delivery_wakeup_is_engine_exact() {
    // StartPolicy::None: nothing runs until the host injects work, so the
    // event engine must wake parked nodes on the host-delivery path.
    let mut b = Builder::new();
    b.reserve("out", Region::Imem, 1);
    b.label("fill");
    b.load_seg(A0, "out");
    b.mov(R0, MemRef::disp(A3, 1));
    b.mov(MemRef::disp(A0, 0), R0);
    b.suspend();
    let program = b.assemble().unwrap();
    let config = MachineConfig::new(16).start(StartPolicy::None);
    let (obs, _) = agree("host-delivery", &program, config, |m| {
        for id in 0..16 {
            let value = Word::int(id as i32 * 7);
            m.deliver_message(NodeId(id), MsgPriority::P0, "fill", &[value]);
        }
        observe(m, 10_000)
    });
    assert!(obs.outcome.is_ok());
    for (id, words) in obs.memory.iter().enumerate() {
        assert_eq!(words[0].as_i32(), id as i32 * 7);
    }
}

#[test]
fn timeout_and_idle_residue_are_engine_exact() {
    // Node 0 spins forever while fifteen nodes idle-park: the run must time
    // out at the same cycle with the same busy-node count, and the parked
    // nodes' skipped idle cycles must be credited in the stats snapshot.
    let mut b = Builder::new();
    b.label("spin");
    b.br("spin");
    b.entry("spin");
    let program = b.assemble().unwrap();
    // Node0 policy: 15 nodes never work.
    let (obs, _) = agree("timeout", &program, MachineConfig::new(16), |m| {
        observe(m, 5_000)
    });
    let err = obs.outcome.unwrap_err();
    assert!(err.contains("Timeout"), "expected timeout, got {err}");
    // All 16 nodes account every one of the 5000 cycles (spin or idle).
    assert_eq!(obs.stats.nodes.total_cycles(), 5_000 * 16);
}

/// Macro workload: the paper's radix sort, whole pipeline — setup writes
/// key strips into node memory, the run sorts, and every engine must agree
/// on every counter and the sorted output.
#[test]
fn macro_radix_is_engine_exact() {
    let cfg = jm_apps::radix::RadixConfig {
        keys: 128,
        seed: 11,
    };
    let program = jm_apps::radix::program(&cfg, 16);
    let config = MachineConfig::new(16).start(StartPolicy::AllNodes);
    let (obs, machines) = agree("radix", &program, config, |m| {
        jm_apps::radix::setup(m, &cfg);
        observe(m, 50_000_000)
    });
    assert!(obs.outcome.is_ok(), "{:?}", obs.outcome);
    let expected = jm_apps::radix::reference(&cfg.generate());
    assert_eq!(jm_apps::radix::result(&machines[0], &cfg), expected);
}

/// Macro workloads: the other three applications at their modules' small
/// test sizes, on the 2×2×4 mesh the crew cuts into two slabs — every
/// engine must agree on every counter and the answer, and the answer must
/// be the host reference's.
#[test]
fn macro_lcs_nqueens_tsp_are_engine_exact() {
    use jm_apps::{lcs, nqueens, tsp};
    const MAX: u64 = 500_000_000;
    let config = MachineConfig::new(16).start(StartPolicy::AllNodes);
    let check = |app: &str, (obs, answer): (Observation, u64), expected: u64| {
        assert!(obs.outcome.is_ok(), "{app}: {:?}", obs.outcome);
        assert_eq!(answer, expected, "{app}: every engine got it wrong");
    };

    let cfg = lcs::LcsConfig {
        a_len: 32,
        b_len: 64,
        seed: 7,
        alphabet: 3,
    };
    let (a, b) = cfg.strings();
    let (run, _) = agree("lcs", &lcs::program(&cfg, 16), config, |m| {
        lcs::setup(m, &cfg);
        (observe(m, MAX), u64::from(lcs::result(m)))
    });
    check("lcs", run, lcs::reference(&a, &b).into());

    let cfg = nqueens::NqConfig {
        n: 6,
        expand_depth: None,
    };
    let (run, _) = agree("nqueens", &nqueens::program(&cfg, 16), config, |m| {
        (observe(m, MAX), nqueens::result(m))
    });
    check("nqueens", run, nqueens::reference(cfg.n));

    let cfg = tsp::TspConfig {
        cities: 7,
        seed: 42,
        task_depth: None,
        yield_every: 16,
    };
    let (run, _) = agree("tsp", &tsp::program(&cfg, 16), config, |m| {
        tsp::setup(m, &cfg);
        (observe(m, MAX), u64::from(tsp::result(m)))
    });
    check("tsp", run, tsp::reference(&cfg.matrix(), cfg.cities).into());
}

#[test]
fn ejection_backpressure_redelivery_is_engine_exact() {
    // Regression test for the queue-full → break → redeliver-next-cycle
    // pump path: a volley longer than the P0 queue and a slow handler force
    // the pump to refuse deliveries, leaving words parked in the ejection
    // FIFO until the handler drains the queue. The event engine must keep
    // the node in the network's pending set across refusals (it may not
    // "forget" the parked words) and match the naive engine cycle for
    // cycle.
    let mut b = Builder::new();
    b.data("sum", Region::Imem, vec![Word::int(0)]);
    b.label("main");
    b.mov(R0, Special::Nid);
    b.subi(R0, R0, 3);
    b.bnz(R0, "main_done");
    // Node 3, in the other slab, fires five-word messages back to back at
    // node 0, more than the 512-word queue holds.
    b.movi(R2, VOLLEY);
    b.label("volley");
    b.send(
        MsgPriority::P0,
        RouteWord::new(Coord::new(0, 0, 0)).to_word(),
    );
    b.send2(MsgPriority::P0, hdr("slow", 5), R2);
    b.send2(MsgPriority::P0, R2, R2);
    b.sende(MsgPriority::P0, R2);
    b.subi(R2, R2, 1);
    b.bnz(R2, "volley");
    b.label("main_done");
    b.suspend();
    // The handler burns cycles before retiring, so arrivals outpace
    // consumption and the queue stays full.
    b.label("slow");
    b.load_seg(A0, "sum");
    b.mov(R0, MemRef::disp(A0, 0));
    b.mov(R1, MemRef::disp(A3, 1));
    b.alu(AluOp::Add, R0, R0, R1);
    b.mov(MemRef::disp(A0, 0), R0);
    b.movi(R3, 40);
    b.label("burn");
    b.subi(R3, R3, 1);
    b.bnz(R3, "burn");
    b.suspend();
    b.entry("main");
    let program = b.assemble().unwrap();
    // Arrivals outpace the slow handler, so the queue fills long before
    // the volley ends.
    const VOLLEY: i32 = 150;
    const _: () = assert!(5 * VOLLEY as u32 > QUEUE0_WORDS);
    let config = MachineConfig::with_dims(MeshDims::new(1, 1, 4)).start(StartPolicy::AllNodes);
    let (naive, machines) = agree("backpressure", &program, config, |m| observe(m, 1_000_000));
    // The workload really exercised backpressure: every message arrived
    // and summed correctly, and deliveries were refused along the way.
    assert!(naive.outcome.is_ok(), "{:?}", naive.outcome);
    assert_eq!(naive.memory[0][0].as_i32(), VOLLEY * (VOLLEY + 1) / 2);
    assert_eq!(naive.stats.nodes.msgs_received, VOLLEY as u64);
    assert!(machines[1].node(NodeId(0)).queue_refusals(MsgPriority::P0) > 0);
}

#[test]
fn queue_full_redelivers_next_cycle() {
    // The same pump path, observed at the queue: with the handler slow, a
    // refused word must stay in the ejection FIFO and land in the queue on
    // a later cycle once space opens — under every engine alike.
    // Three senders' volleys of three-word messages, more than the 512-word
    // queue holds.
    const VOLLEY: i32 = 100;
    const _: () = assert!(3 * 3 * VOLLEY as u32 > QUEUE0_WORDS);
    let program = {
        let mut b = Builder::new();
        b.label("main");
        b.mov(R0, Special::Nid);
        b.bz(R0, "main_done");
        b.movi(R2, VOLLEY);
        b.label("volley");
        b.send(
            MsgPriority::P0,
            RouteWord::new(Coord::new(0, 0, 0)).to_word(),
        );
        b.send2(MsgPriority::P0, hdr("slow", 3), R2);
        b.sende(MsgPriority::P0, R2);
        b.subi(R2, R2, 1);
        b.bnz(R2, "volley");
        b.label("main_done");
        b.suspend();
        b.label("slow");
        b.movi(R3, 60);
        b.label("burn");
        b.subi(R3, R3, 1);
        b.bnz(R3, "burn");
        b.suspend();
        b.entry("main");
        b.assemble().unwrap()
    };
    let config = MachineConfig::with_dims(MeshDims::new(1, 1, 4)).start(StartPolicy::AllNodes);
    let ((run, refusals, high_water), _) = agree("queue full", &program, config, |m| {
        let run = observe(m, 1_000_000);
        let node0 = m.node(NodeId(0));
        let p0 = MsgPriority::P0;
        (run, node0.queue_refusals(p0), node0.queue_high_water(p0))
    });
    assert!(run.outcome.is_ok(), "{:?}", run.outcome);
    assert!(
        refusals > 0,
        "queue never refused a delivery — workload did not backpressure"
    );
    assert_eq!(high_water, QUEUE0_WORDS as usize);
    // Despite the refusals, every message was eventually re-delivered.
    let sent = 3 * VOLLEY as u64;
    assert_eq!(run.stats.nodes.msgs_received, sent);
    assert_eq!(run.stats.net.delivered_words, sent * 3);
}

/// [`agree`] on a workload built to make the sharded engines' nodes run on
/// past their visits and be rewound: the naive observation, and the event
/// engine's stretch counters, which say whether they did.
fn stretched(
    label: &str,
    program: Program,
    config: MachineConfig,
    max_cycles: u64,
) -> (Observation, StretchStats) {
    let (naive, machines) = agree(label, &program, config, |m| observe(m, max_cycles));
    (naive, machines[1].stretch_stats())
}

/// Boot code every stretch workload shares: the route to the next node
/// (ascending id, wrapping) into `next`, then `A0` at `shared`.
fn route_to_next(b: &mut Builder) {
    b.reserve("next", Region::Imem, 1);
    b.data("shared", Region::Imem, vec![Word::int(0); 2]);
    b.label("main");
    b.mov(R0, Special::Nid);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Rem, R0, R0, Special::NNodes);
    b.call(nnr::NID_TO_ROUTE);
    b.load_seg(A1, "next");
    b.mov(MemRef::disp(A1, 0), R0);
    b.load_seg(A0, "shared");
}

/// Every node runs a store-heavy background loop — each iteration writes
/// the cycle it reads and a running sum — and node 5 divides by zero,
/// unhandled, at iteration `fault_at`.
fn store_loop_program(fault_at: i32) -> Program {
    let mut b = Builder::new();
    b.reserve("buf", Region::Imem, 8);
    b.label("main");
    b.load_seg(A0, "buf");
    b.movi(R0, 0);
    b.label("loop");
    b.alu(AluOp::And, R1, R0, 7);
    b.mov(MemRef::reg(A0, R1), Special::Cycle);
    b.mov(R2, MemRef::disp(A0, 0));
    b.alu(AluOp::Add, R2, R2, R0);
    b.mov(MemRef::disp(A0, 0), R2);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Eq, R3, R0, fault_at);
    b.bf(R3, "loop");
    b.mov(R3, Special::Nid);
    b.alu(AluOp::Sub, R3, R3, 5);
    b.bnz(R3, "loop");
    b.alu(AluOp::Div, R0, R0, 0);
    b.br("loop");
    b.entry("main");
    b.assemble().unwrap()
}

/// A node error is the one stop a stretch is not bounded by: the drive
/// stops on the first multiple of 64 after it, inside the stretches other
/// nodes began before the error, and each is settled there.
#[test]
fn an_error_stop_settles_every_stretch() {
    let config = MachineConfig::new(64).start(StartPolicy::AllNodes);
    let mut rewinds = 0;
    for fault_at in [1, 7, 50, 333, 400] {
        let label = format!("error at iteration {fault_at}");
        let (obs, counts) = stretched(&label, store_loop_program(fault_at), config, 100_000);
        rewinds += counts.rewinds;
        let err = obs.outcome.unwrap_err();
        assert!(err.contains("UnhandledFault"), "{label}: {err}");
    }
    assert!(rewinds > 0, "no error stop landed inside a stretch");
}

/// Node 0 sends one message to the far corner of a 2×2×4 mesh, (1,1,3), in
/// the other slab of a two-slab cut, whose handler divides by zero with no
/// vector installed.
fn remote_fault_program() -> Program {
    let mut b = Builder::new();
    b.label("main");
    b.movi(R0, FAR_CORNER);
    b.wtag(R0, R0, jm_isa::Tag::Route.bits() as i32);
    b.send(MsgPriority::P0, R0);
    b.send2e(MsgPriority::P0, hdr("boom", 2), 0);
    b.suspend();
    b.label("boom");
    b.alu(AluOp::Div, R0, 1, 0);
    b.suspend();
    b.entry("main");
    b.assemble().unwrap()
}

/// A node error stops every engine on one cycle, a multiple of 64, and no
/// observation moves it: run plain, traced every 7 cycles and captured
/// every 13, each engine ends in the same outcome, cycle, statistics and
/// state.
#[test]
fn an_error_stop_is_one_answer_under_every_engine_and_observer() {
    let workloads = [
        (
            remote_fault_program(),
            MachineConfig::with_dims(MeshDims::new(2, 2, 4)),
        ),
        (
            store_loop_program(333),
            MachineConfig::new(64).start(StartPolicy::AllNodes),
        ),
    ];
    let observers = [
        ("plain", None, None),
        ("traced", Some(7), None),
        ("captured", None, Some(13)),
    ];
    for (program, config) in workloads {
        let answers = observers.map(|(observer, sample_every, interval)| {
            let mut config = config;
            if let Some(every) = sample_every {
                config = config.trace(TraceConfig::on().sample_every(every));
            }
            let (answer, _) = agree(observer, &program, config, |m| {
                if let Some(interval) = interval {
                    m.record_replay(interval);
                }
                let outcome = format!("{:?}", m.run_until_quiescent(100_000));
                (outcome, m.cycle(), m.stats(), m.state_hash())
            });
            answer
        });
        let one = &answers[0];
        assert!(one.0.starts_with("Err(NodeErrors"), "{one:?}");
        assert!(one.1.is_multiple_of(64), "stopped on cycle {}", one.1);
        for ((observer, ..), answer) in observers.iter().zip(&answers) {
            assert_eq!(answer, one, "{observer}");
        }
    }
}

/// Background loops read a word that P0 `poke` handlers add to and write
/// one the handlers read; each loop pokes the next node every eighth
/// iteration, so pokes land inside the neighbours' stretches, and each
/// handler folds in when it ran and what the loop it interrupted had
/// written last.
fn poked_loop_program() -> Program {
    let mut b = Builder::new();
    route_to_next(&mut b);
    b.movi(R2, 200);
    b.label("loop");
    b.mov(R0, MemRef::disp(A0, 0));
    b.alu(AluOp::Add, R0, R0, R2);
    b.mov(MemRef::disp(A0, 1), R0);
    b.alu(AluOp::And, R1, R2, 7);
    b.bnz(R1, "no_poke");
    b.send(MsgPriority::P0, MemRef::disp(A1, 0));
    b.send2e(MsgPriority::P0, hdr("poke", 2), R2);
    b.label("no_poke");
    b.subi(R2, R2, 1);
    b.bnz(R2, "loop");
    b.suspend();
    interrupt_handler(&mut b, "poke");
    b.entry("main");
    nnr::install(&mut b);
    b.assemble().unwrap()
}

/// A handler that adds its argument, the cycle it runs at and the word its
/// node's interrupted thread wrote last into the word that thread reads.
fn interrupt_handler(b: &mut Builder, name: &str) {
    b.label(name);
    b.load_seg(A0, "shared");
    b.mov(R0, MemRef::disp(A0, 0));
    b.alu(AluOp::Add, R0, R0, MemRef::disp(A3, 1));
    b.alu(AluOp::Add, R0, R0, Special::Cycle);
    b.alu(AluOp::Add, R0, R0, MemRef::disp(A0, 1));
    b.mov(MemRef::disp(A0, 0), R0);
    b.suspend();
}

#[test]
fn preempted_background_stretches_are_engine_exact() {
    let config = MachineConfig::new(64).start(StartPolicy::AllNodes);
    let (_, counts) = stretched("poked loops", poked_loop_program(), config, 1_000_000);
    assert!(counts.rewinds > 0, "no poke landed inside a stretch");
}

/// Each node hands the next a long P0 `work` handler that reads what P1
/// `urgent` handlers write (and writes what they read), then fires six P1
/// messages after it at staggered intervals, busy-waiting (a background
/// stretch of its own) between them.
fn preempted_handler_program() -> Program {
    let mut b = Builder::new();
    route_to_next(&mut b);
    b.send(MsgPriority::P0, MemRef::disp(A1, 0));
    b.send2e(MsgPriority::P0, hdr("work", 2), 300);
    b.movi(R2, 6);
    b.label("volley");
    b.alu(AluOp::Mul, R3, R2, 7);
    b.label("wait");
    b.subi(R3, R3, 1);
    b.bnz(R3, "wait");
    b.send(MsgPriority::P1, MemRef::disp(A1, 0));
    b.send2e(MsgPriority::P1, hdr("urgent", 2), R2);
    b.subi(R2, R2, 1);
    b.bnz(R2, "volley");
    b.suspend();
    b.label("work");
    b.load_seg(A0, "shared");
    b.mov(R2, MemRef::disp(A3, 1));
    b.label("work_loop");
    b.mov(R0, MemRef::disp(A0, 0));
    b.alu(AluOp::Add, R1, R0, R2);
    b.mov(MemRef::disp(A0, 1), R1);
    b.subi(R2, R2, 1);
    b.bnz(R2, "work_loop");
    b.suspend();
    interrupt_handler(&mut b, "urgent");
    b.entry("main");
    nnr::install(&mut b);
    b.assemble().unwrap()
}

#[test]
fn p1_preempting_a_stretching_p0_handler_is_engine_exact() {
    let config = MachineConfig::new(64).start(StartPolicy::AllNodes);
    let program = preempted_handler_program();
    let (_, counts) = stretched("P1 over P0", program, config, 1_000_000);
    assert!(counts.rewinds > 0, "no P1 message landed inside a stretch");
}

/// Checksum mode: a message dispatches only once its trailer is in, so
/// every word landing above a stretching thread rewinds it, header or not.
#[test]
fn checksummed_preemption_is_engine_exact() {
    let spec = FaultSpec::new(7).flaky(50_000).checksums(true);
    let config = MachineConfig::new(64)
        .start(StartPolicy::AllNodes)
        .fault(spec);
    let program = preempted_handler_program();
    let (_, counts) = stretched("checksums", program, config, 1_000_000);
    assert!(counts.rewinds > 0, "no word landed inside a stretch");
}

/// Each node pokes the next one — after a delay of its own, so pokes land
/// at every phase of the receiver's run — then writes six DRAM blocks a
/// page apart, each a fresh page, for as long as it has not been poked.
/// A page is host storage: a stretch runs through the write that
/// allocates one, and a poke that rewinds the write leaves the page
/// allocated and NIL, which hashes as never written.
#[test]
fn stretches_run_through_fresh_dram_pages() {
    let mut b = Builder::new();
    for k in 0..6 {
        b.reserve(format!("e{k}"), Region::Emem, 4000);
    }
    route_to_next(&mut b);
    b.mov(R3, Special::Nid);
    b.alu(AluOp::And, R3, R3, 7);
    b.addi(R3, R3, 1);
    b.label("stagger");
    b.subi(R3, R3, 1);
    b.bnz(R3, "stagger");
    b.send(MsgPriority::P0, MemRef::disp(A1, 0));
    b.send2e(MsgPriority::P0, hdr("poke", 2), 1);
    for k in 0..6 {
        b.mov(R0, MemRef::disp(A0, 0));
        b.bnz(R0, "poked");
        b.load_seg(A1, format!("e{k}"));
        b.mov(MemRef::disp(A1, 3000), Special::Cycle);
    }
    b.label("poked");
    b.suspend();
    interrupt_handler(&mut b, "poke");
    b.entry("main");
    nnr::install(&mut b);
    let config = MachineConfig::new(64).start(StartPolicy::AllNodes);
    let (_, counts) = stretched("fresh pages", b.assemble().unwrap(), config, 1_000_000);
    assert!(counts.rewinds > 0, "no poke landed inside a stretch");
}

/// The pages `fill` writes.
const FILL_PAGES: u32 = 6;

/// Each even node sends the next a P0 `job` and, after a delay of its own
/// (`stagger` loop turns a node id), a P1 `urgent`, which raises `shared`
/// word 0. `job` is `body`'s, run after `A0` is loaded with `shared`; it
/// ends at `done`.
fn preempted_job(b: &mut Builder, stagger: i32, body: impl FnOnce(&mut Builder)) -> Program {
    route_to_next(b);
    b.mov(R3, Special::Nid);
    b.alu(AluOp::And, R3, R3, 1);
    b.bnz(R3, "odd");
    b.send(MsgPriority::P0, MemRef::disp(A1, 0));
    b.send2e(MsgPriority::P0, hdr("job", 2), 0);
    b.mov(R3, Special::Nid);
    b.alu(AluOp::Mul, R3, R3, stagger);
    b.addi(R3, R3, 3);
    b.label("stagger");
    b.subi(R3, R3, 1);
    b.bnz(R3, "stagger");
    b.send(MsgPriority::P1, MemRef::disp(A1, 0));
    b.send2e(MsgPriority::P1, hdr("urgent", 2), 1);
    b.label("odd");
    b.suspend();
    b.label("job");
    b.load_seg(A0, "shared");
    body(b);
    b.label("done");
    b.suspend();
    interrupt_handler(b, "urgent");
    b.entry("main");
    nnr::install(b);
    b.assemble().unwrap()
}

/// A [`preempted_job`] that writes the first word of one untouched page of
/// `page` words after another (word `first + k * page` of `far`, in
/// `region`), for as long as no `urgent` has landed.
fn fill_program(region: Region, page: u32, first: u32, stagger: i32) -> Program {
    let mut b = Builder::new();
    b.reserve("far", region, FILL_PAGES * page);
    preempted_job(&mut b, stagger, |b| {
        b.load_seg(A2, "far");
        for k in 0..FILL_PAGES {
            b.mov(R0, MemRef::disp(A0, 0));
            b.bnz(R0, "done");
            b.movi(R2, 6);
            b.label(format!("spin{k}"));
            b.subi(R2, R2, 1);
            b.bnz(R2, format!("spin{k}"));
            b.mov(MemRef::disp(A2, first + page * k), Special::Cycle);
        }
    })
}

/// A stretch may allocate a page — allocation is host storage, not state
/// — and a P1 delivery that rewinds it leaves the page allocated and NIL.
/// Stopped at every cycle of the run, every engine's state hash is
/// naive's. Run to quiescence, returns naive's and the event engine's
/// `pages`: more under the event engine means a rewound stretch allocated
/// a page naive never did.
fn rewound_fill(label: &str, program: &Program, pages: fn(&JMachine) -> u64) -> (u64, u64) {
    let config = MachineConfig::new(16).start(StartPolicy::AllNodes);
    let (end, machines) = agree(label, program, config, |m| observe(m, 100_000));
    let cycles = end.outcome.expect("the fill workload quiesces");
    for at in 0..=cycles {
        agree(&format!("{label}, stopped at {at}"), program, config, |m| {
            m.run(at);
            m.state_hash()
        });
    }
    assert!(
        machines[1].stretch_stats().rewinds > 0,
        "{label}: no rewind"
    );
    (pages(&machines[0]), pages(&machines[1]))
}

/// The fill in SRAM's 64-word pages.
#[test]
fn a_rewound_stretch_leaves_an_sram_page_that_hashes_as_unwritten() {
    // `far` sits after the code, whose length depends on the offsets the
    // stores encode: settle on an offset that places itself.
    let mut first = 0;
    let program = loop {
        let program = fill_program(Region::Imem, SRAM_PAGE, first, 5);
        let base = program.segment("far").base;
        if (base + first).is_multiple_of(SRAM_PAGE) {
            break program;
        }
        first = SRAM_PAGE - base % SRAM_PAGE;
    };
    let (naive, event) = rewound_fill("fresh SRAM pages", &program, |m| {
        m.memory_stats().sram_pages
    });
    assert!(event > naive, "no rewound stretch allocated an SRAM page");
}

/// The fill in DRAM's 512-word pages, `far` the only DRAM segment; the
/// staggers land `urgent` at every phase of a fill's loop.
#[test]
fn a_rewound_stretch_leaves_a_dram_page_that_hashes_as_unwritten() {
    let mut extra = 0;
    for stagger in 2..8 {
        let program = fill_program(Region::Emem, DRAM_PAGE_WORDS, 0, stagger);
        assert_eq!(program.segment("far").base, EMEM_BASE);
        let label = format!("fresh DRAM pages, stagger {stagger}");
        let (naive, event) = rewound_fill(&label, &program, |m| m.memory_stats().dram_pages);
        assert!(
            event >= naive,
            "{label}: {event} pages against naive's {naive}"
        );
        extra += event - naive;
    }
    assert!(extra > 0, "no rewound stretch allocated a DRAM page");
}

/// A [`preempted_job`] that, for as long as no `urgent` has landed, enters
/// three keys of one name-table set in turn — the third evicts the first
/// — translating the key entered before each and probing the one entered
/// two before, which is gone. The first translation misses into
/// `refill`, which enters the key; the translations are summed into
/// `shared` word 1, which `urgent` reads.
fn names_program(stagger: i32) -> Program {
    let mut b = Builder::new();
    let key = |k: u32| Word::sym(5 + (k % 3) * XLATE_SETS);
    preempted_job(&mut b, stagger, |b| {
        for k in 3..3 + NAME_ROUNDS {
            b.mov(R0, MemRef::disp(A0, 0));
            b.bnz(R0, "done");
            b.enter(key(k), Special::Cycle);
            b.xlate(R1, key(k - 1));
            b.probe(R2, key(k - 2));
            b.alu(AluOp::Add, R1, R1, MemRef::disp(A0, 1));
            b.mov(MemRef::disp(A0, 1), R1);
        }
        b.br("done");
        b.label("refill");
        b.enter(Special::FVal, Word::int(1));
        b.resume();
    })
}

/// Rounds of `names_program`'s job.
const NAME_ROUNDS: u32 = 8;

/// Stretches run through `ENTER`, `XLATE` and `PROBE`, whose table is SRAM
/// words: a P1 `urgent` that lands inside one rewinds the table's words
/// with the rest. Stopped at every cycle of the run, every engine's state
/// hash and translation counters are naive's, at staggers that land
/// `urgent` at every phase of a round.
#[test]
fn a_rewound_stretch_through_the_name_table_is_engine_exact() {
    let config = MachineConfig::new(16).start(StartPolicy::AllNodes);
    for stagger in 2..8 {
        let program = names_program(stagger);
        let setup = |m: &mut JMachine| m.install_vector_all(FaultKind::XlateMiss, "refill");
        let label = format!("names, stagger {stagger}");
        let (end, machines) = agree(&label, &program, config, |m| {
            setup(m);
            observe(m, 100_000)
        });
        let cycles = end.outcome.expect("the names workload quiesces");
        let nodes = &end.stats.nodes;
        let refills = nodes.fault_count(FaultKind::XlateMiss);
        assert!(refills > 0 && nodes.xlates > refills, "{label}: {nodes:?}");
        let rewinds = machines[1].stretch_stats().rewinds;
        assert!(rewinds > 0, "{label}: no rewind");
        for at in 0..=cycles {
            let stop = format!("{label}, stopped at {at}");
            agree(&stop, &program, config, |m| {
                setup(m);
                m.run(at);
                let nodes = m.stats().nodes;
                (m.state_hash(), nodes.xlates, nodes.xlate_misses)
            });
        }
    }
}

/// Occupancy samples (every 7 cycles) and replay checkpoints (every 13)
/// are drive boundaries no stretch runs past: a traced, captured run of the
/// P1-over-P0 workload is the same on every engine, down to each sample,
/// each checkpoint hash and the trace hash.
#[test]
fn trace_samples_and_replay_checkpoints_cut_stretches_exactly() {
    let config = MachineConfig::new(64)
        .start(StartPolicy::AllNodes)
        .trace(TraceConfig::on().sample_every(7));
    let program = preempted_handler_program();
    let (naive, _) = agree("samples and checkpoints", &program, config, |m| {
        m.record_replay(13);
        let outcome = m.run_until_quiescent(1_000_000).map_err(|e| e.to_string());
        let log = m.finish_replay().expect("capture was armed");
        let trace = m.take_trace().expect("tracing was on");
        let hash = jm_trace::hash(&trace);
        (outcome, m.stats(), log.records, hash, trace.samples)
    });
    assert!(naive.0.is_ok(), "{:?}", naive.0);
}

/// Node 0's background thread counts down and then reaches `MARK comm;
/// SUSPEND`, which no stretch runs: a stretch stops in front of the `MARK`.
/// Node 2 of a 1×1×4 mesh, in the crew's other slab, sends it a P0 `poke`
/// after `delay` loop turns and `pad` `NOP`s, so that across the sweep the
/// poke lands at every cycle around that stop; nodes 1 and 3 stop at once.
fn marked_stop_program(delay: i32, pad: usize) -> Program {
    let mut b = Builder::new();
    b.label("main");
    b.mov(R0, Special::Nid);
    b.bnz(R0, "sender");
    b.movi(R1, MARKED_STOP_COUNT);
    b.label("spin");
    b.subi(R1, R1, 1);
    b.bnz(R1, "spin");
    b.mark(jm_isa::instr::StatClass::Comm);
    b.suspend();
    b.label("sender");
    b.subi(R0, R0, 2);
    b.bnz(R0, "idle");
    for _ in 0..pad {
        b.nop();
    }
    b.movi(R1, delay);
    b.label("delay");
    b.subi(R1, R1, 1);
    b.bnz(R1, "delay");
    b.send(
        MsgPriority::P0,
        RouteWord::new(Coord::new(0, 0, 0)).to_word(),
    );
    b.sende(MsgPriority::P0, hdr("poke", 1));
    b.label("idle");
    b.suspend();
    b.label("poke");
    b.movi(R2, 20);
    b.label("busy");
    b.subi(R2, R2, 1);
    b.bnz(R2, "busy");
    b.suspend();
    b.entry("main");
    b.assemble().unwrap()
}

/// Turns of node 0's countdown: its `MARK` is reached at cycle
/// `3 * MARKED_STOP_COUNT + 2`.
const MARKED_STOP_COUNT: i32 = 20;

/// Turns of node 2's delay loop: with the `NOP`s, the poke enters node 0's
/// queue on each cycle from 36 to 89.
const MARKED_STOP_DELAYS: std::ops::Range<i32> = 7..25;

/// A stretch that stops in front of a `MARK`-prefixed instruction it may
/// not run leaves the thread as a node ticked every cycle has it there: the
/// IP at the `MARK`, the class from before it. Only a preempting word that
/// lands before the instruction starts lets anyone see that state — the
/// thread does not run again until the handler ends, and then takes the
/// `MARK` on its own — so the state hash is taken at every cycle while the
/// poke handler runs.
#[test]
fn a_stretch_stopped_before_a_mark_shows_the_class_before_it() {
    let stop = 3 * MARKED_STOP_COUNT as u64 + 2;
    let config = MachineConfig::with_dims(MeshDims::new(1, 1, 4)).start(StartPolicy::AllNodes);
    for pad in 0..3 {
        for delay in MARKED_STOP_DELAYS {
            let case = format!("poke after {delay} turns and {pad} NOPs");
            let program = marked_stop_program(delay, pad);
            let (run, _) = agree(&case, &program, config, |m| {
                m.run(stop + 1);
                let mut hashes = vec![m.state_hash()];
                while m.cycle() < stop + 70 {
                    m.run(1);
                    hashes.push(m.state_hash());
                }
                let outcome = m.run_until_quiescent(100_000).map_err(|e| e.to_string());
                (hashes, outcome, m.stats())
            });
            assert!(run.1.is_ok(), "{case}: {:?}", run.1);
        }
    }
}

/// `run(n)` stops every engine on the cycle asked for, so a run in chunks
/// — of 1, 2, 3, 5, 7, 11, 100 and 1001 cycles — is one run, whatever
/// stretches the chunk ends cut.
#[test]
fn chunked_runs_are_one_run() {
    const TOTAL: u64 = 2_000;
    let config = MachineConfig::new(64).start(StartPolicy::AllNodes);
    let program = poked_loop_program();
    let run = |chunk: u64| {
        let label = format!("{chunk}-cycle chunks");
        let (run, _) = agree(&label, &program, config, |m| {
            while m.cycle() < TOTAL {
                m.run(chunk.min(TOTAL - m.cycle()));
            }
            (m.stats(), m.state_hash())
        });
        run
    };
    let whole = run(TOTAL);
    for chunk in [1, 2, 3, 5, 7, 11, 100, 1001] {
        assert_eq!(run(chunk), whole, "in {chunk}-cycle chunks");
    }
}
