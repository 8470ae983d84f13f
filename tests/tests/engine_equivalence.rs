//! Differential tests: the event-driven and parallel engines must be
//! **cycle-exact** with the naive reference engine. For each workload every
//! engine — including `Parallel(threads)` for threads ∈ {2, 4} — runs
//! the same program and every observable is compared: the
//! `run_until_quiescent` outcome (success cycle count or error), the
//! aggregated machine statistics (per-class cycles, per-handler counters,
//! network counters), and the final contents of every declared data block
//! on every node. Thread counts beyond the mesh's z extent are clamped, so
//! `Parallel(4)` on a 2×2×2 mesh re-checks the 2-shard cut while on a
//! 2×2×4 mesh it exercises four real worker threads.

use jm_asm::{hdr, Builder, Program, Region};
use jm_isa::instr::{AluOp, MsgPriority};
use jm_isa::node::{MeshDims, NodeId};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::word::Word;
use jm_isa::{Coord, RouteWord};
use jm_machine::FaultSpec;
use jm_machine::StartPolicy;
use jm_machine::{Engine, JMachine, MachineConfig, TraceConfig};
use jm_mdp::MdpConfig;
use jm_mdp::StretchStats;
use jm_runtime::nnr;
use jm_tests::{observe, observe_stretched, Observation, ENGINES};

/// Runs the workload on every engine and asserts bit-identical observables.
fn assert_equivalent(
    label: &str,
    program: impl Fn() -> Program,
    config: MachineConfig,
    max_cycles: u64,
    setup: impl Fn(&mut JMachine),
) -> Observation {
    let naive = observe(program(), config.engine(ENGINES[0]), max_cycles, &setup);
    for engine in &ENGINES[1..] {
        let other = observe(program(), config.engine(*engine), max_cycles, &setup);
        assert_eq!(
            naive.outcome, other.outcome,
            "{label}/{engine:?}: run outcome diverged"
        );
        assert_eq!(
            naive.stats, other.stats,
            "{label}/{engine:?}: statistics diverged"
        );
        assert_eq!(
            naive.memory, other.memory,
            "{label}/{engine:?}: final memory diverged"
        );
        assert_eq!(
            naive.state_hash, other.state_hash,
            "{label}/{engine:?}: final state hash diverged"
        );
    }
    naive
}

/// Micro workload: a three-hop RPC chain with long idle spans — node 0
/// asks the far corner to increment a value and store the reply.
fn rpc_program() -> Program {
    let mut b = Builder::new();
    b.reserve("out", Region::Imem, 1);
    b.label("main");
    b.movi(R0, 0x421); // route to node (1,1,1) on a 2x2x2 mesh
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
    let obs = assert_equivalent("rpc", rpc_program, MachineConfig::new(8), 10_000, |_| {});
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
    let obs = assert_equivalent(
        "ring",
        ring_program,
        MachineConfig::new(16).start(StartPolicy::AllNodes),
        1_000_000,
        |_| {},
    );
    assert!(obs.outcome.is_ok());
}

#[test]
fn fixed_cycle_run_is_engine_exact() {
    // `run(n)` drives the parallel engine through its fixed-deadline mode
    // (no quiescence detection): stopping mid-workload must leave every
    // engine at the same cycle with the same statistics snapshot.
    let config = MachineConfig::new(16).start(StartPolicy::AllNodes);
    let mut snapshots = Vec::new();
    for engine in ENGINES {
        let mut m = JMachine::new(ring_program(), config.engine(engine));
        m.run(1_500);
        assert_eq!(m.cycle(), 1_500, "{engine:?}: wrong stop cycle");
        snapshots.push(m.stats());
    }
    for (engine, snap) in ENGINES.iter().zip(&snapshots).skip(1) {
        assert_eq!(&snapshots[0], snap, "fixed run: {engine:?} diverged");
    }
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
/// (sixteen words; eight per slab under `Parallel(2)`) — and every engine
/// must agree on the outcome, statistics, memory, and (traced) trace hash.
#[test]
fn surge_from_one_live_node_to_all_and_back_is_engine_exact() {
    for dims in [MeshDims::new(4, 4, 4), MeshDims::new(16, 16, 4)] {
        let nodes = dims.nodes();
        let config = MachineConfig::with_dims(dims).start(StartPolicy::AllNodes);
        let run = |config: MachineConfig| {
            let mut m = JMachine::new(surge_program(), config);
            let ring = m.run_until_quiescent(1_000_000).expect("ring quiesces");
            for id in 0..nodes {
                m.deliver_message(NodeId(id), MsgPriority::P0, "storm", &[]);
            }
            let storm = m.run_until_quiescent(1_000_000).expect("storm drains");
            let acc = m.program().segment("acc").base;
            let memory: Vec<i32> = (0..nodes)
                .map(|id| m.read_word(NodeId(id), acc).as_i32())
                .collect();
            let trace = m.take_trace();
            ((ring, storm, m.stats(), memory), trace)
        };
        let (naive, _) = run(config.engine(Engine::Naive));
        // Eight hits of 8 + 7 + … + 1 on every node.
        assert!(naive.3.iter().all(|&acc| acc == 36), "{dims:?}: hits lost");
        for engine in [Engine::Event, Engine::Parallel(2)] {
            let (other, _) = run(config.engine(engine));
            assert_eq!(naive, other, "{dims:?}/{engine:?} diverged from naive");
        }
        let traced = config.trace(TraceConfig::on().sample_every(4));
        let (naive_obs, naive_trace) = run(traced.engine(Engine::Naive));
        let (event_obs, event_trace) = run(traced);
        assert_eq!(naive, naive_obs, "{dims:?}: tracing changed the naive run");
        assert_eq!(naive, event_obs, "{dims:?}: tracing changed the event run");
        let (naive_trace, event_trace) = (naive_trace.unwrap(), event_trace.unwrap());
        assert_eq!(
            jm_trace::hash(&naive_trace),
            jm_trace::hash(&event_trace),
            "{dims:?}: trace hash diverged"
        );
        let samples = event_trace.samples;
        // The run really spans the occupancy range, past where the scans
        // used to switch structure (down at 1/4 live, up at 5/8): once boot
        // is over the ring keeps one node and a few routers live, and the
        // storm has every node busy and most routers holding flits at once.
        let mut ring = samples.iter().filter(|s| (256..naive.0).contains(&s.cycle));
        assert!(ring.all(|s| s.busy_nodes <= 1 && s.active_routers * 4 <= nodes));
        let peak_nodes = samples.iter().map(|s| s.busy_nodes).max().unwrap();
        let peak_routers = samples.iter().map(|s| s.active_routers).max().unwrap();
        assert_eq!(
            peak_nodes, nodes,
            "{dims:?}: storm never had every node busy"
        );
        assert!(
            peak_routers * 8 >= nodes * 5,
            "{dims:?}: storm peaked at {peak_routers} of {nodes} active routers"
        );
    }
}

#[test]
fn host_delivery_wakeup_is_engine_exact() {
    // StartPolicy::None: nothing runs until the host injects work, so the
    // event engine must wake parked nodes on the host-delivery path.
    let program = || {
        let mut b = Builder::new();
        b.reserve("out", Region::Imem, 1);
        b.label("fill");
        b.load_seg(A0, "out");
        b.mov(R0, MemRef::disp(A3, 1));
        b.mov(MemRef::disp(A0, 0), R0);
        b.suspend();
        b.assemble().unwrap()
    };
    let obs = assert_equivalent(
        "host-delivery",
        program,
        MachineConfig::new(8).start(StartPolicy::None),
        10_000,
        |m| {
            for id in 0..8 {
                m.deliver_message(
                    NodeId(id),
                    MsgPriority::P0,
                    "fill",
                    &[Word::int(id as i32 * 7)],
                );
            }
        },
    );
    assert!(obs.outcome.is_ok());
    for (id, words) in obs.memory.iter().enumerate() {
        assert_eq!(words[0].as_i32(), id as i32 * 7);
    }
}

#[test]
fn timeout_and_idle_residue_are_engine_exact() {
    // Node 0 spins forever while seven nodes idle-park: the run must time
    // out at the same cycle with the same busy-node count, and the parked
    // nodes' skipped idle cycles must be credited in the stats snapshot.
    let program = || {
        let mut b = Builder::new();
        b.label("spin");
        b.br("spin");
        b.entry("spin");
        b.assemble().unwrap()
    };
    let obs = assert_equivalent(
        "timeout",
        program,
        MachineConfig::new(8), // Node0 policy: 7 nodes never work
        5_000,
        |_| {},
    );
    let err = obs.outcome.unwrap_err();
    assert!(err.contains("Timeout"), "expected timeout, got {err}");
    // All 8 nodes account every one of the 5000 cycles (spin or idle).
    assert_eq!(obs.stats.nodes.total_cycles(), 5_000 * 8);
}

/// Macro workload: the paper's radix sort, whole pipeline — setup writes
/// key strips into node memory, the run sorts, and both engines must agree
/// on every counter and the sorted output.
#[test]
fn macro_radix_is_engine_exact() {
    let cfg = jm_apps::radix::RadixConfig {
        keys: 128,
        seed: 11,
    };
    let expected = jm_apps::radix::reference(&cfg.generate());
    let program = || jm_apps::radix::program(&cfg, 8);
    let mut sorted_per_engine = Vec::new();
    for engine in ENGINES {
        let mut m = JMachine::new(
            program(),
            MachineConfig::new(8)
                .start(StartPolicy::AllNodes)
                .engine(engine),
        );
        jm_apps::radix::setup(&mut m, &cfg);
        let cycles = m.run_until_quiescent(50_000_000).unwrap();
        assert_eq!(jm_apps::radix::result(&m, &cfg), expected);
        sorted_per_engine.push((cycles, m.stats()));
    }
    for (engine, run) in ENGINES.iter().zip(&sorted_per_engine).skip(1) {
        assert_eq!(
            &sorted_per_engine[0], run,
            "radix: {engine:?} diverged from naive"
        );
    }
}

#[test]
fn ejection_backpressure_redelivery_is_engine_exact() {
    // Regression test for the queue-full → break → redeliver-next-cycle
    // pump path: a tiny P0 queue and a slow handler force the pump to
    // refuse deliveries, leaving words parked in the ejection FIFO until
    // the handler drains the queue. The event engine must keep the node in
    // the network's pending set across refusals (it may not "forget" the
    // parked words) and match the naive engine cycle for cycle.
    let program = || {
        let mut b = Builder::new();
        b.data("sum", Region::Imem, vec![Word::int(0)]);
        b.label("main");
        b.mov(R0, Special::Nid);
        b.bz(R0, "main_done");
        // Node 1 fires 6 five-word messages back to back at node 0.
        b.movi(R2, 6);
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
        b.assemble().unwrap()
    };
    // A 10-word P0 queue holds at most two 5-word messages.
    let mdp = MdpConfig {
        queue0_words: 10,
        ..MdpConfig::default()
    };
    let config = MachineConfig::new(2).start(StartPolicy::AllNodes).mdp(mdp);
    let naive = observe(program(), config.engine(Engine::Naive), 1_000_000, |_| {});
    for engine in &ENGINES[1..] {
        let other = observe(program(), config.engine(*engine), 1_000_000, |_| {});
        assert_eq!(naive, other, "backpressure workload diverged on {engine:?}");
    }
    // The workload really exercised backpressure: every message arrived
    // and summed correctly, and deliveries were refused along the way.
    assert!(naive.outcome.is_ok(), "{:?}", naive.outcome);
    assert_eq!(naive.memory[0][0].as_i32(), 6 + 5 + 4 + 3 + 2 + 1);
    assert_eq!(naive.stats.nodes.msgs_received, 6);
}

#[test]
fn queue_full_redelivers_next_cycle() {
    // Unit-level check of the same pump path, observed directly: with the
    // handler stalled, a refused word must stay in the ejection FIFO and
    // land in the queue on a later cycle once space opens.
    let program = || {
        let mut b = Builder::new();
        b.label("main");
        b.mov(R0, Special::Nid);
        b.bz(R0, "main_done");
        b.movi(R2, 4);
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
    let mdp = MdpConfig {
        queue0_words: 6, // two 3-word messages
        ..MdpConfig::default()
    };
    let mut m = JMachine::new(
        program(),
        MachineConfig::new(2).start(StartPolicy::AllNodes).mdp(mdp),
    );
    m.run_until_quiescent(100_000).unwrap();
    let node0 = m.node(NodeId(0));
    assert!(
        node0.queue_refusals(MsgPriority::P0) > 0,
        "queue never refused a delivery — workload did not backpressure"
    );
    assert_eq!(node0.queue_high_water(MsgPriority::P0), 6);
    // Despite the refusals, every message was eventually re-delivered.
    assert_eq!(m.stats().nodes.msgs_received, 4);
    assert_eq!(m.stats().net.delivered_words, 4 * 3);
}

/// [`assert_equivalent`] for a workload built to make the sharded engines'
/// nodes run on past their visits and be rewound; returns the event
/// engine's stretch counters, which say whether it did.
fn assert_stretch_exact(
    label: &str,
    program: impl Fn() -> Program,
    config: MachineConfig,
    max_cycles: u64,
) -> StretchStats {
    assert_equivalent(label, &program, config, max_cycles, |_| {});
    let event = config.engine(Engine::Event);
    observe_stretched(program(), event, max_cycles, |_| {}).1
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
/// stops the cycle after it, inside the other nodes' stretches, and each is
/// settled there. (The crew runs at quantum 1, where it too stops the
/// cycle after the error rather than at its next coordination point.)
#[test]
fn an_error_stop_settles_every_stretch() {
    let mut config = MachineConfig::new(64).start(StartPolicy::AllNodes);
    config.tuning.quantum = 1;
    let mut rewinds = 0;
    for fault_at in [1, 7, 50, 333, 400] {
        let label = format!("error at iteration {fault_at}");
        let program = || store_loop_program(fault_at);
        rewinds += assert_stretch_exact(&label, program, config, 100_000).rewinds;
        let obs = observe(program(), config, 100_000, |_| {});
        let err = obs.outcome.unwrap_err();
        assert!(err.contains("UnhandledFault"), "{label}: {err}");
    }
    assert!(rewinds > 0, "no error stop landed inside a stretch");
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
    let counts = assert_stretch_exact("poked loops", poked_loop_program, config, 1_000_000);
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
    let counts = assert_stretch_exact("P1 over P0", preempted_handler_program, config, 1_000_000);
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
    let counts = assert_stretch_exact("checksums", preempted_handler_program, config, 1_000_000);
    assert!(counts.rewinds > 0, "no word landed inside a stretch");
}

/// Each node pokes the next one — after a delay of its own, so pokes land
/// at every phase of the receiver's run — then writes six DRAM blocks a
/// page apart, each a fresh page, for as long as it has not been poked.
/// Page allocation is state: a stretch stops before the write that would
/// allocate, which a node ticked every cycle might never reach.
#[test]
fn stretches_stop_before_a_fresh_dram_page() {
    let program = || {
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
        b.assemble().unwrap()
    };
    let config = MachineConfig::new(64).start(StartPolicy::AllNodes);
    let counts = assert_stretch_exact("fresh pages", program, config, 1_000_000);
    assert!(counts.rewinds > 0, "no poke landed inside a stretch");
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
    let run = |engine| {
        let mut m = JMachine::new(preempted_handler_program(), config.engine(engine));
        m.record_replay(13);
        let outcome = m.run_until_quiescent(1_000_000).map_err(|e| e.to_string());
        let log = m.finish_replay().expect("capture was armed");
        let trace = m.take_trace().expect("tracing was on");
        let hash = jm_trace::hash(&trace);
        (outcome, m.stats(), log.records, hash, trace.samples)
    };
    let naive = run(Engine::Naive);
    assert!(naive.0.is_ok(), "{:?}", naive.0);
    for engine in &ENGINES[1..] {
        assert_eq!(naive, run(*engine), "{engine:?} diverged from naive");
    }
}

/// Node 0's background thread counts down and then reaches `MARK comm;
/// SUSPEND`, which no stretch runs: a stretch stops in front of the `MARK`.
/// Node 1 sends it a P0 `poke` after `delay` loop turns and `pad` `NOP`s,
/// so that across the sweep the poke lands at every cycle around that stop.
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
    let config = MachineConfig::new(2).start(StartPolicy::AllNodes);
    let run = |program: Program, engine| {
        let mut m = JMachine::new(program, config.engine(engine));
        m.run(stop + 1);
        let mut hashes = vec![m.state_hash()];
        while m.cycle() < stop + 70 {
            m.run(1);
            hashes.push(m.state_hash());
        }
        let outcome = m.run_until_quiescent(100_000).map_err(|e| e.to_string());
        (hashes, outcome, m.stats())
    };
    for pad in 0..3 {
        for delay in 8..26 {
            let naive = run(marked_stop_program(delay, pad), Engine::Naive);
            assert!(naive.1.is_ok(), "{:?}", naive.1);
            for engine in &ENGINES[1..] {
                let other = run(marked_stop_program(delay, pad), *engine);
                let case = format!("{engine:?}, poke after {delay} turns and {pad} NOPs");
                if let Some(k) = naive.0.iter().zip(&other.0).position(|(a, b)| a != b) {
                    panic!(
                        "{case}: state hash diverged at cycle {}",
                        stop + 1 + k as u64
                    );
                }
                assert_eq!((&naive.1, &naive.2), (&other.1, &other.2), "{case}");
            }
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
    let run = |engine, chunk: u64| {
        let mut m = JMachine::new(poked_loop_program(), config.engine(engine));
        while m.cycle() < TOTAL {
            m.run(chunk.min(TOTAL - m.cycle()));
        }
        (m.stats(), m.state_hash())
    };
    let whole = run(Engine::Naive, TOTAL);
    for engine in &ENGINES[1..] {
        assert_eq!(run(*engine, TOTAL), whole, "{engine:?} diverged from naive");
        for chunk in [1, 2, 3, 5, 7, 11, 100, 1001] {
            let chunked = run(*engine, chunk);
            assert_eq!(chunked, whole, "{engine:?} in {chunk}-cycle chunks");
        }
    }
}
