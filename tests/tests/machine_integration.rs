//! Cross-crate integration: assembler → runtime → machine → network, on
//! machines of several shapes.

use jm_asm::{hdr, Builder, Region};
use jm_isa::consts::EMEM_BASE;
use jm_isa::instr::{AluOp, MsgPriority, StatClass};
use jm_isa::node::{MeshDims, NodeId};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_machine::{Engine, JMachine, MachineConfig, StartPolicy};
use jm_mdp::{MemoryStats, DRAM_PAGE_WORDS, SRAM_PAGE_WORDS};
use jm_runtime::nnr;
use std::collections::BTreeSet;

/// Every node sends `ROUNDS` counters around a ring; the values must
/// arrive in order and message accounting must balance exactly.
#[test]
fn ring_circulation_conserves_messages() {
    const ROUNDS: i32 = 5;
    for dims in [
        MeshDims::new(4, 1, 1),
        MeshDims::new(2, 2, 2),
        MeshDims::new(4, 4, 1),
    ] {
        let mut b = Builder::new();
        b.reserve("acc", Region::Imem, 1);
        b.reserve("next_route", Region::Imem, 1);

        b.label("main");
        // Precompute successor route.
        b.mov(R0, Special::Nid);
        b.addi(R0, R0, 1);
        b.alu(AluOp::Rem, R0, R0, Special::NNodes);
        b.call(nnr::NID_TO_ROUTE);
        b.mark(StatClass::Compute);
        b.load_seg(A0, "next_route");
        b.mov(MemRef::disp(A0, 0), R0);
        b.load_seg(A0, "acc");
        b.mov(MemRef::disp(A0, 0), 0);
        // Node 0 launches the token with ROUNDS*N hops remaining.
        b.mov(R0, Special::Nid);
        b.bnz(R0, "main_done");
        b.mov(R1, Special::NNodes);
        b.alu(AluOp::Mul, R1, R1, ROUNDS);
        b.load_seg(A1, "next_route");
        b.send(MsgPriority::P0, MemRef::disp(A1, 0));
        b.send2e(MsgPriority::P0, hdr("token", 2), R1);
        b.label("main_done");
        b.suspend();

        b.label("token");
        b.mov(R1, MemRef::disp(A3, 1)); // hops remaining
        b.load_seg(A0, "acc");
        b.mov(R2, MemRef::disp(A0, 0));
        b.addi(R2, R2, 1);
        b.mov(MemRef::disp(A0, 0), R2);
        b.subi(R1, R1, 1);
        b.bz(R1, "token_done");
        b.load_seg(A1, "next_route");
        b.send(MsgPriority::P0, MemRef::disp(A1, 0));
        b.send2e(MsgPriority::P0, hdr("token", 2), R1);
        b.label("token_done");
        b.suspend();

        b.entry("main");
        nnr::install(&mut b);
        let p = b.assemble().unwrap();
        let acc = p.segment("acc");

        let mut m = JMachine::new(
            p,
            MachineConfig::with_dims(dims).start(StartPolicy::AllNodes),
        );
        m.run_until_quiescent(10_000_000)
            .unwrap_or_else(|e| panic!("{dims}: {e}"));

        let nodes = dims.nodes();
        // The token visited every node exactly ROUNDS times (node 0 gets
        // its last visit on the final hop).
        for id in 0..nodes {
            let visits = m.read_word(NodeId(id), acc.base).as_i32();
            assert_eq!(visits, ROUNDS, "node {id} of {dims}");
        }
        let stats = m.stats();
        assert_eq!(stats.nodes.msgs_sent, u64::from(nodes) * ROUNDS as u64);
        assert_eq!(stats.nodes.msgs_sent, stats.net.delivered_msgs);
        assert_eq!(stats.nodes.msgs_sent, stats.nodes.msgs_received);
    }
}

/// Hot-spot traffic: every node bombards node 0; backpressure must produce
/// send faults (the paper's §4.3.2 observation) yet everything delivers.
#[test]
fn hotspot_backpressure_recovers() {
    const PER_NODE: i32 = 40;
    let mut b = Builder::new();
    b.data("hits", Region::Imem, vec![jm_isa::Word::int(0)]);
    b.label("main");
    b.movi(R2, PER_NODE);
    b.label("loop");
    b.send(
        MsgPriority::P0,
        jm_isa::RouteWord::new(jm_isa::Coord::new(0, 0, 0)).to_word(),
    );
    b.send2(MsgPriority::P0, hdr("hit", 3), R2);
    b.sende(MsgPriority::P0, Special::Nid);
    b.subi(R2, R2, 1);
    b.bnz(R2, "loop");
    b.suspend();
    b.label("hit");
    b.load_seg(A0, "hits");
    b.mov(R0, MemRef::disp(A0, 0));
    b.addi(R0, R0, 1);
    b.mov(MemRef::disp(A0, 0), R0);
    b.suspend();
    b.entry("main");
    let p = b.assemble().unwrap();
    let hits = p.segment("hits");

    let nodes = 27;
    let mut m = JMachine::new(
        p,
        MachineConfig::with_dims(MeshDims::new(3, 3, 3)).start(StartPolicy::AllNodes),
    );
    m.run_until_quiescent(50_000_000).unwrap();
    assert_eq!(m.read_word(NodeId(0), hits.base).as_i32(), nodes * PER_NODE);
    let stats = m.stats();
    assert!(
        stats.nodes.send_faults > 0,
        "hotspot must cause send faults"
    );
    assert!(m.node(NodeId(0)).queue_high_water(MsgPriority::P0) > 16);
}

/// Priority-1 messages overtake a P0 flood end to end.
#[test]
fn priority_one_overtakes_under_load() {
    let mut b = Builder::new();
    b.data("order", Region::Imem, vec![jm_isa::Word::int(0); 2]);
    b.label("main");
    // Node 1 floods node 0 with P0 messages, then sends one P1 message.
    b.mov(R0, Special::Nid);
    b.bz(R0, "main_done");
    b.movi(R2, 30);
    b.label("flood");
    b.send(
        MsgPriority::P0,
        jm_isa::RouteWord::new(jm_isa::Coord::new(0, 0, 0)).to_word(),
    );
    b.sende(MsgPriority::P0, hdr("p0_msg", 1));
    b.subi(R2, R2, 1);
    b.bnz(R2, "flood");
    b.send(
        MsgPriority::P1,
        jm_isa::RouteWord::new(jm_isa::Coord::new(0, 0, 0)).to_word(),
    );
    b.sende(MsgPriority::P1, hdr("p1_msg", 1));
    b.label("main_done");
    b.suspend();

    // Handlers record arrival order: the counter increments on each P0;
    // the P1 handler records the counter value at its dispatch.
    b.label("p0_msg");
    b.load_seg(A0, "order");
    b.mov(R0, MemRef::disp(A0, 0));
    b.addi(R0, R0, 1);
    b.mov(MemRef::disp(A0, 0), R0);
    // Burn some cycles so the P0 queue stays busy.
    b.movi(R1, 30);
    b.label("burn");
    b.subi(R1, R1, 1);
    b.bnz(R1, "burn");
    b.suspend();
    b.label("p1_msg");
    b.load_seg(A0, "order");
    b.mov(R0, MemRef::disp(A0, 0));
    b.mov(MemRef::disp(A0, 1), R0);
    b.suspend();
    b.entry("main");
    let p = b.assemble().unwrap();
    let order = p.segment("order");
    let mut m = JMachine::new(
        p,
        MachineConfig::with_dims(MeshDims::new(2, 1, 1)).start(StartPolicy::AllNodes),
    );
    m.run_until_quiescent(1_000_000).unwrap();
    let p0_done = m.read_word(NodeId(0), order.base).as_i32();
    let p1_at = m.read_word(NodeId(0), order.base + 1).as_i32();
    assert_eq!(p0_done, 30);
    assert!(
        p1_at < 30,
        "P1 message should preempt the P0 backlog (dispatched after {p1_at} of 30)"
    );
}

/// The statistics pipeline agrees across layers: node-level sends equal
/// network-level message counts for a busy all-to-all pattern.
#[test]
fn stats_are_consistent_across_layers() {
    let mut b = Builder::new();
    b.data("ctr", Region::Imem, vec![jm_isa::Word::int(0)]);
    b.label("main");
    b.load_seg(A2, "ctr");
    b.label("loop");
    b.mov(R0, MemRef::disp(A2, 0));
    b.call(nnr::NID_TO_ROUTE); // clobbers R0-R2, A1
    b.mark(StatClass::Comm);
    b.send(MsgPriority::P0, R0);
    b.send2e(MsgPriority::P0, hdr("sink", 2), Special::Nid);
    b.mov(R2, MemRef::disp(A2, 0));
    b.addi(R2, R2, 1);
    b.mov(MemRef::disp(A2, 0), R2);
    b.alu(AluOp::Lt, R1, R2, Special::NNodes);
    b.bt(R1, "loop");
    b.suspend();
    b.label("sink");
    b.suspend();
    b.entry("main");
    nnr::install(&mut b);
    let p = b.assemble().unwrap();
    let mut m = JMachine::new(p, MachineConfig::new(16).start(StartPolicy::AllNodes));
    m.run_until_quiescent(5_000_000).unwrap();
    let stats = m.stats();
    assert_eq!(stats.nodes.msgs_sent, 16 * 16);
    assert_eq!(stats.net.delivered_msgs, 16 * 16);
    assert_eq!(stats.nodes.msgs_received, 16 * 16);
    assert_eq!(stats.net.injected_msgs, 16 * 16);
    // Every class total is accounted once per node-cycle.
    assert!(stats.nodes.total_cycles() <= stats.cycles * 16);
}

/// A corrupted queue (head word is not a message header) must surface as a
/// `QueueDesync` node error through `run_until_quiescent`, not a panic —
/// and the fault must be counted in the machine statistics.
#[test]
fn queue_desync_is_a_counted_node_error() {
    use jm_isa::consts::FaultKind;
    use jm_isa::word::Word;
    use jm_mdp::NodeError;

    let mut b = Builder::new();
    b.label("main");
    b.suspend();
    b.label("noop");
    b.suspend();
    b.entry("main");
    let p = b.assemble().unwrap();

    let mut m = JMachine::new(p, MachineConfig::new(8).start(StartPolicy::None));
    // Bypass the host's header-framing helper and push a bare integer at
    // the queue head — the hardware-level corruption the dispatcher guards.
    let bare = Word::int(42);
    assert!(m
        .node_mut(NodeId(3))
        .deliver_traced(MsgPriority::P0, bare, jm_isa::TraceId::NONE, 0));
    // A well-formed delivery behind it wakes the node; dispatch must trip
    // over the corrupted head word before ever reaching this message.
    m.deliver_message(NodeId(3), MsgPriority::P0, "noop", &[]);

    let err = m.run_until_quiescent(10_000).unwrap_err();
    match err {
        jm_machine::MachineError::NodeErrors(errors) => {
            assert_eq!(errors.len(), 1);
            assert_eq!(errors[0].0, NodeId(3));
            assert!(
                matches!(errors[0].1, NodeError::QueueDesync(w) if w == Word::int(42)),
                "wrong error: {:?}",
                errors[0].1
            );
        }
        other => panic!("expected NodeErrors, got {other:?}"),
    }
    assert_eq!(m.stats().nodes.fault_count(FaultKind::QueueDesync), 1);
}

/// A `SEND2E` that stalls on its second operand — a word of its own
/// message still in flight — retries without appending its first operand
/// again. Node 5 relays the last word of an eight-word message from node 0
/// to node 2 as soon as the message dispatches, long before that word
/// arrives: the retried launch must carry one header, not one per stalled
/// cycle. On 1×2×4 both messages cross the cut between the crew's slabs.
#[test]
fn send2_stalled_on_its_second_operand_appends_its_first_once() {
    use jm_isa::word::Word;
    use jm_isa::RouteWord;
    use jm_tests::{agree, observe};

    let dims = MeshDims::new(1, 2, 4);
    let route = |id| RouteWord::new(dims.coord(NodeId(id))).to_word();
    let mut b = Builder::new();
    b.reserve("got", Region::Imem, 1);
    b.label("main");
    b.mov(R0, Special::Nid);
    b.bnz(R0, "main_done");
    b.send(MsgPriority::P0, route(5));
    b.send2(MsgPriority::P0, hdr("relay", 8), route(2));
    b.send2(MsgPriority::P0, 1, 2);
    b.send2(MsgPriority::P0, 3, 4);
    b.send2e(MsgPriority::P0, 5, 77);
    b.label("main_done");
    b.suspend();
    b.label("relay");
    b.send(MsgPriority::P0, MemRef::disp(A3, 1));
    b.send2e(MsgPriority::P0, hdr("sink", 2), MemRef::disp(A3, 7));
    b.suspend();
    b.label("sink");
    b.mov(R0, MemRef::disp(A3, 1));
    b.load_seg(A0, "got");
    b.mov(MemRef::disp(A0, 0), R0);
    b.suspend();
    b.entry("main");
    let program = b.assemble().unwrap();
    let config = MachineConfig::with_dims(dims);
    let (naive, _) = agree("send2", &program, config, |m| observe(m, 10_000));
    assert!(naive.outcome.is_ok(), "{:?}", naive.outcome);
    assert_eq!(naive.memory[2][0], Word::int(77));
    // Eight words to node 5, two to node 2.
    assert_eq!(naive.stats.net.delivered_words, 10);
    assert!(
        naive.stats.nodes.arrival_stalls > 0,
        "the relay never stalled: the test is vacuous"
    );
}

/// A node holds only what its program has written. The exchange loop
/// installs no vector and initialises one data block, `f3_r` (four words
/// after the code; `f3_flag` is reserved, not written), and nothing in
/// DRAM, so a freshly built 16×16×16 exchange machine holds the SRAM pages
/// `f3_r` spans on each node, no DRAM page, no queue word and no injection
/// FIFO.
#[test]
fn a_fresh_machine_holds_only_what_its_program_wrote() {
    let program = jm_bench::workloads::exchange_program();
    let written: BTreeSet<u32> = program
        .data
        .iter()
        .filter(|block| !block.init.is_empty())
        .flat_map(|block| block.base..block.base + block.len)
        .inspect(|&addr| assert!(addr < EMEM_BASE, "initialised DRAM at {addr}"))
        .map(|addr| addr / SRAM_PAGE_WORDS)
        .collect();
    assert!(!written.is_empty());
    let config = MachineConfig::new(4096).start(StartPolicy::AllNodes);
    let fresh = JMachine::new(program, config.engine(Engine::Event));
    let expect = MemoryStats {
        sram_pages: 4096 * written.len() as u64,
        dram_pages: 0,
        queue_words: 0,
    };
    assert_eq!(fresh.memory_stats(), expect);
    assert_eq!(fresh.network().inject_fifos(), 0);
}

/// DRAM pages follow the program's writes. Radix sort's setup writes each
/// node's strip of keys into `rs_arr0`, and its passes write them back and
/// forth between `rs_arr0` and `rs_arr1`; with 260 keys a node the two
/// arrays span two DRAM pages, the second first written by the sort
/// itself. Setup allocates one page a node, and at the end every engine's
/// nodes hold exactly the pages the arrays span. Stopped every 97 cycles,
/// every engine's state hash is naive's. The final hash is pinned: it
/// folds every word of this DRAM-writing run, so a change to the fold's
/// bytes — or to anything radix simulates — moves it, and with it every
/// replay log's checkpoints.
#[test]
fn dram_pages_follow_the_program_s_writes_under_every_engine() {
    const NODES: u32 = 16;
    let cfg = jm_apps::radix::RadixConfig {
        keys: 260 * NODES,
        seed: 5,
    };
    let program = jm_apps::radix::program(&cfg, NODES);
    let pages: BTreeSet<u32> = ["rs_arr0", "rs_arr1"]
        .into_iter()
        .flat_map(|name| {
            let seg = program.segment(name);
            seg.base..seg.base + seg.len
        })
        .map(|addr| (addr - EMEM_BASE) / DRAM_PAGE_WORDS)
        .collect();
    assert_eq!(pages.len(), 2, "the arrays span one DRAM page: vacuous");
    let config = MachineConfig::new(NODES).start(StartPolicy::AllNodes);
    let (hashes, machines) = jm_tests::agree("radix DRAM pages", &program, config, |m| {
        jm_apps::radix::setup(m, &cfg);
        assert_eq!(m.memory_stats().dram_pages, u64::from(NODES));
        let mut hashes = vec![m.state_hash()];
        while !m.is_quiescent() {
            assert!(m.cycle() < 50_000_000, "radix did not quiesce");
            m.run(97);
            hashes.push(m.state_hash());
        }
        hashes
    });
    for m in &machines {
        let held = m.memory_stats().dram_pages;
        assert_eq!(
            held,
            u64::from(NODES) * pages.len() as u64,
            "{:?}",
            m.config().engine
        );
    }
    let hash = *hashes.last().expect("a run");
    assert_eq!(hash, 0x7ed9_084d_98c7_c784, "radix's state hash moved");
}

/// The router half of the state hash, pinned mid-flight: uniform traffic
/// past the saturation knee on 4×4×4, stopped with about 1 700 flits in
/// flight — in rings, owned wormholes and injection FIFOs — and, under the
/// engines that run the bulk law, one message on it, which the hash
/// materializes first. Radix's pin above is taken at quiescence, where
/// every ring is empty.
#[test]
fn a_mid_flight_uniform_run_s_state_hash_is_pinned() {
    const CYCLES: u64 = 1_209;
    let program = jm_bench::workloads::sink_program();
    let traffic = jm_machine::TrafficSpec::new(7)
        .pattern(jm_machine::TrafficPattern::UniformRandom)
        .load(450_000)
        .msg_words(4)
        .handler(program.handler("sink"));
    let config = MachineConfig::new(64)
        .start(StartPolicy::None)
        .traffic(traffic);
    let mut live = Vec::new();
    let (hash, machines) = jm_tests::agree("uniform mid-flight", &program, config, |m| {
        m.run(CYCLES);
        assert!(m.network().in_flight() > 0, "the network drained");
        let before = m.bulk_stats().materialized;
        let hash = m.state_hash();
        live.push(m.bulk_stats().materialized - before);
        hash
    });
    assert!(machines.len() > 2, "no crew ran");
    assert!(
        machines.iter().any(|m| m.bulk_stats().engaged > 0),
        "the law never engaged"
    );
    assert!(live.iter().any(|&n| n > 0), "nothing on the law: {live:?}");
    assert_eq!(
        hash, 0x6865_5e8e_0a34_f0d1,
        "the uniform run's state hash moved"
    );
}

/// A page is host storage, not state: a host write of NIL to a DRAM word
/// nothing has written allocates the word's page — the node's first, then
/// one more in a table that exists — and leaves the state hash as it was.
#[test]
fn a_host_write_of_nil_to_fresh_dram_leaves_the_state_hash() {
    let program = jm_bench::workloads::exchange_program();
    let config = MachineConfig::new(8).start(StartPolicy::AllNodes);
    let mut m = JMachine::new(program, config);
    m.run(50);
    let hash = m.state_hash();
    for (page, held) in [(5, 1), (9, 2)] {
        let addr = EMEM_BASE + page * DRAM_PAGE_WORDS + 1;
        m.write_word(NodeId(3), addr, jm_isa::word::Word::NIL);
        assert_eq!(m.memory_stats().dram_pages, held, "the write allocates");
        assert_eq!(
            m.state_hash(),
            hash,
            "a NIL write to page {page} moved the hash"
        );
    }
}
