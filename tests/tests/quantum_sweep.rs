//! Crew differential tests: the parallel engine must stay **cycle-exact**
//! with the event engine although its crew decides only at the multiples of
//! the 64-cycle quantum (DESIGN.md §4.5). Every workload here runs under
//! two and four threads and every observable is compared against an
//! `Engine::Event` baseline: the `run_until_quiescent` outcome, the
//! aggregated statistics digest (per-class cycles, handler counters,
//! network delivery record), and the final contents of every declared data
//! block on every node.
//!
//! The workloads deliberately include the schedules most likely to break
//! boundary handling:
//!
//! * **Idle-skip across a quantum boundary** — a workload whose dispatch
//!   cost (100 cycles) exceeds the quantum, so every fast-forward skip
//!   crosses a decision point, and quiescence is found up to a quantum
//!   after the fact.
//! * **Resuming after an overrun** — a machine whose nodes are all still
//!   scheduled when it goes quiet, driven again from where it stopped.
//! * **A chaos fault plan** — flaky links, checksummed retries, and a
//!   link-down window, where any divergence in cycle numbering would
//!   reseed every downstream fault draw and cascade into the stats.

use jm_asm::{Builder, Program, Region};
use jm_bench::workloads::pingpong_program;
use jm_isa::instr::MsgPriority;
use jm_isa::node::{MeshDims, NodeId};
use jm_isa::operand::MemRef;
use jm_isa::reg::{AReg::A0, DReg::R0};
use jm_isa::word::Word;
use jm_machine::{
    Engine, FaultSpec, FaultWindow, JMachine, MachineConfig, MachineStats, StartPolicy,
};
use jm_mdp::{MdpConfig, TimingConfig};
use jm_runtime::reliable;
use jm_tests::{observe, Observation};

/// Crew sizes under test (`Parallel(1)` is the event engine itself).
const THREADS: [u32; 2] = [2, 4];

/// Runs the workload under `Engine::Event`, then under `Parallel(t)` for
/// every thread count, asserting bit-identical observables against the
/// event baseline. Returns the baseline.
fn assert_quantum_exact(
    label: &str,
    program: impl Fn() -> Program,
    config: MachineConfig,
    max_cycles: u64,
    setup: impl Fn(&mut JMachine),
) -> Observation {
    // Behind a flag: when JM_REPLAY_CAPTURE is set, every swept machine
    // records a replay event log (DESIGN.md §4.8), so a divergence here
    // leaves a bisectable reproducer behind.
    jm_machine::capture_replay_from_env();
    let event = observe(program(), config.engine(Engine::Event), max_cycles, &setup);
    for &t in &THREADS {
        let cfg = config.engine(Engine::Parallel(t));
        let other = observe(program(), cfg, max_cycles, &setup);
        assert_eq!(
            event.outcome, other.outcome,
            "{label}/parallel-{t}: run outcome diverged"
        );
        assert_eq!(
            event.stats, other.stats,
            "{label}/parallel-{t}: statistics digest diverged"
        );
        assert_eq!(
            event.memory, other.memory,
            "{label}/parallel-{t}: final memory diverged"
        );
    }
    event
}

/// Token-ring workload (16 nodes, id-ordered ring, 3 rounds): most nodes
/// idle most of the time, so quiescence detection and idle crediting run
/// constantly while the token hops across shard boundaries.
fn ring_program() -> Program {
    jm_bench::workloads::ring_program(3, false)
}

#[test]
fn ring_is_quantum_exact() {
    let obs = assert_quantum_exact(
        "ring",
        ring_program,
        MachineConfig::new(16).start(StartPolicy::AllNodes),
        1_000_000,
        |_| {},
    );
    assert!(obs.outcome.is_ok());
    // Every node's accumulator saw all 3 rounds.
    for words in &obs.memory {
        assert_eq!(words[0].as_i32(), 3);
    }
}

/// Ping-pong workload built to force **idle-skip fast-forward across
/// quantum boundaries**: the dispatch cost is cranked to 100 cycles, so
/// after each handler retires the whole machine goes net-idle with the next
/// wake-up 100 cycles out. Every skip target then lies past the next
/// multiple of the 64-cycle quantum, exercising the decide-path that jumps
/// `p/x` straight to the wake cycle (DESIGN.md §4.5).
#[test]
fn idle_skip_across_quantum_boundary_is_exact() {
    let mdp = MdpConfig {
        timing: TimingConfig {
            dispatch: 100,             // every wake-up lands ≥ 100 cycles out: each
            ..TimingConfig::default()  // skip crosses a decision point
        },
        ..MdpConfig::default()
    };
    let obs = assert_quantum_exact(
        "idle-skip",
        pingpong_program,
        MachineConfig::new(16).start(StartPolicy::AllNodes).mdp(mdp),
        1_000_000,
        |_| {},
    );
    assert!(obs.outcome.is_ok());
    // The rallies completed (8 volleys split across each pair), and the
    // run was long enough that skips of 100 cycles had to cross quantum
    // boundaries.
    let total_hits: i32 = obs.memory.iter().map(|w| w[0].as_i32()).sum();
    assert_eq!(total_hits, 8 * 8);
    assert!(
        obs.outcome.as_ref().unwrap() > &400,
        "workload too short to force boundary-crossing skips: {:?}",
        obs.outcome
    );
}

#[test]
fn chaos_fault_plan_is_quantum_exact() {
    // The fault-injection chaos matrix under the crew: flaky links
    // (10% per-flit stall probability), checksummed retries, and a hard
    // link-down window early in the run. Fault draws are keyed by cycle
    // and position (DESIGN.md §4.7), so any boundary-placement bug that
    // shifted a single flit by one cycle would change the draw sequence
    // and diverge loudly.
    let spec = || {
        FaultSpec::new(4242)
            .flaky(100_000)
            .checksums(true)
            .window(FaultWindow::link_down(0, 0, 100, 600))
    };
    let program = || reliable::demo_program(3, 7);
    let obs = assert_quantum_exact(
        "chaos",
        program,
        MachineConfig::new(8).fault(spec()),
        1_000_000,
        |_| {},
    );
    assert!(obs.outcome.is_ok(), "{:?}", obs.outcome);
}

#[test]
fn fixed_cycle_stop_is_quantum_exact() {
    // `run(n)` exercises the fixed-deadline mode, where the final quantum
    // is truncated (1_499 is not a multiple of 64): every crew must stop
    // at exactly the same cycle with the same statistics snapshot.
    let config = MachineConfig::new(16).start(StartPolicy::AllNodes);
    let mut baseline: Option<MachineStats> = None;
    let mut run_fixed = |cfg: MachineConfig, label: String| {
        let mut m = JMachine::new(ring_program(), cfg);
        m.run(1_499);
        assert_eq!(m.cycle(), 1_499, "{label}: wrong stop cycle");
        let stats = m.stats();
        match &baseline {
            None => baseline = Some(stats),
            Some(base) => assert_eq!(base, &stats, "fixed run: {label} diverged"),
        }
    };
    run_fixed(config.engine(Engine::Event), "event".into());
    for &t in &THREADS {
        run_fixed(config.engine(Engine::Parallel(t)), format!("parallel-{t}"));
    }
}

#[test]
fn resuming_a_quiesced_machine_is_quantum_exact() {
    // Every instruction costs 7 cycles, so when the last handler's SUSPEND
    // issues the machine is quiet — no work, no flit — one cycle later,
    // while every node is still scheduled for the cycle the SUSPEND
    // retires. The sequential engines stop there and leave the nodes
    // scheduled; a crew finds out up to a quantum late, and an overrun past
    // six cycles reaches those wake-ups: the nodes are parked. The next
    // round's host delivery then lands *before* their `busy_until`, and
    // everything a host can see must still agree, round after round.
    let program = || {
        let mut b = Builder::new();
        b.data("hits", Region::Imem, vec![Word::int(0)]);
        b.label("hit");
        b.load_seg(A0, "hits");
        b.mov(R0, MemRef::disp(A0, 0));
        b.addi(R0, R0, 1);
        b.mov(MemRef::disp(A0, 0), R0);
        b.suspend();
        b.assemble().unwrap()
    };
    let mdp = MdpConfig {
        timing: TimingConfig {
            base: 7,
            ..TimingConfig::default()
        },
        ..MdpConfig::default()
    };
    let config = MachineConfig::with_dims(MeshDims::new(2, 2, 4))
        .start(StartPolicy::None)
        .mdp(mdp);
    let rounds = |cfg: MachineConfig| {
        let mut m = JMachine::new(program(), cfg);
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
    };
    let naive = rounds(config.engine(Engine::Naive));
    // The premise: the machine stops one cycle into the SUSPEND, with every
    // node's counters already six cycles past the clock.
    let (_, stop, stats, _) = &naive[0];
    assert_eq!(stats.nodes.total_cycles(), 16 * (stop + 6));
    assert_eq!(rounds(config.engine(Engine::Event)), naive, "event");
    for &t in &THREADS {
        assert_eq!(
            rounds(config.engine(Engine::Parallel(t))),
            naive,
            "parallel-{t}"
        );
    }
}
