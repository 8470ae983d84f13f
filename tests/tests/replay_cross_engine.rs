//! Cross-engine replay tests: a run recorded under one engine must
//! **verify clean** — every checkpoint hash matched — when re-executed
//! under any other engine or thread count, because the replay hash covers
//! exactly the architectural state (registers, queues, memory, router
//! occupancy) and none of the engines' bookkeeping (DESIGN.md §4.8). The
//! suite records under `Engine::Event` and replays under every column of
//! `jm_tests::columns` (Naive, Event, and each distinct crew of
//! `Parallel(t)` for t ∈ {2, 4}), across the schedules most likely to
//! break checkpoint placement:
//!
//! * a mostly-idle token ring (idle crediting between checkpoints);
//! * an idle-skip ping-pong checkpointed every 3 cycles, so that the
//!   fast-forward skip over every 4-cycle dispatch crosses a checkpoint
//!   boundary;
//! * a chaos fault plan (flaky links, checksummed retries, link-down
//!   window) where a one-cycle divergence would reseed every later
//!   fault draw.
//!
//! Each runs on a 2×2×4 mesh, which both parallel engines cut into the
//! same two slabs with two workers: one crew.
//!
//! It also proves the localization claim end-to-end: an injected
//! single-cycle divergence in a 64-node chaos run is bisected to exactly
//! its cycle and component.

use jm_asm::Program;
use jm_bench::workloads::pingpong_program;
use jm_isa::node::{MeshDims, NodeId};
use jm_isa::word::Word;
use jm_machine::{
    Corruption, Divergence, Engine, FaultSpec, FaultWindow, JMachine, MachineConfig,
    MachineFactory, StartPolicy,
};
use jm_replay::ReplayLog;
use jm_runtime::reliable;
use jm_tests::columns;

/// Token-ring workload (the one `engine_equivalence` runs): one
/// token circulates an id-ordered ring for `rounds` laps.
fn ring_program(rounds: i32) -> Program {
    jm_bench::workloads::ring_program(rounds, false)
}

/// Records a fixed-length run of `program` under `config` and returns the
/// log (and the machine, for segment lookups).
fn record_fixed(program: Program, config: MachineConfig, interval: u64, cycles: u64) -> ReplayLog {
    let mut m = JMachine::new(program, config);
    m.record_replay(interval);
    m.run(cycles);
    m.finish_replay().expect("recording was armed")
}

/// Records a run-to-quiescence of `program` under `config`.
fn record_quiescent(program: Program, config: MachineConfig, interval: u64, max: u64) -> ReplayLog {
    let mut m = JMachine::new(program, config);
    m.record_replay(interval);
    m.run_until_quiescent(max).expect("workload quiesces");
    m.finish_replay().expect("recording was armed")
}

/// Verifies `log` clean under every engine of the differential matrix.
fn assert_clean_across_engines(label: &str, log: &ReplayLog) {
    assert!(
        log.checkpoints() >= 2,
        "{label}: too few checkpoints ({}) to be a meaningful replay",
        log.checkpoints()
    );
    let build = |engine| MachineFactory::recorded().engine(engine).build(log);
    for engine in columns(label, build).iter().map(|m| m.config().engine) {
        let report = jm_machine::verify(log, &MachineFactory::recorded().engine(engine)).unwrap();
        assert!(
            report.clean(),
            "{label}: replay under {engine:?} diverged: {report}"
        );
        assert_eq!(
            report.checked,
            log.checkpoints() as u64,
            "{label}: {engine:?} checked the wrong number of checkpoints"
        );
    }
}

#[test]
fn ring_replay_is_clean_across_engines() {
    let log = record_fixed(
        ring_program(50),
        MachineConfig::new(16)
            .start(StartPolicy::AllNodes)
            .engine(Engine::Event),
        256,
        3_000,
    );
    assert_eq!(log.end_cycle(), 3_000);
    assert_clean_across_engines("ring", &log);
}

#[test]
fn idle_skip_replay_is_clean_across_engines() {
    // A checkpoint every 3 cycles, under the 4-cycle dispatch: every
    // dispatch's idle skip crosses a checkpoint boundary, on every rally.
    // Recorded via run-to-quiescence, exercising the chunked quiescent
    // recording path.
    const INTERVAL: u64 = 3;
    let log = record_quiescent(
        pingpong_program(),
        MachineConfig::new(16)
            .start(StartPolicy::AllNodes)
            .engine(Engine::Event),
        INTERVAL,
        1_000_000,
    );
    // Every boundary the run passed holds a checkpoint, the ones inside a
    // skip included.
    assert!(
        log.checkpoints() as u64 > log.end_cycle() / INTERVAL,
        "{} checkpoints in {} cycles",
        log.checkpoints(),
        log.end_cycle()
    );
    assert_clean_across_engines("idle-skip", &log);
}

#[test]
fn chaos_fault_plan_replay_is_clean_across_engines() {
    // Fault draws are keyed by cycle and position (DESIGN.md §4.7), so a
    // single-cycle replay divergence would reseed every downstream draw
    // and fail loudly at the next checkpoint.
    let spec = FaultSpec::new(4242)
        .flaky(100_000)
        .checksums(true)
        .window(FaultWindow::link_down(0, 0, 100, 600));
    let log = record_quiescent(
        reliable::demo_program(3, 15),
        MachineConfig::with_dims(MeshDims::new(2, 2, 4))
            .engine(Engine::Event)
            .fault(spec),
        128,
        1_000_000,
    );
    assert_clean_across_engines("chaos", &log);
}

#[test]
fn injected_divergence_in_64_node_chaos_run_is_bisected_to_cycle_and_component() {
    // The acceptance fixture: a 64-node run under a delay-fault chaos
    // plan, with a single unrecorded memory write injected at one cycle
    // of the *replayed* execution. The bisector must localize the
    // divergence to exactly that cycle and name that node's memory word,
    // with both values, as the first field that differs.
    let spec = FaultSpec::new(9)
        .flaky(50_000)
        .window(FaultWindow::link_down(0, 0, 500, 1_500))
        .window(FaultWindow::router_stall(3, 800, 1_200));
    let program = ring_program(200);
    let acc = program.segment("acc").base;
    let log = record_fixed(
        program,
        MachineConfig::new(64)
            .start(StartPolicy::AllNodes)
            .engine(Engine::Event)
            .fault(spec),
        512,
        4_000,
    );
    let corruption = Corruption {
        cycle: 1_234,
        node: NodeId(9),
        addr: acc,
        word: Word::int(999_999),
    };
    let target = MachineFactory::recorded()
        .engine(Engine::Parallel(4))
        .corrupt(corruption);
    let report = jm_machine::bisect(&log, &MachineFactory::recorded(), &target).unwrap();
    match report.divergence {
        Divergence::Diverged {
            cycle,
            interval,
            ref diff,
        } => {
            assert_eq!(cycle, 1_234, "bisection missed the injected cycle");
            assert!(
                interval.0 < 1_234 && 1_234 <= interval.1,
                "bisected interval {interval:?} does not bracket the injection"
            );
            let word = format!("node 9 mem[{acc:#06x}]: ");
            assert!(
                diff.starts_with(&word) && diff.ends_with(" vs 999999:int"),
                "wrong diverging word: {diff}"
            );
        }
        other => panic!("expected a genuine divergence, got {other:?}"),
    }
    assert!(report.probes > 0, "a 512-cycle interval needs halving");
}
