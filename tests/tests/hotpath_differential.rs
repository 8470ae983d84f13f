//! Differential tests for the network's wormhole bulk-advance fast path:
//! it is a pure performance mechanism, so every observable — quiescence
//! cycle, full machine statistics (including fault counters), final memory,
//! and the lifecycle trace hash — must be bit-identical whether or not the
//! bulk path is eligible.
//!
//! Three workload shapes bracket the mechanism:
//!
//! * a single token circulating a ring (idle-dominated) — the network is
//!   empty at every send, so the bulk path engages on every hop;
//! * every node launching a token at once (load-dominated) — later sends
//!   arrive while a bulk message is still streaming, forcing the
//!   materialize-on-interference path that reconstructs buffered flits;
//! * the same storm under a seeded fault plan with a mid-run router-stall
//!   window — the bulk path must decline entirely (its closed-form timing
//!   law does not model blocked moves) and fall back to flit-by-flit
//!   advancement without double-counting any `FaultStats`.

use jm_asm::Program;
use jm_bench::workloads::ring_program;
use jm_machine::{Engine, FaultSpec, FaultWindow, JMachine, MachineConfig, StartPolicy};
use jm_tests::Observation;

/// Runs `program` under `config` and records every observable.
fn observe(program: Program, config: MachineConfig, max_cycles: u64) -> Observation {
    jm_tests::observe(program, config, max_cycles, |_| {})
}

fn base_config(nodes: u32) -> MachineConfig {
    MachineConfig::new(nodes).start(StartPolicy::AllNodes)
}

/// One token, empty network at every send: the bulk fast path engages on
/// every hop. Disabling it must change nothing observable.
#[test]
fn bulk_advance_bit_identical_when_engaged() {
    let nodes = 16;
    let max = 1_000_000;
    for engine in [Engine::Naive, Engine::Event] {
        let mut off = base_config(nodes).engine(engine);
        off.tuning.bulk = false;
        let with_bulk = observe(
            ring_program(3, false),
            base_config(nodes).engine(engine),
            max,
        );
        let without = observe(ring_program(3, false), off, max);
        assert_eq!(with_bulk, without, "{engine:?}: bulk on/off diverged");
    }
}

/// All nodes inject at once: a committed bulk message is still streaming
/// when the next send arrives, so the shard must materialize the in-flight
/// flits back into the channel arena at their law-given positions before
/// the new traffic contends with them.
#[test]
fn bulk_interference_materializes_exactly() {
    let nodes = 16;
    let max = 1_000_000;
    for engine in [Engine::Naive, Engine::Event] {
        let mut off = base_config(nodes).engine(engine);
        off.tuning.bulk = false;
        let with_bulk = observe(
            ring_program(3, true),
            base_config(nodes).engine(engine),
            max,
        );
        let without = observe(ring_program(3, true), off, max);
        assert_eq!(with_bulk, without, "{engine:?}: interference run diverged");
    }
    // And the storm itself must match the naive reference on every engine
    // (the parallel engine shards the mesh, so it never takes the bulk
    // path — agreement proves the closed-form timing law exact).
    let baseline = observe(ring_program(3, true), base_config(nodes), max);
    for engine in [Engine::Event, Engine::Parallel(2), Engine::Parallel(4)] {
        let got = observe(
            ring_program(3, true),
            base_config(nodes).engine(engine),
            max,
        );
        assert_eq!(baseline, got, "{engine:?} diverged from naive");
    }
}

/// A mid-run router stall plus flaky links: the bulk path's preconditions
/// fail (a fault plan is armed), so every flit moves the slow way. Bulk
/// on/off must agree on everything — including `FaultStats`, proving no
/// blocked move or inject stall is counted twice — and the plan must have
/// actually fired, or the test is vacuous.
#[test]
fn bulk_declines_under_fault_windows() {
    let nodes = 16;
    let max = 1_000_000;
    let spec = FaultSpec::new(11)
        .flaky(5_000)
        .window(FaultWindow::router_stall(5, 40, 400));
    for engine in [Engine::Naive, Engine::Event] {
        let mut off = base_config(nodes).engine(engine).fault(spec);
        off.tuning.bulk = false;
        let with_bulk = observe(
            ring_program(3, true),
            base_config(nodes).engine(engine).fault(spec),
            max,
        );
        let without = observe(ring_program(3, true), off, max);
        assert_eq!(with_bulk, without, "{engine:?}: faulted run diverged");
        assert!(
            with_bulk.stats.net.faults.blocked_moves > 0,
            "{engine:?}: fault plan never fired — the differential is vacuous"
        );
    }
}

/// Lifecycle tracing observes individual flit hops and deliveries; the bulk
/// path synthesizes those events per cycle from its timing law instead of
/// from buffer moves, and the two streams must hash identically.
#[test]
fn bulk_trace_hash_identical() {
    let nodes = 16;
    let max = 1_000_000;
    let run = |bulk: bool| {
        let mut config = base_config(nodes).engine(Engine::Event).traced();
        config.tuning.bulk = bulk;
        let mut m = JMachine::new(ring_program(3, false), config);
        let cycles = m.run_until_quiescent(max).expect("ring quiesces");
        let trace = m.take_trace().expect("tracing was enabled");
        (cycles, m.stats(), jm_trace::hash(&trace))
    };
    let (cycles_on, stats_on, hash_on) = run(true);
    let (cycles_off, stats_off, hash_off) = run(false);
    assert_eq!(cycles_on, cycles_off, "quiescence cycle diverged");
    assert_eq!(stats_on, stats_off, "statistics diverged");
    assert_eq!(hash_on, hash_off, "trace hash diverged");
}
