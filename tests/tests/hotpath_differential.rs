//! Differential tests for the network's wormhole bulk-advance law: it is a
//! pure performance mechanism, so every observable — quiescence cycle, full
//! machine statistics (fault counters included), final memory, state hash
//! and the lifecycle trace hash — must be bit-identical under every engine.
//!
//! The law engages only while one shard covers the whole mesh. On the
//! 2×2×4 mesh used here `Naive` and `Event` run one shard and the
//! `Parallel` columns two, so the sharded engines are the bulk-free
//! control every run is held to, and the host counters
//! ([`jm_net::BulkStats`]) show which columns the law actually ran in.
//!
//! Four workload shapes bracket the mechanism:
//!
//! * a single token circulating a ring (idle-dominated) — the network is
//!   empty at every send, so the law engages once per message;
//! * every node launching a token at once (load-dominated) — later sends
//!   arrive while a bulk message is still streaming, forcing the
//!   materialize-on-interference path that reconstructs buffered flits;
//! * the same storm under a seeded fault plan with a mid-run router-stall
//!   window — the law must decline entirely (it does not model blocked
//!   moves), without double-counting any `FaultStats`;
//! * the single token traced — the law synthesizes hop and delivery events
//!   from its timing, and they must hash like the buffered path's.

use jm_asm::Program;
use jm_bench::workloads::ring_program;
use jm_isa::MeshDims;
use jm_machine::{Engine, FaultSpec, FaultWindow, MachineConfig, StartPolicy};
use jm_net::BulkStats;
use jm_tests::{observe_machine, Observation, ENGINES};

const MAX_CYCLES: u64 = 1_000_000;

fn mesh() -> MachineConfig {
    MachineConfig::with_dims(MeshDims::new(2, 2, 4)).start(StartPolicy::AllNodes)
}

/// Runs `program` under `config` once per engine of [`ENGINES`], holds
/// every engine's observation and trace hash (when traced) to the naive
/// reference's, and checks that the parallel engines cut the mesh in two
/// and never took the law.
/// Returns the reference observation and each engine's bulk counters, in
/// `ENGINES` order.
fn per_engine(program: Program, config: MachineConfig) -> (Observation, [BulkStats; 4]) {
    let mut reference = None;
    let bulk = ENGINES.map(|engine| {
        let (observation, mut m) =
            observe_machine(program.clone(), config.engine(engine), MAX_CYCLES, |_| {});
        let seen = (observation, m.take_trace().map(|t| jm_trace::hash(&t)));
        match &reference {
            None => reference = Some(seen),
            Some(naive) => assert_eq!(*naive, seen, "{engine:?} diverged from naive"),
        }
        let bulk = m.bulk_stats();
        if let Engine::Parallel(_) = engine {
            let control = (m.network().shard_count(), bulk.engaged);
            assert_eq!(control, (2, 0), "{engine:?}: not a bulk-free control");
        }
        bulk
    });
    let (naive, _) = reference.expect("ENGINES is not empty");
    (naive, bulk)
}

/// One token, empty network at every send: the event engine takes the law
/// for every message and never has to undo one.
#[test]
fn bulk_advance_bit_identical_when_engaged() {
    let (naive, [_, event, ..]) = per_engine(ring_program(3, false), mesh());
    let messages = naive.stats.net.injected_msgs;
    assert!(messages > 0, "the ring sent nothing");
    let once_each = BulkStats {
        engaged: messages,
        materialized: 0,
    };
    assert_eq!(event, once_each);
}

/// All nodes inject at once: a committed bulk message is still streaming
/// when the next send arrives, so the shard must materialize the in-flight
/// flits back into the channel arena at their law-given positions before
/// the new traffic contends with them.
#[test]
fn bulk_interference_materializes_exactly() {
    let (_, [_, event, ..]) = per_engine(ring_program(3, true), mesh());
    assert!(
        event.materialized > 0,
        "the storm never materialized a bulk message: {event:?}"
    );
}

/// A mid-run router stall plus flaky links: the law's preconditions fail
/// (a fault plan is armed), so every flit moves the slow way on every
/// engine, and the plan must have actually fired, or the test is vacuous.
#[test]
fn bulk_declines_under_fault_windows() {
    let spec = FaultSpec::new(11)
        .flaky(5_000)
        .window(FaultWindow::router_stall(5, 40, 400));
    let (naive, bulk) = per_engine(ring_program(3, true), mesh().fault(spec));
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
    let (naive, [_, event, ..]) = per_engine(ring_program(3, false), mesh().traced());
    assert_eq!(event.engaged, naive.stats.net.injected_msgs);
}
