//! Quantum-boundary differential tests: the crew decides only at the
//! multiples of the 64-cycle quantum (DESIGN.md §4.5), so these workloads
//! put the things a crew must get exactly right on and around those
//! multiples — slab cuts the token crosses in every quantum, fixed runs
//! that stop one cycle either side of a boundary, and a fault window that
//! opens and closes on boundaries. Each runs through [`agree`] under every
//! distinct crew of `jm_tests::ENGINES` and is held to the naive reference.

use jm_isa::node::MeshDims;
use jm_machine::{Engine, FaultSpec, FaultWindow, JMachine, MachineConfig, StartPolicy};
use jm_runtime::reliable;
use jm_tests::{agree, observe};

/// The crew's decision interval, in cycles.
const QUANTUM: u64 = 64;

/// Asserts that every `Parallel(t)` machine of an [`agree`] run was cut
/// into `slabs` slabs.
fn assert_slabs(label: &str, machines: &[JMachine], slabs: usize) {
    for m in machines {
        let engine = m.config().engine;
        if matches!(engine, Engine::Parallel(_)) {
            assert_eq!(m.network().shard_count(), slabs, "{label}: {engine:?}");
        }
    }
}

#[test]
fn ring_is_quantum_exact() {
    // The token ring (3 rounds) on 2×2×8: both crews cut it into four
    // slabs, so the id-ordered token crosses a slab cut every few hops
    // while most nodes idle, and quiescence is found at a quantum boundary
    // up to a quantum after the last handler retires.
    let program = jm_bench::workloads::ring_program(3, false);
    let config = MachineConfig::with_dims(MeshDims::new(2, 2, 8)).start(StartPolicy::AllNodes);
    let (obs, machines) = agree("ring 2x2x8", &program, config, |m| observe(m, 1_000_000));
    assert_slabs("ring 2x2x8", &machines, 4);
    assert!(obs.outcome.is_ok(), "{:?}", obs.outcome);
    // Every node's accumulator saw all 3 rounds.
    assert_eq!(obs.memory.len(), 32);
    assert!(obs.memory.iter().all(|words| words[0].as_i32() == 3));
}

#[test]
fn fixed_cycle_stop_is_quantum_exact() {
    // `run(n)` is the fixed-deadline mode: the crew's last quantum is cut
    // short at `n`. Stopping one cycle before, on, and one cycle after the
    // first two boundaries, and mid-quantum late in the run (1 499), must
    // leave every engine at `n` with the same statistics and state.
    let program = jm_bench::workloads::ring_program(3, false);
    let config = MachineConfig::new(16).start(StartPolicy::AllNodes);
    let stops = [
        QUANTUM - 1,
        QUANTUM,
        QUANTUM + 1,
        2 * QUANTUM - 1,
        2 * QUANTUM,
        1_499,
    ];
    for stop in stops {
        let label = format!("run({stop})");
        let (run, _) = agree(&label, &program, config, |m| {
            m.run(stop);
            (m.cycle(), m.stats(), m.state_hash())
        });
        assert_eq!(run.0, stop, "{label}: wrong stop cycle");
    }
}

#[test]
fn chaos_fault_plan_is_quantum_exact() {
    // Flaky links (10% per-flit stall probability), checksummed retries,
    // and a link-down window on the route's first hop that opens and
    // closes exactly on quantum boundaries (64 and 640). Fault draws are
    // keyed by cycle and position (DESIGN.md §4.7), so a crew that placed
    // a boundary one cycle off would shift a flit, reseed every later draw
    // and diverge loudly.
    let spec = FaultSpec::new(4242)
        .flaky(100_000)
        .checksums(true)
        .window(FaultWindow::link_down(0, 0, QUANTUM, 10 * QUANTUM));
    let config = MachineConfig::with_dims(MeshDims::new(2, 2, 4)).fault(spec);
    let program = reliable::demo_program(3, 15);
    let (obs, machines) = agree("chaos", &program, config, |m| observe(m, 2_000_000));
    assert_slabs("chaos", &machines, 2);
    assert_eq!(obs.outcome.as_ref().err(), None);
    assert!(
        obs.stats.net.faults.blocked_moves > 0,
        "plan never fired — the test is vacuous"
    );
}
