//! Differential tests for the fault-injection subsystem (`jm-fault`).
//!
//! Two properties carry the whole design:
//!
//! * **Zero probability is free**: any fault plan that cannot fire — the
//!   explicit `none()` spec, a seeded spec with all-zero probabilities,
//!   or a plan whose only window lies beyond the run horizon — must leave
//!   every engine bit-identical to a run with no plan at all.
//! * **Faults are schedule-independent**: a plan that does fire injects
//!   the *same* faults at the same cycles on every engine, so the naive,
//!   event-driven, and parallel engines stay cycle-exact with each other
//!   even while links flap and messages are dropped.
//!
//! Every observable is compared: outcome, aggregated statistics (which
//! include the fault counters), and the final contents of every declared
//! data block on every node.

use jm_isa::consts::FaultKind;
use jm_machine::{Engine, FaultSpec, FaultWindow, MachineConfig};
use jm_runtime::reliable;
use jm_tests::{Observation, ENGINES};

/// Runs the reliable-RPC demo (node 0 increments node 7's counter) under
/// `engine` with an optional fault spec and records every observable.
fn observe(engine: Engine, spec: Option<FaultSpec>, max_cycles: u64) -> Observation {
    let mut config = MachineConfig::new(8).engine(engine);
    if let Some(spec) = spec {
        config = config.fault(spec);
    }
    jm_tests::observe(reliable::demo_program(3, 7), config, max_cycles, |_| {})
}

#[test]
fn zero_probability_plans_are_bit_identical_to_no_plan() {
    // A window far beyond the run horizon: the plan exists (so the faulted
    // code paths are live) but can never fire within the run.
    let far = u64::MAX / 2;
    let cant_fire = [
        FaultSpec::none(),
        FaultSpec::new(99),
        FaultSpec::new(99).flaky(0).corrupt(0),
        FaultSpec::new(7).window(FaultWindow::link_down(0, 0, far, far + 1_000)),
    ];
    for engine in ENGINES {
        let baseline = observe(engine, None, 1_000_000);
        assert_eq!(baseline.outcome.as_ref().err(), None, "{engine:?} baseline");
        for (i, &spec) in cant_fire.iter().enumerate() {
            let run = observe(engine, Some(spec), 1_000_000);
            assert_eq!(
                run, baseline,
                "zero-probability spec #{i} perturbed {engine:?}"
            );
        }
    }
}

#[test]
fn seeded_faults_are_identical_across_engines() {
    // Flaky links + checksum trailers + a link-down window that overlaps
    // the run: the plan certainly fires, and every engine must observe
    // the exact same world.
    let spec = FaultSpec::new(1234)
        .flaky(100_000)
        .checksums(true)
        .window(FaultWindow::link_down(0, 0, 100, 600));
    let reference = observe(ENGINES[0], Some(spec), 2_000_000);
    assert_eq!(reference.outcome.as_ref().err(), None, "reference run");
    assert!(
        reference.stats.net.faults.blocked_moves > 0,
        "plan never fired — the test is vacuous"
    );
    for engine in &ENGINES[1..] {
        let run = observe(*engine, Some(spec), 2_000_000);
        assert_eq!(run, reference, "{engine:?} diverged under faults");
    }
}

#[test]
fn corruption_drops_reconcile_with_retries() {
    // Under payload corruption every engine agrees, the RPC counter stays
    // exact, and the books balance: each dropped message required at
    // least one corrupted word, and every drop was eventually recovered
    // (the run completed with the exact count, so retries covered them).
    let spec = FaultSpec::new(1234).corrupt(60_000).checksums(true);
    let reference = observe(ENGINES[0], Some(spec), 5_000_000);
    assert_eq!(reference.outcome.as_ref().err(), None, "reference run");
    let stats = &reference.stats;
    let dropped = stats.nodes.faults[FaultKind::CorruptMessage.vector() as usize];
    assert!(dropped > 0, "plan corrupted nothing — weaken the seed");
    assert!(
        stats.net.faults.corrupted_words >= dropped,
        "{} drops but only {} corrupted words",
        dropped,
        stats.net.faults.corrupted_words
    );
    for engine in &ENGINES[1..] {
        let run = observe(*engine, Some(spec), 5_000_000);
        assert_eq!(run, reference, "{engine:?} diverged under corruption");
    }
}
