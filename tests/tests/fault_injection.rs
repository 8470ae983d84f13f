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
//! The workload is an RPC from node 0 to the far corner of a 2×2×4 mesh,
//! so under the parallel engines every request and ack crosses the cut
//! between the crew's two slabs. [`agree`] compares every observable:
//! outcome, aggregated statistics (which include the fault counters), the
//! final contents of every declared data block on every node, and the
//! state hash.

use jm_isa::consts::FaultKind;
use jm_isa::MeshDims;
use jm_machine::{FaultSpec, FaultWindow, MachineConfig};
use jm_runtime::reliable;
use jm_tests::{agree, observe, Observation};

/// Runs the reliable-RPC demo (node 0 increments node 15's counter three
/// times) under every engine with an optional fault spec.
fn rpc(label: &str, spec: Option<FaultSpec>, max_cycles: u64) -> Observation {
    let mut config = MachineConfig::with_dims(MeshDims::new(2, 2, 4));
    if let Some(spec) = spec {
        config = config.fault(spec);
    }
    let program = reliable::demo_program(3, 15);
    agree(label, &program, config, |m| observe(m, max_cycles)).0
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
    let baseline = rpc("no plan", None, 1_000_000);
    assert_eq!(baseline.outcome.as_ref().err(), None, "baseline");
    for (i, &spec) in cant_fire.iter().enumerate() {
        let run = rpc(
            &format!("zero-probability spec #{i}"),
            Some(spec),
            1_000_000,
        );
        assert_eq!(
            run, baseline,
            "zero-probability spec #{i} perturbed the run"
        );
    }
}

#[test]
fn seeded_faults_are_identical_across_engines() {
    // Flaky links (10% per-flit stall probability) + checksummed retries +
    // a link-down window on the route's first hop that overlaps the run:
    // the plan certainly fires, and every engine must observe the exact
    // same world. Fault draws are keyed by cycle and position (DESIGN.md
    // §4.7), so a crew boundary that shifted one flit by one cycle would
    // change every later draw and diverge loudly.
    for seed in [1234, 4242] {
        let spec = FaultSpec::new(seed)
            .flaky(100_000)
            .checksums(true)
            .window(FaultWindow::link_down(0, 0, 100, 600));
        let reference = rpc(&format!("seed {seed}"), Some(spec), 2_000_000);
        assert_eq!(reference.outcome.as_ref().err(), None, "seed {seed}");
        assert!(
            reference.stats.net.faults.blocked_moves > 0,
            "seed {seed}: plan never fired — the test is vacuous"
        );
    }
}

#[test]
fn corruption_drops_reconcile_with_retries() {
    // Under payload corruption every engine agrees, the RPC counter stays
    // exact, and the books balance: each dropped message required at
    // least one corrupted word, and every drop was eventually recovered
    // (the run completed with the exact count, so retries covered them).
    let spec = FaultSpec::new(7).corrupt(60_000).checksums(true);
    let reference = rpc("corruption", Some(spec), 5_000_000);
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
}
