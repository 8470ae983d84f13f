//! Differential tests for the synthetic-traffic layer: every destination
//! pattern must produce **bit-identical** runs across the naive, event, and
//! parallel engines (four slabs under two threads and under four), and
//! under a chaos fault plan. The
//! injection process is a pure function of `(seed, node, cycle)` and hooks
//! into `step_cycle` before any routing work, so the accept/drop decision
//! at each node's inject FIFO depends only on architectural state — never
//! on engine or shard cut.

use jm_asm::Program;
use jm_bench::workloads::sink_program;
use jm_isa::MeshDims;
use jm_machine::{Engine, FaultSpec, MachineConfig, StartPolicy, TrafficPattern, TrafficSpec};
use jm_tests::{agree, observe, Observation};

/// All five destination patterns.
const PATTERNS: [TrafficPattern; 5] = [
    TrafficPattern::UniformRandom,
    TrafficPattern::Transpose,
    TrafficPattern::BitReversal,
    TrafficPattern::Hotspot {
        weight_ppm: 300_000,
    },
    TrafficPattern::NearestNeighbor,
];

/// Base config for the suite: a 2×2×8 mesh, which the parallel engines cut
/// into four slabs (two z-planes each), with the traffic spec's handler
/// resolved against the assembled sink program.
fn traffic_config(program: &Program, spec: TrafficSpec) -> MachineConfig {
    MachineConfig::with_dims(MeshDims::new(2, 2, 8))
        .start(StartPolicy::None)
        .traffic(spec.handler(program.handler("sink")).msg_words(3))
}

/// Runs the sink program under every engine and holds each to the naive
/// reference.
fn assert_equivalent(label: &str, config: MachineConfig, max_cycles: u64) -> Observation {
    agree(label, &sink_program(), config, |m| observe(m, max_cycles)).0
}

#[test]
fn all_patterns_are_engine_exact() {
    let program = sink_program();
    for pattern in PATTERNS {
        let spec = TrafficSpec::new(7)
            .pattern(pattern)
            .load(200_000)
            .window(0, 400);
        let obs = assert_equivalent(pattern.label(), traffic_config(&program, spec), 50_000);
        assert!(
            obs.outcome.is_ok(),
            "{}: {:?}",
            pattern.label(),
            obs.outcome
        );
        let traffic = obs.stats.net.traffic;
        assert!(traffic.offered_msgs > 0, "{}: no traffic", pattern.label());
        assert_eq!(
            traffic.offered_msgs,
            traffic.accepted_msgs + traffic.dropped_msgs,
            "{}: offered != accepted + dropped",
            pattern.label()
        );
        // Every accepted message reached its sink: nothing in flight after
        // quiescence, so network delivery count matches acceptance.
        assert_eq!(obs.stats.net.delivered_msgs, traffic.accepted_msgs);
    }
}

#[test]
fn latency_columns_come_from_the_engine_that_ran() {
    // A saturation point is one traced machine, so under `Parallel(2)` its
    // latency columns are the parallel engine's own trace: they must be
    // the event engine's, like the counters beside them.
    let point = |engine| {
        let pattern = TrafficPattern::Hotspot {
            weight_ppm: 300_000,
        };
        let ctx = jm_bench::registry::Ctx::new(engine, false, 7);
        let point = jm_bench::traffic::point(7, MeshDims::new(2, 2, 8), pattern, 300_000);
        let p = ctx.run(point).unwrap();
        assert!(p.latency_count > 0 && p.dropped_msgs > 0, "{p:?}");
        format!("{p:?}")
    };
    assert_eq!(point(Engine::Event), point(Engine::Parallel(2)));
}

#[test]
fn traffic_under_chaos_fault_plan_is_engine_exact() {
    // Flaky links retry, corrupt messages are dropped at checksum check —
    // both perturb timing heavily, neither may perturb it differently per
    // engine. Bit reversal maximizes cross-mesh (multi-shard) routes.
    let program = sink_program();
    let spec = TrafficSpec::new(11)
        .pattern(TrafficPattern::BitReversal)
        .load(200_000)
        .window(0, 400);
    let fault = FaultSpec::new(5)
        .flaky(30_000)
        .corrupt(8_000)
        .checksums(true);
    let obs = assert_equivalent("chaos", traffic_config(&program, spec).fault(fault), 50_000);
    assert!(obs.outcome.is_ok(), "{:?}", obs.outcome);
    assert!(obs.stats.net.traffic.offered_msgs > 0);
    assert!(
        obs.stats.net.faults.blocked_moves > 0,
        "chaos plan never blocked a flit move"
    );
}

#[test]
fn future_traffic_window_defeats_idle_skip() {
    // StartPolicy::None and a window starting at cycle 200: the machine is
    // completely idle until the window opens, so quiescence detection and
    // the idle fast-forward must treat the pending window as a scheduled
    // wake-up — on every engine. A machine that quiesces at cycle 0 never
    // generates the traffic at all.
    let program = sink_program();
    let spec = TrafficSpec::new(3)
        .pattern(TrafficPattern::UniformRandom)
        .load(400_000)
        .window(200, 260);
    let obs = assert_equivalent("future-window", traffic_config(&program, spec), 50_000);
    let cycles = obs.outcome.expect("future-window run failed");
    assert!(
        cycles >= 200,
        "machine quiesced at cycle {cycles}, before the traffic window opened"
    );
    assert!(obs.stats.net.traffic.accepted_msgs > 0);
    assert_eq!(
        obs.stats.net.delivered_msgs,
        obs.stats.net.traffic.accepted_msgs
    );
}

#[test]
fn saturating_load_backpressures_deterministically() {
    // At an absurd offered load the inject FIFOs overflow and messages are
    // dropped; the drop counter is part of the differential observation, so
    // drops must land on the same (node, cycle) pairs everywhere.
    let program = sink_program();
    let spec = TrafficSpec::new(13)
        .pattern(TrafficPattern::Hotspot {
            weight_ppm: 500_000,
        })
        .load(900_000)
        .window(0, 300);
    let obs = assert_equivalent("saturation", traffic_config(&program, spec), 100_000);
    assert!(obs.outcome.is_ok(), "{:?}", obs.outcome);
    let traffic = obs.stats.net.traffic;
    assert!(
        traffic.dropped_msgs > 0,
        "saturating load never backpressured (offered {}, accepted {})",
        traffic.offered_msgs,
        traffic.accepted_msgs
    );
}
