//! Thread-scaling sweep of the deterministic parallel engine.
//!
//! Runs one load-dominated workload (the Figure-3 exchange loop, every node
//! busy every cycle — the case where threading can actually help) for a
//! fixed cycle count under `Engine::Event` and `Engine::Parallel(t)` for
//! each requested `t`, timing each run. Because every engine is bit-exact
//! (DESIGN.md §4.5), the sweep doubles as a differential test: a run whose
//! final statistics differ from the event engine's fails the sweep before
//! any number is reported.
//!
//! This is the one body that measures the parallel engine: `jmsim perf`
//! runs it at 8×8×8 (the `threads/…` rows of `BENCH_engine.json`) and
//! `jmsim mesh` at `--nodes`. Wall times vary run to run, so they stay out
//! of `EXPERIMENTS.md`.

use crate::harness::time_once;
use crate::rows::Row;
use crate::workloads::exchange_program;
use jm_machine::{Engine, JMachine, MachineConfig, MachineStats, StartPolicy};

/// One engine's timed run within the sweep.
#[derive(Debug, Clone)]
pub struct ThreadPoint {
    /// Short stable label (`event`, `parallel-2`, `parallel-4`).
    pub label: String,
    /// Worker threads requested (0 = the sequential event engine).
    pub threads: u32,
    /// Simulated cycles per second of wall clock.
    pub cycles_per_sec: f64,
}

/// A completed thread-scaling sweep.
#[derive(Debug, Clone)]
pub struct ThreadSweep {
    /// Logical CPUs the host reports. A point that asked for more worker
    /// threads than this measures scheduler pressure, not scaling.
    pub host_cpus: usize,
    /// Nodes in the simulated machine.
    pub nodes: u32,
    /// Simulated cycles per run.
    pub cycles: u64,
    /// One point per engine, event baseline first.
    pub points: Vec<ThreadPoint>,
    /// The final statistics every run agreed on.
    pub stats: MachineStats,
}

/// Runs the sweep: event baseline plus `Parallel(t)` for each `t` in
/// `threads`.
///
/// # Errors
///
/// A `t` below 2 (`Parallel(1)` is the event engine, so its point would
/// time the baseline against itself), a `t` the mesh has too few z-slabs
/// to give a worker each — a point named `parallel-t` is `t` workers or it
/// is not measured — and a run whose final statistics differ from the
/// event engine's.
pub fn sweep(nodes: u32, cycles: u64, threads: &[u32]) -> Result<ThreadSweep, String> {
    if let Some(t) = threads.iter().find(|&&t| t < 2) {
        return Err(format!(
            "parallel{t}: one worker is the event engine, so the sweep starts at two"
        ));
    }
    let host_cpus = crate::rows::host_cpus();
    let mut points = Vec::new();
    let mut baseline_stats = None;
    let mut engines = vec![(String::from("event"), 0u32, Engine::Event)];
    engines.extend(
        threads
            .iter()
            .map(|&t| (format!("parallel-{t}"), t, Engine::Parallel(t))),
    );
    // Best-of-N wall time per point: a single timing on a busy host mixes
    // scheduler noise into the ratio; the minimum of a few repetitions is
    // the run least disturbed by the host. Repetitions are *interleaved*
    // (round-robin over engines) rather than run back-to-back per engine,
    // so a burst of host load lands on all engines roughly equally instead
    // of skewing whichever engine owned that time window. Every
    // repetition's stats are compared, so the differential check gets N×
    // deeper.
    const REPS: u32 = 5;
    let mut best_walls = vec![None::<std::time::Duration>; engines.len()];
    for _ in 0..REPS {
        for ((label, _, engine), best_wall) in engines.iter().zip(best_walls.iter_mut()) {
            let mut m = JMachine::new(
                exchange_program(),
                MachineConfig::new(nodes)
                    .start(StartPolicy::AllNodes)
                    .engine(*engine),
            );
            let slabs = m.network().shard_count();
            if let Engine::Parallel(t) = *engine {
                if t as usize > slabs {
                    return Err(format!(
                        "{label}: a {nodes}-node mesh cuts into {slabs} slab(s), \
                         so only {slabs} of the {t} workers would run"
                    ));
                }
            }
            let (wall, ()) = time_once(|| m.run(cycles));
            let stats = m.stats();
            if *baseline_stats.get_or_insert_with(|| stats.clone()) != stats {
                return Err(format!(
                    "{label}: statistics differ from the event engine's"
                ));
            }
            *best_wall = Some(best_wall.map_or(wall, |b| b.min(wall)));
        }
    }
    for ((label, t, _), best_wall) in engines.into_iter().zip(best_walls) {
        let wall_secs = best_wall.expect("at least one repetition").as_secs_f64();
        points.push(ThreadPoint {
            label,
            threads: t,
            cycles_per_sec: cycles as f64 / wall_secs.max(1e-9),
        });
    }
    Ok(ThreadSweep {
        host_cpus,
        nodes,
        cycles,
        points,
        stats: baseline_stats.expect("the event run"),
    })
}

/// The sweep as `threads/<label>` rows for `BENCH_engine.json`: host time
/// only as the ratio to the event engine. Each point carries its thread
/// count, so a reader decides "oversubscribed" from the row itself
/// (`threads` > `host_cpus`).
pub fn rows(sweep: &ThreadSweep) -> Vec<Row> {
    let base = sweep.points[0].cycles_per_sec;
    let mut rows = Vec::new();
    for p in &sweep.points {
        let name = format!("threads/{}", p.label);
        let mut push = |metric: &str, value: f64, unit: &str| {
            rows.push(Row::host(&name, metric, value, unit, sweep.host_cpus));
        };
        push("threads", f64::from(p.threads), "threads");
        push("nodes", f64::from(sweep.nodes), "nodes");
        push("cycles", sweep.cycles as f64, "cycles");
        push("vs_event", p.cycles_per_sec / base, "x");
    }
    rows
}
