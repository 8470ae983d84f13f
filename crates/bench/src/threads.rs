//! Thread-scaling sweep of the deterministic parallel engine.
//!
//! Runs one load-dominated workload (the Figure-3 exchange loop, every node
//! busy every cycle — the case where threading can actually help) for a
//! fixed cycle count under `Engine::Event` and `Engine::Parallel(t)` for
//! t ∈ {1, 2, 4}, timing each run. Because every engine is bit-exact
//! (DESIGN.md §4.5), the sweep doubles as a differential test: the final
//! statistics of every run are asserted identical before any number is
//! reported.
//!
//! Used by two binaries: `engine_perf --threads` (full sweep, appended to
//! `BENCH_engine.json`) and `repro_all` (small sweep, thread-scaling table
//! in `EXPERIMENTS.md` — excluded from the determinism digest, since wall
//! times vary run to run).

use crate::harness::time_once;
use crate::micro::load;
use jm_machine::{Engine, JMachine, MachineConfig, StartPolicy};
use std::fmt::Write as _;

/// One engine's timed run within the sweep.
#[derive(Debug, Clone)]
pub struct ThreadPoint {
    /// Short stable label (`event`, `parallel-1`, …) — deliberately keyed
    /// `"label"` in the JSON so `bench_gate`'s `"name"`-driven parser
    /// ignores the section.
    pub label: String,
    /// Worker threads requested (0 = the sequential event engine).
    pub threads: u32,
    /// Wall-clock seconds for the fixed-cycle run.
    pub wall_secs: f64,
    /// Simulated cycles per second of wall clock.
    pub cycles_per_sec: f64,
    /// Whether the run asked for more worker threads than the host has
    /// logical CPUs. An oversubscribed number measures scheduler pressure,
    /// not scaling — it is stamped so readers (and `bench_gate`'s ratchet)
    /// never mistake it for real thread-scaling data.
    pub oversubscribed: bool,
}

/// A completed thread-scaling sweep.
#[derive(Debug, Clone)]
pub struct ThreadSweep {
    /// Logical CPUs the host reports (1 on a constrained CI runner — the
    /// speedup acceptance floor only applies when this is ≥ 4).
    pub host_cpus: usize,
    /// Nodes in the simulated machine.
    pub nodes: u32,
    /// Simulated cycles per run.
    pub cycles: u64,
    /// One point per engine, event baseline first.
    pub points: Vec<ThreadPoint>,
}

impl ThreadSweep {
    /// Speedup of the `threads`-worker run over the event baseline.
    pub fn speedup(&self, threads: u32) -> Option<f64> {
        let base = self.points.first()?.cycles_per_sec;
        self.points
            .iter()
            .find(|p| p.threads == threads)
            .map(|p| p.cycles_per_sec / base)
    }
}

/// Runs the sweep: event baseline plus `Parallel(t)` for each `t` in
/// `threads`, asserting bit-identical final statistics across all runs.
pub fn sweep(nodes: u32, cycles: u64, threads: &[u32]) -> ThreadSweep {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
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
    // repetition's stats are still asserted identical, so the differential
    // check gets N× deeper.
    const REPS: u32 = 5;
    let mut best_walls = vec![None::<std::time::Duration>; engines.len()];
    for _ in 0..REPS {
        for ((label, _, engine), best_wall) in engines.iter().zip(best_walls.iter_mut()) {
            let mut m = JMachine::new(
                load::debug_program(4, 20),
                MachineConfig::new(nodes)
                    .start(StartPolicy::AllNodes)
                    .engine(*engine),
            );
            let (wall, ()) = time_once(|| m.run(cycles));
            let stats = m.stats();
            match &baseline_stats {
                None => baseline_stats = Some(stats),
                Some(base) => assert_eq!(
                    base, &stats,
                    "{label}: parallel engine diverged from the event engine"
                ),
            }
            *best_wall = Some(best_wall.map_or(wall, |b| b.min(wall)));
        }
    }
    for ((label, t, _), best_wall) in engines.into_iter().zip(best_walls) {
        let wall_secs = best_wall.expect("at least one repetition").as_secs_f64();
        points.push(ThreadPoint {
            label,
            threads: t,
            wall_secs,
            cycles_per_sec: cycles as f64 / wall_secs.max(1e-9),
            oversubscribed: t as usize > host_cpus,
        });
    }
    ThreadSweep {
        host_cpus,
        nodes,
        cycles,
        points,
    }
}

/// Renders the sweep as a text table (for `EXPERIMENTS.md` and stdout).
pub fn render(sweep: &ThreadSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "exchange loop, {} nodes, {} cycles, host CPUs: {}\n",
        sweep.nodes, sweep.cycles, sweep.host_cpus
    );
    let _ = writeln!(out, "{:<12} {:>14} {:>10}", "engine", "cyc/s", "speedup");
    let base = sweep.points[0].cycles_per_sec;
    for p in &sweep.points {
        let _ = writeln!(
            out,
            "{:<12} {:>14.0} {:>9.2}x{}",
            p.label,
            p.cycles_per_sec,
            p.cycles_per_sec / base,
            if p.oversubscribed {
                "  (oversubscribed)"
            } else {
                ""
            }
        );
    }
    out
}

/// Renders the sweep as the `"threads"` JSON object for `BENCH_engine.json`
/// (no surrounding comma or key).
pub fn render_json(sweep: &ThreadSweep) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n    \"workload\": \"exchange{}_load_dominated\",\n    \"cycles\": {},\n    \"host_cpus\": {},\n    \"runs\": [\n",
        sweep.nodes, sweep.cycles, sweep.host_cpus
    );
    let base = sweep.points[0].cycles_per_sec;
    for (i, p) in sweep.points.iter().enumerate() {
        let _ = writeln!(
            out,
            "      {{ \"label\": \"{}\", \"threads\": {}, \"wall_secs\": {:.6}, \"cyc_per_sec\": {:.0}, \"vs_event\": {:.2}, \"oversubscribed\": {} }}{}",
            p.label,
            p.threads,
            p.wall_secs,
            p.cycles_per_sec,
            p.cycles_per_sec / base,
            p.oversubscribed,
            if i + 1 < sweep.points.len() { "," } else { "" }
        );
    }
    let _ = write!(out, "    ]\n  }}");
    out
}
