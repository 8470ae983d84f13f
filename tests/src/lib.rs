//! Integration-test crate for the jmsim workspace.
//!
//! The suites live in `tests/`; this library holds what several of them
//! share: the engine matrix ([`columns`]), the one check that holds a workload's result
//! under every engine to the naive reference's ([`agree`]), and the
//! differential-test observation (everything a finished run lets a host
//! see). The canned workloads they run (token ring, ping-pong, traffic
//! sink, traced gather) are `jm_bench::workloads`, shared with the tools
//! whose behaviour the suites guard.

use jm_asm::Program;
use jm_isa::node::NodeId;
use jm_isa::word::Word;
use jm_machine::{Engine, JMachine, MachineConfig, MachineStats};
use std::fmt::Debug;

/// Every engine under differential test, naive reference first. A
/// `Parallel(t)` column is a crew only on a mesh cut into two slabs or
/// more — `z ≥ 4`, two z-planes a slab at least — and [`columns`] refuses
/// it anywhere else: on one slab it is the `Event` column again. (So is
/// `Parallel(1)`; `jm-machine` pins that in a unit test.)
pub const ENGINES: [Engine; 4] = [
    Engine::Naive,
    Engine::Event,
    Engine::Parallel(2),
    Engine::Parallel(4),
];

/// Builds one machine per column of [`ENGINES`] with `build`, in order,
/// leaving out a `Parallel(t)` column whose crew — slab and worker count —
/// an earlier column already is. `Parallel(t)` cuts `min(2t, z/2)` slabs
/// and runs `min(t, slabs)` workers, so on a mesh four z-planes deep
/// (2×2×4, 4×4×4) `Parallel(4)` is `Parallel(2)`'s machine again, and
/// running it would check the same crew twice.
///
/// # Panics
///
/// On a `Parallel(t)` machine the engine cuts into fewer than two slabs:
/// its column would check the event engine twice and the crew never.
pub fn columns(label: &str, mut build: impl FnMut(Engine) -> JMachine) -> Vec<JMachine> {
    let mut crews = Vec::new();
    let mut machines = Vec::new();
    for engine in ENGINES {
        let m = build(engine);
        if let Engine::Parallel(t) = engine {
            let slabs = m.network().shard_count();
            let dims = m.config().dims;
            assert!(
                slabs >= 2,
                "{label}: {engine:?} cuts {dims} into one slab: no crew"
            );
            let crew = (slabs, slabs.min(t as usize));
            if crews.contains(&crew) {
                continue;
            }
            crews.push(crew);
        }
        machines.push(m);
    }
    machines
}

/// Builds `program` under `config` once per [`columns`] entry, runs
/// `drive` on each machine and holds every engine's result to the naive
/// reference's. Returns that result and every machine it ran, in
/// `ENGINES` order, for what a result leaves out: host counters
/// (`stretch_stats`, `bulk_stats`) that say a fast path ran.
///
/// # Panics
///
/// On a result that differs from the naive one, and where [`columns`]
/// does.
pub fn agree<R: PartialEq + Debug>(
    label: &str,
    program: &Program,
    config: MachineConfig,
    mut drive: impl FnMut(&mut JMachine) -> R,
) -> (R, Vec<JMachine>) {
    let mut machines = columns(label, |e| JMachine::new(program.clone(), config.engine(e)));
    let mut results = machines.iter_mut().map(|m| (m.config().engine, drive(m)));
    let (_, naive) = results.next().expect("ENGINES is not empty");
    for (engine, result) in results {
        assert_eq!(naive, result, "{label}: {engine:?} diverged from naive");
    }
    (naive, machines)
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
pub struct Observation {
    /// `Ok(cycles)` or the error's debug rendering.
    pub outcome: Result<u64, String>,
    /// Aggregated statistics (per-class cycles, handler, network, fault and
    /// traffic counters; includes the final cycle count).
    pub stats: MachineStats,
    /// Per-node contents of every declared data block.
    pub memory: Vec<Vec<Word>>,
    /// The machine's final [`JMachine::state_hash`]: registers, queues,
    /// all of memory and router occupancy, which the blocks above leave out.
    pub state_hash: u64,
}

/// Runs `m` to quiescence (at most `max_cycles`) and records every
/// observable.
pub fn observe(m: &mut JMachine, max_cycles: u64) -> Observation {
    let outcome = m
        .run_until_quiescent(max_cycles)
        .map_err(|e| format!("{e:?}"));
    let mut memory = Vec::new();
    for id in 0..m.node_count() {
        let node = m.node(NodeId(id));
        let mut words = Vec::new();
        for block in &m.program().data {
            words.extend(node.dump_mem(block.base, block.len));
        }
        memory.push(words);
    }
    Observation {
        outcome,
        stats: m.stats(),
        memory,
        state_hash: m.state_hash(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_isa::node::MeshDims;
    use jm_machine::StartPolicy;

    /// On 2×2×2 every parallel engine runs one slab: the check refuses it
    /// rather than pass it as a crew.
    #[test]
    #[should_panic(expected = "Parallel(2) cuts 2x2x2 into one slab: no crew")]
    fn a_parallel_column_on_one_slab_is_refused() {
        let program = jm_bench::workloads::ring_program(1, false);
        let dims = MeshDims::new(2, 2, 2);
        let config = MachineConfig::with_dims(dims).start(StartPolicy::AllNodes);
        agree("2x2x2", &program, config, |m| observe(m, 100_000));
    }
}
