//! Integration-test crate for the jmsim workspace.
//!
//! The suites live in `tests/`; this library holds what several of them
//! share: the differential-test observation (everything a finished run lets
//! a host see) and the engine matrix. The canned workloads they run (token
//! ring, ping-pong, traffic sink, traced gather) are `jm_bench::workloads`,
//! shared with the tools whose behaviour the suites guard.

use jm_asm::Program;
use jm_isa::node::NodeId;
use jm_isa::word::Word;
use jm_machine::{Engine, JMachine, MachineConfig, MachineStats};

/// Every engine under differential test, naive reference first.
/// (`Parallel(1)` is one slab and no crew — the `Event` column again;
/// `jm-machine` pins that in a unit test.)
pub const ENGINES: [Engine; 4] = [
    Engine::Naive,
    Engine::Event,
    Engine::Parallel(2),
    Engine::Parallel(4),
];

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

/// Builds `program` under `config`, lets `setup` touch the machine, runs it
/// to quiescence (at most `max_cycles`) and records every observable.
pub fn observe(
    program: Program,
    config: MachineConfig,
    max_cycles: u64,
    setup: impl FnOnce(&mut JMachine),
) -> Observation {
    observe_machine(program, config, max_cycles, setup).0
}

/// [`observe`], and the finished machine: for what an observation leaves
/// out — its trace, and the host counters (`stretch_stats`, `bulk_stats`)
/// that show a fast-path test is not vacuous.
pub fn observe_machine(
    program: Program,
    config: MachineConfig,
    max_cycles: u64,
    setup: impl FnOnce(&mut JMachine),
) -> (Observation, JMachine) {
    let mut m = JMachine::new(program, config);
    setup(&mut m);
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
    let observation = Observation {
        outcome,
        stats: m.stats(),
        memory,
        state_hash: m.state_hash(),
    };
    (observation, m)
}
