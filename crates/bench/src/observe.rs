//! Shared traced demonstration workload for the observability tools.
//!
//! A many-to-one RPC gather: every node sends `(recv, nid)` to node 0,
//! whose handler accumulates the sender ids. The workload exercises every
//! lifecycle stage the tracer records — injection, hop-by-hop progress,
//! delivery, queueing (node 0's message queue backs up under the
//! convergecast), dispatch, and handler execution — in a few thousand
//! cycles, which makes it the standard input for `jmsim trace` and for the
//! trace hash `jmsim repro` prints into `EXPERIMENTS.md`.

use crate::workloads::gather_program;
use jm_isa::node::MeshDims;
use jm_machine::{
    Engine, JMachine, MachineConfig, MachineError, MachineTrace, StartPolicy, TraceConfig,
};

/// A finished traced run: the machine (for its statistics) and its trace.
pub struct TraceDemo {
    /// The quiesced machine.
    pub machine: JMachine,
    /// The assembled lifecycle trace.
    pub trace: MachineTrace,
}

/// Runs the gather workload traced on a `dims` mesh under `engine` and
/// returns the machine plus its trace.
pub fn gather_demo(
    engine: Engine,
    dims: MeshDims,
    sample_every: u64,
) -> Result<TraceDemo, MachineError> {
    let config = MachineConfig::with_dims(dims)
        .start(StartPolicy::AllNodes)
        .engine(engine)
        .trace(TraceConfig::on().sample_every(sample_every));
    let mut machine = JMachine::new(gather_program(), config);
    machine.run_until_quiescent(1_000_000)?;
    let trace = machine.take_trace().expect("tracing was enabled");
    Ok(TraceDemo { machine, trace })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_demo_traces_every_node() {
        let demo = gather_demo(Engine::Event, MeshDims::new(4, 4, 1), 32).unwrap();
        let msgs = demo.trace.messages();
        assert_eq!(msgs.len(), 16);
        assert!(msgs.iter().all(|m| m.dispatch.is_some()));
        // Node 0 summed all 16 sender ids: 0 + 1 + ... + 15.
        let sum = demo.machine.program().segment("sum");
        assert_eq!(
            demo.machine.read_word(jm_isa::NodeId(0), sum.base).as_i32(),
            (0..16).sum::<i32>()
        );
    }
}
