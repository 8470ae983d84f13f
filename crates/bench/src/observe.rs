//! Shared traced demonstration workload for the observability tools.
//!
//! A many-to-one RPC gather: every node sends `(recv, nid)` to node 0,
//! whose handler accumulates the sender ids. The workload exercises every
//! lifecycle stage the tracer records — injection, hop-by-hop progress,
//! delivery, queueing (node 0's message queue backs up under the
//! convergecast), dispatch, and handler execution — in a few thousand
//! cycles, which makes it the standard input for `jmsim trace` and for the
//! trace hash `jmsim repro` prints into `EXPERIMENTS.md`.

use crate::registry::Point;
use crate::workloads::gather_program;
use jm_isa::node::MeshDims;
use jm_machine::{MachineConfig, MachineTrace, StartPolicy, TraceConfig};

/// The gather workload traced on a `dims` mesh, one sample every
/// `sample_every` cycles, run to quiescence: its reader returns the trace.
pub fn gather(dims: MeshDims, sample_every: u64) -> Point<MachineTrace> {
    let config = MachineConfig::with_dims(dims)
        .start(StartPolicy::AllNodes)
        .trace(TraceConfig::on().sample_every(sample_every));
    Point::new(gather_program(), config, |m| {
        m.run_until_quiescent(1_000_000)?;
        Ok(m.take_trace().expect("tracing was enabled"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Ctx;
    use jm_machine::Engine;

    #[test]
    fn gather_demo_traces_every_node() {
        // The gather's own reader, then node 0's sum of the sender ids.
        let Point {
            program,
            config,
            read,
        } = gather(MeshDims::new(4, 4, 1), 32);
        let sum = program.segment("sum");
        let point = Point::new(program, config, move |m| {
            Ok((read(m)?, m.read_word(jm_isa::NodeId(0), sum.base).as_i32()))
        });
        let (trace, sum) = Ctx::new(Engine::Event, false, 7).run(point).unwrap();
        let msgs = trace.messages();
        assert_eq!(msgs.len(), 16);
        assert!(msgs.iter().all(|m| m.dispatch.is_some()));
        // Node 0 summed all 16 sender ids: 0 + 1 + ... + 15.
        assert_eq!(sum, (0..16).sum::<i32>());
    }
}
