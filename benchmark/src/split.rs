//! The split stepper: the benchmark's own machine loop, written against
//! the public per-layer calls only, with a clock read between the phases.
//!
//! Each cycle runs pump → tick all → `Network::step`, the order of the
//! simulator's naive engine, so node and network statistics must equal
//! `JMachine`'s on the same run. Unlike the engines it skips nothing:
//! its per-phase times are the cost of the layers themselves, with no
//! scheduler in front of them.

use crate::spans::Spans;
use crate::workloads::Spec;
use jm_isa::instr::MsgPriority;
use jm_isa::node::NodeId;
use jm_isa::word::Word;
use jm_machine::{MachineStats, StartPolicy};
use jm_mdp::{InjectAck, MdpNode, NetPort, NodeStats};
use jm_net::{InjectResult, Network};
use jm_traffic::TrafficPlan;
use std::sync::Arc;
use std::time::Instant;

/// Cycles aggregated into one `chunk` span.
const CHUNK: u64 = 1024;

/// One node's injection port.
struct Port<'a> {
    net: &'a mut Network,
    node: NodeId,
}

impl NetPort for Port<'_> {
    fn commit(&mut self, priority: MsgPriority, words: &[Word]) -> InjectAck {
        match self.net.commit_msg(self.node, priority, words) {
            InjectResult::Accepted => InjectAck::Accepted,
            InjectResult::Stall => InjectAck::Stall,
            InjectResult::BadRoute => InjectAck::Rejected,
        }
    }
}

/// Nodes and a network under one clock, stepped phase by phase.
pub struct Split {
    nodes: Vec<MdpNode>,
    net: Network,
    cycle: u64,
    /// Scratch: nodes with ejected words waiting, this cycle.
    pending: Vec<NodeId>,
}

impl Split {
    /// Builds the machine `spec` describes, as `JMachine::new` would for a
    /// single-shard, fault-free, untraced configuration.
    ///
    /// # Panics
    ///
    /// Panics if `spec` asks for tracing or faults, which this stepper
    /// does not wire up.
    pub fn new(spec: &Spec) -> Split {
        let config = &spec.config;
        assert!(
            !config.trace.enabled && config.fault.is_none(),
            "the split stepper runs untraced, fault-free machines"
        );
        let program = Arc::new(spec.program.clone());
        let mut nodes: Vec<MdpNode> = config
            .dims
            .iter_nodes()
            .map(|id| {
                let start = match config.start {
                    StartPolicy::AllNodes => true,
                    StartPolicy::Node0 => id.0 == 0,
                    StartPolicy::None => false,
                };
                MdpNode::new(id, config.dims, Arc::clone(&program), config.mdp, start)
            })
            .collect();
        let mut net = Network::new(config.net);
        net.set_traffic_plan(config.traffic.and_then(TrafficPlan::from_spec));
        if let (Some(cfg), Some(keys)) = (&spec.radix, spec.keys()) {
            let strip = (cfg.keys / nodes.len() as u32) as usize;
            let base = spec.program.segment("rs_arr0").base;
            for (node, keys) in nodes.iter_mut().zip(keys.chunks(strip)) {
                for (j, &key) in keys.iter().enumerate() {
                    node.write_mem(base + j as u32, Word::int(key as i32));
                }
            }
        }
        Split {
            nodes,
            net,
            cycle: 0,
            pending: Vec::new(),
        }
    }

    /// Steps `cycles` cycles. Three clock reads per cycle split the time
    /// into deliver, tick and step; every [`CHUNK`] cycles the totals are
    /// recorded as one `chunk` span with three aggregated children, laid
    /// end to end from the chunk's start (their durations are measured,
    /// their positions inside the chunk are not).
    pub fn run(&mut self, cycles: u64, spans: &mut Spans, workload: &'static str) {
        let mut left = cycles;
        while left > 0 {
            let n = left.min(CHUNK);
            left -= n;
            let start_ns = spans.now_ns();
            let [deliver, tick, step] = self.run_chunk(n);
            let end_ns = spans.now_ns();
            let chunk = spans.record("chunk", workload, start_ns, end_ns, spans.current());
            let mut at = start_ns;
            for (name, ns) in [
                ("mdp.deliver", deliver),
                ("mdp.tick", tick),
                ("net.step", step),
            ] {
                spans.record(name, workload, at, at + ns, Some(chunk));
                at += ns;
            }
        }
    }

    /// Runs `n` cycles; returns nanoseconds spent in `[deliver, tick, step]`.
    fn run_chunk(&mut self, n: u64) -> [u64; 3] {
        let mut phase = [0u64; 3];
        let mut mark = Instant::now();
        let mut lap = |slot: &mut u64| {
            let now = Instant::now();
            *slot += (now - mark).as_nanos() as u64;
            mark = now;
        };
        for _ in 0..n {
            let now = self.cycle;
            // 1. Pump ejection FIFOs into message queues. Only nodes the
            //    network reports as pending can have words; visiting them
            //    in ascending id order matches a scan of every node.
            self.pending.clear();
            self.pending.extend(self.net.pending_nodes());
            for &id in &self.pending {
                let node = &mut self.nodes[id.index()];
                for priority in MsgPriority::ALL {
                    while let Some((word, trace)) = self.net.delivered_front_traced(id, priority) {
                        if !node.deliver_traced(priority, word, trace, now) {
                            break; // queue full: backpressure
                        }
                        self.net.pop_delivered(id, priority);
                    }
                }
            }
            lap(&mut phase[0]);
            // 2. Execute.
            for node in &mut self.nodes {
                let mut port = Port {
                    net: &mut self.net,
                    node: node.id(),
                };
                node.tick(now, &mut port);
            }
            lap(&mut phase[1]);
            // 3. Move the network (and generate traffic, if planned).
            self.net.step();
            lap(&mut phase[2]);
            self.cycle += 1;
        }
        phase
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The same snapshot `JMachine::stats` gives.
    pub fn stats(&self) -> MachineStats {
        let mut nodes = NodeStats::default();
        for node in &self.nodes {
            nodes.merge(node.stats());
        }
        MachineStats {
            cycles: self.cycle,
            nodes,
            net: self.net.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use crate::workloads::Stop;
    use jm_isa::node::MeshDims;
    use jm_machine::{Engine, MachineConfig, TrafficPattern, TrafficSpec};

    /// Steps `spec` for `cycles` on the split stepper and on `JMachine`
    /// under both sequential engines; all three must agree on every counter.
    fn assert_split_equals_machine(spec: Spec, cycles: u64) {
        let mut split = Split::new(&spec);
        let mut spans = Spans::new();
        split.run(cycles, &mut spans, "test");
        let stats = split.stats();
        assert_eq!(stats.cycles, cycles);
        assert!(stats.net.delivered_msgs > 0, "the run moved no messages");
        for engine in [Engine::Naive, Engine::Event] {
            let mut m = spec.clone().engine(engine).machine();
            m.run(cycles);
            assert_eq!(stats, m.stats(), "split stepper diverged from {engine:?}");
        }
    }

    #[test]
    fn exchange_on_a_4x4x4_mesh_matches_the_machine() {
        let spec = Spec {
            program: programs::exchange(4, 20, 12_352),
            config: MachineConfig::with_dims(MeshDims::new(4, 4, 4)).start(StartPolicy::AllNodes),
            stop: Stop::Cycles(3_000),
            radix: None,
        };
        // An uneven count, so the last chunk is a short one.
        assert_split_equals_machine(spec, 3_000);
    }

    #[test]
    fn generated_traffic_on_a_4x4x4_mesh_matches_the_machine() {
        let program = programs::sink();
        let traffic = TrafficSpec::new(7)
            .pattern(TrafficPattern::UniformRandom)
            .load(450_000)
            .msg_words(4)
            .handler(program.handler("sink"));
        let spec = Spec {
            program,
            config: MachineConfig::with_dims(MeshDims::new(4, 4, 4))
                .start(StartPolicy::None)
                .traffic(traffic),
            stop: Stop::Cycles(2_500),
            radix: None,
        };
        assert_split_equals_machine(spec, 2_500);
    }

    #[test]
    fn chunks_are_covered_by_their_phases() {
        let spec = Spec {
            program: programs::exchange(4, 20, 1),
            config: MachineConfig::with_dims(MeshDims::new(4, 4, 4)).start(StartPolicy::AllNodes),
            stop: Stop::Cycles(2_100),
            radix: None,
        };
        let mut split = Split::new(&spec);
        let mut spans = Spans::new();
        let ((), root) = spans.time("split", "test", |s| split.run(2_100, s, "test"));
        // 2 100 cycles are two full chunks and a short one.
        let phases: u64 = ["mdp.deliver", "mdp.tick", "net.step"]
            .iter()
            .map(|name| spans.total_ns(root, name))
            .sum();
        let chunks = spans.total_ns(root, "chunk");
        assert!(phases <= chunks && chunks <= spans.duration_ns(root));
        assert_eq!(
            spans.total_self_ns(root, "chunk"),
            chunks - phases,
            "a chunk's self time is what its phases leave"
        );
    }
}
