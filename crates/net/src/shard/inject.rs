//! How traffic enters a shard: whole-message commits from the nodes and
//! from the synthetic-traffic generator, with the fault plan's hooks on the
//! injection side (node-down stalls, checksum trailers).

use super::NetShard;
use crate::config::INJECT_FIFO;
use crate::flit::Message;
use jm_fault::{checksum_words, port};
use jm_isa::instr::MsgPriority;
use jm_isa::node::{NodeId, RouteWord};
use jm_isa::tag::Tag;
use jm_isa::word::{MsgHeader, Word};
use jm_isa::TraceId;
use jm_trace::{EventKind, FaultEvent};

/// Result of offering one message to the injection port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectResult {
    /// The message was accepted.
    Accepted,
    /// The injection FIFO is full — on the MDP this surfaces as a *send
    /// fault* in the executing thread, which retries (§4.3.2).
    Stall,
    /// Framing error: the first word of a message must be a `route` word
    /// naming an in-range destination, and a message must contain at least
    /// one payload word.
    BadRoute,
}

impl NetShard {
    /// Atomically offers a whole message to a node's injection port at
    /// cycle `cycle`: the route word followed by at least one payload word.
    /// Either every word is accepted or none is (the network interface composes messages in a
    /// per-thread buffer and launches them whole, so a preempting handler
    /// can never interleave words into an open message).
    pub fn commit_msg(
        &mut self,
        cycle: u64,
        node: NodeId,
        priority: MsgPriority,
        words: &[Word],
    ) -> InjectResult {
        let dims = self.config.dims;
        let vnet = priority.index();
        // Framing checks first.
        if words.len() < 2 || words[0].tag() != Tag::Route {
            return InjectResult::BadRoute;
        }
        let dest = RouteWord::from_word(words[0]).dest;
        if dest.x >= dims.x || dest.y >= dims.y || dest.z >= dims.z {
            return InjectResult::BadRoute;
        }
        let l = self.local(node);
        if self.node_down_stall(node, cycle) {
            return InjectResult::Stall;
        }
        // Fault-injection runs append a checksum trailer word so the MDP
        // can validate the payload at dispatch. The header's length field
        // is untouched; the trailer travels at a known offset (header len)
        // and is stripped by the dispatch machinery.
        let mut checked;
        let words: &[Word] = match &self.fault {
            Some(f) if f.checksums() => {
                checked = Vec::with_capacity(words.len() + 1);
                checked.extend_from_slice(words);
                checked.push(checksum_words(&words[1..]));
                &checked
            }
            _ => words,
        };
        let needed = 2 * words.len();
        if self.law.on {
            // The capacity check reads the FIFO's real occupancy.
            self.materialize_queued(l, cycle);
        }
        if self.arena.len(l, vnet, port::INJECT) + needed > INJECT_FIFO {
            return InjectResult::Stall;
        }
        self.stats.injected_msgs += 1;
        let trace = match &mut self.tracer {
            Some(tracer) => {
                // The id is a pure function of (source node, that node's
                // injection ordinal), so every shard cut and engine assigns
                // the same one. A source past its share of the flit's 32-bit
                // field sends the message untraced: the inject event (with
                // the null id) is all the trace knows of it.
                let ordinal = &mut self.traced_msgs[l];
                let wide = u64::from(*ordinal) * u64::from(dims.nodes()) + u64::from(node.0) + 1;
                let id = match u32::try_from(wide) {
                    Ok(id) => {
                        *ordinal += 1;
                        TraceId(u64::from(id))
                    }
                    Err(_) => TraceId::NONE,
                };
                tracer.emit(
                    cycle,
                    EventKind::Inject {
                        id,
                        src: node,
                        dst: dims.id(dest),
                        priority,
                        words: words.len() as u32 - 1,
                    },
                );
                id
            }
            None => TraceId::NONE,
        };
        let msg = Message::new(dest, words.len(), cycle, trace);
        if self.law.on {
            self.launch(cycle, l, vnet, msg, &words[1..]);
        } else {
            self.enqueue(l, vnet, msg, &words[1..]);
        }
        self.in_flight += needed as u64;
        InjectResult::Accepted
    }

    /// Appends a message — its record and payload words — to local router
    /// `l`'s injection FIFO.
    #[inline]
    pub(super) fn enqueue(&mut self, l: usize, vnet: usize, msg: Message, payload: &[Word]) {
        self.arena.commit(l, vnet, msg, payload);
        self.active.insert(l);
    }

    /// Offers every message the traffic plan generates this cycle to the
    /// local injection ports, in ascending node order. Refusals (FIFO
    /// backpressure or a node-down fault) are counted and *not* retried:
    /// the Bernoulli process models independent offered load, and because
    /// injection-FIFO occupancy at this point in the cycle is engine-
    /// independent, the drop pattern is too.
    pub(super) fn inject_traffic(&mut self, cycle: u64) {
        let Some(plan) = self.traffic else { return };
        if !plan.in_window(cycle) {
            return;
        }
        let dims = self.config.dims;
        let payload_words = plan.msg_words();
        for l in 0..self.routers.len() {
            let node = (self.base + l) as u32;
            if !plan.fires(node, cycle) {
                continue;
            }
            self.stats.traffic.offered_msgs += 1;
            let dest = plan.dest(node, cycle, dims);
            let mut words = std::mem::take(&mut self.traffic_words);
            words.clear();
            words.push(RouteWord::new(dims.coord(dest)).to_word());
            words.push(MsgHeader::new(plan.handler_ip(), payload_words).to_word());
            for k in 1..payload_words {
                words.push(Word::int(k as i32));
            }
            match self.commit_msg(cycle, NodeId(node), MsgPriority::P0, &words) {
                InjectResult::Accepted => self.stats.traffic.accepted_msgs += 1,
                InjectResult::Stall => self.stats.traffic.dropped_msgs += 1,
                InjectResult::BadRoute => unreachable!("generated message misframed"),
            }
            self.traffic_words = words;
        }
    }

    /// Whether `node`'s interface is down this cycle; counts the refusal
    /// (and traces it) so degradation curves can attribute send stalls.
    fn node_down_stall(&mut self, node: NodeId, cycle: u64) -> bool {
        match &self.fault {
            Some(f) if f.node_down(node.0, cycle) => {
                self.stats.faults.inject_stalls += 1;
                if let Some(tracer) = &mut self.tracer {
                    tracer.emit(
                        cycle,
                        EventKind::Fault {
                            id: TraceId::NONE,
                            node,
                            what: FaultEvent::SendStall,
                        },
                    );
                }
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use jm_isa::node::{Coord, MeshDims};
    use jm_trace::MachineTrace;

    #[test]
    fn a_source_past_the_id_space_injects_untraced() {
        let dims = MeshDims::new(2, 1, 1);
        let mut shard = NetShard::new(NetConfig::new(dims), 0, 2, 0, 0);
        shard.tracer = Some(Box::default());
        // Node 0's last id that fits the flit's 32 bits: ordinal × 2 + 1.
        shard.traced_msgs[0] = u32::MAX / 2;
        let msg = [
            RouteWord::new(Coord::new(1, 0, 0)).to_word(),
            MsgHeader::new(1, 1).to_word(),
        ];
        for _ in 0..3 {
            let sent = shard.commit_msg(0, NodeId(0), MsgPriority::P0, &msg);
            assert_eq!(sent, InjectResult::Accepted);
        }
        assert_eq!(
            shard.traced_msgs[0],
            u32::MAX / 2 + 1,
            "the ordinal wrapped"
        );
        for cycle in 0.. {
            if shard.is_idle() {
                break;
            }
            shard.step_cycle(cycle, None, None);
            while shard.pop_delivered(NodeId(1), MsgPriority::P0).is_some() {}
        }
        assert_eq!(
            shard.stats().delivered_msgs,
            3,
            "an untraced message is lost"
        );
        let mut trace = MachineTrace::default();
        trace.merge(shard.tracer.as_deref_mut(), ..);
        // One message has the last id; the other two have none — not a
        // truncated one — and are counted.
        let msgs = trace.messages();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].id, TraceId(u64::from(u32::MAX)));
        assert_eq!((msgs[0].hops, msgs[0].deliver.is_some()), (1, true));
        let ids = trace.events.iter().map(|e| e.kind.id());
        assert!(ids
            .clone()
            .all(|id| id == msgs[0].id || id == TraceId::NONE));
        assert_eq!(ids.filter(|id| *id == TraceId::NONE).count(), 2);
        assert!(jm_trace::summary_json(&trace).contains(r#""untraced": 2"#));
        assert!(trace
            .breakdown_table()
            .contains("2 more message(s) injected untraced"));
    }
}
