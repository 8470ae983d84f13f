//! Deterministic per-node state digests for the replay layer.
//!
//! The replay log stores one FNV-1a digest per node per checkpoint, split
//! into four architectural components so a divergence report can name the
//! part of the node that first disagreed. The fold deliberately excludes
//! observability state that differs between cycle-exact engines without
//! being architecturally visible: statistics, tracing, and the
//! handler-slot attribution cache. A running handler's message is its
//! queue's head, so its length is read from the head header, not stored.
//! It also folds `busy_until` relative to the checkpoint cycle, because a
//! parked event-driven node legitimately carries a stale absolute value.

use crate::node::MdpNode;
use jm_isa::word::Word;
use jm_trace::Fnv1a;

/// Folds one tagged word (tag bits then payload bits).
pub(crate) fn fold_word(h: &mut Fnv1a, w: Word) {
    h.write_u8(w.tag().bits());
    h.write_u32(w.bits());
}

impl MdpNode {
    /// The four per-node component digests at checkpoint cycle `at`, in a
    /// fixed reporting order: register state, message queues, memory, and
    /// control (scheduler/fault) state; the name table is memory.
    pub fn state_components(&self, at: u64) -> [(&'static str, u64); 4] {
        [
            ("regs", self.hash_regs()),
            ("queues", self.hash_queues()),
            ("mem", self.hash_mem()),
            ("ctl", self.hash_ctl(at)),
        ]
    }

    /// Digest of the three threads' register banks, then their staging
    /// frames.
    fn hash_regs(&self) -> u64 {
        let mut h = Fnv1a::new();
        for t in &self.threads {
            for w in t.regs.r.iter().chain(&t.regs.a) {
                fold_word(&mut h, *w);
            }
            h.write_u32(t.regs.ip);
        }
        for t in &self.threads {
            for w in t.staging {
                fold_word(&mut h, w);
            }
        }
        h.finish()
    }

    /// Digest of both hardware message queues and the message each
    /// handler runs on — its queue's head, folded as `1` and its wire
    /// length, or `0` where no handler runs (high-water marks and refusal
    /// counters are statistics and stay out).
    fn hash_queues(&self) -> u64 {
        let mut h = Fnv1a::new();
        for q in &self.queues {
            q.fold_state(&mut h);
        }
        for q in 0..2 {
            match self.running_msg_words(q) {
                Some(words) => {
                    h.write_u8(1);
                    h.write_u32(words);
                }
                None => h.write_u8(0),
            }
        }
        h.finish()
    }

    /// Digest of the memory's words, the name table's included.
    fn hash_mem(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.mem.fold_state(&mut h);
        h.finish()
    }

    /// Digest of scheduler, fault, and composition state.
    /// `busy_until` is folded relative to `at` so a parked event-driven
    /// node (whose absolute stamp is stale but in the past) hashes equal
    /// to a scanned one.
    fn hash_ctl(&self, at: u64) -> u64 {
        let mut h = Fnv1a::new();
        for t in &self.threads {
            h.write_u8(u8::from(t.running));
        }
        for t in &self.threads {
            h.write_u8(t.class.index() as u8);
        }
        for t in &self.threads {
            h.write_u32(t.handler);
        }
        for t in &self.threads {
            h.write_u32(t.compose.len() as u32);
            for w in &t.compose {
                fold_word(&mut h, *w);
            }
        }
        for t in &self.threads {
            h.write_u8(u8::from(t.commit_pending));
        }
        for t in &self.threads {
            h.write_u8(u8::from(t.in_fault));
        }
        h.write_u32(self.fip);
        fold_word(&mut h, self.fval);
        fold_word(&mut h, self.faddr);
        h.write_u64(self.busy_until.saturating_sub(at));
        h.write_u8(u8::from(self.halted));
        match &self.error {
            Some(e) => {
                h.write_u8(1);
                h.write(format!("{e:?}").as_bytes());
            }
            None => h.write_u8(0),
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MdpConfig;
    use jm_asm::Program;
    use jm_isa::instr::MsgPriority;
    use jm_isa::node::{MeshDims, NodeId};
    use std::sync::Arc;

    fn node() -> MdpNode {
        MdpNode::new(
            NodeId(0),
            MeshDims::new(2, 2, 1),
            Arc::new(Program::default()),
            MdpConfig::default(),
            false,
        )
    }

    #[test]
    fn components_are_stable_and_state_sensitive() {
        let a = node();
        let b = node();
        assert_eq!(a.state_components(0), b.state_components(0));

        // A memory write moves only the mem component.
        let mut c = node();
        c.write_mem(100, Word::int(7));
        let before = a.state_components(0);
        let after = c.state_components(0);
        assert_eq!(before[0], after[0]);
        assert_eq!(before[1], after[1]);
        assert_ne!(before[2].1, after[2].1);
        assert_eq!(before[3], after[3]);

        // A queued word moves only the queues component.
        let mut d = node();
        d.deliver_traced(MsgPriority::P0, Word::int(1), jm_isa::TraceId::NONE, 0);
        let queued = d.state_components(0);
        assert_eq!(before[0], queued[0]);
        assert_ne!(before[1].1, queued[1].1);
        assert_eq!(before[2], queued[2]);
    }

    #[test]
    fn busy_until_hashes_relative_to_checkpoint() {
        let mut a = node();
        let mut b = node();
        a.busy_until = 100;
        b.busy_until = 50;
        // Both stamps are in the past at their respective checkpoints, so
        // the relative fold (zero) agrees.
        assert_eq!(a.state_components(100), b.state_components(50));
        // A genuinely pending stamp differs.
        a.busy_until = 105;
        assert_ne!(a.state_components(100)[3].1, b.state_components(50)[3].1);
    }

    #[test]
    fn queue_hash_tracks_logical_order_across_wraparound() {
        let mut h1 = Fnv1a::new();
        let mut q1 = crate::queue::MsgQueue::new(4);
        q1.push(Word::int(1));
        q1.push(Word::int(2));
        q1.fold_state(&mut h1);

        // Same logical contents at a different ring position hash
        // differently only through the architecturally visible head slot.
        let mut q2 = crate::queue::MsgQueue::new(4);
        q2.push(Word::int(9));
        q2.pop_msg(1);
        q2.push(Word::int(1));
        q2.push(Word::int(2));
        let mut h2 = Fnv1a::new();
        q2.fold_state(&mut h2);
        assert_ne!(h1.finish(), h2.finish(), "head slot is visible via A3");
    }
}
