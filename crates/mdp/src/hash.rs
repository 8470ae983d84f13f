//! Deterministic per-node state digests for the replay layer.
//!
//! The replay log stores one FNV-1a digest per node per checkpoint, split
//! into four architectural components so a divergence report can name the
//! part of the node that first disagreed. The fold deliberately excludes
//! observability state that differs between cycle-exact engines without
//! being architecturally visible: statistics, tracers, and the
//! handler-slot attribution cache. It also
//! folds `busy_until` relative to the checkpoint cycle, because a parked
//! event-driven node legitimately carries a stale absolute value.

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
    /// control (scheduler/fault/translation) state.
    pub fn state_components(&self, at: u64) -> [(&'static str, u64); 4] {
        [
            ("regs", self.hash_regs()),
            ("queues", self.hash_queues()),
            ("mem", self.hash_mem()),
            ("ctl", self.hash_ctl(at)),
        ]
    }

    /// Digest of the triple-banked register file and the staging frames.
    fn hash_regs(&self) -> u64 {
        let mut h = Fnv1a::new();
        for p in [
            jm_isa::reg::Priority::Background,
            jm_isa::reg::Priority::P0,
            jm_isa::reg::Priority::P1,
        ] {
            let bank = self.regs.bank(p);
            for w in bank.r.iter().chain(bank.a.iter()) {
                fold_word(&mut h, *w);
            }
            h.write_u32(bank.ip);
        }
        for frame in &self.staging {
            for w in frame {
                fold_word(&mut h, *w);
            }
        }
        h.finish()
    }

    /// Digest of both hardware message queues and the per-priority message
    /// contexts (high-water marks and refusal counters are statistics and
    /// stay out).
    fn hash_queues(&self) -> u64 {
        let mut h = Fnv1a::new();
        for q in &self.queues {
            q.fold_state(&mut h);
        }
        for ctx in &self.msg_ctx {
            match ctx {
                Some(c) => {
                    h.write_u8(1);
                    h.write_u32(c.len);
                }
                None => h.write_u8(0),
            }
        }
        h.finish()
    }

    /// Digest of internal SRAM plus every allocated DRAM page.
    fn hash_mem(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.mem.fold_state(&mut h);
        h.finish()
    }

    /// Digest of scheduler, fault, composition, and translation state.
    /// `busy_until` is folded relative to `at` so a parked event-driven
    /// node (whose absolute stamp is stale but in the past) hashes equal
    /// to a scanned one.
    fn hash_ctl(&self, at: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u8(u8::from(self.bg_runnable));
        h.write_u8(u8::from(self.active[0]));
        h.write_u8(u8::from(self.active[1]));
        for c in self.class {
            h.write_u8(c.index() as u8);
        }
        for ip in self.cur_handler {
            h.write_u32(ip);
        }
        for buf in &self.compose {
            h.write_u32(buf.len() as u32);
            for w in buf {
                fold_word(&mut h, *w);
            }
        }
        for b in self.commit_pending {
            h.write_u8(u8::from(b));
        }
        for b in self.in_fault {
            h.write_u8(u8::from(b));
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
        self.xlate.fold_state(&mut h);
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

    #[test]
    fn xlate_hash_includes_insertion_order() {
        let mut a = crate::xlate::XlateCache::new(4);
        a.enter(Word::sym(1), Word::int(10));
        a.enter(Word::sym(2), Word::int(20));
        let mut b = crate::xlate::XlateCache::new(4);
        b.enter(Word::sym(2), Word::int(20));
        b.enter(Word::sym(1), Word::int(10));
        let (mut ha, mut hb) = (Fnv1a::new(), Fnv1a::new());
        a.fold_state(&mut ha);
        b.fold_state(&mut hb);
        // Insertion order determines future evictions, so it is state.
        assert_ne!(ha.finish(), hb.finish());
    }
}
