//! A node's architectural state as plain data, and its one fold.
//!
//! [`NodeState`] is what every engine must agree on at a cycle boundary:
//! what changes what a later cycle of the node does. Host state stays
//! out — statistics, tracing, the handler-slot attribution cache, a
//! stretch's checkpoint, which pages memory has allocated, and where a
//! queue's ring has grown to. A running handler's message is its queue's
//! head, so its length is read from the head header, not stored.
//! [`NodeState::fold`] writes the bytes the replay log's checkpoints hash.

use crate::node::{MdpNode, NodeError};
use jm_isa::consts::EMEM_BASE;
use jm_isa::instr::StatClass;
use jm_isa::reg::RegBank;
use jm_isa::word::Word;
use jm_trace::Fnv1a;

/// One node's architectural state at a cycle `at`
/// ([`MdpNode::arch_state`]). A per-thread field is indexed by
/// `Priority::index`: background, P0, P1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeState {
    /// Per thread, its register bank: `R0`–`R3`, `A0`–`A3` and the IP.
    pub regs: [RegBank; 3],
    /// Per thread, the staging frame a fault saved its registers to
    /// (`R0`–`R3`, `A0`–`A3`, IP).
    pub staging: [[Word; 9]; 3],
    /// Per thread, whether it runs.
    pub running: [bool; 3],
    /// Per thread, the class its cycles are counted in.
    pub class: [StatClass; 3],
    /// Per thread, its entry IP: its row of the per-handler counts.
    pub handler: [u32; 3],
    /// Per thread, the words its `SEND`s composed that are not yet
    /// launched.
    pub compose: [Vec<Word>; 3],
    /// Per thread, whether its composed message waits to commit (retried
    /// across send faults).
    pub commit_pending: [bool; 3],
    /// Per thread, whether it is inside a fault handler.
    pub in_fault: [bool; 3],
    /// Per message queue, the ring slot of its head, which programs see
    /// through the `A3` queue descriptor.
    pub queue_heads: [u32; 2],
    /// Per message queue, its words from head to tail.
    pub queues: [Vec<Word>; 2],
    /// Per message queue, the wire length of the message its handler runs
    /// on — the queue's head, a checksum trailer included — or `None`
    /// where no handler runs.
    pub running_msgs: [Option<u32>; 2],
    /// Memory's non-NIL words in address order, the name table's
    /// included.
    pub mem: Vec<(u32, Word)>,
    /// The fault IP special.
    pub fip: u32,
    /// The fault value special.
    pub fval: Word,
    /// The fault address special.
    pub faddr: Word,
    /// Cycles from `at` until the node can act again: a parked node's
    /// stale stamp reads 0, like a scanned one's.
    pub busy_for: u64,
    /// The node halted.
    pub halted: bool,
    /// The error the node stopped on.
    pub error: Option<NodeError>,
}

impl MdpNode {
    /// The node's architectural state at cycle `at`.
    pub fn arch_state(&self, at: u64) -> NodeState {
        let threads = &self.threads;
        NodeState {
            regs: threads.each_ref().map(|t| t.regs.clone()),
            staging: threads.each_ref().map(|t| t.staging),
            running: threads.each_ref().map(|t| t.running),
            class: threads.each_ref().map(|t| t.class),
            handler: threads.each_ref().map(|t| t.handler),
            compose: threads.each_ref().map(|t| t.compose.clone()),
            commit_pending: threads.each_ref().map(|t| t.commit_pending),
            in_fault: threads.each_ref().map(|t| t.in_fault),
            queue_heads: self.queues.each_ref().map(|q| q.head_slot() as u32),
            queues: self.queues.each_ref().map(|q| q.words().collect()),
            running_msgs: [0, 1].map(|q| self.running_msg_words(q)),
            mem: self.mem.words().collect(),
            fip: self.fip,
            fval: self.fval,
            faddr: self.faddr,
            busy_for: self.busy_until.saturating_sub(at),
            halted: self.halted,
            error: self.error.clone(),
        }
    }
}

impl NodeState {
    /// Folds the state into `h` as four FNV-1a digests: registers, queues,
    /// memory, control.
    pub fn fold(&self, h: &mut Fnv1a) {
        let mut d = Fnv1a::new();
        for regs in &self.regs {
            regs.r.iter().chain(&regs.a).for_each(|&w| d.write_word(w));
            d.write_u32(regs.ip);
        }
        self.staging.iter().flatten().for_each(|&w| d.write_word(w));
        h.write_u64(d.finish());

        let mut d = Fnv1a::new();
        for (&head, words) in self.queue_heads.iter().zip(&self.queues) {
            d.write_u32(head);
            d.write_u32(words.len() as u32);
            words.iter().for_each(|&w| d.write_word(w));
        }
        for msg in self.running_msgs {
            d.write_u8(u8::from(msg.is_some()));
            msg.inspect(|&words| d.write_u32(words));
        }
        h.write_u64(d.finish());

        h.write_u64(self.mem_digest());

        let mut d = Fnv1a::new();
        d.write(&self.running.map(u8::from));
        d.write(&self.class.map(|c| c.index() as u8));
        self.handler.iter().for_each(|&ip| d.write_u32(ip));
        for words in &self.compose {
            d.write_u32(words.len() as u32);
            words.iter().for_each(|&w| d.write_word(w));
        }
        d.write(&self.commit_pending.map(u8::from));
        d.write(&self.in_fault.map(u8::from));
        d.write_u32(self.fip);
        d.write_word(self.fval);
        d.write_word(self.faddr);
        d.write_u64(self.busy_for);
        d.write(&[u8::from(self.halted), u8::from(self.error.is_some())]);
        if let Some(e) = &self.error {
            d.write(format!("{e:?}").as_bytes());
        }
        h.write_u64(d.finish());
    }

    /// The memory's digest: its words in address order, a run of NILs as
    /// `0xFF` and the run's length (no word's tag byte is `0xFF`). A run
    /// closes at the end of the SRAM, and one that reaches the end of
    /// memory folds as nothing.
    fn mem_digest(&self) -> u64 {
        let mut d = Fnv1a::new();
        let nils = |d: &mut Fnv1a, from: u32, to: u32| {
            if to > from {
                d.write_u8(0xFF);
                d.write_u32(to - from);
            }
        };
        let mut next = 0;
        for &(addr, w) in &self.mem {
            if next < EMEM_BASE && addr >= EMEM_BASE {
                nils(&mut d, next, EMEM_BASE);
                next = EMEM_BASE;
            }
            nils(&mut d, next, addr);
            d.write_word(w);
            next = addr + 1;
        }
        nils(&mut d, next, EMEM_BASE);
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MdpConfig;
    use jm_asm::Program;
    use jm_isa::consts::MEM_WORDS;
    use jm_isa::instr::MsgPriority;
    use jm_isa::node::{MeshDims, NodeId};
    use jm_prng::Prng;
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

    fn hash(s: &NodeState) -> u64 {
        let mut h = Fnv1a::new();
        s.fold(&mut h);
        h.finish()
    }

    /// The memory digest of a flat image, kept as the oracle: the SRAM
    /// words, then the DRAM words, NIL runs collapsed, the SRAM's trailing
    /// run closed at its end and the DRAM's trailing run left out.
    fn flat_digest(image: &[Word]) -> u64 {
        fn fold_words_rle(h: &mut Fnv1a, words: &[Word], close: bool) {
            let mut run: u32 = 0;
            for &w in words {
                if w == Word::NIL {
                    run += 1;
                    continue;
                }
                if run > 0 {
                    h.write_u8(0xFF);
                    h.write_u32(run);
                    run = 0;
                }
                h.write_word(w);
            }
            if close && run > 0 {
                h.write_u8(0xFF);
                h.write_u32(run);
            }
        }
        let (sram, dram) = image.split_at(EMEM_BASE as usize);
        let mut h = Fnv1a::new();
        fold_words_rle(&mut h, sram, true);
        fold_words_rle(&mut h, dram, false);
        h.finish()
    }

    #[test]
    fn components_are_stable_and_state_sensitive() {
        let (a, b) = (node(), node());
        let before = a.arch_state(0);
        assert_eq!(before, b.arch_state(0));
        assert_eq!(hash(&before), hash(&b.arch_state(0)));

        // A memory write moves only the memory.
        let mut c = node();
        c.write_mem(100, Word::int(7));
        let after = c.arch_state(0);
        assert_eq!(after.mem, [(100, Word::int(7))]);
        let mem = before.mem.clone();
        assert_eq!(
            NodeState {
                mem,
                ..after.clone()
            },
            before
        );
        assert_ne!(hash(&after), hash(&before));

        // A queued word moves only the queues.
        let mut d = node();
        d.deliver_traced(MsgPriority::P0, Word::int(1), jm_isa::TraceId::NONE, 0);
        let queued = d.arch_state(0);
        assert_eq!(queued.queues, [vec![Word::int(1)], vec![]]);
        let queues = before.queues.clone();
        assert_eq!(
            NodeState {
                queues,
                ..queued.clone()
            },
            before
        );
        assert_ne!(hash(&queued), hash(&before));
    }

    #[test]
    fn busy_until_hashes_relative_to_checkpoint() {
        let mut a = node();
        let mut b = node();
        a.busy_until = 100;
        b.busy_until = 50;
        // Both stamps are in the past at their respective checkpoints, so
        // the relative state (zero) agrees.
        assert_eq!(a.arch_state(100), b.arch_state(50));
        // A genuinely pending stamp differs.
        a.busy_until = 105;
        assert_eq!(a.arch_state(100).busy_for, 5);
        assert_ne!(hash(&a.arch_state(100)), hash(&b.arch_state(50)));
    }

    #[test]
    fn queue_hash_tracks_logical_order_across_wraparound() {
        let mut a = node();
        a.queues[0].push(Word::int(1));
        a.queues[0].push(Word::int(2));
        // Same logical contents at a different ring position differ only
        // through the architecturally visible head slot.
        let mut b = node();
        b.queues[0].push(Word::int(9));
        b.queues[0].pop_msg(1);
        b.queues[0].push(Word::int(1));
        b.queues[0].push(Word::int(2));
        let (a, b) = (a.arch_state(0), b.arch_state(0));
        assert_eq!(a.queues, b.queues);
        assert_eq!((a.queue_heads[0], b.queue_heads[0]), (0, 1));
        assert_ne!(hash(&a), hash(&b), "head slot is visible via A3");
    }

    /// Random words crowded onto the SRAM's end and memory's two ends: the
    /// memory digest equals the flat image's.
    #[test]
    fn the_memory_digest_is_the_flat_image_s() {
        const EDGES: [u32; 4] = [0, EMEM_BASE - 1, EMEM_BASE, MEM_WORDS - 1];
        for seed in 0..16 {
            let mut rng = Prng::from_label("state-memory", seed);
            let mut n = node();
            let mut flat = vec![Word::NIL; MEM_WORDS as usize];
            for step in 0..60 {
                let edge = EDGES[rng.range_usize(0, EDGES.len())];
                let addr = edge.saturating_add_signed(rng.range_i32(-2, 3));
                let addr = addr.min(MEM_WORDS - 1);
                let word = [Word::NIL, Word::int(rng.range_i32(-3, 3))][rng.range_usize(0, 2)];
                n.write_mem(addr, word);
                flat[addr as usize] = word;
                let digest = n.arch_state(0).mem_digest();
                assert_eq!(digest, flat_digest(&flat), "seed {seed} step {step}");
            }
        }
    }
}
