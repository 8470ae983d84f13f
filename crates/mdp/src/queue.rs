//! The hardware message queues.
//!
//! Arriving messages are buffered in a ring of words carved from on-chip
//! SRAM. Words stream in from the network at up to 0.5 words/cycle; a task
//! is dispatched as soon as the header word of the queue-head message is
//! present, and handler reads of argument words that have not arrived yet
//! stall the processor (§2.1). A full queue refuses delivery, which
//! backpressures the network (§5 discusses the consequences).

use jm_isa::tag::Tag;
use jm_isa::word::{MsgHeader, Word};

/// One priority level's message queue.
///
/// The ring is stored only as far as it has been written: `buf` starts
/// empty and the first pass round the ring pushes, after which words go
/// into slots an earlier pass wrote. Nothing reads outside
/// `[head, head + len)`, so the words never stored are never seen.
#[derive(Debug, Clone)]
pub(crate) struct MsgQueue {
    /// The ring's slots written so far: `0..buf.len()`.
    buf: Vec<Word>,
    /// Ring size in words.
    capacity: usize,
    /// Ring index of the first word of the head message.
    head: usize,
    /// Words currently stored.
    len: usize,
    /// High-water mark of `len`.
    hwm: usize,
    /// Cycles during which a delivery was refused (overflow pressure).
    refusals: u64,
}

impl MsgQueue {
    /// Creates an empty queue of `capacity` words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: u32) -> MsgQueue {
        assert!(capacity > 0, "queue capacity must be positive");
        MsgQueue {
            buf: Vec::new(),
            capacity: capacity as usize,
            head: 0,
            len: 0,
            hwm: 0,
            refusals: 0,
        }
    }

    /// Queue capacity in words.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ring words stored so far (the storage the queue has grown to).
    pub(crate) fn stored_words(&self) -> usize {
        self.buf.len()
    }

    /// Words currently buffered.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of buffered words.
    pub(crate) fn high_water(&self) -> usize {
        self.hwm
    }

    /// Number of refused deliveries (queue-full backpressure events).
    pub(crate) fn refusals(&self) -> u64 {
        self.refusals
    }

    /// Accepts one arriving word, or refuses it if the queue is full.
    pub(crate) fn push(&mut self, word: Word) -> bool {
        if self.len == self.capacity {
            self.refusals += 1;
            return false;
        }
        // Slots fill in ring order, so the next one is either stored or
        // the first not yet stored.
        let slot = (self.head + self.len) % self.capacity;
        if slot == self.buf.len() {
            self.buf.push(word);
        } else {
            self.buf[slot] = word;
        }
        self.len += 1;
        self.hwm = self.hwm.max(self.len);
        true
    }

    /// The word at `offset` from the head message's first word, if it has
    /// arrived.
    pub(crate) fn get(&self, offset: usize) -> Option<Word> {
        if offset < self.len {
            Some(self.buf[(self.head + offset) % self.capacity])
        } else {
            None
        }
    }

    /// Ring slot index of the head message's first word (used to build the
    /// `A3` descriptor into the queue window).
    pub(crate) fn head_slot(&self) -> usize {
        self.head
    }

    /// Reads the word in ring slot `slot` if it currently holds an arrived
    /// word.
    pub(crate) fn read_slot(&self, slot: usize) -> Option<Word> {
        let cap = self.capacity;
        let offset = (slot + cap - self.head) % cap;
        self.get(offset)
    }

    /// The head message's header, if its header word has arrived and is
    /// well-formed. Returns `Err(word)` if the head word is not `msg`-tagged
    /// (queue desynchronization — a machine-level error).
    pub(crate) fn header(&self) -> Option<Result<MsgHeader, Word>> {
        let word = self.get(0)?;
        if word.tag() == Tag::Msg {
            Some(Ok(MsgHeader::from_word(word)))
        } else {
            Some(Err(word))
        }
    }

    /// Folds the architecturally visible queue state into a replay digest:
    /// the head ring slot (visible to programs through the `A3` queue
    /// descriptor), the occupancy, and the buffered words in arrival order.
    /// The high-water mark and refusal counter are statistics and are
    /// excluded.
    pub(crate) fn fold_state(&self, h: &mut jm_trace::Fnv1a) {
        h.write_u32(self.head as u32);
        h.write_u32(self.len as u32);
        for offset in 0..self.len {
            let w = self.buf[(self.head + offset) % self.capacity];
            crate::hash::fold_word(h, w);
        }
    }

    /// Removes the head message (`words` long, as given by its header).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `words` words are buffered.
    pub(crate) fn pop_msg(&mut self, words: usize) {
        assert!(words <= self.len, "popping an incomplete message");
        self.head = (self.head + words) % self.capacity;
        self.len -= words;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_prng::Prng;
    use jm_trace::Fnv1a;
    use std::collections::VecDeque;

    fn hdr(ip: u32, len: u32) -> Word {
        MsgHeader::new(ip, len).to_word()
    }

    #[test]
    fn streams_and_dispatches_on_header() {
        let mut q = MsgQueue::new(8);
        assert!(q.header().is_none());
        assert!(q.push(hdr(5, 3)));
        let h = q.header().unwrap().unwrap();
        assert_eq!((h.ip, h.len), (5, 3));
        assert_eq!(q.get(1), None); // argument not yet arrived → stall
        q.push(Word::int(1));
        q.push(Word::int(2));
        assert_eq!(q.get(2), Some(Word::int(2)));
    }

    #[test]
    fn wraps_around_the_ring() {
        let mut q = MsgQueue::new(4);
        q.push(hdr(1, 2));
        q.push(Word::int(10));
        q.pop_msg(2);
        // Now head = 2; a 3-word message wraps.
        q.push(hdr(2, 3));
        q.push(Word::int(20));
        q.push(Word::int(21));
        assert_eq!(q.get(2), Some(Word::int(21)));
        assert_eq!(q.head_slot(), 2);
        assert_eq!(q.read_slot(0), Some(Word::int(21))); // wrapped slot
    }

    #[test]
    fn refuses_when_full() {
        let mut q = MsgQueue::new(2);
        assert!(q.push(hdr(1, 3)));
        assert!(q.push(Word::int(1)));
        assert!(!q.push(Word::int(2)));
        assert_eq!(q.refusals(), 1);
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn detects_desynchronized_head() {
        let mut q = MsgQueue::new(4);
        q.push(Word::int(42));
        assert!(matches!(q.header(), Some(Err(w)) if w.as_i32() == 42));
    }

    #[test]
    #[should_panic(expected = "incomplete message")]
    fn pop_requires_arrival() {
        let mut q = MsgQueue::new(4);
        q.push(hdr(1, 3));
        q.pop_msg(3);
    }

    #[test]
    fn refusal_after_wraparound() {
        // Drive the ring through a wrap, fill it to capacity, and check the
        // full queue still refuses (the wrapped fill must not fool the
        // occupancy accounting into accepting a 5th word into 4 slots).
        let mut q = MsgQueue::new(4);
        q.push(hdr(1, 3));
        q.push(Word::int(10));
        q.push(Word::int(11));
        q.pop_msg(3);
        assert!(q.is_empty());
        // head = 3: the next message occupies slots 3, 0, 1, 2 (wrapped).
        assert!(q.push(hdr(2, 4)));
        assert!(q.push(Word::int(20)));
        assert!(q.push(Word::int(21)));
        assert!(q.push(Word::int(22)));
        assert_eq!(q.len(), q.capacity());
        assert_eq!(q.head_slot(), 3);
        assert!(!q.push(Word::int(99)), "wrapped-full queue must refuse");
        assert_eq!(q.refusals(), 1);
        assert_eq!(q.get(3), Some(Word::int(22)));
        // Popping the wrapped message frees the ring again.
        q.pop_msg(4);
        assert!(q.push(Word::int(30)));
        assert_eq!(q.refusals(), 1, "refusal count is sticky, not re-counted");
    }

    #[test]
    fn read_slot_of_freed_slot_is_none() {
        let mut q = MsgQueue::new(8);
        q.push(hdr(1, 2));
        q.push(Word::int(10));
        q.push(hdr(2, 2));
        q.push(Word::int(20));
        // While the first message is live, its slots read back.
        assert_eq!(q.read_slot(0), Some(hdr(1, 2)));
        assert_eq!(q.read_slot(1), Some(Word::int(10)));
        q.pop_msg(2);
        // Slots 0 and 1 now sit *behind* the head: a stale descriptor into
        // the queue window must read as not-arrived, not as old data.
        assert_eq!(q.read_slot(0), None);
        assert_eq!(q.read_slot(1), None);
        // The surviving message's slots still read back.
        assert_eq!(q.read_slot(2), Some(hdr(2, 2)));
        assert_eq!(q.read_slot(3), Some(Word::int(20)));
    }

    fn fold(q: &MsgQueue) -> u64 {
        let mut h = Fnv1a::new();
        q.fold_state(&mut h);
        h.finish()
    }

    /// Random pushes and pops against a `VecDeque` of the buffered words
    /// and a head slot, at ring sizes 1, 3, 256 and 512, through many
    /// wraps: every accessor agrees with the model, a full ring refuses,
    /// and the storage never grows past the ring or past what was pushed.
    #[test]
    fn matches_a_deque_model() {
        for cap in [1usize, 3, 256, 512] {
            let mut rng = Prng::from_label("queue-model", cap as u64);
            let mut q = MsgQueue::new(cap as u32);
            let (mut model, mut head, mut refusals, mut pushed) = (VecDeque::new(), 0, 0, 0);
            for step in 0..40 * cap + 200 {
                // Alternate filling and draining phases two rings long,
                // so the ring both fills and empties.
                let filling = (step / (2 * cap)) % 2 == 0;
                if rng.chance(if filling { 0.9 } else { 0.2 }) {
                    let word = Word::int(step as i32);
                    let accepted = model.len() < cap;
                    assert_eq!(q.push(word), accepted, "cap {cap} step {step}");
                    if accepted {
                        model.push_back(word);
                        pushed += 1;
                    } else {
                        refusals += 1;
                    }
                } else if !model.is_empty() {
                    let words = rng.range_usize(1, model.len().min(4) + 1);
                    q.pop_msg(words);
                    model.drain(..words);
                    head = (head + words) % cap;
                }
                assert_eq!(
                    (q.len(), q.head_slot(), q.refusals()),
                    (model.len(), head, refusals)
                );
                assert_eq!(q.stored_words(), pushed.min(cap));
                for offset in [0, 1, model.len().saturating_sub(1), model.len(), cap] {
                    assert_eq!(q.get(offset), model.get(offset).copied(), "get({offset})");
                }
                let slot = rng.range_usize(0, 2 * cap);
                let offset = (slot + cap - head) % cap;
                assert_eq!(q.read_slot(slot), model.get(offset).copied(), "slot {slot}");
                let mut h = Fnv1a::new();
                h.write_u32(head as u32);
                h.write_u32(model.len() as u32);
                for &w in &model {
                    crate::hash::fold_word(&mut h, w);
                }
                assert_eq!(fold(&q), h.finish(), "cap {cap} step {step}");
            }
            assert!(
                pushed > 3 * cap,
                "cap {cap}: the ring wrapped too few times"
            );
            assert!(refusals > 0, "cap {cap}: the ring never filled");
        }
    }
}
