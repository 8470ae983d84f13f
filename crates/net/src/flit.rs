//! Flits: the 18-bit (half-word) units moved by channels each cycle.

use jm_isa::node::Coord;
use jm_isa::tag::Tag;
use jm_isa::word::Word;
use jm_isa::TraceId;

/// A flit in flight: 16 bytes, what the wire carries.
///
/// Physically a flit is half a word (channels carry 0.5 words/cycle). For
/// simulation convenience every flit carries the full routing destination;
/// the *second* flit of each payload word carries the word itself, so the
/// ejection port reassembles words by accepting `payload().is_some()`
/// flits. Route-word flits carry no payload — the route word is consumed
/// by the network — so the head's data bytes carry the message's commit
/// cycle instead, which the ejection port keeps until the tail closes the
/// message's latency.
///
/// The struct is packed to 16 bytes — destination (3), flags (1), trace id
/// (4), data (8) — so a directional ring of `FLIT_BUFFER` flits is one
/// cache line: channel arenas hold `routers × 12 rings` of them (a
/// 16×16×16 mesh has 4096 routers), and every boundary crossing copies one
/// through an edge mailbox, so flit size is arena footprint *and*
/// parallel-engine bandwidth. Head/tail/payload-presence share one flag
/// byte, the trace id is stored in 32 bits (`commit_msg`, which makes the
/// ids, hands out none wider), and neither the virtual network nor the
/// cycle a flit may move is stored — every path that handles a flit
/// already knows its vnet from the buffer it sits in, and the arena keeps
/// one push bit per queue for "arrived this cycle". A message waiting to
/// leave its source is not stored as flits at all: the injection FIFO and
/// the bulk law hold one `Message` record and its payload words, and
/// `Message::flit` makes each flit as it is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Destination coordinates (from the message's route word).
    pub dest: Coord,
    /// Bit-packed `FLAG_*` bits.
    pub(crate) flags: u8,
    /// Lifecycle-trace id (`0` = untraced), widened to [`TraceId`] on
    /// read.
    pub(crate) trace: u32,
    /// The head's commit cycle, or the word a payload flit completes (tag
    /// above the 32 payload bits); `0` on every other flit.
    pub(crate) data: u64,
}

/// First flit of its message (triggers output-port allocation in routers).
const FLAG_HEAD: u8 = 1 << 0;
/// Last flit of its message (releases the path).
const FLAG_TAIL: u8 = 1 << 1;
/// The flit completes a payload word (`data` holds it).
const FLAG_PAYLOAD: u8 = 1 << 2;

/// A payload word as a flit's data bytes.
#[inline]
fn pack(word: Word) -> u64 {
    u64::from(word.tag().bits()) << 32 | u64::from(word.bits())
}

impl Flit {
    /// The all-zero filler flit arenas use for untouched slots.
    pub(crate) const NIL: Flit = Flit {
        dest: Coord { x: 0, y: 0, z: 0 },
        flags: 0,
        trace: 0,
        data: 0,
    };

    /// Whether this is the first flit of its message.
    #[inline]
    pub fn head(&self) -> bool {
        self.flags & FLAG_HEAD != 0
    }

    /// Whether this is the last flit of its message.
    #[inline]
    pub fn tail(&self) -> bool {
        self.flags & FLAG_TAIL != 0
    }

    /// The word completed by this flit, if it is a word's second half
    /// (and the word is payload rather than routing).
    #[inline]
    pub fn payload(&self) -> Option<Word> {
        (self.flags & FLAG_PAYLOAD != 0)
            .then(|| Word::new(Tag::from_bits((self.data >> 32) as u8), self.data as u32))
    }

    /// The cycle the message was committed in, carried by its head.
    #[inline]
    pub fn inject_cycle(&self) -> Option<u64> {
        self.head().then_some(self.data)
    }

    /// Lifecycle-trace id of the message this flit belongs to
    /// ([`TraceId::NONE`] when tracing is disabled).
    #[inline]
    pub fn trace(&self) -> TraceId {
        TraceId(u64::from(self.trace))
    }

    /// The old per-flit expansion of a message, kept as the oracle
    /// [`Message::flit`] is tested against.
    #[cfg(test)]
    pub(crate) fn message(
        dest: Coord,
        words: &[Word],
        inject_cycle: u64,
        trace: TraceId,
    ) -> impl Iterator<Item = Flit> + '_ {
        let blank = Flit {
            dest,
            trace: trace.0 as u32,
            ..Flit::NIL
        };
        words.iter().enumerate().flat_map(move |(i, &word)| {
            let (mut first, mut second) = (blank, blank);
            if i == 0 {
                first.flags = FLAG_HEAD;
                first.data = inject_cycle;
            } else {
                second.flags = FLAG_PAYLOAD;
                second.data = pack(word);
            }
            if i + 1 == words.len() {
                second.flags |= FLAG_TAIL;
            }
            [first, second]
        })
    }
}

/// A committed message, as the injection FIFO and the bulk law hold it:
/// everything its flits share, once. Its payload words (every word after
/// the route word) are kept beside it, and [`Message::flit`] makes any of
/// its flits from the two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Message {
    /// Destination coordinates (from the route word).
    pub(crate) dest: Coord,
    /// Flits in the message: two per word, the route word included.
    pub(crate) flits: u8,
    /// Flits already popped out of the injection FIFO: the index of the
    /// one at its front.
    pub(crate) popped: u8,
    /// Lifecycle-trace id, as [`Flit`] stores it.
    pub(crate) trace: u32,
    /// Commit cycle, for latency accounting; its flits may leave the
    /// injection FIFO `INJECT_LATENCY` cycles later.
    pub(crate) inject_cycle: u64,
}

impl Message {
    /// The record of a message of `words` words (route word included),
    /// committed in `inject_cycle`.
    pub(crate) fn new(dest: Coord, words: usize, inject_cycle: u64, trace: TraceId) -> Message {
        debug_assert!(
            u32::try_from(trace.0).is_ok(),
            "trace id exceeds the flit's 32-bit field"
        );
        Message {
            dest,
            flits: u8::try_from(2 * words).expect("a message fits a u8 ring"),
            popped: 0,
            trace: trace.0 as u32,
            inject_cycle,
        }
    }

    /// Lifecycle-trace id ([`TraceId::NONE`] when tracing is disabled).
    #[inline]
    pub(crate) fn trace(&self) -> TraceId {
        TraceId(u64::from(self.trace))
    }

    /// Payload words: every word after the route word.
    #[inline]
    pub(crate) fn payload_words(&self) -> usize {
        self.flits as usize / 2 - 1
    }

    /// Flits not yet popped out of the injection FIFO.
    #[inline]
    pub(crate) fn left(&self) -> usize {
        (self.flits - self.popped) as usize
    }

    /// The message's flit `f`, in wire order: two per word. The first
    /// flit of the route word is the head, stamped with the commit cycle,
    /// and the second flit of the last word the tail; the second flit of
    /// every *payload* word carries the word (`payload(k)` is payload word
    /// `k`, asked for only then), while the route word is consumed by the
    /// network and carries nothing.
    #[inline]
    pub(crate) fn flit(&self, f: usize, payload: impl FnOnce(usize) -> Word) -> Flit {
        debug_assert!(f < self.flits as usize, "flit {f} past the message");
        let mut flags = 0;
        let mut data = 0;
        if f == 0 {
            flags = FLAG_HEAD;
            data = self.inject_cycle;
        } else if f % 2 == 1 && f > 1 {
            flags = FLAG_PAYLOAD;
            data = pack(payload(f / 2 - 1));
        }
        if f + 1 == self.flits as usize {
            flags |= FLAG_TAIL;
        }
        Flit {
            dest: self.dest,
            flags,
            trace: self.trace,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_stays_packed() {
        assert_eq!(std::mem::size_of::<Flit>(), 16, "what the wire carries");
        assert_eq!(std::mem::align_of::<Flit>(), 8);
    }

    // A queued message's record: what its flits share, and nothing derived.
    const _: () = assert!(std::mem::size_of::<Message>() == 24);

    /// A three-word message's flits, as [`Message::flit`] makes them.
    fn message() -> (Coord, [Word; 3], Vec<Flit>) {
        let dest = Coord::new(1, 2, 3);
        let words = [Word::int(5), Word::int(9), Word::int(-1)];
        let msg = Message::new(dest, words.len(), 7, TraceId(3));
        let flits = (0..msg.flits as usize)
            .map(|f| msg.flit(f, |k| words[1 + k]))
            .collect();
        (dest, words, flits)
    }

    #[test]
    fn message_records_make_the_flits_of_the_expansion() {
        let words: Vec<Word> = (0..9).map(Word::int).collect();
        for len in 1..=words.len() {
            let words = &words[..len];
            let msg = Message::new(Coord::new(3, 0, 1), len, 4, TraceId(11));
            assert_eq!((msg.payload_words(), msg.left()), (len - 1, 2 * len));
            let made: Vec<Flit> = (0..2 * len)
                .map(|f| msg.flit(f, |k| words[1 + k]))
                .collect();
            let expanded: Vec<Flit> = Flit::message(msg.dest, words, 4, TraceId(11)).collect();
            assert_eq!(made, expanded, "{len} words");
        }
    }

    #[test]
    fn route_words_carry_no_payload() {
        let (_, _, flits) = message();
        assert_eq!(flits.len(), 6, "two flits a word");
        // Framing: one head, first; one tail, last.
        let heads: Vec<bool> = flits.iter().map(Flit::head).collect();
        let tails: Vec<bool> = flits.iter().map(Flit::tail).collect();
        assert_eq!(heads, [true, false, false, false, false, false]);
        assert_eq!(tails, [false, false, false, false, false, true]);
        assert_eq!(flits[0].payload(), None);
        assert_eq!(flits[1].payload(), None);
        // The head carries the commit cycle instead; no other flit does.
        let cycles: Vec<Option<u64>> = flits.iter().map(Flit::inject_cycle).collect();
        assert_eq!(cycles, [Some(7), None, None, None, None, None]);
    }

    #[test]
    fn payload_words_complete_on_second_flit() {
        let (dest, words, flits) = message();
        let payload: Vec<Option<Word>> = flits[2..].iter().map(Flit::payload).collect();
        assert_eq!(payload, [None, Some(words[1]), None, Some(words[2])]);
        for f in &flits {
            assert_eq!(f.dest, dest);
            assert_eq!(f.trace(), TraceId(3));
        }
        // Every tag survives the data bytes.
        let msg = Message::new(dest, 2, 0, TraceId::NONE);
        for bits in 0..16 {
            let word = Word::new(Tag::from_bits(bits), 0xdead_beef ^ u32::from(bits));
            assert_eq!(msg.flit(3, |_| word).payload(), Some(word));
        }
    }
}
