//! Flits: the 18-bit (half-word) units moved by channels each cycle.

use jm_isa::node::Coord;
use jm_isa::word::Word;
use jm_isa::TraceId;

/// A flit in flight.
///
/// Physically a flit is half a word (channels carry 0.5 words/cycle). For
/// simulation convenience every flit carries the full routing destination;
/// the *second* flit of each payload word carries the word itself, so the
/// ejection port reassembles words by accepting `payload().is_some()`
/// flits. Route-word flits carry no payload — the route word is consumed
/// by the network.
///
/// The struct is deliberately packed to 32 bytes: channel arenas hold
/// `routers × 12 buffers × depth` of these (a 16×16×16 mesh has 4096
/// routers), and every boundary crossing copies one through an edge
/// mailbox, so flit size is arena footprint *and* parallel-engine
/// bandwidth. Head/tail/payload-presence share one flag byte, the trace
/// id is stored in 32 bits (`commit_msg`, which makes the ids, hands out
/// none wider), and the virtual network is *not* stored — every path
/// that handles a flit already knows its vnet from the buffer it sits in.
/// A message waiting to leave its source is not stored as flits at all:
/// the injection FIFO and the bulk law hold one [`Message`] record and
/// its payload words, and [`Message::flit`] makes each flit as it is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Destination coordinates (from the message's route word).
    pub dest: Coord,
    /// Bit-packed `FLAG_*` bits.
    flags: u8,
    /// Lifecycle-trace id (`0` = untraced), widened to [`TraceId`] on
    /// read.
    trace: u32,
    /// The word completed by this flit ([`Word::NIL`] unless
    /// `FLAG_PAYLOAD` is set).
    word: Word,
    /// Cycle at which the message's first flit was injected, for latency
    /// accounting.
    pub inject_cycle: u64,
    /// Earliest cycle at which this flit may leave the buffer it sits in
    /// (prevents multi-hop moves within one cycle).
    pub ready_cycle: u64,
}

/// First flit of its message (triggers output-port allocation in routers).
const FLAG_HEAD: u8 = 1 << 0;
/// Last flit of its message (releases the path).
const FLAG_TAIL: u8 = 1 << 1;
/// The flit completes a payload word (`word` is meaningful).
const FLAG_PAYLOAD: u8 = 1 << 2;

impl Flit {
    /// The all-zero filler flit arenas use for untouched slots.
    pub(crate) fn nil() -> Flit {
        Flit {
            dest: Coord::default(),
            flags: 0,
            trace: 0,
            word: Word::NIL,
            inject_cycle: 0,
            ready_cycle: 0,
        }
    }

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
        (self.flags & FLAG_PAYLOAD != 0).then_some(self.word)
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
        ready_cycle: u64,
        trace: TraceId,
    ) -> impl Iterator<Item = Flit> + '_ {
        let blank = Flit {
            dest,
            flags: 0,
            trace: trace.0 as u32,
            word: Word::NIL,
            inject_cycle,
            ready_cycle,
        };
        words.iter().enumerate().flat_map(move |(i, &word)| {
            let (mut first, mut second) = (blank, blank);
            if i == 0 {
                first.flags = FLAG_HEAD;
            } else {
                second.flags = FLAG_PAYLOAD;
                second.word = word;
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
    /// Commit cycle, for latency accounting.
    pub(crate) inject_cycle: u64,
    /// Earliest cycle the message's flits may leave the injection FIFO.
    pub(crate) ready_cycle: u64,
}

impl Message {
    /// The record of a message of `words` words (route word included),
    /// committed in `inject_cycle`, whose flits may leave the injection
    /// FIFO from `ready_cycle` on.
    pub(crate) fn new(
        dest: Coord,
        words: usize,
        inject_cycle: u64,
        ready_cycle: u64,
        trace: TraceId,
    ) -> Message {
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
            ready_cycle,
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
    /// flit of the route word is the head and the second flit of the last
    /// word the tail; the second flit of every *payload* word carries the
    /// word (`payload(k)` is payload word `k`, asked for only then), while
    /// the route word is consumed by the network and carries nothing.
    /// Every flit is stamped with the commit cycle and may leave the
    /// injection FIFO from `ready_cycle` on.
    #[inline]
    pub(crate) fn flit(&self, f: usize, payload: impl FnOnce(usize) -> Word) -> Flit {
        debug_assert!(f < self.flits as usize, "flit {f} past the message");
        let mut flags = if f == 0 { FLAG_HEAD } else { 0 };
        if f + 1 == self.flits as usize {
            flags |= FLAG_TAIL;
        }
        let mut word = Word::NIL;
        if f % 2 == 1 && f > 1 {
            flags |= FLAG_PAYLOAD;
            word = payload(f / 2 - 1);
        }
        Flit {
            dest: self.dest,
            flags,
            trace: self.trace,
            word,
            inject_cycle: self.inject_cycle,
            ready_cycle: self.ready_cycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_stays_packed() {
        assert!(
            std::mem::size_of::<Flit>() <= 32,
            "Flit grew past 32 bytes: {}",
            std::mem::size_of::<Flit>()
        );
    }

    /// A three-word message's flits, as [`Message::flit`] makes them.
    fn message() -> (Coord, [Word; 3], Vec<Flit>) {
        let dest = Coord::new(1, 2, 3);
        let words = [Word::int(5), Word::int(9), Word::int(-1)];
        let msg = Message::new(dest, words.len(), 7, 9, TraceId(3));
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
            let msg = Message::new(Coord::new(3, 0, 1), len, 4, 6, TraceId(11));
            assert_eq!((msg.payload_words(), msg.left()), (len - 1, 2 * len));
            let made: Vec<Flit> = (0..2 * len)
                .map(|f| msg.flit(f, |k| words[1 + k]))
                .collect();
            let expanded: Vec<Flit> = Flit::message(msg.dest, words, 4, 6, TraceId(11)).collect();
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
    }

    #[test]
    fn payload_words_complete_on_second_flit() {
        let (dest, words, flits) = message();
        let payload: Vec<Option<Word>> = flits[2..].iter().map(Flit::payload).collect();
        assert_eq!(payload, [None, Some(words[1]), None, Some(words[2])]);
        for f in &flits {
            assert_eq!(f.dest, dest);
            assert_eq!((f.inject_cycle, f.ready_cycle), (7, 9));
            assert_eq!(f.trace(), TraceId(3));
        }
    }
}
