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
/// `routers × 14 buffers × depth` of these (a 16×16×16 mesh has 4096
/// routers), and every boundary crossing copies one through an edge
/// mailbox, so flit size is arena footprint *and* parallel-engine
/// bandwidth. Head/tail/payload-presence share one flag byte, the trace
/// id is stored in 32 bits (`commit_msg`, which makes the ids, hands out
/// none wider), and the virtual network is *not* stored — every path
/// that handles a flit already knows its vnet from the buffer it sits in.
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

    /// Expands a message into its flits, in wire order: two per word. The
    /// first flit of the route word (`words[0]`) is the head and the second
    /// flit of the last word the tail; the second flit of every *payload*
    /// word carries the word, while the route word is consumed by the
    /// network and carries nothing. Every flit is stamped with the commit
    /// cycle (for latency accounting) and may leave the injection FIFO from
    /// `ready_cycle` on.
    pub(crate) fn message(
        dest: Coord,
        words: &[Word],
        inject_cycle: u64,
        ready_cycle: u64,
        trace: TraceId,
    ) -> impl Iterator<Item = Flit> + '_ {
        debug_assert!(
            u32::try_from(trace.0).is_ok(),
            "trace id exceeds the flit's 32-bit field"
        );
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

    fn message() -> (Coord, [Word; 3], Vec<Flit>) {
        let dest = Coord::new(1, 2, 3);
        let words = [Word::int(5), Word::int(9), Word::int(-1)];
        let flits = Flit::message(dest, &words, 7, 9, TraceId(3)).collect();
        (dest, words, flits)
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
