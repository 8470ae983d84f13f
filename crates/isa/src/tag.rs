//! The 4-bit type tags carried by every MDP word.

use std::fmt;

/// The 4-bit type tag attached to every 36-bit MDP word.
///
/// Tags serve three architectural roles on the MDP:
///
/// 1. **Dynamic typing** — arithmetic traps if an operand is not [`Tag::Int`],
///    which is how Concurrent Smalltalk implements generic dispatch cheaply.
/// 2. **Synchronization** — [`Tag::CFut`] and [`Tag::Fut`] mark slots whose
///    value has not been produced yet. Reading a `cfut` operand faults the
///    processor into a runtime handler that suspends the thread (§3.2 of the
///    paper); `fut` words may be *copied* without faulting and only fault when
///    an instruction tries to consume the value.
/// 3. **Structure** — instruction pointers, segment descriptors, message
///    headers, and network routing words are all distinguished by tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Tag {
    /// 32-bit two's-complement integer.
    Int = 0,
    /// Boolean; payload is 0 or 1.
    Bool = 1,
    /// Symbol / opaque identifier (used by CST for selectors and global IDs).
    Sym = 2,
    /// Instruction pointer: an instruction index into the code space.
    Ip = 3,
    /// Segment descriptor: base and length of a memory object (see
    /// [`crate::word::SegDesc`]).
    Addr = 4,
    /// Message header: handler IP plus message length (see
    /// [`crate::word::MsgHeader`]). Must be the first word delivered to the
    /// destination queue.
    Msg = 5,
    /// Network routing word: absolute destination coordinates. Consumed by
    /// the network, never delivered.
    Route = 6,
    /// C-future: presence tag for single-slot synchronization, like a
    /// full/empty bit. Faults on any operand read.
    CFut = 7,
    /// Future: first-class placeholder; may be moved/copied freely, faults
    /// only when consumed by a computing instruction.
    Fut = 8,
    /// Context identifier: a suspended-thread context (runtime convention;
    /// stored into a `cfut` slot so the producer can find the waiter).
    Ctx = 9,
    /// User tag 0 (application defined).
    User0 = 10,
    /// User tag 1 (application defined).
    User1 = 11,
    /// User tag 2 (application defined).
    User2 = 12,
    /// User tag 3 (application defined).
    User3 = 13,
    /// Nil / absent value.
    Nil = 14,
    /// Reserved for words holding encoded instructions in the code stream.
    Inst = 15,
}

impl Tag {
    /// All sixteen tags, in discriminant order.
    pub const ALL: [Tag; 16] = [
        Tag::Int,
        Tag::Bool,
        Tag::Sym,
        Tag::Ip,
        Tag::Addr,
        Tag::Msg,
        Tag::Route,
        Tag::CFut,
        Tag::Fut,
        Tag::Ctx,
        Tag::User0,
        Tag::User1,
        Tag::User2,
        Tag::User3,
        Tag::Nil,
        Tag::Inst,
    ];

    /// Decodes a tag from its 4-bit representation.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 15`.
    #[inline]
    pub fn from_bits(bits: u8) -> Tag {
        assert!(bits < 16, "tag bits out of range: {bits}");
        Tag::ALL[bits as usize]
    }

    /// The 4-bit representation of this tag.
    #[inline]
    pub fn bits(self) -> u8 {
        self as u8
    }

    /// Whether this tag marks an unproduced value (`cfut` or `fut`).
    #[inline]
    pub fn is_future(self) -> bool {
        matches!(self, Tag::CFut | Tag::Fut)
    }

    /// Whether a word with this tag may be used as an arithmetic operand.
    #[cfg(test)]
    fn is_arith(self) -> bool {
        matches!(self, Tag::Int | Tag::Bool)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Tag::Int => "int",
            Tag::Bool => "bool",
            Tag::Sym => "sym",
            Tag::Ip => "ip",
            Tag::Addr => "addr",
            Tag::Msg => "msg",
            Tag::Route => "route",
            Tag::CFut => "cfut",
            Tag::Fut => "fut",
            Tag::Ctx => "ctx",
            Tag::User0 => "user0",
            Tag::User1 => "user1",
            Tag::User2 => "user2",
            Tag::User3 => "user3",
            Tag::Nil => "nil",
            Tag::Inst => "inst",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_tags() {
        for tag in Tag::ALL {
            assert_eq!(Tag::from_bits(tag.bits()), tag);
        }
    }

    #[test]
    fn discriminants_are_dense() {
        for (i, tag) in Tag::ALL.iter().enumerate() {
            assert_eq!(tag.bits() as usize, i);
        }
    }

    #[test]
    #[should_panic(expected = "tag bits out of range")]
    fn rejects_out_of_range_bits() {
        let _ = Tag::from_bits(16);
    }

    #[test]
    fn future_classification() {
        assert!(Tag::CFut.is_future());
        assert!(Tag::Fut.is_future());
        assert!(!Tag::Int.is_future());
        assert!(Tag::Int.is_arith());
        assert!(Tag::Bool.is_arith());
        assert!(!Tag::Msg.is_arith());
    }

    #[test]
    fn display_names_are_unique() {
        let mut names: Vec<String> = Tag::ALL.iter().map(|t| t.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 16);
    }
}
