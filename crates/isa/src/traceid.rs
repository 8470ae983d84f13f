//! Message trace identifiers.
//!
//! Every message accepted by a network injection port is stamped with a
//! [`TraceId`] that rides in the metadata of each of its flits. The id lets
//! the observability layer (`jm-trace`) correlate a message's lifecycle
//! events — injection, per-hop routing, ejection, queueing, dispatch, and
//! handler completion — across the crates that each see only one leg of the
//! journey. The id is simulator metadata: it occupies no architectural bits
//! and never influences routing, timing, or program-visible state.

use std::fmt;

/// Identity of one message for lifecycle tracing.
///
/// An id is a pure function of the message's source node and that node's
/// injection ordinal — `ordinal × nodes + node + 1`, within the 32 bits a
/// flit carries — so it is the same however the mesh is cut and whichever
/// engine runs it. [`TraceId::NONE`] (zero) marks words with no traced
/// network provenance: host-port deliveries, and messages of a source that
/// has used up its share of the id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The null id: not a traced message.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this id identifies a real message.
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_some() {
            write!(f, "msg#{}", self.0)
        } else {
            f.write_str("msg#-")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_zero_and_default() {
        assert_eq!(TraceId::NONE, TraceId(0));
        assert_eq!(TraceId::default(), TraceId::NONE);
        assert!(!TraceId::NONE.is_some());
        assert!(TraceId(1).is_some());
    }

    #[test]
    fn display_formats() {
        assert_eq!(TraceId(7).to_string(), "msg#7");
        assert_eq!(TraceId::NONE.to_string(), "msg#-");
    }
}
