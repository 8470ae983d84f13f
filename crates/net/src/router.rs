//! Per-node router state off the arbitration path: ejection staging. The
//! channel buffers and everything the advance loop probes live in the
//! shard's [`crate::arena::ChannelArena`] instead.

use jm_isa::node::Coord;
use jm_isa::word::Word;
use jm_isa::TraceId;
use std::collections::VecDeque;

/// Router ports: six mesh directions plus ejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutPort {
    /// Toward larger X.
    XPos,
    /// Toward smaller X.
    XNeg,
    /// Toward larger Y.
    YPos,
    /// Toward smaller Y.
    YNeg,
    /// Toward larger Z.
    ZPos,
    /// Toward smaller Z.
    ZNeg,
    /// Delivery to the local node.
    Eject,
}

impl OutPort {
    /// All ports in arbitration order.
    pub const ALL: [OutPort; 7] = [
        OutPort::XPos,
        OutPort::XNeg,
        OutPort::YPos,
        OutPort::YNeg,
        OutPort::ZPos,
        OutPort::ZNeg,
        OutPort::Eject,
    ];

    /// Port index (0–6).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Decodes a port index.
    ///
    /// # Panics
    ///
    /// Panics if `index > 6`.
    #[inline]
    pub fn from_index(index: usize) -> OutPort {
        Self::ALL[index]
    }
}

/// Index of the injection input port.
pub(crate) const IN_INJECT: usize = 6;
/// Index of the ejection output port.
pub(crate) const OUT_EJECT: usize = 6;

/// Computes the e-cube (dimension-order) output port at `here` for a flit
/// destined for `dest`: resolve X first, then Y, then Z, then eject.
#[inline]
pub(crate) fn ecube_route(here: Coord, dest: Coord) -> usize {
    if dest.x != here.x {
        if dest.x > here.x {
            0
        } else {
            1
        }
    } else if dest.y != here.y {
        if dest.y > here.y {
            2
        } else {
            3
        }
    } else if dest.z != here.z {
        if dest.z > here.z {
            4
        } else {
            5
        }
    } else {
        OUT_EJECT
    }
}

/// One node's router: the state that is *not* channel buffering. The input
/// rings, output ownership, cached routes, and the node's coordinate live in
/// the shard's [`crate::arena::ChannelArena`], leaving the router struct
/// for the colder ejection interface state.
#[derive(Debug, Clone)]
pub(crate) struct Router {
    /// Ejected payload words awaiting the node (paired with the delivering
    /// message's trace id), per vnet.
    pub ejected: [VecDeque<(Word, TraceId)>; 2],
    /// Tracing only: trace id of the message currently streaming out of the
    /// ejection port, per vnet (wormhole routing ejects messages whole, so
    /// a changed id marks a new message's first payload word).
    pub eject_cur: [TraceId; 2],
    /// Fault-injection only: whether the message currently streaming out of
    /// the ejection port has already delivered its first payload word (the
    /// header), per vnet. Corruption skips the header — flipping a length
    /// bit would desynchronize the queue instead of modelling payload
    /// damage — and this flag is pure physical framing (set on the first
    /// payload word, cleared by the tail flit), so it needs no knowledge of
    /// message contents.
    pub eject_hdr_seen: [bool; 2],
}

impl Router {
    pub(crate) fn new() -> Router {
        Router {
            ejected: Default::default(),
            eject_cur: [TraceId::NONE; 2],
            eject_hdr_seen: [false; 2],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecube_orders_dimensions() {
        let here = Coord::new(3, 3, 3);
        assert_eq!(ecube_route(here, Coord::new(5, 0, 0)), 0); // X first
        assert_eq!(ecube_route(here, Coord::new(0, 0, 0)), 1);
        assert_eq!(ecube_route(here, Coord::new(3, 5, 0)), 2); // then Y
        assert_eq!(ecube_route(here, Coord::new(3, 1, 9)), 3);
        assert_eq!(ecube_route(here, Coord::new(3, 3, 9)), 4); // then Z
        assert_eq!(ecube_route(here, Coord::new(3, 3, 1)), 5);
        assert_eq!(ecube_route(here, here), OUT_EJECT);
    }

    #[test]
    fn port_index_round_trip() {
        for p in OutPort::ALL {
            assert_eq!(OutPort::from_index(p.index()), p);
        }
    }
}
