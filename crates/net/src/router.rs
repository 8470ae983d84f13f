//! Per-node router state off the arbitration path: ejection staging. The
//! channel buffers and everything the advance loop probes live in the
//! shard's [`crate::arena::ChannelArena`] instead.

use jm_fault::port;
use jm_isa::node::Coord;
use jm_isa::word::Word;
use jm_isa::TraceId;
use std::collections::VecDeque;

/// Computes the e-cube (dimension-order) output port at `here` for a flit
/// destined for `dest`: resolve X first, then Y, then Z, then eject. Out
/// port `2 * dim` heads up dimension `dim`, `2 * dim + 1` down it.
#[inline]
pub(crate) fn ecube_route(here: Coord, dest: Coord) -> usize {
    let toward = |dim: usize, here: u8, dest: u8| 2 * dim + usize::from(dest < here);
    if dest.x != here.x {
        toward(0, here.x, dest.x)
    } else if dest.y != here.y {
        toward(1, here.y, dest.y)
    } else if dest.z != here.z {
        toward(2, here.z, dest.z)
    } else {
        port::EJECT
    }
}

/// One node's router: the state that is *not* channel buffering. The input
/// rings, output ownership, cached routes, and the node's coordinate live in
/// the shard's [`crate::arena::ChannelArena`], leaving the router struct
/// for the colder ejection interface state.
#[derive(Debug, Clone, Default)]
pub(crate) struct Router {
    /// Ejected payload words awaiting the node (paired with the delivering
    /// message's trace id), per vnet.
    pub ejected: [VecDeque<(Word, TraceId)>; 2],
    /// Tracing only: trace id of the message currently streaming out of the
    /// ejection port, per vnet (wormhole routing ejects messages whole, so
    /// a changed id marks a new message's first payload word; starts at
    /// [`TraceId::NONE`]).
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
        assert_eq!(ecube_route(here, here), port::EJECT);
    }
}
