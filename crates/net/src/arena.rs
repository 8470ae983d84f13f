//! Channel arenas: every input buffer of every router in a shard, carved
//! out of per-shard storage allocated once.
//!
//! Two kinds of storage, split by how the advance loop touches them:
//!
//! * one [`Hot`] record per router — everything a *probe* reads (ring
//!   heads and lengths, non-empty port masks, output owners, the cached
//!   e-cube out port of every queue's front flit, this cycle's pop bits) in
//!   two cache lines, so finding out that a flit cannot move (about half of
//!   all probes at saturation) never loads a 32-byte flit;
//! * the flits themselves, each `(router, vnet, port)` queue a
//!   fixed-capacity ring at a computed offset in one `Vec<Flit>`: the
//!   directional rings first and densely packed, the much deeper injection
//!   FIFOs (most of the bytes, rarely at the front of arbitration) in a
//!   region of their own behind them.
//!
//! Indexing: within a router, queue `q = vnet * PORTS + port`, ports as
//! [`jm_fault::port`] numbers them: the mesh directions (capacity
//! `flit_buffer`) below `INJECT`, the injection FIFO (capacity
//! `inject_fifo`).

use crate::flit::Flit;
use crate::router::ecube_route;
use jm_fault::port::{self, INJECT};
use jm_isa::node::Coord;

/// Input queues per (router, vnet): six directions plus injection.
const PORTS: usize = port::COUNT;
/// Queues per router: two vnets of [`PORTS`] each.
const QUEUES: usize = 2 * PORTS;

/// One router's arbitration state. The fields a probe reads come first so
/// they share the record's first cache line; ring heads (needed only once
/// a flit is actually looked at) and the coordinate (needed only when a
/// route is refreshed) trail into the second.
#[repr(C, align(64))]
#[derive(Debug, Clone)]
struct Hot {
    /// Cycle `pop_bits` belongs to (`u64::MAX` = never popped).
    pop_stamp: u64,
    /// Bit `q` set iff queue `q` had a flit popped in cycle `pop_stamp`.
    /// Lets [`ChannelArena::space`] report *start-of-cycle* occupancy: a
    /// slot freed earlier in the same cycle is not yet visible to upstream
    /// senders, exactly as if every router read its neighbors' credits at
    /// the cycle boundary — which makes the space check independent of
    /// router scan order, and therefore of sharding.
    pop_bits: u16,
    /// Per vnet: bit `p` set iff queue `p` is non-empty. The advance loop
    /// iterates set bits instead of probing all 7 ports.
    mask: [u8; 2],
    /// E-cube out port of each queue's front flit (meaningful while the
    /// queue is non-empty). Every flit of a message carries the same
    /// destination, so the value only changes when a new message's head
    /// becomes the front: a push into an empty ring, or the pop of a tail
    /// with more flits behind it.
    route: [u8; QUEUES],
    /// Output ownership per (vnet, out port): the input port a wormhole
    /// path holds the output for, or `-1` when unowned.
    owners: [i8; QUEUES],
    /// Flits currently stored per queue.
    len: [u8; QUEUES],
    /// Ring head index per queue.
    head: [u8; QUEUES],
    /// This router's mesh coordinate (the `here` of the cached routes).
    coord: Coord,
}

/// All channel buffers of one shard.
#[derive(Debug)]
pub(crate) struct ChannelArena {
    hot: Vec<Hot>,
    /// Ring storage for every queue, at fixed computed offsets: all
    /// directional rings, then (from `inject_base`) all injection FIFOs.
    flits: Vec<Flit>,
    /// Offset of the injection region in `flits`.
    inject_base: usize,
    /// Capacity of the directional ports (0–5), in flits.
    flit_buffer: u8,
    /// Capacity of the injection port, in flits.
    inject_fifo: u8,
}

impl ChannelArena {
    /// Allocates the arena for one router per entry of `coords`. Done once
    /// per shard; the advance loop never allocates.
    pub(crate) fn new(
        coords: impl ExactSizeIterator<Item = Coord>,
        flit_buffer: usize,
        inject_fifo: usize,
    ) -> ChannelArena {
        assert!(
            flit_buffer > 0 && flit_buffer <= u8::MAX as usize,
            "flit buffer depth must fit the arena's u8 rings"
        );
        assert!(
            inject_fifo > 0 && inject_fifo <= u8::MAX as usize,
            "inject FIFO depth must fit the arena's u8 rings"
        );
        let routers = coords.len();
        let inject_base = routers * 2 * INJECT * flit_buffer;
        ChannelArena {
            hot: coords
                .map(|coord| Hot {
                    pop_stamp: u64::MAX,
                    pop_bits: 0,
                    mask: [0; 2],
                    route: [0; QUEUES],
                    owners: [-1; QUEUES],
                    len: [0; QUEUES],
                    head: [0; QUEUES],
                    coord,
                })
                .collect(),
            flits: vec![Flit::nil(); inject_base + routers * 2 * inject_fifo],
            inject_base,
            flit_buffer: flit_buffer as u8,
            inject_fifo: inject_fifo as u8,
        }
    }

    /// Offset in `flits` and capacity of the ring for `(router, vnet, port)`.
    #[inline]
    fn ring(&self, l: usize, vnet: usize, port: usize) -> (usize, usize) {
        let lv = l * 2 + vnet;
        if port == INJECT {
            let cap = self.inject_fifo as usize;
            (self.inject_base + lv * cap, cap)
        } else {
            let cap = self.flit_buffer as usize;
            ((lv * INJECT + port) * cap, cap)
        }
    }

    /// Storage index of the `k`-th flit of a ring of `cap` slots starting at
    /// `head` (`k <= cap`).
    #[inline]
    fn slot(head: u8, k: usize, cap: usize) -> usize {
        let slot = head as usize + k;
        if slot >= cap {
            slot - cap
        } else {
            slot
        }
    }

    /// Mesh coordinate of router `l`.
    #[inline]
    pub(crate) fn coord(&self, l: usize) -> Coord {
        self.hot[l].coord
    }

    /// Non-empty-port mask for `(router, vnet)`.
    #[inline]
    pub(crate) fn port_mask(&self, l: usize, vnet: usize) -> u8 {
        self.hot[l].mask[vnet]
    }

    /// Flits queued at `(router, vnet, port)`.
    #[inline]
    pub(crate) fn len(&self, l: usize, vnet: usize, port: usize) -> usize {
        self.hot[l].len[vnet * PORTS + port] as usize
    }

    /// The cached e-cube out port of the queue's front flit. Callers check
    /// the port mask first: the value is stale while the queue is empty.
    #[inline]
    pub(crate) fn route(&self, l: usize, vnet: usize, port: usize) -> usize {
        self.hot[l].route[vnet * PORTS + port] as usize
    }

    /// The queue's front flit, by reference. Callers on the hot path check
    /// the port mask first, so an empty queue is a logic error.
    #[inline]
    pub(crate) fn front(&self, l: usize, vnet: usize, port: usize) -> &Flit {
        let q = vnet * PORTS + port;
        debug_assert!(self.hot[l].len[q] > 0, "front of empty queue");
        &self.flits[self.ring(l, vnet, port).0 + self.hot[l].head[q] as usize]
    }

    /// Appends a flit.
    ///
    /// # Panics
    ///
    /// Debug-asserts the ring has room — capacity checks (credits, FIFO
    /// depth) happen before any push.
    #[inline]
    pub(crate) fn push(&mut self, l: usize, vnet: usize, port: usize, flit: Flit) {
        let q = vnet * PORTS + port;
        let (base, cap) = self.ring(l, vnet, port);
        let hot = &mut self.hot[l];
        let len = hot.len[q] as usize;
        debug_assert!(len < cap, "channel ring over capacity");
        let slot = Self::slot(hot.head[q], len, cap);
        if len == 0 {
            hot.route[q] = ecube_route(hot.coord, flit.dest) as u8;
            hot.mask[vnet] |= 1 << port;
        }
        hot.len[q] = (len + 1) as u8;
        self.flits[base + slot] = flit;
    }

    /// Pops the front flit, recording `cycle` as the pop cycle (for
    /// start-of-cycle credit masking).
    #[inline]
    pub(crate) fn pop(&mut self, l: usize, vnet: usize, port: usize, cycle: u64) -> Flit {
        let q = vnet * PORTS + port;
        let (base, cap) = self.ring(l, vnet, port);
        let hot = &mut self.hot[l];
        let len = hot.len[q] as usize;
        debug_assert!(len > 0, "pop of empty queue");
        let flit = self.flits[base + hot.head[q] as usize];
        let next = Self::slot(hot.head[q], 1, cap);
        hot.head[q] = next as u8;
        hot.len[q] = (len - 1) as u8;
        if len == 1 {
            hot.mask[vnet] &= !(1 << port);
        } else if flit.tail() {
            hot.route[q] = ecube_route(hot.coord, self.flits[base + next].dest) as u8;
        }
        if hot.pop_stamp != cycle {
            hot.pop_stamp = cycle;
            hot.pop_bits = 0;
        }
        hot.pop_bits |= 1 << q;
        flit
    }

    /// Free flit slots in a queue *at the start of cycle `cycle`*: a flit
    /// popped from the queue earlier in the same cycle still counts as
    /// occupying its slot (credit updates propagate at cycle boundaries).
    ///
    /// Over-capacity occupancy would mean a credit-accounting bug upstream;
    /// it fails a `debug_assert!` so tests see it loudly (release builds
    /// saturate to 0, which only ever under-reports space).
    #[inline]
    pub(crate) fn space(&self, l: usize, vnet: usize, port: usize, cycle: u64) -> usize {
        let q = vnet * PORTS + port;
        let hot = &self.hot[l];
        let len = hot.len[q] as usize;
        let (base, capacity) = self.ring(l, vnet, port);
        // At most one flit crosses a channel per cycle, and its sender
        // checks space *before* pushing — so when this runs, no same-cycle
        // push can already sit in the buffer.
        debug_assert!(
            len == 0
                || self.flits[base + Self::slot(hot.head[q], len - 1, capacity)].ready_cycle
                    <= cycle,
            "space read after a same-cycle push"
        );
        let popped = hot.pop_stamp == cycle && hot.pop_bits & (1 << q) != 0;
        let occupied = len + usize::from(popped);
        debug_assert!(
            occupied <= capacity,
            "input buffer over capacity: {occupied} > {capacity}"
        );
        capacity.saturating_sub(occupied)
    }

    /// Folds the replay-visible state of every queue of `(router, vnet)`:
    /// per port, the occupancy, the buffered flits in logical FIFO order
    /// (destination, framing flags, payload, inject and ready cycles), and
    /// the output-port owner. Physical ring head positions, the cached
    /// routes (a function of the front flit) and the pop stamp are
    /// excluded — at a cycle boundary the logical queue contents fully
    /// determine future behavior (a pop stamp can only equal a cycle
    /// already finished).
    pub(crate) fn fold_state(&self, l: usize, vnet: usize, h: &mut jm_trace::Fnv1a) {
        let hot = &self.hot[l];
        for port in 0..PORTS {
            let q = vnet * PORTS + port;
            let len = hot.len[q] as usize;
            h.write_u8(len as u8);
            let (base, cap) = self.ring(l, vnet, port);
            for k in 0..len {
                let f = &self.flits[base + Self::slot(hot.head[q], k, cap)];
                h.write_u8(f.dest.x);
                h.write_u8(f.dest.y);
                h.write_u8(f.dest.z);
                h.write_u8(u8::from(f.head()) | (u8::from(f.tail()) << 1));
                match f.payload() {
                    Some(w) => {
                        h.write_u8(1);
                        h.write_u8(w.tag().bits());
                        h.write_u32(w.bits());
                    }
                    None => h.write_u8(0),
                }
                h.write_u64(f.inject_cycle);
                h.write_u64(f.ready_cycle);
            }
            h.write_u8(hot.owners[q] as u8);
        }
    }

    /// The input port owning `(router, vnet, out port)`, or `-1`.
    #[inline]
    pub(crate) fn owner(&self, l: usize, vnet: usize, out: usize) -> i8 {
        self.hot[l].owners[vnet * PORTS + out]
    }

    /// Sets (or clears, with `-1`) the owner of an output port.
    #[inline]
    pub(crate) fn set_owner(&mut self, l: usize, vnet: usize, out: usize, owner: i8) {
        self.hot[l].owners[vnet * PORTS + out] = owner;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_prng::Prng;
    use std::collections::VecDeque;

    fn flit(ready: u64) -> Flit {
        let mut f = Flit::nil();
        f.ready_cycle = ready;
        f
    }

    /// An arena of `routers` routers, all at the origin.
    fn arena(routers: usize, flit_buffer: usize, inject_fifo: usize) -> ChannelArena {
        ChannelArena::new(
            std::iter::repeat_n(Coord::default(), routers),
            flit_buffer,
            inject_fifo,
        )
    }

    #[test]
    fn hot_record_stays_two_lines() {
        assert!(
            std::mem::size_of::<Hot>() <= 128,
            "Hot grew past two cache lines: {}",
            std::mem::size_of::<Hot>()
        );
        assert_eq!(std::mem::align_of::<Hot>(), 64);
    }

    #[test]
    fn rings_wrap_and_track_mask() {
        let mut a = arena(2, 4, 8);
        assert_eq!(a.port_mask(1, 0), 0);
        for i in 0..4 {
            a.push(1, 0, 2, flit(i));
        }
        assert_eq!(a.len(1, 0, 2), 4);
        assert_eq!(a.port_mask(1, 0), 1 << 2);
        // Drain two, refill two: the ring wraps.
        assert_eq!(a.pop(1, 0, 2, 10).ready_cycle, 0);
        assert_eq!(a.pop(1, 0, 2, 10).ready_cycle, 1);
        a.push(1, 0, 2, flit(4));
        a.push(1, 0, 2, flit(5));
        for want in 2..6 {
            assert_eq!(a.pop(1, 0, 2, 11).ready_cycle, want);
        }
        assert_eq!(a.port_mask(1, 0), 0);
    }

    #[test]
    fn space_masks_same_cycle_pops() {
        let mut a = arena(1, 4, 8);
        a.push(0, 1, 3, flit(0));
        a.push(0, 1, 3, flit(0));
        assert_eq!(a.space(0, 1, 3, 5), 2);
        a.pop(0, 1, 3, 5);
        // The freed slot is invisible until the next cycle.
        assert_eq!(a.space(0, 1, 3, 5), 2);
        assert_eq!(a.space(0, 1, 3, 6), 3);
    }

    #[test]
    fn owners_default_unowned() {
        let mut a = arena(1, 4, 8);
        assert_eq!(a.owner(0, 0, 4), -1);
        a.set_owner(0, 0, 4, 6);
        assert_eq!(a.owner(0, 0, 4), 6);
        a.set_owner(0, 0, 4, -1);
        assert_eq!(a.owner(0, 0, 4), -1);
    }

    #[test]
    fn inject_port_uses_its_own_capacity() {
        let mut a = arena(1, 2, 6);
        for _ in 0..6 {
            a.push(0, 0, INJECT, flit(0));
        }
        assert_eq!(a.len(0, 0, INJECT), 6);
        for _ in 0..6 {
            a.pop(0, 0, INJECT, 1);
        }
        assert_eq!(a.len(0, 0, INJECT), 0);
    }

    /// Random pushes, pops and owner writes over every queue of a small
    /// arena, checked after every operation against one plain `VecDeque`
    /// per queue: front, length, mask, start-of-cycle space, and the cached
    /// route against a fresh `ecube_route`.
    #[test]
    fn random_operations_match_a_deque_model() {
        let dims = jm_isa::node::MeshDims::new(3, 2, 2);
        let (flit_buffer, inject_fifo) = (3usize, 5usize);
        let routers = dims.nodes() as usize;
        let coord = |l: usize| dims.coord(jm_isa::node::NodeId(l as u32));
        let mut a = ChannelArena::new((0..routers).map(coord), flit_buffer, inject_fifo);
        let mut model = vec![VecDeque::<Flit>::new(); routers * QUEUES];
        let mut owners = vec![-1i8; routers * QUEUES];
        // Cycle of the model's last pop per queue.
        let mut popped = vec![u64::MAX; routers * QUEUES];
        let mut rng = Prng::new(0xa7e4a);
        let mut cycle = 0u64;
        // Messages are runs of flits sharing a destination, ended by a tail.
        let mut msg_dest = vec![None::<Coord>; routers * QUEUES];
        for step in 0..40_000u32 {
            if rng.chance(0.2) {
                cycle += 1;
            }
            let l = rng.range_usize(0, routers);
            let vnet = rng.range_usize(0, 2);
            let port = rng.range_usize(0, PORTS);
            let qi = l * QUEUES + vnet * PORTS + port;
            let cap = if port == INJECT {
                inject_fifo
            } else {
                flit_buffer
            };
            match rng.range_u32(0, 8) {
                // Senders check start-of-cycle space before every push.
                0..=3 if model[qi].len() + usize::from(popped[qi] == cycle) < cap => {
                    let dest =
                        *msg_dest[qi].get_or_insert_with(|| coord(rng.range_usize(0, routers)));
                    let tail = rng.chance(0.3);
                    // Of a three-word message, flit 3 completes a payload
                    // word mid-message and flit 5 is the tail.
                    let word = jm_isa::word::Word::int(step as i32);
                    let f = Flit::message(dest, &[word; 3], cycle, cycle, jm_isa::TraceId::NONE)
                        .nth(if tail { 5 } else { 3 })
                        .expect("six flits");
                    if tail {
                        msg_dest[qi] = None;
                    }
                    a.push(l, vnet, port, f);
                    model[qi].push_back(f);
                }
                4..=6 if !model[qi].is_empty() => {
                    assert_eq!(a.pop(l, vnet, port, cycle), model[qi].pop_front().unwrap());
                    popped[qi] = cycle;
                }
                7 => {
                    let owner = rng.range_i32(-1, 7) as i8;
                    a.set_owner(l, vnet, port, owner);
                    owners[qi] = owner;
                }
                _ => {}
            }
            // The touched router's whole state, both vnets.
            for v in 0..2 {
                let mut mask = 0u8;
                for p in 0..PORTS {
                    let qi = l * QUEUES + v * PORTS + p;
                    let cap = if p == INJECT {
                        inject_fifo
                    } else {
                        flit_buffer
                    };
                    let q = &model[qi];
                    assert_eq!(a.len(l, v, p), q.len());
                    assert_eq!(a.owner(l, v, p), owners[qi]);
                    let occupied = q.len() + usize::from(popped[qi] == cycle);
                    assert_eq!(a.space(l, v, p, cycle), cap - occupied);
                    assert_eq!(a.space(l, v, p, cycle + 1), cap - q.len());
                    if let Some(front) = q.front() {
                        mask |= 1 << p;
                        assert_eq!(a.front(l, v, p), front);
                        assert_eq!(a.route(l, v, p), ecube_route(coord(l), front.dest));
                    }
                }
                assert_eq!(a.port_mask(l, v), mask);
            }
        }
    }
}
