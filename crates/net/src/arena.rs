//! Channel arenas: every input buffer of every router in a shard.
//!
//! Three kinds of storage, split by how the advance loop touches them:
//!
//! * one [`Hot`] record per router — everything a *probe* reads (ring
//!   heads and lengths, non-empty port masks, output owners, the cached
//!   e-cube out port of every queue's front flit, this cycle's pop bits) in
//!   two cache lines, so finding out that a flit cannot move (about half of
//!   all probes at saturation) never loads a 32-byte flit;
//! * the directional rings' flits, each `(router, vnet, port)` queue a
//!   fixed-capacity ring at a computed offset in one `Vec<Flit>`, allocated
//!   once per shard;
//! * the injection FIFOs, one per `(router, vnet)`, holding *messages*: a
//!   [`Message`] record each and their payload words, allocated on the
//!   first commit there. A message is stored once on its way in; the
//!   injection port makes its front flit from the front record and that
//!   record's cursor ([`Message::flit`]). Occupancy is still counted in
//!   flits, so FIFO depth means what it always has.
//!
//! Indexing: within a router, queue `q = vnet * PORTS + port`, ports as
//! [`jm_fault::port`] numbers them: the mesh directions (capacity
//! `flit_buffer`) below `INJECT`, the injection FIFO (capacity
//! `inject_fifo`).

use crate::flit::{Flit, Message};
use crate::router::ecube_route;
use jm_fault::port::{self, INJECT};
use jm_isa::node::Coord;
use jm_isa::word::Word;
use std::collections::VecDeque;

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
    /// Ring head index per directional queue (the injection FIFOs keep
    /// their own order).
    head: [u8; QUEUES],
    /// This router's mesh coordinate (the `here` of the cached routes).
    coord: Coord,
}

impl Hot {
    /// Queue `(vnet, port)` had its front flit popped in `cycle`: one flit
    /// fewer, its mask bit cleared when it empties, and the pop recorded
    /// for start-of-cycle credit masking.
    #[inline]
    fn popped(&mut self, vnet: usize, port: usize, cycle: u64) {
        let q = vnet * PORTS + port;
        self.len[q] -= 1;
        if self.len[q] == 0 {
            self.mask[vnet] &= !(1 << port);
        }
        if self.pop_stamp != cycle {
            self.pop_stamp = cycle;
            self.pop_bits = 0;
        }
        self.pop_bits |= 1 << q;
    }
}

/// Folds one buffered flit into a state hash.
fn fold_flit(h: &mut jm_trace::Fnv1a, f: &Flit) {
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

/// One `(router, vnet)`'s injection FIFO: the messages committed there,
/// oldest first, the front one `popped` flits in.
#[derive(Debug, Default, Clone)]
struct InjectFifo {
    msgs: VecDeque<Message>,
    /// The payload words of every message in `msgs`, in the same order;
    /// the front message's are dropped when its tail pops.
    words: VecDeque<Word>,
}

/// All channel buffers of one shard.
#[derive(Debug)]
pub(crate) struct ChannelArena {
    hot: Vec<Hot>,
    /// Ring storage for every directional queue, at fixed computed
    /// offsets.
    flits: Vec<Flit>,
    /// Injection FIFO per `router * 2 + vnet`, `None` until the first
    /// commit there.
    inject: Vec<Option<Box<InjectFifo>>>,
    /// Capacity of the directional ports (0–5), in flits.
    flit_buffer: u8,
    /// Capacity of the injection port, in flits.
    inject_fifo: u8,
}

impl ChannelArena {
    /// Allocates the arena for one router per entry of `coords`. Done once
    /// per shard; the advance loop allocates only an injection FIFO's
    /// first storage, and a FIFO's growth to its high-water mark.
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
            flits: vec![Flit::nil(); routers * 2 * INJECT * flit_buffer],
            inject: vec![None; routers * 2],
            flit_buffer: flit_buffer as u8,
            inject_fifo: inject_fifo as u8,
        }
    }

    /// Offset in `flits` and capacity of the ring for directional
    /// `(router, vnet, port)`.
    #[inline]
    fn ring(&self, l: usize, vnet: usize, port: usize) -> (usize, usize) {
        debug_assert!(port < INJECT, "the injection FIFO is not a flit ring");
        let cap = self.flit_buffer as usize;
        (((l * 2 + vnet) * INJECT + port) * cap, cap)
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

    /// Whether router `l` holds any flit: its masks, in the line a probe
    /// reads anyway.
    #[inline]
    pub(crate) fn holds(&self, l: usize) -> bool {
        let mask = self.hot[l].mask;
        mask[0] | mask[1] != 0
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

    /// A directional queue's front flit, by reference. Callers on the hot
    /// path check the port mask first, so an empty queue is a logic error.
    #[inline]
    pub(crate) fn front(&self, l: usize, vnet: usize, port: usize) -> &Flit {
        let q = vnet * PORTS + port;
        debug_assert!(self.hot[l].len[q] > 0, "front of empty queue");
        &self.flits[self.ring(l, vnet, port).0 + self.hot[l].head[q] as usize]
    }

    /// Appends a flit to a directional queue.
    ///
    /// # Panics
    ///
    /// Debug-asserts the ring has room — capacity checks (credits) happen
    /// before any push.
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

    /// Pops a directional queue's front flit, recording `cycle` as the pop
    /// cycle (for start-of-cycle credit masking).
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
        if len > 1 && flit.tail() {
            hot.route[q] = ecube_route(hot.coord, self.flits[base + next].dest) as u8;
        }
        hot.popped(vnet, port, cycle);
        flit
    }

    /// Appends a committed message to `(router, vnet)`'s injection FIFO,
    /// its first `msg.popped` flits already gone: one record and its
    /// payload words, allocating the FIFO on its first commit.
    ///
    /// # Panics
    ///
    /// Debug-asserts the FIFO has room for the flits left — the commit
    /// checks depth before it accepts a message.
    pub(crate) fn commit(&mut self, l: usize, vnet: usize, msg: Message, payload: &[Word]) {
        debug_assert_eq!(payload.len(), msg.payload_words(), "payload length");
        let q = vnet * PORTS + INJECT;
        let hot = &mut self.hot[l];
        let len = hot.len[q] as usize;
        debug_assert!(
            len + msg.left() <= self.inject_fifo as usize,
            "injection FIFO over capacity"
        );
        if len == 0 {
            hot.route[q] = ecube_route(hot.coord, msg.dest) as u8;
            hot.mask[vnet] |= 1 << INJECT;
        }
        hot.len[q] = (len + msg.left()) as u8;
        let fifo = self.inject[l * 2 + vnet].get_or_insert_with(Box::default);
        fifo.msgs.push_back(msg);
        fifo.words.extend(payload);
    }

    /// `(router, vnet)`'s injection FIFO. Callers check the port mask
    /// first: a FIFO that ever held a flit exists.
    #[inline]
    fn fifo(&self, l: usize, vnet: usize) -> &InjectFifo {
        self.inject[l * 2 + vnet]
            .as_deref()
            .expect("a non-empty injection FIFO exists")
    }

    /// The injection FIFO's front flit as an arbitration probe reads it:
    /// made from the front message's record alone, its payload word (which
    /// no probe reads) left NIL.
    #[inline]
    pub(crate) fn inject_probe(&self, l: usize, vnet: usize) -> Flit {
        let msg = self.fifo(l, vnet).msgs.front();
        let msg = msg.expect("front of empty injection FIFO");
        msg.flit(msg.popped as usize, |_| Word::NIL)
    }

    /// The injection FIFO's front flit, made from its front message.
    #[cfg(test)]
    fn inject_front(&self, l: usize, vnet: usize) -> Flit {
        let fifo = self.fifo(l, vnet);
        let msg = fifo.msgs.front().expect("front of empty injection FIFO");
        msg.flit(msg.popped as usize, |k| fifo.words[k])
    }

    /// Pops the injection FIFO's front flit, recording `cycle` as the pop
    /// cycle; the front message goes with its tail.
    #[inline]
    pub(crate) fn pop_inject(&mut self, l: usize, vnet: usize, cycle: u64) -> Flit {
        let q = vnet * PORTS + INJECT;
        let fifo = self.inject[l * 2 + vnet]
            .as_deref_mut()
            .expect("pop of empty injection FIFO");
        let msg = fifo.msgs.front_mut().expect("pop of empty injection FIFO");
        let flit = msg.flit(msg.popped as usize, |k| fifo.words[k]);
        msg.popped += 1;
        let hot = &mut self.hot[l];
        if flit.tail() {
            let payload = msg.payload_words();
            fifo.msgs.pop_front();
            fifo.words.drain(..payload);
            if let Some(next) = fifo.msgs.front() {
                hot.route[q] = ecube_route(hot.coord, next.dest) as u8;
            }
        }
        hot.popped(vnet, INJECT, cycle);
        flit
    }

    /// Injection FIFOs allocated: one per `(router, vnet)` that has ever
    /// had a message committed to it. A host counter, outside every digest.
    pub(crate) fn inject_fifos(&self) -> usize {
        self.inject.iter().filter(|fifo| fifo.is_some()).count()
    }

    /// Free flit slots in a directional queue *at the start of cycle
    /// `cycle`*: a flit popped from the queue earlier in the same cycle
    /// still counts as occupying its slot (credit updates propagate at
    /// cycle boundaries).
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
    /// the output-port owner. The injection FIFO folds the flits its
    /// messages stand for, exactly as if it stored them. Physical ring head
    /// positions, the cached routes (a function of the front flit) and the
    /// pop stamp are excluded — at a cycle boundary the logical queue
    /// contents fully determine future behavior (a pop stamp can only equal
    /// a cycle already finished).
    pub(crate) fn fold_state(&self, l: usize, vnet: usize, h: &mut jm_trace::Fnv1a) {
        let hot = &self.hot[l];
        for port in 0..PORTS {
            let q = vnet * PORTS + port;
            let len = hot.len[q] as usize;
            h.write_u8(len as u8);
            if port == INJECT {
                if len > 0 {
                    let fifo = self.fifo(l, vnet);
                    let mut base = 0;
                    for msg in &fifo.msgs {
                        for f in msg.popped as usize..msg.flits as usize {
                            fold_flit(h, &msg.flit(f, |k| fifo.words[base + k]));
                        }
                        base += msg.payload_words();
                    }
                }
            } else {
                let (base, cap) = self.ring(l, vnet, port);
                for k in 0..len {
                    fold_flit(h, &self.flits[base + Self::slot(hot.head[q], k, cap)]);
                }
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

    /// A message of `words` words (route word included) to `dest`,
    /// committed in `cycle`: its record, its payload words and its flits as
    /// the old per-flit expansion made them.
    fn message(dest: Coord, words: usize, cycle: u64, tag: i32) -> (Message, Vec<Word>, Vec<Flit>) {
        let trace = jm_isa::TraceId(tag as u64);
        let mut all = vec![jm_isa::node::RouteWord::new(dest).to_word()];
        all.extend((1..words as i32).map(|k| Word::int(tag * 16 + k)));
        let msg = Message::new(dest, words, cycle, cycle + 2, trace);
        let flits = Flit::message(dest, &all, cycle, cycle + 2, trace).collect();
        (msg, all.split_off(1), flits)
    }

    /// The fold of `(router, vnet)` as if every queue stored its flits:
    /// `model[p]` the flits of port `p`, `owners[p]` its owner.
    fn model_fold(model: &[VecDeque<Flit>], owners: &[i8]) -> u64 {
        let mut h = jm_trace::Fnv1a::new();
        for (q, owner) in model.iter().zip(owners) {
            h.write_u8(q.len() as u8);
            for f in q {
                fold_flit(&mut h, f);
            }
            h.write_u8(*owner as u8);
        }
        h.finish()
    }

    #[test]
    fn inject_port_uses_its_own_capacity() {
        let mut a = arena(1, 2, 6);
        assert_eq!(a.inject_fifos(), 0, "nothing committed, nothing allocated");
        let (msg, payload, flits) = message(Coord::default(), 3, 0, 1);
        a.commit(0, 0, msg, &payload);
        assert_eq!(a.len(0, 0, INJECT), 6);
        assert_eq!(a.inject_fifos(), 1);
        for want in flits {
            assert_eq!(a.inject_front(0, 0), want);
            assert_eq!(a.pop_inject(0, 0, 1), want);
        }
        assert_eq!(a.len(0, 0, INJECT), 0);
        assert_eq!(a.port_mask(0, 0), 0);
        assert_eq!(a.inject_fifos(), 1, "an emptied FIFO stays allocated");
    }

    /// Random commits of 1–8-payload-word messages into both vnets'
    /// injection FIFOs of one router, pops, and materializations — a
    /// message committed into an empty FIFO with its first flits already
    /// gone — checked after every operation against one `VecDeque<Flit>`
    /// per FIFO filled by the old per-flit expansion: length, front, mask,
    /// cached route and the fold.
    #[test]
    fn message_fifo_matches_a_flit_deque_model() {
        let dims = jm_isa::node::MeshDims::new(3, 3, 2);
        let here = dims.coord(jm_isa::node::NodeId(4));
        let inject_fifo = 40;
        let mut a = ChannelArena::new(std::iter::once(here), 2, inject_fifo);
        let mut model = vec![VecDeque::<Flit>::new(); 2];
        let mut rng = Prng::new(0x1f1f0);
        let (mut cycle, mut materialized) = (0u64, 0);
        for step in 0..20_000i32 {
            cycle += u64::from(rng.chance(0.3));
            let vnet = rng.range_usize(0, 2);
            let words = rng.range_usize(2, 10);
            let dest = dims.coord(jm_isa::node::NodeId(rng.range_u32(0, dims.nodes())));
            let (mut msg, payload, flits) = message(dest, words, cycle, step);
            let fifo = &mut model[vnet];
            match rng.range_u32(0, 8) {
                0..=2 if fifo.len() + flits.len() <= inject_fifo => {
                    a.commit(0, vnet, msg, &payload);
                    fifo.extend(flits);
                }
                // What materialize commits: an empty FIFO, a partial cursor.
                3 if fifo.is_empty() => {
                    msg.popped = rng.range_usize(1, flits.len()) as u8;
                    a.commit(0, vnet, msg, &payload);
                    fifo.extend(&flits[msg.popped as usize..]);
                    materialized += 1;
                }
                // A run of pops, so the FIFO drains as often as it fills.
                4..=7 => {
                    for _ in 0..rng.range_usize(1, 16).min(fifo.len()) {
                        assert_eq!(a.pop_inject(0, vnet, cycle), fifo.pop_front().unwrap());
                    }
                }
                _ => {}
            }
            for (v, fifo) in model.iter().enumerate() {
                assert_eq!(a.len(0, v, INJECT), fifo.len(), "step {step}");
                assert_eq!(a.port_mask(0, v) >> INJECT & 1, u8::from(!fifo.is_empty()));
                if let Some(front) = fifo.front() {
                    assert_eq!(&a.inject_front(0, v), front, "step {step}");
                    let probe = a.inject_probe(0, v);
                    let unworded = (front.payload().map(|_| Word::NIL), front.ready_cycle);
                    assert_eq!((probe.payload(), probe.ready_cycle), unworded);
                    assert_eq!(
                        (probe.head(), probe.tail(), probe.dest),
                        (front.head(), front.tail(), front.dest)
                    );
                    assert_eq!(a.route(0, v, INJECT), ecube_route(here, front.dest));
                }
                let mut queues = vec![VecDeque::new(); PORTS];
                queues[INJECT] = fifo.clone();
                let mut h = jm_trace::Fnv1a::new();
                a.fold_state(0, v, &mut h);
                assert_eq!(h.finish(), model_fold(&queues, &[-1; PORTS]), "step {step}");
            }
        }
        assert!(
            materialized > 200,
            "the walk reached {materialized} partial cursors"
        );
        assert_eq!(a.inject_fifos(), 2);
    }

    /// Random pushes, pops and owner writes over every queue of a small
    /// arena — flits into the directional rings, whole messages into the
    /// injection FIFOs — checked after every operation against one plain
    /// `VecDeque<Flit>` per queue: front, length, mask, start-of-cycle
    /// space of the rings, the cached route against a fresh `ecube_route`,
    /// and the fold.
    #[test]
    fn random_operations_match_a_deque_model() {
        let dims = jm_isa::node::MeshDims::new(3, 2, 2);
        let (flit_buffer, inject_fifo) = (3usize, 13usize);
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
            match rng.range_u32(0, 8) {
                // Whole messages into the injection FIFO, while they fit.
                0..=3 if port == INJECT => {
                    let dest = coord(rng.range_usize(0, routers));
                    let words = rng.range_usize(2, 5);
                    let (msg, payload, flits) = message(dest, words, cycle, step as i32);
                    if model[qi].len() + flits.len() <= inject_fifo {
                        a.commit(l, vnet, msg, &payload);
                        model[qi].extend(flits);
                    }
                }
                // Senders check start-of-cycle space before every push.
                0..=3 if model[qi].len() + usize::from(popped[qi] == cycle) < flit_buffer => {
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
                    let flit = if port == INJECT {
                        a.pop_inject(l, vnet, cycle)
                    } else {
                        a.pop(l, vnet, port, cycle)
                    };
                    assert_eq!(flit, model[qi].pop_front().unwrap());
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
                let queues = l * QUEUES + v * PORTS..l * QUEUES + (v + 1) * PORTS;
                for p in 0..PORTS {
                    let qi = l * QUEUES + v * PORTS + p;
                    let q = &model[qi];
                    assert_eq!(a.len(l, v, p), q.len());
                    assert_eq!(a.owner(l, v, p), owners[qi]);
                    if p != INJECT {
                        let occupied = q.len() + usize::from(popped[qi] == cycle);
                        assert_eq!(a.space(l, v, p, cycle), flit_buffer - occupied);
                        assert_eq!(a.space(l, v, p, cycle + 1), flit_buffer - q.len());
                    }
                    if let Some(front) = q.front() {
                        mask |= 1 << p;
                        let made = if p == INJECT {
                            a.inject_front(l, v)
                        } else {
                            *a.front(l, v, p)
                        };
                        assert_eq!(&made, front);
                        assert_eq!(a.route(l, v, p), ecube_route(coord(l), front.dest));
                    }
                }
                assert_eq!(a.port_mask(l, v), mask);
                assert_eq!(a.holds(l), a.port_mask(l, 0) | a.port_mask(l, 1) != 0);
                let mut h = jm_trace::Fnv1a::new();
                a.fold_state(l, v, &mut h);
                let want = model_fold(&model[queues.clone()], &owners[queues]);
                assert_eq!(h.finish(), want, "step {step}");
            }
        }
    }
}
