//! Channel arenas: every input buffer of every router in a shard.
//!
//! Three kinds of storage, split by how the advance loop touches them:
//!
//! * one [`Hot`] record per router — everything a *probe* reads (ring
//!   heads and lengths, non-empty port masks, output owners, the cached
//!   e-cube out port of every queue's front flit, this cycle's pop and push
//!   bits) in two cache lines, so finding out that a flit cannot move
//!   (about half of all probes at saturation) never loads a flit, and only
//!   a probe at a full ejection FIFO, which must know whether its front
//!   flit carries a word, loads one;
//! * the directional rings, each `(router, vnet, port)` queue a
//!   [`FLIT_BUFFER`]-flit ring that is one 64-byte line ([`Ring`]), at a
//!   computed index in one `Vec<Ring>` allocated once per shard — so every
//!   probe, pop and push of a ring touches one line;
//! * the injection FIFOs, one per `(router, vnet)`, holding *messages*: a
//!   [`Message`] record each and their payload words, allocated on the
//!   first commit there. A message is stored once on its way in; the
//!   injection port makes its front flit from the front record and that
//!   record's cursor ([`Message::flit`]). Occupancy is still counted in
//!   flits, so FIFO depth means what it always has.
//!
//! Indexing: within a router, queue `q = vnet * PORTS + port`, ports as
//! [`jm_fault::port`] numbers them: the mesh directions (capacity
//! [`FLIT_BUFFER`]) below `INJECT`, the injection FIFO (capacity
//! [`INJECT_FIFO`]).

use crate::config::{FLIT_BUFFER, INJECT_FIFO, INJECT_LATENCY};
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

/// One directional queue's storage: [`FLIT_BUFFER`] flits on one cache
/// line.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy)]
struct Ring([Flit; FLIT_BUFFER]);

/// One router's arbitration state. The fields a probe reads come first so
/// they share the record's first cache line; ring heads (needed only once
/// a flit is actually looked at) and the coordinate (needed only when a
/// route is refreshed) trail into the second.
#[repr(C, align(64))]
#[derive(Debug, Clone)]
struct Hot {
    /// Cycle `pop_bits` and `push_bits` belong to (`u64::MAX` = never
    /// touched).
    stamp: u64,
    /// Bit `q` set iff queue `q` had a flit popped in cycle `stamp`.
    /// Lets [`ChannelArena::space`] report *start-of-cycle* occupancy: a
    /// slot freed earlier in the same cycle is not yet visible to upstream
    /// senders, exactly as if every router read its neighbors' credits at
    /// the cycle boundary — which makes the space check independent of
    /// router scan order, and therefore of sharding.
    pop_bits: u16,
    /// Bit `q` set iff a flit that moved in cycle `stamp` was pushed into
    /// queue `q` ([`ChannelArena::push_moved`]). At most one flit crosses a
    /// channel per cycle, so that flit is the ring's last; it is its front
    /// only when the ring holds nothing else, and then it may not move on
    /// until the next cycle ([`ChannelArena::ready`]) — one hop per cycle,
    /// whichever order the routers are scanned in.
    push_bits: u16,
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
    /// Makes the pop and push bits `cycle`'s: clears them on the first
    /// pop or push of a new cycle.
    #[inline]
    fn restamp(&mut self, cycle: u64) {
        if self.stamp != cycle {
            self.stamp = cycle;
            self.pop_bits = 0;
            self.push_bits = 0;
        }
    }

    /// Whether queue `q` took a moved flit in `cycle`.
    #[inline]
    fn pushed(&self, q: usize, cycle: u64) -> bool {
        self.stamp == cycle && self.push_bits & (1 << q) != 0
    }

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
        self.restamp(cycle);
        self.pop_bits |= 1 << q;
    }
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
    /// Every directional queue's ring, at a fixed computed index.
    rings: Vec<Ring>,
    /// Injection FIFO per `router * 2 + vnet`, `None` until the first
    /// commit there.
    inject: Vec<Option<Box<InjectFifo>>>,
}

impl ChannelArena {
    /// Allocates the arena for one router per entry of `coords`. Done once
    /// per shard; the advance loop allocates only an injection FIFO's
    /// first storage, and a FIFO's growth to its high-water mark.
    pub(crate) fn new(coords: impl ExactSizeIterator<Item = Coord>) -> ChannelArena {
        let routers = coords.len();
        ChannelArena {
            hot: coords
                .map(|coord| Hot {
                    stamp: u64::MAX,
                    pop_bits: 0,
                    push_bits: 0,
                    mask: [0; 2],
                    route: [0; QUEUES],
                    owners: [-1; QUEUES],
                    len: [0; QUEUES],
                    head: [0; QUEUES],
                    coord,
                })
                .collect(),
            rings: vec![Ring([Flit::NIL; FLIT_BUFFER]); routers * 2 * INJECT],
            inject: vec![None; routers * 2],
        }
    }

    /// Index in `rings` of directional `(router, vnet, port)`.
    #[inline]
    fn ring(l: usize, vnet: usize, port: usize) -> usize {
        debug_assert!(port < INJECT, "the injection FIFO is not a flit ring");
        (l * 2 + vnet) * INJECT + port
    }

    /// Slot of the `k`-th flit of a ring starting at `head` (the depth is a
    /// constant, so the remainder compiles to no division).
    #[inline]
    fn slot(head: u8, k: usize) -> usize {
        (head as usize + k) % FLIT_BUFFER
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
        &self.rings[Self::ring(l, vnet, port)].0[self.hot[l].head[q] as usize]
    }

    /// Whether a directional queue's front flit may leave it in `cycle`:
    /// it did not arrive in `cycle` ([`Hot::push_bits`]). Callers check
    /// the port mask first.
    #[inline]
    pub(crate) fn ready(&self, l: usize, vnet: usize, port: usize, cycle: u64) -> bool {
        let q = vnet * PORTS + port;
        let hot = &self.hot[l];
        !(hot.len[q] == 1 && hot.pushed(q, cycle))
    }

    /// Appends a flit that may leave at the start of the next cycle to a
    /// directional queue: one the exchange delivers from another shard, or
    /// one a materialized law message had already moved.
    ///
    /// # Panics
    ///
    /// Debug-asserts the ring has room — capacity checks (credits) happen
    /// before any push.
    #[inline]
    pub(crate) fn push(&mut self, l: usize, vnet: usize, port: usize, flit: Flit) {
        let q = vnet * PORTS + port;
        let ring = &mut self.rings[Self::ring(l, vnet, port)];
        let hot = &mut self.hot[l];
        let len = hot.len[q] as usize;
        debug_assert!(len < FLIT_BUFFER, "channel ring over capacity");
        if len == 0 {
            hot.route[q] = ecube_route(hot.coord, flit.dest) as u8;
            hot.mask[vnet] |= 1 << port;
        }
        hot.len[q] = (len + 1) as u8;
        ring.0[Self::slot(hot.head[q], len)] = flit;
    }

    /// Appends a flit that moved in `cycle` to a directional queue,
    /// recording the push so the flit moves no further this cycle.
    #[inline]
    pub(crate) fn push_moved(
        &mut self,
        l: usize,
        vnet: usize,
        port: usize,
        flit: Flit,
        cycle: u64,
    ) {
        self.push(l, vnet, port, flit);
        let hot = &mut self.hot[l];
        hot.restamp(cycle);
        hot.push_bits |= 1 << (vnet * PORTS + port);
    }

    /// Pops a directional queue's front flit, recording `cycle` as the pop
    /// cycle (for start-of-cycle credit masking).
    #[inline]
    pub(crate) fn pop(&mut self, l: usize, vnet: usize, port: usize, cycle: u64) -> Flit {
        let q = vnet * PORTS + port;
        let ring = &self.rings[Self::ring(l, vnet, port)];
        let hot = &mut self.hot[l];
        let len = hot.len[q] as usize;
        debug_assert!(len > 0, "pop of empty queue");
        let flit = ring.0[hot.head[q] as usize];
        let next = Self::slot(hot.head[q], 1);
        hot.head[q] = next as u8;
        if len > 1 && flit.tail() {
            hot.route[q] = ecube_route(hot.coord, ring.0[next].dest) as u8;
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
            len + msg.left() <= INJECT_FIFO,
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

    /// Whether the injection FIFO's front flit may leave it in `cycle`: its
    /// message's injection latency has passed. Callers check the port mask
    /// first.
    #[inline]
    pub(crate) fn inject_ready(&self, l: usize, vnet: usize, cycle: u64) -> bool {
        let msg = self.fifo(l, vnet).msgs.front();
        msg.expect("front of empty injection FIFO").inject_cycle + INJECT_LATENCY <= cycle
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
        // At most one flit crosses a channel per cycle, and its sender
        // checks space *before* pushing — so when this runs, no same-cycle
        // push can already sit in the buffer.
        debug_assert!(!hot.pushed(q, cycle), "space read after a same-cycle push");
        let popped = hot.stamp == cycle && hot.pop_bits & (1 << q) != 0;
        let occupied = len + usize::from(popped);
        debug_assert!(
            occupied <= FLIT_BUFFER,
            "input buffer over capacity: {occupied} > {FLIT_BUFFER}"
        );
        FLIT_BUFFER.saturating_sub(occupied)
    }

    /// The flits of queue `(router, vnet, port)` in FIFO order, trace ids
    /// cleared; the injection FIFO's messages as the flits they stand for.
    /// Ring positions, the cached routes and the stamp with its pop and
    /// push bits are not state: at a cycle boundary the stamp can only
    /// be a finished cycle's, so every buffered flit may move.
    pub(crate) fn flits(&self, l: usize, vnet: usize, port: usize) -> Vec<Flit> {
        let (hot, q) = (&self.hot[l], vnet * PORTS + port);
        let mut flits = Vec::with_capacity(hot.len[q] as usize);
        if port != INJECT {
            let ring = &self.rings[Self::ring(l, vnet, port)];
            flits.extend((0..hot.len[q] as usize).map(|k| ring.0[Self::slot(hot.head[q], k)]));
        } else if hot.len[q] > 0 {
            let (fifo, mut base) = (self.fifo(l, vnet), 0);
            for msg in &fifo.msgs {
                let flit = |f| msg.flit(f as usize, |k| fifo.words[base + k]);
                flits.extend((msg.popped..msg.flits).map(flit));
                base += msg.payload_words();
            }
        }
        flits.iter_mut().for_each(|f| f.trace = 0);
        flits
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

    /// A head flit to the origin, told apart from others by its commit
    /// cycle `mark`.
    fn flit(mark: u64) -> Flit {
        let words = [Word::NIL];
        let mut flits = Flit::message(Coord::default(), &words, mark, jm_isa::TraceId::NONE);
        flits.next().expect("a head")
    }

    /// An arena of `routers` routers, all at the origin.
    fn arena(routers: usize) -> ChannelArena {
        ChannelArena::new(std::iter::repeat_n(Coord::default(), routers))
    }

    // A flit is what the wire carries, and a ring is one cache line.
    const _: () = assert!(std::mem::size_of::<Flit>() == 16);
    const _: () = assert!(std::mem::size_of::<Ring>() == 64);
    const _: () = assert!(std::mem::align_of::<Ring>() == 64);

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
        let mut a = arena(2);
        assert_eq!(a.port_mask(1, 0), 0);
        for i in 0..4 {
            a.push(1, 0, 2, flit(i));
        }
        assert_eq!(a.len(1, 0, 2), 4);
        assert_eq!(a.port_mask(1, 0), 1 << 2);
        // Drain two, refill two: the ring wraps.
        assert_eq!(a.pop(1, 0, 2, 10), flit(0));
        assert_eq!(a.pop(1, 0, 2, 10), flit(1));
        a.push(1, 0, 2, flit(4));
        a.push(1, 0, 2, flit(5));
        for want in 2..6 {
            assert_eq!(a.pop(1, 0, 2, 11), flit(want));
        }
        assert_eq!(a.port_mask(1, 0), 0);
    }

    #[test]
    fn space_masks_same_cycle_pops() {
        let mut a = arena(1);
        a.push(0, 1, 3, flit(0));
        a.push(0, 1, 3, flit(0));
        assert_eq!(a.space(0, 1, 3, 5), 2);
        a.pop(0, 1, 3, 5);
        // The freed slot is invisible until the next cycle.
        assert_eq!(a.space(0, 1, 3, 5), 2);
        assert_eq!(a.space(0, 1, 3, 6), 3);
    }

    #[test]
    fn a_moved_flit_waits_for_the_next_cycle() {
        let mut a = arena(1);
        a.push_moved(0, 0, 1, flit(0), 5);
        assert!(!a.ready(0, 0, 1, 5), "arrived this cycle");
        assert!(a.ready(0, 0, 1, 6));
        // Behind an older flit the front may move; once that flit has gone
        // in the same cycle, the newcomer may not.
        a.push_moved(0, 0, 1, flit(1), 6);
        assert!(a.ready(0, 0, 1, 6));
        a.pop(0, 0, 1, 6);
        assert!(!a.ready(0, 0, 1, 6));
        assert!(a.ready(0, 0, 1, 7));
        // A pop of a new cycle clears the last cycle's pushes; an unstamped
        // push (exchange, materialize) may move at once.
        a.push(0, 1, 2, flit(2));
        assert!(a.ready(0, 1, 2, 7));
        a.pop(0, 0, 1, 7);
        a.push_moved(0, 0, 1, flit(3), 8);
        assert_eq!((a.ready(0, 1, 2, 8), a.ready(0, 0, 1, 8)), (true, false));
    }

    #[test]
    fn owners_default_unowned() {
        let mut a = arena(1);
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
        let msg = Message::new(dest, words, cycle, trace);
        let flits = Flit::message(dest, &all, cycle, trace).collect();
        (msg, all.split_off(1), flits)
    }

    /// `flits` as the state holds them: trace ids cleared.
    fn untraced<'a>(flits: impl IntoIterator<Item = &'a Flit>) -> Vec<Flit> {
        flits.into_iter().map(|&f| Flit { trace: 0, ..f }).collect()
    }

    #[test]
    fn inject_port_uses_its_own_capacity() {
        let mut a = arena(1);
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
    /// cached route and the flits the state holds.
    #[test]
    fn message_fifo_matches_a_flit_deque_model() {
        let dims = jm_isa::node::MeshDims::new(3, 3, 2);
        let here = dims.coord(jm_isa::node::NodeId(4));
        let mut a = ChannelArena::new(std::iter::once(here));
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
                0..=2 if fifo.len() + flits.len() <= INJECT_FIFO => {
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
                    let unworded = (front.payload().map(|_| Word::NIL), front.inject_cycle());
                    assert_eq!((probe.payload(), probe.inject_cycle()), unworded);
                    assert_eq!(
                        (probe.head(), probe.tail(), probe.dest),
                        (front.head(), front.tail(), front.dest)
                    );
                    assert_eq!(a.route(0, v, INJECT), ecube_route(here, front.dest));
                }
                assert_eq!(a.flits(0, v, INJECT), untraced(fifo), "step {step}");
            }
        }
        assert!(
            materialized > 200,
            "the walk reached {materialized} partial cursors"
        );
        assert_eq!(a.inject_fifos(), 2);
    }

    /// Random pushes, pops and owner writes over every queue of a small
    /// arena — flits into the directional rings, moved in this cycle or
    /// not, whole messages into the injection FIFOs — checked after every
    /// operation against one plain `VecDeque` per queue of flits and the
    /// cycle each may leave from: front, readiness, length, mask,
    /// start-of-cycle space of the rings, the cached route against a fresh
    /// `ecube_route`, and the flits the state holds.
    #[test]
    fn random_operations_match_a_deque_model() {
        let dims = jm_isa::node::MeshDims::new(3, 2, 2);
        let routers = dims.nodes() as usize;
        let coord = |l: usize| dims.coord(jm_isa::node::NodeId(l as u32));
        let mut a = ChannelArena::new((0..routers).map(coord));
        let mut model = vec![VecDeque::<(Flit, u64)>::new(); routers * QUEUES];
        let mut owners = vec![-1i8; routers * QUEUES];
        // Cycle of the model's last pop and last moved push per queue.
        let mut popped = vec![u64::MAX; routers * QUEUES];
        let mut pushed = vec![u64::MAX; routers * QUEUES];
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
                    if model[qi].len() + flits.len() <= INJECT_FIFO {
                        a.commit(l, vnet, msg, &payload);
                        let from = msg.inject_cycle + INJECT_LATENCY;
                        model[qi].extend(flits.into_iter().map(|f| (f, from)));
                    }
                }
                // Senders check start-of-cycle space before every push, and
                // a channel carries one flit a cycle.
                0..=3
                    if model[qi].len() + usize::from(popped[qi] == cycle) < FLIT_BUFFER
                        && pushed[qi] != cycle =>
                {
                    let dest =
                        *msg_dest[qi].get_or_insert_with(|| coord(rng.range_usize(0, routers)));
                    let tail = rng.chance(0.3);
                    // Of a three-word message, flit 3 completes a payload
                    // word mid-message and flit 5 is the tail.
                    let word = jm_isa::word::Word::int(step as i32);
                    let f = Flit::message(dest, &[word; 3], cycle, jm_isa::TraceId::NONE)
                        .nth(if tail { 5 } else { 3 })
                        .expect("six flits");
                    if tail {
                        msg_dest[qi] = None;
                    }
                    if rng.chance(0.5) {
                        a.push_moved(l, vnet, port, f, cycle);
                        model[qi].push_back((f, cycle + 1));
                        pushed[qi] = cycle;
                    } else {
                        a.push(l, vnet, port, f);
                        model[qi].push_back((f, 0));
                    }
                }
                4..=6 if !model[qi].is_empty() => {
                    let flit = if port == INJECT {
                        a.pop_inject(l, vnet, cycle)
                    } else {
                        a.pop(l, vnet, port, cycle)
                    };
                    assert_eq!(flit, model[qi].pop_front().unwrap().0);
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
                    let q = &model[qi];
                    assert_eq!(a.len(l, v, p), q.len());
                    assert_eq!(a.owner(l, v, p), owners[qi]);
                    if p != INJECT {
                        // Space is never read after a same-cycle push.
                        if pushed[qi] != cycle {
                            let occupied = q.len() + usize::from(popped[qi] == cycle);
                            assert_eq!(a.space(l, v, p, cycle), FLIT_BUFFER - occupied);
                        }
                        assert_eq!(a.space(l, v, p, cycle + 1), FLIT_BUFFER - q.len());
                    }
                    if let Some(&(front, from)) = q.front() {
                        mask |= 1 << p;
                        let (made, ready) = if p == INJECT {
                            (a.inject_front(l, v), a.inject_ready(l, v, cycle))
                        } else {
                            (*a.front(l, v, p), a.ready(l, v, p, cycle))
                        };
                        assert_eq!((made, ready), (front, from <= cycle), "step {step}");
                        assert_eq!(a.route(l, v, p), ecube_route(coord(l), front.dest));
                    }
                    let flits = untraced(q.iter().map(|(f, _)| f));
                    assert_eq!(a.flits(l, v, p), flits, "step {step}");
                }
                assert_eq!(a.port_mask(l, v), mask);
                assert_eq!(a.holds(l), a.port_mask(l, 0) | a.port_mask(l, 1) != 0);
            }
        }
    }
}
