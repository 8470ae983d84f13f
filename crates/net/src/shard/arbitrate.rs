//! Phase 1 of a cycle: the router arbitration loop, and what a flit that
//! wins arbitration does — move one hop, or eject.
//!
//! [`NetShard::eject`] and [`NetShard::emit_hop`] are the only definitions
//! of those two actions; the bulk timing law ([`super::bulk`]) calls them at
//! the cycles it computes instead of restating them.

use super::{Edge, NetShard};
use crate::arena::ChannelArena;
use crate::bitset::ones;
use crate::config::EJECT_FIFO;
use crate::flit::Flit;
use crate::router::ecube_route;
use jm_fault::port;
use jm_isa::instr::MsgPriority;
use jm_isa::node::NodeId;
use jm_isa::word::Word;
use jm_isa::TraceId;
use jm_trace::{EventKind, FaultEvent};

/// One router's arbitration cycle so far: the physical input and output
/// channels a flit already used, and the counters it adds to the shard's.
#[derive(Default)]
struct Pass {
    in_used: u8,
    out_used: u8,
    flit_hops: u64,
    bisection_flits: u64,
}

impl NetShard {
    /// Phase 1 of cycle `cycle`: moves at most one flit per physical channel,
    /// priority-1 traffic first, input ports arbitrated in fixed order with
    /// injection last. `below`/`above` are the edges toward the adjacent
    /// shards (`None` at the mesh faces, or when the whole mesh is one
    /// shard). Flits leaving the slab are posted to the edge mailboxes and
    /// picked up by [`NetShard::exchange`] on the receiving side.
    ///
    /// Only routers holding buffered flits do any work; an empty shard steps
    /// in O(1). The scan walks the active bitset a word at a time, in
    /// ascending index order, reading each word as it reaches it — no
    /// snapshot. That is cycle-exact with a naive full scan: inactive routers
    /// have nothing to move, and a router activated mid-step only holds flits
    /// pushed this cycle, which move next cycle whether or not this scan
    /// still visits it.
    pub fn step_cycle(&mut self, cycle: u64, below: Option<&Edge>, above: Option<&Edge>) {
        // Generated traffic enters first, before the idle early-out: the
        // generator is what *creates* work on an otherwise-empty shard. Node
        // sends for this cycle have already been committed by the caller
        // (the machine ticks nodes before stepping the network), so the
        // inject-FIFO occupancy the generator observes — and therefore every
        // accept/drop decision — is identical under every engine.
        if self.traffic.is_some() {
            self.inject_traffic(cycle);
        }
        // The law's messages share no resource with the buffered flits, so
        // the two may move in either order.
        self.step_bulk(cycle);
        if !self.active.is_empty() {
            self.scan_routers(cycle, below, above);
        }
    }

    /// Steps every router holding flits, in ascending order, and posts the
    /// boundary crossings that produced.
    fn scan_routers(&mut self, cycle: u64, below: Option<&Edge>, above: Option<&Edge>) {
        // The naive full scan's answer, taken before any flit moves, for
        // the debug cross-check below.
        let due: Vec<usize> = if cfg!(debug_assertions) {
            (0..self.routers.len())
                .filter(|&n| self.arena.holds(n))
                .collect()
        } else {
            Vec::new()
        };
        let mut seen = 0;
        for w in 0..self.active.word_count() {
            for bit in ones(self.active.word(w)) {
                let n = 64 * w + bit;
                if cfg!(debug_assertions) && due.get(seen) == Some(&n) {
                    seen += 1;
                }
                if !self.arena.holds(n) {
                    self.active.remove(n);
                    continue;
                }
                self.step_router(n, cycle, below, above);
                if !self.arena.holds(n) {
                    self.active.remove(n);
                }
            }
        }
        debug_assert_eq!(
            seen,
            due.len(),
            "router {} held flits and was not visited",
            due[seen]
        );
        self.post_crossings(below, above);
    }

    /// Advances one router one cycle: moves at most one flit per physical
    /// channel, priority-1 traffic first, input ports arbitrated in fixed
    /// ascending order with injection last.
    fn step_router(&mut self, n: usize, cycle: u64, below: Option<&Edge>, above: Option<&Edge>) {
        let mut pass = Pass::default();
        for &priority in [MsgPriority::P1, MsgPriority::P0].iter() {
            let vnet = priority.index();
            // Non-empty input ports in ascending (arbitration) order, minus
            // physical channels a higher-priority flit already used.
            let ports = self.arena.port_mask(n, vnet) & !pass.in_used;
            let mut avail = ports & !(1 << port::INJECT);
            while avail != 0 {
                let in_port = avail.trailing_zeros() as usize;
                avail &= avail - 1;
                self.try_move::<false>(n, vnet, in_port, cycle, &mut pass, below, above);
            }
            // Injection last, and apart: its front flit is made from the
            // FIFO's front message, not read from a ring.
            if ports >> port::INJECT & 1 != 0 {
                self.try_move::<true>(n, vnet, port::INJECT, cycle, &mut pass, below, above);
            }
        }
        self.stats.flit_hops += pass.flit_hops;
        self.stats.bisection_flits += pass.bisection_flits;
    }

    /// Moves the front flit of input `in_port` (the injection FIFO when
    /// `INJECT`) of router `n` if it may move this cycle.
    ///
    /// Whether a front flit may move is a conjunction of pure checks, so
    /// their order is unobservable; they run cheapest storage first — this
    /// router's hot record (readiness included, for a ring), then the
    /// neighbour's. The flit itself is read only when the ejection FIFO is
    /// full, to ask whether it carries a word. The one check with a side
    /// effect is the fault plan's (`blocked_moves`), which keeps its place
    /// after the owner and readiness checks (`DESIGN.md` §4.5).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn try_move<const INJECT: bool>(
        &mut self,
        n: usize,
        vnet: usize,
        in_port: usize,
        cycle: u64,
        pass: &mut Pass,
        below: Option<&Edge>,
        above: Option<&Edge>,
    ) {
        // The front flit's framing and destination (an injection probe
        // leaves out the payload word, which no check reads).
        let front = |arena: &ChannelArena| {
            if INJECT {
                arena.inject_probe(n, vnet)
            } else {
                *arena.front(n, vnet, in_port)
            }
        };
        let out = self.arena.route(n, vnet, in_port);
        debug_assert_eq!(
            out,
            ecube_route(self.arena.coord(n), front(&self.arena).dest),
            "stale cached route"
        );
        if pass.out_used & (1 << out) != 0 {
            return;
        }
        let owner = self.arena.owner(n, vnet, out);
        let owned = owner == in_port as i8;
        if !owned && owner >= 0 {
            return;
        }
        // Ready to leave this buffer: a ring's front did not arrive this
        // cycle, the injection FIFO's front message is past its latency.
        let ready = if INJECT {
            self.arena.inject_ready(n, vnet, cycle)
        } else {
            self.arena.ready(n, vnet, in_port, cycle)
        };
        if !ready {
            return;
        }
        if let Some(f) = &self.fault {
            // Delay faults act exactly like a full downstream buffer: the
            // flit stays queued and wormhole backpressure holds the path, so
            // nothing is ever lost. The decision is a pure function of
            // (global node, out port, cycle) — identical for every engine
            // and layout.
            if f.blocked((self.base + n) as u32, out, cycle) {
                self.stats.faults.blocked_moves += 1;
                return;
            }
        }
        // Space check downstream. Local targets report start-of-cycle
        // occupancy; boundary targets were published by the owning shard at
        // the last exchange — both are scan-order-independent (module docs).
        // `next` is the neighbor-table entry: a local index, or a boundary
        // code (always larger).
        let count = self.routers.len();
        let next = if out == port::EJECT {
            if self.routers[n].ejected[vnet].len() >= EJECT_FIFO
                && front(&self.arena).payload().is_some()
            {
                return;
            }
            u32::MAX
        } else {
            let next = self.neigh[n][out];
            let space = if (next as usize) < count {
                self.arena.space(next as usize, vnet, out, cycle)
            } else {
                usize::from(self.boundary_space(next, vnet, below, above))
            };
            if space == 0 {
                return;
            }
            next
        };
        // Commit the move.
        let flit = if INJECT {
            self.arena.pop_inject(n, vnet, cycle)
        } else {
            self.arena.pop(n, vnet, in_port, cycle)
        };
        // Wormhole FIFO discipline never strands a body flit behind a
        // torn-down path: a flit that acquires an output is a head.
        debug_assert!(owned || flit.head(), "orphan body flit");
        pass.in_used |= 1 << in_port;
        pass.out_used |= 1 << out;
        self.arena
            .set_owner(n, vnet, out, if flit.tail() { -1 } else { in_port as i8 });
        if self.law.on && flit.tail() {
            self.release(n, in_port, out);
        }
        if out == port::EJECT {
            self.eject(n, vnet, flit, cycle);
            return;
        }
        if flit.head() {
            self.emit_hop(flit.trace(), n, cycle);
        }
        pass.flit_hops += 1;
        pass.bisection_flits += u64::from(self.bisect_out[n] >> out & 1);
        if (next as usize) < count {
            let m = next as usize;
            self.arena.push_moved(m, vnet, out, flit, cycle);
            self.active.insert(m);
        } else {
            self.cross(next, vnet, flit);
        }
    }

    /// The per-hop lifecycle event: the head of traced message `id` acquired
    /// an output port of local router `n` this cycle.
    #[inline]
    pub(super) fn emit_hop(&mut self, id: TraceId, n: usize, cycle: u64) {
        if let Some(tracer) = &mut self.tracer {
            if id.is_some() {
                let node = NodeId((self.base + n) as u32);
                tracer.emit(cycle, EventKind::Hop { id, node });
            }
        }
    }

    /// A flit leaves the mesh through local router `n`'s ejection port: a
    /// head leaves its message's commit cycle with the router, a payload
    /// word joins the node's ejection FIFO (the caller has checked it has
    /// room), and a tail closes the message's statistics.
    #[inline]
    pub(super) fn eject(&mut self, n: usize, vnet: usize, flit: Flit, cycle: u64) {
        self.in_flight -= 1;
        self.debug_assert_released();
        // Wormhole ownership ejects one message per vnet at a time, so the
        // head's commit cycle waits here for that message's tail.
        if let Some(committed) = flit.inject_cycle() {
            self.routers[n].eject_committed[vnet] = committed;
        }
        let trace = flit.trace();
        if let Some(mut word) = flit.payload() {
            if self.fault.is_some() {
                word = self.eject_faulted(word, n, vnet, trace, cycle);
            }
            self.routers[n].ejected[vnet].push_back((word, trace));
            self.eject_pending.insert(n);
            self.stats.delivered_words += 1;
            // The message's first payload word (its header) reaching the
            // ejection FIFO is the deliver event: the MDP dispatches on
            // header arrival while the tail may still be streaming in, so
            // keying on the tail would let dispatch precede delivery.
            if let Some(tracer) = &mut self.tracer {
                if trace.is_some() && self.routers[n].eject_cur[vnet] != trace {
                    self.routers[n].eject_cur[vnet] = trace;
                    let node = NodeId((self.base + n) as u32);
                    tracer.emit(cycle, EventKind::Deliver { id: trace, node });
                }
            }
        }
        if flit.tail() {
            if self.fault.is_some() {
                self.routers[n].eject_hdr_seen[vnet] = false;
            }
            self.stats.delivered_msgs += 1;
            // Ejection completes at the end of this cycle; injection can
            // never postdate it.
            let committed = self.routers[n].eject_committed[vnet];
            debug_assert!(
                cycle + 1 >= committed,
                "delivery precedes injection (cycle {cycle}, injected {committed})"
            );
            let latency = cycle + 1 - committed;
            self.stats.latency_sum += latency;
            self.stats.latency_max = self.stats.latency_max.max(latency);
        }
    }

    /// Fault-injection path for one payload word reaching the ejection
    /// port: the first payload word of each message (its header) passes
    /// untouched — corrupting the length field would desynchronize the
    /// queue rather than model payload damage — and every later word may
    /// get one seeded bit flip, decided by `cycle`.
    fn eject_faulted(
        &mut self,
        word: Word,
        n: usize,
        vnet: usize,
        trace: TraceId,
        cycle: u64,
    ) -> Word {
        let router = &mut self.routers[n];
        if !router.eject_hdr_seen[vnet] {
            router.eject_hdr_seen[vnet] = true;
            return word;
        }
        let node = (self.base + n) as u32;
        let plan = self.fault.as_ref().expect("checked by caller");
        let Some(bit) = plan.corrupt_bit(node, cycle) else {
            return word;
        };
        self.stats.faults.corrupted_words += 1;
        if let Some(tracer) = &mut self.tracer {
            tracer.emit(
                cycle,
                EventKind::Fault {
                    id: trace,
                    node: NodeId(node),
                    what: FaultEvent::CorruptWord,
                },
            );
        }
        Word::new(word.tag(), word.bits() ^ (1 << bit))
    }
}
