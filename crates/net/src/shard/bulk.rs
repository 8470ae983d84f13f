//! The wormhole bulk-advance law: every message whose route no other
//! message in flight contends for is advanced by its closed-form timing
//! instead of flit by flit.
//!
//! This module owns the law and nothing else does. What a flit *does* when
//! the law says it moves — the hop event, the ejection — is the router
//! loop's own code ([`NetShard::emit_hop`], [`NetShard::eject`]), called
//! from here at the cycles the law gives.
//!
//! **Resources.** Two messages can change each other's timing only through
//! a physical resource both use. A router has three kinds, each shared by
//! both priorities because they share the wire: its six output links (named
//! here by the router at the far end and the input port they arrive on),
//! its injection input and its ejection port. A message *holds* a link from
//! its commit until its tail has left the router *downstream* of it (not
//! the sending one: the tail still sits in the downstream buffer), its
//! injection input until its tail has left the source FIFO, and its
//! ejection port until its tail ejects. [`Law`] counts, per resource, the
//! buffered messages holding it — added along the route at commit, released
//! as each tail pops past — and records the cycle from which no message on
//! the law holds it.
//!
//! **Engage.** A message committed into a shard that can carry the law
//! ([`Law::on`]) takes it when its flit-by-flit outcome is fully
//! determined: no buffered message holds anything on its route, every law
//! message that shares a resource with it is done with that resource before
//! the new message needs it, no law message still holds its destination's
//! ejection port, and that port's FIFO is empty at its priority and deep
//! enough for the whole payload.
//!
//! **Materialize.** Otherwise the message is buffered, and exactly the law
//! messages still holding a resource when it needs it are first turned back
//! into the buffered flits they stand for ([`NetShard::materialize`]), so
//! only messages that really contend are simulated flit by flit. Buffered,
//! a message may fall behind its law, so every law message engaged behind
//! a materialized one on some resource is materialized with it, and so on
//! down the chain. A commit at a source whose injection FIFO still holds a
//! law message's flits materializes that message before the capacity check
//! reads the FIFO, and a state hash materializes every one. A law message
//! is the injection FIFO's own record and payload words, so the part of it
//! still at its source goes back into the FIFO as that record, its cursor
//! past the flits already gone.

use super::NetShard;
use crate::flit::{Flit, Message};
use crate::router::ecube_route;
use jm_fault::port;
use jm_isa::word::Word;

/// Host-side counters of the bulk-advance law: how much of the network's
/// work it carried. They describe the simulator, not the network, so they
/// stay outside [`NetStats`](crate::NetStats), its `PartialEq` and every
/// digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkStats {
    /// Messages committed onto the law.
    pub engaged: u64,
    /// Messages on the law materialized into buffered flits before their
    /// tail ejected: a new message contended for their route, or a state
    /// hash was taken.
    pub materialized: u64,
    /// Flit moves the law made: hops plus ejections, the moves the router
    /// loop would otherwise have made one pop at a time.
    pub moves: u64,
    /// Most messages on the law at once.
    pub peak: u64,
}

/// Resource slots per router: the link arriving on each direction's input
/// port (0–5), the injection input ([`port::INJECT`]) and the ejection
/// port ([`EJECT_SLOT`]).
const SLOTS: usize = port::COUNT + 1;
/// The ejection port's resource slot.
const EJECT_SLOT: usize = port::COUNT;

/// A resource of the shard: `router * SLOTS + slot`.
type Res = u32;

/// Resource `slot` of local router `n`.
#[inline]
fn res(n: usize, slot: usize) -> Res {
    (n * SLOTS + slot) as Res
}

/// The router a resource belongs to.
#[inline]
fn router(r: Res) -> usize {
    r as usize / SLOTS
}

/// A resource's slot in its router.
#[inline]
fn slot(r: Res) -> usize {
    r as usize % SLOTS
}

/// The law's state in one shard: the messages on it, and who holds each
/// resource (module docs).
#[derive(Debug, Default)]
pub(super) struct Law {
    /// Whether the shard can carry a message on the law at all: one shard
    /// covering the whole mesh, no fault plan, and `flit_buffer ≥ 2` (full-
    /// rate pipelining needs one slot of slack over the same-cycle credit
    /// mask). Holds are tracked only then.
    pub(super) on: bool,
    /// The messages on the law. Their order is immaterial: they share no
    /// resource, so what one does in a cycle never reads what another did.
    live: Vec<BulkMsg>,
    /// Retired messages whose buffers the next commit reuses.
    spare: Vec<BulkMsg>,
    /// Per resource: buffered messages holding it. Kept apart from `free`
    /// and dense (half a cache line per router): every commit and every
    /// tail reads it.
    held: Vec<u32>,
    /// Per resource: the first cycle from which no law message holds it.
    /// Raised when a message engages and never lowered, so after a law
    /// message materializes or finishes it is an upper bound (the buffered
    /// counts then speak for that message). Read only while a message is
    /// on the law.
    free: Vec<u64>,
    /// Work for [`NetShard::materialize_contested`]: resources with the
    /// cycle from which a law message still holding one must be
    /// materialized — a committing message's route, or a materialized
    /// message's own.
    contested: Vec<(Res, u64)>,
    /// Host counters.
    pub(super) stats: BulkStats,
}

impl Law {
    /// Appends resource `r` to `b`'s route and takes it as a buffered hold,
    /// noting it as contested when a law message holds it past `need`, the
    /// cycle from which `b` needs it (when any message is `live` on the
    /// law). Returns whether no buffered message held it already.
    #[inline]
    fn take(&mut self, b: &mut BulkMsg, r: Res, need: u64, live: bool) -> bool {
        b.route.push(r);
        let held = &mut self.held[r as usize];
        let unheld = *held == 0;
        *held += 1;
        if live && self.free[r as usize] > need {
            self.contested.push((r, need));
        }
        unheld
    }

    /// The law's state for a shard of `routers` routers; `on` as
    /// [`Law::on`].
    pub(super) fn new(routers: usize, on: bool) -> Law {
        let n = if on { routers * SLOTS } else { 0 };
        Law {
            on,
            held: vec![0; n],
            free: vec![0; n],
            ..Law::default()
        }
    }
}

/// A message on the law.
///
/// With nothing contending for its route the flit-by-flit outcome is fully
/// determined: the flits drain from the injection FIFO one per cycle and
/// pipeline along the e-cube route one hop per cycle. With `q` the first
/// flit's first move (commit cycle + inject latency), `F` flits and `H`
/// hops, flit `f` (0-based) pops out of hop position `m` at cycle
/// `q + f + m` and ejects at `q + f + H`; the tail ejects at `q + F − 1 + H`.
/// [`NetShard::step_bulk`] replays that schedule, emitting the same
/// statistics, deliveries and trace events at the same cycles the buffered
/// path would.
#[derive(Debug, Default)]
pub(super) struct BulkMsg {
    /// The message's record, exactly as the injection FIFO would hold it
    /// (cursor at 0).
    msg: Message,
    /// Its payload words.
    words: Vec<Word>,
    /// The route as the `H + 2` resources it takes, in order: the source's
    /// injection input, the link of each hop, the destination's ejection
    /// port. A link is named by its downstream router and the input port
    /// it arrives on, so for `m ≤ H`, `router(route[m])` is the router at
    /// hop position `m` and, from `m = 1`, `slot(route[m])` the port a flit
    /// there waits in.
    route: Vec<Res>,
    /// The hop whose channel crosses the bisection mid-plane, if any (an
    /// e-cube route moves monotonically along each dimension, so it crosses
    /// at most once).
    bisect: Option<u64>,
    /// Bit `n % 64` set for every router `n` on the route: a cheap first
    /// test of whether the message can hold a given resource.
    filter: u64,
    /// Cycle of the first flit's first move.
    q: u64,
    /// Virtual network carrying the message.
    vnet: usize,
}

impl BulkMsg {
    /// Hops on the route.
    fn hops(&self) -> u64 {
        self.route.len() as u64 - 2
    }

    /// Flits in the message.
    fn flits(&self) -> u64 {
        u64::from(self.msg.flits)
    }

    /// The message's flit `f`.
    fn flit(&self, f: u64) -> Flit {
        self.msg.flit(f as usize, |k| self.words[k])
    }

    /// The router at hop position `m ≤ H`.
    fn at(&self, m: u64) -> usize {
        router(self.route[m as usize])
    }

    /// The resources this law message holds, each with the first cycle it
    /// no longer does: the one after its tail leaves the source FIFO (in
    /// `q + F − 1`), the downstream router of hop `j` (in `q + F + j`), or
    /// the ejection port (in `q + F − 1 + H`).
    fn frees(&self) -> impl Iterator<Item = (Res, u64)> + '_ {
        let (gone, h) = (self.q + self.flits(), self.hops());
        let frees = self.route.iter().zip(0..);
        frees.map(move |(&r, pos): (&Res, u64)| (r, gone + pos.min(h)))
    }
}

impl NetShard {
    /// Local router indices holding buffered flits at cycle `cycle`: the
    /// active set, plus the routers law messages' virtual flits sit in,
    /// each router counted once. On the law, flit `f` sits at hop position
    /// `clamp(cycle − q − f, 0, H)` (position 0 is the source's injection
    /// FIFO), and because that falls by one per flit index the occupied
    /// positions form one contiguous range of the path. Occupancy samples
    /// taken mid-flight must match the buffered path bit for bit.
    pub(crate) fn active_count(&self, cycle: u64) -> u32 {
        let mut extra: Vec<usize> = Vec::new();
        for b in &self.law.live {
            let hops = b.hops() as i64;
            let rel = cycle as i64 - b.q as i64;
            let hi = rel.clamp(0, hops) as u64;
            let lo = (rel - (b.flits() as i64 - 1)).clamp(0, hops) as u64;
            let routers = (lo..=hi).map(|m| b.at(m));
            extra.extend(routers.filter(|&n| !self.active.contains(n)));
        }
        extra.sort_unstable();
        extra.dedup();
        (self.active.count() + extra.len()) as u32
    }

    /// Launches a message accepted at cycle `commit` from local router `l`
    /// in a shard that can carry the law: on the law when its route is
    /// clear (module docs), and otherwise into the injection FIFO, holding
    /// its route, once every law message it contends with has been
    /// materialized.
    pub(super) fn launch(
        &mut self,
        commit: u64,
        l: usize,
        vnet: usize,
        msg: Message,
        payload: &[Word],
    ) {
        let dest = msg.dest;
        let mut b = self.law.spare.pop().unwrap_or_default();
        let q = commit + self.config.inject_latency;
        b.q = q;
        b.vnet = vnet;
        b.route.clear();
        b.bisect = None;
        // With no message on the law, `free` holds nothing the counts do
        // not already say.
        let live = !self.law.live.is_empty();
        debug_assert!(
            self.law.contested.is_empty(),
            "a commit left contention behind"
        );
        // Walk the e-cube route — x, then y, then z, on the coordinates (a
        // law shard is the whole mesh, so a local index is a node id) —
        // taking each resource on it as a buffered hold. The injection
        // input is needed from the commit (the capacity check reads the
        // FIFO), link `j` from `q + j + 1` (its head enters in `q + j`, the
        // cycle an earlier tail may still be leaving the downstream router),
        // the ejection port from the head's ejection in `q + H`.
        let mut n = l;
        b.filter = 1 << (n % 64);
        let mut clear = self.law.take(&mut b, res(n, port::INJECT), commit, live);
        let dims = self.config.dims;
        let stride = [1, dims.x as usize, dims.x as usize * dims.y as usize];
        let here = self.arena.coord(l);
        let (at, to) = ([here.x, here.y, here.z], [dest.x, dest.y, dest.z]);
        for dim in 0..3 {
            // Out port `2 * dim` heads up the dimension, `2 * dim + 1` down.
            let (out, steps) = if at[dim] <= to[dim] {
                (2 * dim, to[dim] - at[dim])
            } else {
                (2 * dim + 1, at[dim] - to[dim])
            };
            for _ in 0..steps {
                debug_assert_eq!(out, ecube_route(self.arena.coord(n), dest));
                let hop = b.route.len() as u64 - 1;
                if self.bisect_out[n] >> out & 1 != 0 {
                    b.bisect = Some(hop);
                }
                n = if out % 2 == 0 {
                    n + stride[dim]
                } else {
                    n - stride[dim]
                };
                b.filter |= 1 << (n % 64);
                clear &= self.law.take(&mut b, res(n, out), q + hop + 1, live);
            }
        }
        let eject = res(n, EJECT_SLOT);
        let hops = b.route.len() as u64 - 1;
        clear &= self.law.take(&mut b, eject, q + hops, live);
        // Deep enough, and empty, so the ejection FIFO cannot stall the
        // tail even if the node drains nothing before it arrives.
        clear &= payload.len() <= self.config.eject_fifo
            && self.routers[n].ejected[vnet].is_empty()
            && (!live || self.law.free[eject as usize] <= commit);
        if clear && self.law.contested.is_empty() {
            debug_assert!(
                (0..b.hops()).all(|m| {
                    let out = slot(b.route[m as usize + 1]);
                    self.arena.owner(b.at(m), vnet, out) < 0
                }),
                "a free route with an owned output"
            );
            b.msg = msg;
            b.words.clear();
            b.words.extend_from_slice(payload);
            // On the law the message holds its route up to its closed-form
            // clear cycles instead.
            for (r, free) in b.frees() {
                self.law.held[r as usize] -= 1;
                self.law.free[r as usize] = free;
            }
            self.law.live.push(b);
            let stats = &mut self.law.stats;
            stats.engaged += 1;
            stats.peak = stats.peak.max(self.law.live.len() as u64);
            return;
        }
        self.materialize_contested(commit);
        self.enqueue(l, vnet, msg, payload);
        self.law.spare.push(b);
    }

    /// Materializes every law message holding a resource of
    /// [`Law::contested`] past the cycle given with it; then, since a
    /// materialized message may fall behind its law, every law message
    /// queued behind one of those on some resource, and so on.
    fn materialize_contested(&mut self, cycle: u64) {
        let mut work = std::mem::take(&mut self.law.contested);
        while !work.is_empty() {
            let filter = work
                .iter()
                .fold(0u64, |f, &(r, _)| f | 1 << (router(r) % 64));
            let mut k = 0;
            while k < self.law.live.len() {
                let b = &self.law.live[k];
                let contends = b.filter & filter != 0
                    && b.frees()
                        .any(|(r, free)| work.iter().any(|&(w, need)| w == r && free > need));
                if contends {
                    self.materialize(k, cycle);
                } else {
                    k += 1;
                }
            }
            work.clear();
            std::mem::swap(&mut work, &mut self.law.contested);
        }
        self.law.contested = work;
    }

    /// Materializes the law message, if any, whose flits still sit in local
    /// router `l`'s injection FIFO at cycle `cycle` — the one holding the
    /// injection input past it — so a capacity check reads real flits.
    pub(super) fn materialize_queued(&mut self, l: usize, cycle: u64) {
        let inject = res(l, port::INJECT);
        if !self.law.live.is_empty() && self.law.free[inject as usize] > cycle {
            self.law.contested.push((inject, cycle));
            self.materialize_contested(cycle);
        }
    }

    /// Materializes every law message: the state digest canonicalizes on
    /// the buffered representation.
    pub(super) fn materialize_all(&mut self, cycle: u64) {
        while !self.law.live.is_empty() {
            self.materialize(self.law.live.len() - 1, cycle);
        }
        self.law.contested.clear();
    }

    /// Replays one cycle of every law message's schedule, retiring those
    /// whose tail ejects.
    #[inline]
    pub(super) fn step_bulk(&mut self, cycle: u64) {
        if self.law.live.is_empty() {
            return;
        }
        let mut live = std::mem::take(&mut self.law.live);
        let mut k = 0;
        while k < live.len() {
            if self.step_one(&live[k], cycle) {
                self.law.spare.push(live.swap_remove(k));
            } else {
                k += 1;
            }
        }
        self.law.live = live;
    }

    /// One cycle of one law message's schedule (the timing law in
    /// [`BulkMsg`]): exactly the statistics, deliveries and trace events
    /// the buffered path would produce this cycle. Returns whether the tail
    /// ejected.
    fn step_one(&mut self, b: &BulkMsg, cycle: u64) -> bool {
        if cycle < b.q {
            return false;
        }
        let f_count = b.flits();
        let hops = b.hops();
        let rel = cycle - b.q;
        if hops > 0 {
            // Forward moves: flit `f` pops out of hop position `m < H` at
            // cycle `q + f + m`, so this cycle moves every flit in
            // `[rel - (H-1), rel]`, clamped to the message.
            let lo = rel.saturating_sub(hops - 1);
            let hi = rel.min(f_count - 1);
            if lo <= hi {
                self.stats.flit_hops += hi - lo + 1;
                self.law.stats.moves += hi - lo + 1;
            }
            if let Some(m) = b.bisect {
                if m <= rel && rel - m < f_count {
                    self.stats.bisection_flits += 1;
                }
            }
            // The head acquires one output port per cycle along the route.
            if rel < hops && self.tracer.is_some() {
                self.emit_hop(b.msg.trace(), b.at(rel), cycle);
            }
        }
        // Ejection: flit `f = rel - H` leaves the mesh this cycle.
        if rel < hops || rel - hops >= f_count {
            return false;
        }
        let flit = b.flit(rel - hops);
        self.law.stats.moves += 1;
        self.eject(b.at(hops), b.vnet, flit, cycle);
        flit.tail()
    }

    /// Converts law message `k` back into ordinary buffered flits,
    /// reconstructing exactly the state the flit-by-flit path would hold at
    /// the start of cycle `cycle`: every undelivered flit's buffer position
    /// and ready cycle, wormhole port ownership along the route, and the
    /// holds the message still has, now as buffered counts.
    fn materialize(&mut self, k: usize, cycle: u64) {
        let b = self.law.live.swap_remove(k);
        self.law.stats.materialized += 1;
        let hops = b.hops();
        let f_count = b.flits();
        let src = b.at(0);
        // Flit `f` has made one move a cycle in `[q + f, cycle)`: from
        // `first` on, none, so the flits still in the injection FIFO go
        // back into it as the message's record, its cursor at `first` and
        // its ready cycle the original one.
        let first = cycle.saturating_sub(b.q).min(f_count);
        if first < f_count {
            debug_assert_eq!(
                self.arena.len(src, b.vnet, port::INJECT),
                0,
                "a law message's source FIFO holds another message"
            );
            let mut msg = b.msg;
            msg.popped = first as u8;
            self.arena.commit(src, b.vnet, msg, &b.words);
        }
        for f in 0..first {
            let done = (cycle - b.q - f).min(hops + 1);
            if done > hops {
                continue; // already ejected
            }
            // One flit per hop position: the channel buffer held nothing
            // else, since the message held the link.
            let r = b.route[done as usize];
            let (at, via) = (router(r), slot(r));
            debug_assert_eq!(
                self.arena.len(at, b.vnet, via),
                0,
                "a materialized flit lands in an occupied channel buffer"
            );
            let mut flit = b.flit(f);
            flit.ready_cycle = b.q + f + done;
            self.arena.push(at, b.vnet, via, flit);
        }
        // Wormhole ownership: router `m` on the path holds its output for
        // this message from the head's pass (cycle `q + m`) until the
        // tail's (cycle `q + F - 1 + m`).
        for m in 0..=hops {
            if b.q + m < cycle && cycle <= b.q + f_count - 1 + m {
                let out = if m == hops {
                    port::EJECT
                } else {
                    slot(b.route[m as usize + 1])
                };
                let in_port = if m == 0 {
                    port::INJECT
                } else {
                    slot(b.route[m as usize])
                };
                self.arena.set_owner(b.at(m), b.vnet, out, in_port as i8);
            }
        }
        // A resource is still held while its tail has yet to leave it; the
        // buffered tail releases it as it pops past. Buffered, the message
        // may now fall behind its law, so a law message engaged behind it
        // on a resource contends with it there.
        for (r, free) in b.frees() {
            if free > cycle {
                self.law.held[r as usize] += 1;
            }
            if self.law.free[r as usize] > free {
                self.law.contested.push((r, free));
            }
        }
        for m in 0..=hops {
            let n = b.at(m);
            if self.arena.holds(n) {
                self.active.insert(n);
            }
        }
        // `in_flight` already counts the still-buffered flits.
        self.law.spare.push(b);
    }

    /// A buffered tail popped out of input `in_port` of local router `n`
    /// toward `out`, in a shard that tracks holds: its message lets go of
    /// the link or injection input it arrived by and, ejecting, of the
    /// ejection port.
    #[inline]
    pub(super) fn release(&mut self, n: usize, in_port: usize, out: usize) {
        self.law.held[res(n, in_port) as usize] -= 1;
        if out == port::EJECT {
            self.law.held[res(n, EJECT_SLOT) as usize] -= 1;
        }
    }

    /// Debug builds: an idle shard holds nothing, so every buffered hold
    /// must have been released.
    pub(super) fn debug_assert_released(&self) {
        if cfg!(debug_assertions) && self.in_flight == 0 {
            let stuck = self.law.held.iter().position(|&held| held > 0);
            let stuck = stuck.map(|r| (router(r as Res), slot(r as Res)));
            assert!(
                stuck.is_none(),
                "(router, slot) {stuck:?} still held by an idle shard"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::BulkStats;
    use crate::{InjectResult, NetConfig, Network};
    use jm_fault::{FaultPlan, FaultSpec, FaultWindow};
    use jm_isa::instr::MsgPriority;
    use jm_isa::node::{MeshDims, NodeId, RouteWord};
    use jm_isa::word::{MsgHeader, Word};

    const FAR: NodeId = NodeId(15);

    /// Commits a `payload`-word message from `from` to `to` at `priority`.
    fn commit(net: &mut Network, from: u32, to: u32, priority: MsgPriority, payload: u32) {
        let route = RouteWord::new(net.config().dims.coord(NodeId(to))).to_word();
        let mut words = vec![route, MsgHeader::new(1, payload).to_word()];
        words.extend((1..payload).map(|k| Word::int(k as i32)));
        let sent = net.commit_msg(NodeId(from), priority, &words);
        assert_eq!(sent, InjectResult::Accepted);
    }

    /// [`commit`] at priority 0, returning the law's counters after it.
    fn send(net: &mut Network, from: u32, to: u32, payload: u32) -> BulkStats {
        commit(net, from, to, MsgPriority::P0, payload);
        net.bulk_stats()
    }

    /// A message of [`lockstep`]: commit cycle, source, destination,
    /// priority, payload words.
    type Timed = (u64, u32, u32, MsgPriority, u32);

    /// Runs `sends` on a one-shard mesh, where the law may engage, and a
    /// two-shard one, where it never does, holding the two to the same
    /// deliveries, statistics and occupancy every cycle until both are
    /// idle; returns the law's counters.
    fn lockstep(config: NetConfig, sends: &[Timed]) -> BulkStats {
        let mut nets = [Network::new(config), Network::with_shards(config, 2)];
        let last = sends.iter().map(|s| s.0).max().unwrap_or(0);
        while nets[0].cycle() <= last || !nets[0].is_idle() {
            let now = nets[0].cycle();
            for &(_, from, to, priority, payload) in sends.iter().filter(|s| s.0 == now) {
                for net in &mut nets {
                    commit(net, from, to, priority, payload);
                }
            }
            for net in &mut nets {
                net.step();
            }
            let [law, flits] = &mut nets;
            for node in config.dims.iter_nodes() {
                for priority in MsgPriority::ALL {
                    while let Some(w) = law.pop_delivered(node, priority) {
                        assert_eq!(flits.pop_delivered(node, priority), Some(w), "cycle {now}");
                    }
                }
            }
            assert_eq!(law.stats(), flits.stats(), "cycle {now}");
            assert_eq!(law.in_flight(), flits.in_flight(), "cycle {now}");
            assert_eq!(law.active_routers(), flits.active_routers(), "cycle {now}");
            assert!(now < 1_000, "the mesh did not drain");
        }
        assert!(nets[1].is_idle());
        nets[0].bulk_stats()
    }

    /// [`send`] from node 0 to the far corner of the 2×2×4 mesh: the
    /// law's engagements.
    fn offer(net: &mut Network, payload: u32) -> u64 {
        send(net, 0, FAR.0, payload).engaged
    }

    /// `(engaged, materialized)`.
    fn counts(net: &Network) -> (u64, u64) {
        let b = net.bulk_stats();
        (b.engaged, b.materialized)
    }

    /// Steps `net` until it holds nothing, taking every delivered word.
    fn drain(net: &mut Network) {
        let nodes = net.config().dims.nodes();
        while !net.is_idle() {
            for n in 0..nodes {
                while net.pop_delivered(NodeId(n), MsgPriority::P0).is_some() {}
            }
            net.step();
        }
    }

    /// One case per rule under which the law declines, on the 2×2×4 mesh
    /// (node `x + 2y + 4z`; e-cube routes resolve x, then y, then z).
    #[test]
    fn the_law_engages_only_on_a_clear_route() {
        let config = NetConfig::new(MeshDims::new(2, 2, 4));
        let mut alone = Network::new(config);
        assert_eq!(offer(&mut alone, 2), 1, "an empty single-shard mesh");

        let mut two_shards = Network::with_shards(config, 2);
        assert_eq!(offer(&mut two_shards, 2), 0, "two shards");
        let mut faulted = Network::new(config);
        let later = FaultSpec::new(1).window(FaultWindow::node_down(3, 1_000, 2_000));
        faulted.set_fault_plan(FaultPlan::from_spec(later));
        assert_eq!(offer(&mut faulted, 2), 0, "a fault plan");
        let mut long = Network::new(config);
        let too_long = config.eject_fifo as u32 + 1;
        assert_eq!(offer(&mut long, too_long), 0, "payload past eject_fifo");
        let mut shallow = Network::new(NetConfig {
            flit_buffer: 1,
            ..config
        });
        assert_eq!(offer(&mut shallow, 2), 0, "flit_buffer 1");

        // A second message in the same cycle finds the first's flits in the
        // source FIFO: they are materialized for the capacity check, and
        // then hold the injection input.
        assert_eq!(offer(&mut alone, 2), 1, "a flit already buffered");
        assert_eq!(counts(&alone), (1, 1));

        // Delivered and left in the destination's ejection FIFO.
        while alone.in_flight() > 0 {
            alone.step();
        }
        assert!(alone.delivered_len(FAR, MsgPriority::P0) > 0);
        assert_eq!(offer(&mut alone, 2), 1, "a word in the ejection FIFO");
        drain(&mut alone);
        assert_eq!(offer(&mut alone, 2), 2, "drained, the mesh is empty again");

        // A buffered message holding a link of the route: 0 → 3 is too long
        // for the law, and 1 → 7 shares its link 1 → 3 and nothing else.
        let mut busy = Network::new(config);
        send(&mut busy, 0, 3, too_long);
        let none = BulkStats::default();
        assert_eq!(send(&mut busy, 1, 7, 1), none, "a buffered holder");
        drain(&mut busy);
        let b = send(&mut busy, 1, 7, 1);
        assert_eq!(b.engaged, 1, "the tails released their holds");

        // Two law messages on disjoint routes are on the law together.
        let mut pair = Network::new(config);
        send(&mut pair, 0, 1, 2);
        let b = send(&mut pair, 3, 2, 2);
        assert_eq!((b.engaged, b.materialized, b.peak), (2, 0, 2));

        // 0 → 3 (+x, +y) holds node 3's ejection port until its tail ejects
        // in cycle 7; 2 → 3 committed in cycle 5 would not eject its head
        // before cycle 8, but may not engage while the port is held.
        let mut same_dest = Network::new(config);
        send(&mut same_dest, 0, 3, 1);
        same_dest.run(5);
        send(&mut same_dest, 2, 3, 1);
        assert_eq!(counts(&same_dest), (1, 0), "the ejection port is held");
    }

    /// A law message holds a link until its tail has left the router
    /// downstream of it. On a row of four, 0 → 3 (four flits, `q = 2`) has
    /// its tail leave router 2 in cycle `q + F + 1 = 7`; 1 → 2 committed in
    /// cycle `d` enters the same link in cycle `d + 2`. It engages from
    /// `d = 5` on, and before that contends and materializes the first.
    #[test]
    fn a_link_is_free_once_the_tail_leaves_the_downstream_router() {
        let config = NetConfig::new(MeshDims::new(4, 1, 2));
        for (d, engaged) in [(4, 1), (5, 2)] {
            let sends = [(0, 0, 3, MsgPriority::P0, 1), (d, 1, 2, MsgPriority::P0, 1)];
            let b = lockstep(config, &sends);
            let counts = (b.engaged, b.materialized);
            assert_eq!(counts, (engaged, 2 - engaged), "committed in cycle {d}");
        }
    }

    /// A materialized message may fall behind its law, so every law message
    /// queued behind it on some resource is materialized with it. On an
    /// 8×1×2 mesh (node `x + 8z`), 13 → 10 runs down x; 15 → 1 engages
    /// right behind it on the links 13 → 12 → 11 → 10; then 2 → 10 at
    /// priority 1 contends for node 10's ejection port, materializes
    /// 13 → 10 and holds it back at its destination — and 15 → 1, on the
    /// law, would run into its tail.
    #[test]
    fn a_message_queued_behind_a_materialized_one_is_materialized_too() {
        let config = NetConfig {
            flit_buffer: 2,
            ..NetConfig::new(MeshDims::new(8, 1, 2))
        };
        let sends = [
            (3, 13, 10, MsgPriority::P0, 3),
            (9, 15, 1, MsgPriority::P0, 3),
            (10, 2, 10, MsgPriority::P1, 2),
        ];
        let b = lockstep(config, &sends);
        assert_eq!((b.engaged, b.materialized, b.peak), (2, 2, 2));
    }
}
