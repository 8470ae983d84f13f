//! The wormhole bulk-advance fast path: one message alone in the mesh,
//! advanced by its closed-form timing law instead of flit by flit.
//!
//! This module owns the law and nothing else does. What a flit *does* when
//! the law says it moves — the hop event, the ejection — is the router
//! loop's own code ([`NetShard::emit_hop`], [`NetShard::eject`]), called
//! from here at the cycles the law gives.

use super::NetShard;
use crate::flit::Flit;
use crate::router::ecube_route;
use jm_fault::port;
use jm_isa::node::Coord;

/// Host-side counters of the bulk-advance law: how often a message took
/// it, and how often one was turned back into buffered flits before its
/// tail ejected. They describe the simulator, not the network, so they stay
/// outside [`NetStats`](crate::NetStats), its `PartialEq` and every digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkStats {
    /// Messages committed onto the law.
    pub engaged: u64,
    /// Messages on the law materialized into buffered flits: new traffic
    /// arrived while one was in flight, or a state hash was taken.
    pub materialized: u64,
}

/// A message streaming through an otherwise-empty mesh on the wormhole
/// bulk-advance fast path.
///
/// When [`NetShard::commit_msg`] accepts a message into a single-shard mesh
/// holding no other flits (and no fault plan), the flit-by-flit outcome is
/// fully determined: the flits drain from the injection FIFO one per cycle
/// and pipeline along the e-cube route one hop per cycle with nothing to
/// contend with. Instead of buffering them, the shard records the message
/// here and [`NetShard::step_bulk`] replays the closed-form timing — flit
/// `f` (0-based) makes its move out of hop position `m` at cycle
/// `q + f + m`, and ejects at `q + f + H` — emitting the same statistics,
/// deliveries, and trace events at the same cycles the buffered path would.
///
/// The flits stay *virtual* only while nothing can observe them: any new
/// injection while a bulk message is in flight first calls
/// [`NetShard::materialize_bulk`], which reconstructs the exact buffered
/// state (positions, ready cycles, port ownership) and continues on the
/// ordinary path. Runs with a fault plan installed never engage the bulk
/// path at all, so fault accounting stays on the one flit-by-flit code
/// path.
#[derive(Debug)]
pub(super) struct BulkMsg {
    /// The message's flits, exactly as the injection FIFO would hold them.
    pub(super) flits: Vec<Flit>,
    /// Local router index at each hop position; `path[0]` is the source,
    /// the last entry the destination.
    path: Vec<u32>,
    /// Out port taken from `path[m]` (one per hop; ejection is implicit).
    outs: Vec<u8>,
    /// Hop positions whose channel crosses the bisection mid-plane.
    bisect: Vec<u32>,
    /// Cycle of the first flit's first move (commit cycle + inject
    /// latency).
    q: u64,
    /// Virtual network carrying the message.
    vnet: usize,
}

impl NetShard {
    /// Local router indices holding buffered flits at cycle `cycle`.
    ///
    /// During a bulk flight the flits are virtual, so the count is derived
    /// from the timing law instead of the (empty) active set: flit `f` sits
    /// at hop position `done = clamp(cycle − q − f, 0, hops)` (position 0 is
    /// the source's inject FIFO), and because `done` falls by one per flit
    /// index the occupied positions form one contiguous range. Occupancy
    /// samples taken mid-flight must match the slow path bit for bit.
    pub(crate) fn active_count(&self, cycle: u64) -> u32 {
        let buffered = self.active.count() as u32;
        let Some(b) = &self.bulk else { return buffered };
        let hops = b.path.len() as i64 - 1;
        let rel = cycle as i64 - b.q as i64;
        let hi = rel.clamp(0, hops);
        let lo = (rel - (b.flits.len() as i64 - 1)).clamp(0, hops);
        buffered + (hi - lo + 1) as u32
    }

    /// The route of a message of `payload_words` words committed at `cycle`
    /// from local router `l` to `dest`, as a [`BulkMsg`] still missing its flits, if the
    /// message may travel on the bulk path. `None` unless the flit-by-flit
    /// outcome is fully determined: a single shard covering the whole mesh,
    /// no other flit in flight, no fault plan, a clear (unowned) route,
    /// deep-enough channel buffers to pipeline at full rate, and an
    /// ejection FIFO that cannot stall even if the destination node drains
    /// nothing before the tail arrives.
    pub(super) fn bulk_route(
        &self,
        cycle: u64,
        l: usize,
        vnet: usize,
        dest: Coord,
        payload_words: usize,
    ) -> Option<BulkMsg> {
        let dims = self.config.dims;
        let nodes = dims.x as usize * dims.y as usize * dims.z as usize;
        let dest_l = dims.id(dest).index();
        if self.fault.is_some()
            || self.in_flight != 0
            || self.base != 0
            || self.routers.len() != nodes
            // Full-rate pipelining needs one slot of slack over the
            // same-cycle credit mask.
            || self.config.flit_buffer < 2
            || !self.routers[dest_l].ejected[vnet].is_empty()
            || payload_words > self.config.eject_fifo
        {
            return None;
        }
        debug_assert!(self.bulk.is_none(), "bulk engaged while one is in flight");
        // Walk the e-cube route, collecting hops and checking that no
        // output port along it is still held by an earlier wormhole. Every
        // message is committed whole, so its tail has released each port by
        // the time `in_flight` reads zero and nothing reachable leaves an
        // owner behind; the check costs one byte load per hop and keeps the
        // closed-form timing law from resting on that argument alone.
        let mut path = vec![l as u32];
        let mut outs: Vec<u8> = Vec::new();
        let mut bisect: Vec<u32> = Vec::new();
        loop {
            let n = *path.last().expect("path starts non-empty") as usize;
            let out = ecube_route(self.arena.coord(n), dest);
            if self.arena.owner(n, vnet, out) >= 0 {
                return None;
            }
            if out == port::EJECT {
                break;
            }
            if self.bisect_out[n] & (1 << out) != 0 {
                bisect.push(outs.len() as u32);
            }
            outs.push(out as u8);
            let next = self.neigh[n][out];
            debug_assert!(
                (next as usize) < self.routers.len(),
                "bulk route left the shard"
            );
            path.push(next);
        }
        debug_assert_eq!(*path.last().expect("non-empty") as usize, dest_l);
        Some(BulkMsg {
            flits: Vec::new(),
            path,
            outs,
            bisect,
            q: cycle + self.config.inject_latency,
            vnet,
        })
    }

    /// Replays one cycle of the bulk message's closed-form schedule (the
    /// timing law in [`BulkMsg`]), emitting exactly the statistics,
    /// deliveries, and trace events the buffered path would this cycle.
    pub(super) fn step_bulk(&mut self, cycle: u64) {
        let b = self.bulk.take().expect("step_bulk without a bulk message");
        if cycle < b.q {
            self.bulk = Some(b);
            return;
        }
        let f_count = b.flits.len() as u64;
        let hops = b.outs.len() as u64;
        let rel = cycle - b.q;
        if hops > 0 {
            // Forward moves: flit `f` pops out of hop position `m < H` at
            // cycle `q + f + m`, so this cycle moves every flit in
            // `[rel - (H-1), rel]`, clamped to the message.
            let lo = rel.saturating_sub(hops - 1);
            let hi = rel.min(f_count - 1);
            if lo <= hi {
                self.stats.flit_hops += hi - lo + 1;
            }
            for &m in &b.bisect {
                if u64::from(m) <= rel && rel - u64::from(m) < f_count {
                    self.stats.bisection_flits += 1;
                }
            }
            // The head acquires one output port per cycle along the route.
            if rel < hops {
                self.emit_hop(b.flits[0].trace(), b.path[rel as usize] as usize, cycle);
            }
        }
        // Ejection: flit `f = rel - H` leaves the mesh this cycle.
        let mut done = false;
        if rel >= hops && rel - hops < f_count {
            let flit = b.flits[(rel - hops) as usize];
            let dest = *b.path.last().expect("bulk path has a destination") as usize;
            self.eject(dest, b.vnet, flit, cycle);
            done = flit.tail();
        }
        if !done {
            self.bulk = Some(b);
        }
    }

    /// Converts the in-flight bulk message, if there is one, back into
    /// ordinary buffered flits, reconstructing exactly the state the
    /// flit-by-flit path would hold at the start of cycle `cycle`:
    /// every undelivered flit's buffer position and ready cycle, plus
    /// wormhole port ownership along the route. Called before anything that
    /// reads the buffers: a new injection, which could otherwise contend
    /// with (or fail to see) the virtual flits, and the state digest.
    pub(super) fn materialize_bulk(&mut self, cycle: u64) {
        let Some(b) = self.bulk.take() else { return };
        self.bulk_stats.materialized += 1;
        let hops = b.outs.len() as u64;
        let f_count = b.flits.len() as u64;
        let src = b.path[0] as usize;
        for (f, flit) in b.flits.iter().enumerate() {
            // Moves completed so far: one per cycle in `[q + f, cycle)`.
            let done = cycle.saturating_sub(b.q + f as u64).min(hops + 1);
            if done > hops {
                continue; // already ejected
            }
            if done == 0 {
                // Still in the injection FIFO, at its original ready cycle;
                // ascending `f` keeps FIFO order.
                self.arena.push(src, b.vnet, port::INJECT, *flit);
                self.occ[src] += 1;
            } else {
                let at = b.path[done as usize] as usize;
                let via = b.outs[done as usize - 1] as usize;
                let mut flit = *flit;
                flit.ready_cycle = b.q + f as u64 + done;
                self.arena.push(at, b.vnet, via, flit);
                self.occ[at] += 1;
            }
        }
        // Wormhole ownership: router `m` on the path holds its output for
        // this message from the head's pass (cycle `q + m`) until the
        // tail's (cycle `q + F - 1 + m`).
        for m in 0..=hops {
            if b.q + m < cycle && cycle <= b.q + f_count - 1 + m {
                let n = b.path[m as usize] as usize;
                let out = if m == hops {
                    port::EJECT
                } else {
                    b.outs[m as usize] as usize
                };
                let in_port = if m == 0 {
                    port::INJECT
                } else {
                    b.outs[m as usize - 1] as usize
                };
                self.arena.set_owner(n, b.vnet, out, in_port as i8);
            }
        }
        for &n in &b.path {
            if self.occ[n as usize] > 0 {
                self.active.insert(n as usize);
            }
        }
        // `in_flight` already counts the still-buffered flits.
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

    /// Commits a `payload`-word message from node 0 to the far corner of
    /// the 2×2×4 mesh and returns the law's engagements after it.
    fn offer(net: &mut Network, payload: u32) -> u64 {
        let route = RouteWord::new(net.config().dims.coord(FAR)).to_word();
        let mut words = vec![route, MsgHeader::new(1, payload).to_word()];
        words.extend((1..payload).map(|k| Word::int(k as i32)));
        let sent = net.commit_msg(NodeId(0), MsgPriority::P0, &words);
        assert_eq!(sent, InjectResult::Accepted);
        net.bulk_stats().engaged
    }

    #[test]
    fn the_law_engages_only_on_an_empty_single_shard_mesh() {
        let config = NetConfig::new(MeshDims::new(2, 2, 4));
        let mut alone = Network::new(config);
        assert_eq!(offer(&mut alone, 2), 1, "an empty single-shard mesh");

        // One case each in which the law declines.
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

        // A second message in the same cycle turns the first back into
        // buffered flits, and then finds them in flight.
        assert_eq!(offer(&mut alone, 2), 1, "a flit already buffered");
        let twice = BulkStats {
            engaged: 1,
            materialized: 1,
        };
        assert_eq!(alone.bulk_stats(), twice);

        // Delivered and left in the destination's ejection FIFO.
        while alone.in_flight() > 0 {
            alone.step();
        }
        assert!(alone.delivered_len(FAR, MsgPriority::P0) > 0);
        assert_eq!(offer(&mut alone, 2), 1, "a word in the ejection FIFO");
        while !alone.is_idle() {
            while alone.pop_delivered(FAR, MsgPriority::P0).is_some() {}
            alone.step();
        }
        assert_eq!(offer(&mut alone, 2), 2, "drained, the mesh is empty again");
    }
}
