//! Slab-sharded network state.
//!
//! The mesh is split into contiguous z-slabs (node ids are z-major, so each
//! slab owns a contiguous id range). A [`NetShard`] owns its slab's routers,
//! ejection FIFOs, and statistics, and can advance one cycle touching only
//! its own state plus the [`Edge`] interfaces shared with the slabs directly
//! below and above it. That makes shards safe to step on parallel worker
//! threads; [`crate::Network`] also drives the same shards sequentially, so
//! both modes execute literally the same per-cycle code. A shard keeps no
//! clock: every call that depends on the time is told it, by the one owner
//! of the clock ([`crate::Network`]) or by the machine engine stepping the
//! shards itself.
//!
//! Each simulated cycle is two phases:
//!
//! 1. **Step** ([`NetShard::step_cycle`]): every shard moves its own flits.
//!    A flit bound for a router in another shard is appended to the edge's
//!    mailbox instead of being pushed into the remote input buffer; space in
//!    remote boundary buffers is read from the edge's published snapshot.
//! 2. **Exchange** ([`NetShard::exchange`]): every shard drains the
//!    mailboxes addressed to it into its boundary input buffers and
//!    publishes those buffers' free space for its neighbors' next step.
//!
//! Determinism: within a cycle, the only cross-router data a step reads is
//! *downstream input-buffer space*. [`ChannelArena::space`] reports
//! start-of-cycle occupancy (same-cycle pops are masked by the router's pop
//! bits), and the edge snapshots are by construction start-of-cycle values —
//! so the space a sender observes is independent of the order routers are visited,
//! and therefore of how the mesh is cut into shards or which thread runs
//! which shard. Deferred mailbox delivery is equally invisible: a flit
//! handed to a neighbor carries `ready_cycle = cycle + 1`, so no same-cycle
//! consumer exists. A single barrier between the two phases (provided by the
//! caller) is the only synchronization the scheme needs; the snapshot is
//! single-buffered because phase 1 only reads it and phase 2 only writes it.
//!
//! The shard's code is cut along the decisions it makes, one module each
//! (`inject`, `arbitrate`, `edge`, `bulk`: the crate docs say which); this
//! file keeps the state they share and the accessors around it.

mod arbitrate;
mod bulk;
mod edge;
mod inject;

pub use bulk::BulkStats;
pub use edge::{edge_pair, Edge};
pub use inject::InjectResult;

use crate::arena::ChannelArena;
use crate::bitset::BitSet;
use crate::config::NetConfig;
use crate::router::Router;
use crate::stats::NetStats;
use bulk::Law;
use edge::{boundary_code, Crossing};
use jm_fault::{port, FaultPlan};
use jm_isa::instr::MsgPriority;
use jm_isa::node::{Coord, NodeId};
use jm_isa::word::Word;
use jm_isa::TraceId;
use jm_trace::Tracer;
use jm_traffic::TrafficPlan;

/// One contiguous z-slab of the mesh: routers for node ids
/// `base .. base + len`, plus everything needed to advance them one cycle.
///
/// All node-addressed methods take **global** [`NodeId`]s and expect them to
/// fall inside the slab (debug-asserted).
#[derive(Debug)]
pub struct NetShard {
    config: NetConfig,
    /// First global node id owned by this shard.
    base: usize,
    routers: Vec<Router>,
    /// Every channel buffer of every router, and the per-router record the
    /// arbitration loop probes.
    arena: ChannelArena,
    /// Precomputed neighbor of every (local router, directional out port):
    /// the neighbor's *local* index, or an [`edge::boundary_code`] (larger
    /// than any local index) for slab-crossing z channels — replacing
    /// per-move coordinate arithmetic with one table load. Off-mesh
    /// directions hold `u32::MAX` (e-cube never routes off-mesh).
    neigh: Vec<[u32; port::EJECT]>,
    /// Per-router bitmask of out ports whose channel crosses the bisection
    /// mid-plane (for the traffic counters).
    bisect_out: Vec<u8>,
    stats: NetStats,
    /// Flits currently buffered in *this shard* (a flit handed to an edge
    /// mailbox leaves the sender's count and joins the receiver's at drain).
    in_flight: u64,
    /// Local router indices holding buffered flits (non-zero port masks)
    /// — the only ones `step_cycle` must visit.
    active: BitSet,
    /// Local router indices holding undelivered ejected words (either vnet).
    eject_pending: BitSet,
    /// Boundary-crossing flits accumulated during the router scan, per
    /// direction, until [`Self::post_crossings`] posts them.
    crossings: [Vec<Crossing>; 2],
    /// The messages on the bulk-advance law, who holds each resource, and
    /// the law's host counters.
    law: Law,
    /// Lifecycle-event buffer for this shard's routers; `None` (the
    /// default) disables tracing, so the hot paths pay one pointer test.
    pub(crate) tracer: Option<Box<Tracer>>,
    /// Messages each local node has injected while traced: the ordinal its
    /// next [`TraceId`] is made from (see [`NetShard::commit_msg`]).
    traced_msgs: Vec<u32>,
    /// Fault plan, if this run injects faults. Queries key on *global* node
    /// ids and the cycle the shard is told, so every shard layout answers
    /// identically; `None` (the default) keeps the fault-free fast paths.
    fault: Option<FaultPlan>,
    /// Synthetic-traffic plan, if this run generates background traffic.
    /// Like the fault plan, queries are pure functions of global node id
    /// and the cycle the shard is told, so the generated workload is
    /// identical under every shard layout; `None` keeps the traffic-free
    /// fast paths.
    traffic: Option<TrafficPlan>,
    /// Reusable message-composition buffer for the traffic generator (no
    /// per-message allocation on the injection path).
    traffic_words: Vec<Word>,
}

impl NetShard {
    pub(crate) fn new(
        config: NetConfig,
        base: usize,
        len: usize,
        bisect_dim: usize,
        bisect_mid: u8,
    ) -> NetShard {
        let dims = config.dims;
        let coord = |l: usize| dims.coord(NodeId((base + l) as u32));
        let mut neigh = vec![[u32::MAX; port::EJECT]; len];
        let mut bisect_out = vec![0u8; len];
        for l in 0..len {
            let here = coord(l);
            let here = [here.x, here.y, here.z];
            // Out port `2 * dim` steps +1 along `dim` and `2 * dim + 1`
            // steps −1: the numbering `ecube_route` returns.
            for (out, slot) in neigh[l].iter_mut().enumerate() {
                let (dim, up) = (out / 2, out % 2 == 0);
                let extent = [dims.x, dims.y, dims.z][dim];
                if (up && here[dim] + 1 >= extent) || (!up && here[dim] == 0) {
                    continue; // off-mesh: e-cube never routes there
                }
                let mut c = here;
                c[dim] = if up { c[dim] + 1 } else { c[dim] - 1 };
                let m = dims.id(Coord::new(c[0], c[1], c[2])).index();
                let ml = m.wrapping_sub(base);
                *slot = if ml < len {
                    ml as u32
                } else {
                    boundary_code(out, m)
                };
                if bisect_mid != 0 && dim == bisect_dim {
                    // The channel joins coordinates `lower` and `lower + 1`.
                    let lower = here[dim] - u8::from(!up);
                    let crosses = lower + 1 == bisect_mid;
                    bisect_out[l] |= u8::from(crosses) << out;
                }
            }
        }
        let mut shard = NetShard {
            arena: ChannelArena::new((0..len).map(coord), config.flit_buffer, config.inject_fifo),
            neigh,
            bisect_out,
            config,
            base,
            routers: vec![Router::default(); len],
            stats: NetStats::default(),
            in_flight: 0,
            active: BitSet::new(len),
            eject_pending: BitSet::new(len),
            crossings: [Vec::new(), Vec::new()],
            law: Law::default(),
            tracer: None,
            traced_msgs: vec![0; len],
            fault: None,
            traffic: None,
            traffic_words: Vec::new(),
        };
        shard.set_fault_plan(None);
        shard
    }

    /// Installs (or clears) the fault plan. Must be set identically on
    /// every shard before simulation starts. The bulk law needs the whole
    /// mesh in one shard, no fault plan (it does not model blocked moves),
    /// and `flit_buffer ≥ 2`.
    pub(crate) fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
        let whole = self.base == 0 && self.routers.len() == self.config.dims.nodes() as usize;
        let on = whole && plan.is_none() && self.config.flit_buffer >= 2;
        self.law = Law::new(self.routers.len(), on);
    }

    /// The bulk law's host counters.
    pub(crate) fn bulk_stats(&self) -> BulkStats {
        self.law.stats
    }

    /// Injection FIFOs this shard has allocated.
    pub(crate) fn inject_fifos(&self) -> usize {
        self.arena.inject_fifos()
    }

    /// Installs (or clears) the traffic plan. Must be set identically on
    /// every shard before simulation starts.
    pub(crate) fn set_traffic_plan(&mut self, plan: Option<TrafficPlan>) {
        self.traffic = plan;
    }

    /// The next cycle at or after `now` with possible generated traffic, or
    /// `u64::MAX` when there is none. Engines must not skip the clock past
    /// this point, and must not treat the shard as finished while it is
    /// finite: an idle mesh whose generation window lies ahead still has
    /// work coming.
    pub fn traffic_wake(&self, now: u64) -> u64 {
        self.traffic.map_or(u64::MAX, |p| p.next_active(now))
    }

    /// First global node id owned by this shard.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of nodes (routers) owned by this shard.
    pub fn len(&self) -> usize {
        self.routers.len()
    }

    /// Whether the shard owns no routers (never true for shards built by
    /// [`crate::Network`]).
    pub fn is_empty(&self) -> bool {
        self.routers.is_empty()
    }

    /// This shard's share of the network statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Flits currently buffered in this shard.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Whether this shard holds no flits and no undelivered words.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0 && self.eject_pending.is_empty()
    }

    #[inline]
    fn local(&self, node: NodeId) -> usize {
        let l = node.index().wrapping_sub(self.base);
        debug_assert!(l < self.routers.len(), "{node} outside shard");
        l
    }

    /// Local indices of the nodes currently holding undelivered ejected
    /// words: the delivery notification an engine's pump walks.
    pub fn pending(&self) -> &BitSet {
        &self.eject_pending
    }

    /// Next delivered payload word with the trace id of the message that
    /// carried it ([`TraceId::NONE`] when tracing is off).
    pub fn delivered_front_traced(
        &self,
        node: NodeId,
        priority: MsgPriority,
    ) -> Option<(Word, TraceId)> {
        self.routers[self.local(node)].ejected[priority.index()]
            .front()
            .copied()
    }

    /// Pops the next delivered payload word for a node.
    pub fn pop_delivered(&mut self, node: NodeId, priority: MsgPriority) -> Option<Word> {
        let l = self.local(node);
        let router = &mut self.routers[l];
        let word = router.ejected[priority.index()].pop_front().map(|(w, _)| w);
        if word.is_some() && router.ejected[0].is_empty() && router.ejected[1].is_empty() {
            self.eject_pending.remove(l);
        }
        word
    }

    /// Number of delivered words waiting at a node.
    pub fn delivered_len(&self, node: NodeId, priority: MsgPriority) -> usize {
        self.routers[self.local(node)].ejected[priority.index()].len()
    }

    /// Nodes per z-plane (boundary buffers are indexed by plane offset).
    #[inline]
    fn plane(&self) -> usize {
        self.config.dims.x as usize * self.config.dims.y as usize
    }

    /// Calls `f` with a per-`(global node, vnet)` occupancy digest for every
    /// router in the shard at cycle `now`, in ascending (node, vnet) order.
    ///
    /// Takes `&mut self` because the messages on the wormhole bulk law
    /// must first be [materialized](Self::materialize_all) into the exact
    /// buffered state they stand for — the digest canonicalizes on the
    /// buffered representation, and materialization is semantically
    /// invisible by construction.
    ///
    /// The digest covers the channel-arena queues plus the router's
    /// interface state: the ejected-word FIFO. Trace ids, the `eject_cur`
    /// trace cursor, and statistics are excluded (observability state);
    /// `eject_hdr_seen` is included (it steers fault corruption).
    pub(crate) fn fold_components(&mut self, now: u64, f: &mut dyn FnMut(NodeId, usize, u64)) {
        self.materialize_all(now);
        for l in 0..self.routers.len() {
            for vnet in 0..2 {
                let mut h = jm_trace::Fnv1a::new();
                self.arena.fold_state(l, vnet, &mut h);
                let router = &self.routers[l];
                h.write_u32(router.ejected[vnet].len() as u32);
                for &(w, _) in &router.ejected[vnet] {
                    h.write_u8(w.tag().bits());
                    h.write_u32(w.bits());
                }
                h.write_u8(u8::from(router.eject_hdr_seen[vnet]));
                f(NodeId((self.base + l) as u32), vnet, h.finish());
            }
        }
    }
}
