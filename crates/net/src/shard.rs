//! Slab-sharded network state.
//!
//! The mesh is split into contiguous z-slabs (node ids are z-major, so each
//! slab owns a contiguous id range). A [`NetShard`] owns its slab's routers,
//! ejection FIFOs, and statistics, and can advance one cycle touching only
//! its own state plus the [`Edge`] interfaces shared with the slabs directly
//! below and above it. That makes shards safe to step on parallel worker
//! threads; [`crate::Network`] also drives the same shards sequentially, so
//! both modes execute literally the same per-cycle code.
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

use crate::arena::ChannelArena;
use crate::bitset::{ones, BitSet};
use crate::config::NetConfig;
use crate::flit::Flit;
use crate::router::{ecube_route, Router, IN_INJECT, OUT_EJECT};
use crate::stats::NetStats;
use jm_fault::{checksum_words, FaultPlan};
use jm_isa::instr::MsgPriority;
use jm_isa::node::{NodeId, RouteWord};
use jm_isa::tag::Tag;
use jm_isa::word::{MsgHeader, Word};
use jm_isa::TraceId;
use jm_trace::{EventKind, FaultEvent, Tracer};
use jm_traffic::TrafficPlan;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Mutex;

/// Result of offering one word to the injection port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectResult {
    /// The word was accepted.
    Accepted,
    /// The injection FIFO is full — on the MDP this surfaces as a *send
    /// fault* in the executing thread, which retries (§4.3.2).
    Stall,
    /// Framing error: the first word of a message must be a `route` word
    /// naming an in-range destination, and a message must contain at least
    /// one payload word.
    BadRoute,
}

/// Output-port index of the +z channel (the only up-crossing direction).
const OUT_ZPOS: usize = 4;
/// Output-port index of the −z channel (the only down-crossing direction).
const OUT_ZNEG: usize = 5;

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
struct BulkMsg {
    /// The message's flits, exactly as the injection FIFO would hold them.
    flits: Vec<Flit>,
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

/// Neighbor-table flag: the channel crosses a slab boundary.
const NEIGH_BOUNDARY: u32 = 1 << 31;
/// Neighbor-table flag: a boundary crossing in the −z direction.
const NEIGH_DOWN: u32 = 1 << 30;
/// Neighbor-table mask for the global node id of a boundary neighbor.
const NEIGH_ID: u32 = (1 << 30) - 1;

/// The interface between two vertically adjacent shards: mailboxes carrying
/// boundary-crossing flits, and published space snapshots for the boundary
/// input buffers on each side.
///
/// Mailbox entries keep the sender's deterministic scan order, and each
/// mailbox has exactly one writing shard per cycle, so the `Mutex` is
/// uncontended bookkeeping, not an ordering mechanism.
#[derive(Debug)]
pub struct Edge {
    /// Flits crossing upward (+z out of the shard below), as
    /// `(global dest id, vnet, flit)`.
    up: Mutex<Vec<(u32, usize, Flit)>>,
    /// Flits crossing downward (−z out of the shard above).
    down: Mutex<Vec<(u32, usize, Flit)>>,
    /// Whether `up`/`down` holds anything — lets the draining shard skip
    /// the mutex on the (common) cycle with no boundary traffic. `Relaxed`
    /// is enough: the poster's phase 1 and the drainer's exchange are
    /// ordered by the engine's progress counters (or barriers), never by
    /// this flag.
    up_any: AtomicBool,
    down_any: AtomicBool,
    /// Free slots, at the start of the coming cycle, in the shard-above's
    /// lowest-plane `+z` input buffers: `[plane index][vnet]`. Written only
    /// by the shard above (during its exchange), read only by the shard
    /// below (during its step) — phases separated by the caller's barrier.
    up_space: Vec<[AtomicU8; 2]>,
    /// Free slots in the shard-below's top-plane `−z` input buffers.
    down_space: Vec<[AtomicU8; 2]>,
}

impl Edge {
    /// Creates the edge for a boundary of `plane` node columns, with every
    /// boundary buffer empty (`capacity` free slots).
    pub(crate) fn new(plane: usize, capacity: usize) -> Edge {
        assert!(u8::try_from(capacity).is_ok(), "flit buffer too deep");
        let fresh = |_| [AtomicU8::new(capacity as u8), AtomicU8::new(capacity as u8)];
        Edge {
            up: Mutex::new(Vec::new()),
            down: Mutex::new(Vec::new()),
            up_any: AtomicBool::new(false),
            down_any: AtomicBool::new(false),
            up_space: (0..plane).map(fresh).collect(),
            down_space: (0..plane).map(fresh).collect(),
        }
    }
}

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
    /// arbitration loop probes (allocated once; the advance loop never
    /// allocates).
    arena: ChannelArena,
    /// Buffered flits per local router (the advance loop's drop-out test).
    occ: Vec<u32>,
    /// Whether the bulk fast path may engage (on unless a test disabled it).
    allow_bulk: bool,
    /// Precomputed neighbor of every (local router, directional out port):
    /// the neighbor's *local* index, or `NEIGH_BOUNDARY` (+`NEIGH_DOWN`)
    /// with the neighbor's global id for slab-crossing z channels —
    /// replacing per-move coordinate arithmetic with one table load.
    /// Off-mesh directions hold `u32::MAX` (e-cube never routes off-mesh).
    neigh: Vec<[u32; 6]>,
    /// Per-router bitmask of out ports whose channel crosses the bisection
    /// mid-plane (for the traffic counters).
    bisect_out: Vec<u8>,
    cycle: u64,
    stats: NetStats,
    /// Flits currently buffered in *this shard* (a flit handed to an edge
    /// mailbox leaves the sender's count and joins the receiver's at drain).
    in_flight: u64,
    /// Local router indices with `occupancy > 0` — the only ones
    /// `step_cycle` must visit.
    active: BitSet,
    /// Local router indices holding undelivered ejected words (either vnet).
    eject_pending: BitSet,
    /// Boundary-crossing flits accumulated during the router scan, flushed
    /// into the edge mailboxes once per cycle — one mutex acquisition per
    /// edge instead of one per flit. FIFO order preserves the scan order
    /// the mailbox contract promises.
    cross_up: Vec<(u32, usize, Flit)>,
    cross_down: Vec<(u32, usize, Flit)>,
    /// The message currently streaming on the bulk fast path, if any.
    /// Invariant: while set, the shard holds no buffered flits — every
    /// in-flight flit belongs to this message and is virtual.
    bulk: Option<BulkMsg>,
    /// Lifecycle-event buffer; `None` (the default) disables tracing, so
    /// the hot paths pay one pointer test.
    pub(crate) tracer: Option<Box<Tracer>>,
    /// Fault plan, if this run injects faults. Queries key on *global* node
    /// ids and the lockstep cycle counter, so every shard layout answers
    /// identically; `None` (the default) keeps the fault-free fast paths.
    fault: Option<FaultPlan>,
    /// Synthetic-traffic plan, if this run generates background traffic.
    /// Like the fault plan, queries are pure functions of global node id
    /// and the lockstep cycle, so the generated workload is identical under
    /// every shard layout; `None` keeps the traffic-free fast paths.
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
        let mut neigh = vec![[u32::MAX; 6]; len];
        let mut bisect_out = vec![0u8; len];
        for l in 0..len {
            let here = coord(l);
            for (out, (dim, step)) in [(0i8, 1i8), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)]
                .into_iter()
                .enumerate()
            {
                let coord = [here.x, here.y, here.z][dim as usize];
                let extent = [dims.x, dims.y, dims.z][dim as usize];
                if (step > 0 && coord + 1 >= extent) || (step < 0 && coord == 0) {
                    continue; // off-mesh: e-cube never routes there
                }
                let mut c = here;
                match out {
                    0 => c.x += 1,
                    1 => c.x -= 1,
                    2 => c.y += 1,
                    3 => c.y -= 1,
                    4 => c.z += 1,
                    _ => c.z -= 1,
                }
                let m = dims.id(c).index();
                let ml = m.wrapping_sub(base);
                neigh[l][out] = if ml < len {
                    ml as u32
                } else if out == OUT_ZPOS {
                    NEIGH_BOUNDARY | m as u32
                } else {
                    NEIGH_BOUNDARY | NEIGH_DOWN | m as u32
                };
                if bisect_mid != 0 && dim as usize == bisect_dim {
                    let crosses =
                        (step > 0 && coord == bisect_mid - 1) || (step < 0 && coord == bisect_mid);
                    bisect_out[l] |= u8::from(crosses) << out;
                }
            }
        }
        NetShard {
            arena: ChannelArena::new((0..len).map(coord), config.flit_buffer, config.inject_fifo),
            occ: vec![0; len],
            allow_bulk: true,
            neigh,
            bisect_out,
            config,
            base,
            routers: vec![Router::new(); len],
            cycle: 0,
            stats: NetStats::default(),
            in_flight: 0,
            active: BitSet::new(len),
            eject_pending: BitSet::new(len),
            cross_up: Vec::new(),
            cross_down: Vec::new(),
            bulk: None,
            tracer: None,
            fault: None,
            traffic: None,
            traffic_words: Vec::new(),
        }
    }

    /// Installs (or clears) the fault plan. Must be set identically on
    /// every shard before simulation starts.
    pub(crate) fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// Installs (or clears) the traffic plan. Must be set identically on
    /// every shard before simulation starts.
    pub(crate) fn set_traffic_plan(&mut self, plan: Option<TrafficPlan>) {
        self.traffic = plan;
    }

    /// Enables or disables the bulk fast path (unobservable in simulated
    /// state). Must be called before simulation starts.
    pub(crate) fn set_tuning(&mut self, bulk: bool) {
        self.allow_bulk = bulk;
    }

    /// The next cycle at or after the shard's current cycle with possible
    /// generated traffic, or `u64::MAX` when there is none. Engines must
    /// not skip the cycle counter past this point, and must not treat the
    /// shard as finished while it is finite: an idle mesh whose generation
    /// window lies ahead still has work coming.
    pub fn traffic_wake(&self) -> u64 {
        self.traffic.map_or(u64::MAX, |p| p.next_active(self.cycle))
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

    /// The shard's cycle counter (in lockstep with its siblings outside the
    /// two tick phases).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// This shard's share of the network statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Flits currently buffered in this shard.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Local router indices currently holding buffered flits.
    ///
    /// During a bulk flight the flits are virtual, so the count is derived
    /// from the timing law instead of the (empty) active set: flit `f` sits
    /// at hop position `done = clamp(cycle − q − f, 0, hops)` (position 0 is
    /// the source's inject FIFO), and because `done` falls by one per flit
    /// index the occupied positions form one contiguous range. Occupancy
    /// samples taken mid-flight must match the slow path bit for bit.
    pub(crate) fn active_count(&self) -> u32 {
        let buffered = self.active.count() as u32;
        let Some(b) = &self.bulk else { return buffered };
        let hops = b.path.len() as i64 - 1;
        let rel = self.cycle as i64 - b.q as i64;
        let hi = rel.clamp(0, hops);
        let lo = (rel - (b.flits.len() as i64 - 1)).clamp(0, hops);
        buffered + (hi - lo + 1) as u32
    }

    /// Whether this shard holds no flits and no undelivered words.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0 && self.eject_pending.is_empty()
    }

    /// Advances the cycle counter without simulating. Only legal while the
    /// shard holds no flits (and, in parallel mode, only when every shard
    /// agrees — the coordinator checks that before issuing a skip).
    pub fn skip_to(&mut self, cycle: u64) {
        debug_assert_eq!(self.in_flight, 0, "skip_to with flits in flight");
        debug_assert!(
            self.traffic
                .is_none_or(|p| cycle <= p.next_active(self.cycle)),
            "skip_to past the traffic window"
        );
        self.cycle = self.cycle.max(cycle);
    }

    /// Moves the cycle counter *backwards* to `cycle`, undoing counter-only
    /// idle steps. Only legal while the shard holds no flits and no
    /// undelivered words: an idle [`NetShard::step_cycle`] does nothing but
    /// increment the counter, so unwinding the increments reconstructs the
    /// pre-step state exactly. The parallel engine's quantum coordinator
    /// uses this when deferred quiescence detection finds the mesh went
    /// quiet mid-quantum (see `DESIGN.md` §4.5).
    pub fn rewind_idle_to(&mut self, cycle: u64) {
        debug_assert_eq!(self.in_flight, 0, "rewind_idle_to with flits in flight");
        debug_assert!(
            self.eject_pending.is_empty(),
            "rewind_idle_to with undelivered words"
        );
        debug_assert!(cycle <= self.cycle, "rewind_idle_to must not advance");
        debug_assert!(
            self.traffic
                .is_none_or(|p| p.next_active(cycle) == u64::MAX),
            "rewind_idle_to into the traffic window"
        );
        self.cycle = cycle;
    }

    #[inline]
    fn local(&self, node: NodeId) -> usize {
        let l = node.index().wrapping_sub(self.base);
        debug_assert!(l < self.routers.len(), "{node} outside shard");
        l
    }

    /// Nodes currently holding undelivered ejected words, in ascending id
    /// order (global ids).
    pub fn pending_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let base = self.base;
        self.eject_pending
            .iter()
            .map(move |i| NodeId((base + i) as u32))
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

    /// Atomically offers a whole message to a node's injection port: the
    /// route word followed by at least one payload word. Either every word
    /// is accepted or none is (the network interface composes messages in a
    /// per-thread buffer and launches them whole, so a preempting handler
    /// can never interleave words into an open message).
    pub fn commit_msg(
        &mut self,
        node: NodeId,
        priority: MsgPriority,
        words: &[Word],
    ) -> InjectResult {
        // New traffic can observe (and contend with) in-flight flits, so a
        // virtual bulk message becomes real buffered flits before any
        // capacity check reads the arena.
        if self.bulk.is_some() {
            self.materialize_bulk();
        }
        let cycle = self.cycle;
        let inject_latency = self.config.inject_latency;
        let fifo_cap = self.config.inject_fifo;
        let dims = self.config.dims;
        let vnet = priority.index();
        // Framing checks first.
        if words.len() < 2 || words[0].tag() != Tag::Route {
            return InjectResult::BadRoute;
        }
        let dest = RouteWord::from_word(words[0]).dest;
        if dest.x >= dims.x || dest.y >= dims.y || dest.z >= dims.z {
            return InjectResult::BadRoute;
        }
        let l = self.local(node);
        if self.node_down_stall(node, cycle) {
            return InjectResult::Stall;
        }
        // Fault-injection runs append a checksum trailer word so the MDP
        // can validate the payload at dispatch. The header's length field
        // is untouched; the trailer travels at a known offset (header len)
        // and is stripped by the dispatch machinery.
        let mut checked;
        let words: &[Word] = match &self.fault {
            Some(f) if f.checksums() => {
                checked = Vec::with_capacity(words.len() + 1);
                checked.extend_from_slice(words);
                checked.push(checksum_words(&words[1..]));
                &checked
            }
            _ => words,
        };
        let needed = 2 * words.len();
        if self.arena.len(l, vnet, IN_INJECT) + needed > fifo_cap {
            return InjectResult::Stall;
        }
        self.stats.injected_msgs += 1;
        let trace = match &mut self.tracer {
            Some(tracer) => {
                let id = TraceId(self.stats.injected_msgs);
                tracer.emit(
                    cycle,
                    EventKind::Inject {
                        id,
                        src: node,
                        dst: dims.id(dest),
                        priority,
                        words: words.len() as u32 - 1,
                    },
                );
                id
            }
            None => TraceId::NONE,
        };
        if self.try_bulk(l, priority, dest, words, cycle, trace) {
            return InjectResult::Accepted;
        }
        for (i, &word) in words.iter().enumerate() {
            let pair = Flit::pair_for_word(
                dest,
                word,
                i == 0,
                i == 0,
                i + 1 == words.len(),
                cycle,
                cycle + inject_latency,
                trace,
            );
            for flit in pair {
                self.arena.push(l, vnet, IN_INJECT, flit);
            }
        }
        self.occ[l] += needed as u32;
        self.in_flight += needed as u64;
        self.active.insert(l);
        InjectResult::Accepted
    }

    /// Attempts to commit `words` as a virtual bulk-advance message (see
    /// [`BulkMsg`]). Returns `false` — leaving all state untouched — unless
    /// the flit-by-flit outcome is fully determined: a single shard covering
    /// the whole mesh, no other flit in flight, no fault plan, a clear
    /// (unowned) route, deep-enough channel buffers to pipeline at full
    /// rate, and an ejection FIFO that cannot stall even if the destination
    /// node drains nothing before the tail arrives.
    fn try_bulk(
        &mut self,
        l: usize,
        priority: MsgPriority,
        dest: jm_isa::node::Coord,
        words: &[Word],
        cycle: u64,
        trace: TraceId,
    ) -> bool {
        let dims = self.config.dims;
        let nodes = dims.x as usize * dims.y as usize * dims.z as usize;
        let vnet = priority.index();
        let dest_l = dims.id(dest).index();
        if !self.allow_bulk
            || self.fault.is_some()
            || self.in_flight != 0
            || self.base != 0
            || self.routers.len() != nodes
            // Full-rate pipelining needs one slot of slack over the
            // same-cycle credit mask.
            || self.config.flit_buffer < 2
            || !self.routers[dest_l].ejected[vnet].is_empty()
            || words.len() - 1 > self.config.eject_fifo
        {
            return false;
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
                return false;
            }
            if out == OUT_EJECT {
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
        let mut flits = Vec::with_capacity(2 * words.len());
        for (i, &word) in words.iter().enumerate() {
            flits.extend(Flit::pair_for_word(
                dest,
                word,
                i == 0,
                i == 0,
                i + 1 == words.len(),
                cycle,
                cycle + self.config.inject_latency,
                trace,
            ));
        }
        self.in_flight += flits.len() as u64;
        self.bulk = Some(BulkMsg {
            flits,
            path,
            outs,
            bisect,
            q: cycle + self.config.inject_latency,
            vnet,
        });
        true
    }

    /// Replays one cycle of the bulk message's closed-form schedule (the
    /// timing law in [`BulkMsg`]), emitting exactly the statistics,
    /// deliveries, and trace events the buffered path would this cycle.
    fn step_bulk(&mut self, cycle: u64) {
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
            // The head acquires one output port per cycle along the route —
            // that is the per-hop lifecycle event.
            if rel < hops {
                if let Some(tracer) = &mut self.tracer {
                    let id = b.flits[0].trace();
                    if id.is_some() {
                        tracer.emit(
                            cycle,
                            EventKind::Hop {
                                id,
                                node: NodeId((self.base + b.path[rel as usize] as usize) as u32),
                            },
                        );
                    }
                }
            }
        }
        // Ejection: flit `f = rel - H` leaves the mesh this cycle.
        let mut done = false;
        if rel >= hops && rel - hops < f_count {
            let flit = b.flits[(rel - hops) as usize];
            let dest = *b.path.last().expect("bulk path has a destination") as usize;
            self.in_flight -= 1;
            if let Some(word) = flit.payload() {
                self.routers[dest].ejected[b.vnet].push_back((word, flit.trace()));
                self.eject_pending.insert(dest);
                self.stats.delivered_words += 1;
                if let Some(tracer) = &mut self.tracer {
                    if flit.trace().is_some()
                        && self.routers[dest].eject_cur[b.vnet] != flit.trace()
                    {
                        self.routers[dest].eject_cur[b.vnet] = flit.trace();
                        tracer.emit(
                            cycle,
                            EventKind::Deliver {
                                id: flit.trace(),
                                node: NodeId((self.base + dest) as u32),
                            },
                        );
                    }
                }
            }
            if flit.tail() {
                self.stats.delivered_msgs += 1;
                let latency = cycle + 1 - flit.inject_cycle;
                self.stats.latency_sum += latency;
                self.stats.latency_max = self.stats.latency_max.max(latency);
                done = true;
            }
        }
        if !done {
            self.bulk = Some(b);
        }
    }

    /// Converts the in-flight bulk message back into ordinary buffered
    /// flits, reconstructing exactly the state the flit-by-flit path would
    /// hold at the start of the current cycle: every undelivered flit's
    /// buffer position and ready cycle, plus wormhole port ownership along
    /// the route. Called before any new injection, which could otherwise
    /// contend with (or fail to see) the virtual flits.
    fn materialize_bulk(&mut self) {
        let b = self
            .bulk
            .take()
            .expect("materialize without a bulk message");
        let cycle = self.cycle;
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
                self.arena.push(src, b.vnet, IN_INJECT, *flit);
                self.occ[src] += 1;
            } else {
                let at = b.path[done as usize] as usize;
                let port = b.outs[done as usize - 1] as usize;
                let mut flit = *flit;
                flit.ready_cycle = b.q + f as u64 + done;
                self.arena.push(at, b.vnet, port, flit);
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
                    OUT_EJECT
                } else {
                    b.outs[m as usize] as usize
                };
                let in_port = if m == 0 {
                    IN_INJECT
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

    /// Offers every message the traffic plan generates this cycle to the
    /// local injection ports, in ascending node order. Refusals (FIFO
    /// backpressure or a node-down fault) are counted and *not* retried:
    /// the Bernoulli process models independent offered load, and because
    /// injection-FIFO occupancy at this point in the cycle is engine-
    /// independent, the drop pattern is too.
    fn inject_traffic(&mut self) {
        let Some(plan) = self.traffic else { return };
        let cycle = self.cycle;
        if !plan.in_window(cycle) {
            return;
        }
        let dims = self.config.dims;
        let payload_words = plan.msg_words();
        for l in 0..self.routers.len() {
            let node = (self.base + l) as u32;
            if !plan.fires(node, cycle) {
                continue;
            }
            self.stats.traffic.offered_msgs += 1;
            let dest = plan.dest(node, cycle, dims);
            let mut words = std::mem::take(&mut self.traffic_words);
            words.clear();
            words.push(RouteWord::new(dims.coord(dest)).to_word());
            words.push(MsgHeader::new(plan.handler_ip(), payload_words).to_word());
            for k in 1..payload_words {
                words.push(Word::int(k as i32));
            }
            match self.commit_msg(NodeId(node), MsgPriority::P0, &words) {
                InjectResult::Accepted => self.stats.traffic.accepted_msgs += 1,
                InjectResult::Stall => self.stats.traffic.dropped_msgs += 1,
                InjectResult::BadRoute => unreachable!("generated message misframed"),
            }
            self.traffic_words = words;
        }
    }

    /// Whether `node`'s interface is down this cycle; counts the refusal
    /// (and traces it) so degradation curves can attribute send stalls.
    fn node_down_stall(&mut self, node: NodeId, cycle: u64) -> bool {
        match &self.fault {
            Some(f) if f.node_down(node.0, cycle) => {
                self.stats.faults.inject_stalls += 1;
                if let Some(tracer) = &mut self.tracer {
                    tracer.emit(
                        cycle,
                        EventKind::Fault {
                            id: TraceId::NONE,
                            node,
                            what: FaultEvent::SendStall,
                        },
                    );
                }
                true
            }
            _ => false,
        }
    }

    /// Nodes per z-plane (boundary buffers are indexed by plane offset).
    #[inline]
    fn plane(&self) -> usize {
        self.config.dims.x as usize * self.config.dims.y as usize
    }

    /// Phase 1 of a cycle: moves at most one flit per physical channel,
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
    /// with `ready_cycle == cycle + 1`, which move next cycle whether or not
    /// this scan still visits it.
    pub fn step_cycle(&mut self, below: Option<&Edge>, above: Option<&Edge>) {
        // Generated traffic enters first, before the idle early-out: the
        // generator is what *creates* work on an otherwise-empty shard. Node
        // sends for this cycle have already been committed by the caller
        // (the machine ticks nodes before stepping the network), so the
        // inject-FIFO occupancy the generator observes — and therefore every
        // accept/drop decision — is identical under every engine.
        if self.traffic.is_some() {
            self.inject_traffic();
        }
        if self.in_flight == 0 {
            self.cycle += 1;
            return;
        }
        let cycle = self.cycle;
        if self.bulk.is_some() {
            // A bulk message in flight is the only traffic (any other
            // injection would have materialized it), so the router scan
            // below would find nothing buffered to move.
            debug_assert!(
                self.active.is_empty(),
                "buffered flits during a bulk flight"
            );
            self.step_bulk(cycle);
            self.cycle += 1;
            return;
        }
        // The naive full scan's answer, taken before any flit moves, for
        // the debug cross-check below.
        let due: Vec<usize> = if cfg!(debug_assertions) {
            (0..self.occ.len()).filter(|&n| self.occ[n] > 0).collect()
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
                if self.occ[n] == 0 {
                    self.active.remove(n);
                    continue;
                }
                self.step_router(n, cycle, below, above);
                if self.occ[n] == 0 {
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
        // Flush boundary crossings accumulated by the scan: one mailbox
        // acquisition per edge per cycle, in scan (FIFO) order.
        if !self.cross_up.is_empty() {
            let edge = above.expect("+z crossing without an upper edge");
            edge.up
                .lock()
                .expect("mailbox poisoned")
                .extend(self.cross_up.drain(..));
            edge.up_any.store(true, Ordering::Relaxed);
        }
        if !self.cross_down.is_empty() {
            let edge = below.expect("-z crossing without a lower edge");
            edge.down
                .lock()
                .expect("mailbox poisoned")
                .extend(self.cross_down.drain(..));
            edge.down_any.store(true, Ordering::Relaxed);
        }
        self.cycle += 1;
    }

    /// Advances one router one cycle: moves at most one flit per physical
    /// channel, priority-1 traffic first, input ports arbitrated in fixed
    /// ascending order with injection last.
    ///
    /// Whether a front flit may move is a conjunction of pure checks, so
    /// their order is unobservable; they run cheapest storage first — this
    /// router's hot record, the neighbour's, and only then the flit — and
    /// about half of all probes at saturation stop before the flit. The one
    /// check with a side effect is the fault plan's (`blocked_moves`), which
    /// keeps its place after the owner and flit checks (`DESIGN.md` §4.5).
    fn step_router(&mut self, n: usize, cycle: u64, below: Option<&Edge>, above: Option<&Edge>) {
        let eject_fifo = self.config.eject_fifo;
        let plane = self.plane();
        let count = self.routers.len();
        let mut in_used: u8 = 0;
        let mut out_used: u8 = 0;
        let (mut flit_hops, mut bisection_flits) = (0u64, 0u64);
        for &priority in [MsgPriority::P1, MsgPriority::P0].iter() {
            let vnet = priority.index();
            // Non-empty input ports in ascending (arbitration) order, minus
            // physical channels a higher-priority flit already used.
            let mut avail = self.arena.port_mask(n, vnet) & !in_used;
            while avail != 0 {
                let in_port = avail.trailing_zeros() as usize;
                avail &= avail - 1;
                let out = self.arena.route(n, vnet, in_port);
                debug_assert_eq!(
                    out,
                    ecube_route(self.arena.coord(n), self.arena.front(n, vnet, in_port).dest),
                    "stale cached route"
                );
                if out_used & (1 << out) != 0 {
                    continue;
                }
                let owner = self.arena.owner(n, vnet, out);
                let owned = owner == in_port as i8;
                if !owned && owner >= 0 {
                    continue;
                }
                // The flit's own say: ready to leave this buffer and, when it
                // must acquire the output, a head (wormhole FIFO discipline
                // never strands a body flit behind a torn-down path).
                let flit_ok = |arena: &ChannelArena| {
                    let flit = arena.front(n, vnet, in_port);
                    debug_assert!(owned || flit.head(), "orphan body flit");
                    flit.ready_cycle <= cycle && (owned || flit.head())
                };
                if let Some(f) = &self.fault {
                    if !flit_ok(&self.arena) {
                        continue;
                    }
                    // Delay faults act exactly like a full downstream
                    // buffer: the flit stays queued and wormhole
                    // backpressure holds the path, so nothing is ever lost.
                    // The decision is a pure function of (global node, out
                    // port, cycle) — identical for every engine and layout.
                    if f.blocked((self.base + n) as u32, out, cycle) {
                        self.stats.faults.blocked_moves += 1;
                        continue;
                    }
                }
                // Space check downstream. Local targets report
                // start-of-cycle occupancy; boundary targets were
                // published by the owning shard at the last exchange —
                // both are scan-order-independent (module docs).
                let mut local_m = usize::MAX;
                if out == OUT_EJECT {
                    if self.routers[n].ejected[vnet].len() >= eject_fifo
                        && self.arena.front(n, vnet, in_port).payload().is_some()
                    {
                        continue;
                    }
                } else {
                    let code = self.neigh[n][out];
                    if (code as usize) < count {
                        if self.arena.space(code as usize, vnet, out, cycle) == 0 {
                            continue;
                        }
                        local_m = code as usize;
                    } else {
                        debug_assert_ne!(code, u32::MAX, "routed off-mesh");
                        let m = (code & NEIGH_ID) as usize;
                        let space = if code & NEIGH_DOWN == 0 {
                            let edge = above.expect("+z exit without an upper edge");
                            edge.up_space[m % plane][vnet].load(Ordering::Acquire)
                        } else {
                            let edge = below.expect("-z exit without a lower edge");
                            edge.down_space[m % plane][vnet].load(Ordering::Acquire)
                        };
                        if space == 0 {
                            continue;
                        }
                    }
                }
                if self.fault.is_none() && !flit_ok(&self.arena) {
                    continue;
                }
                // Commit the move.
                let flit = self.arena.pop(n, vnet, in_port, cycle);
                self.occ[n] -= 1;
                in_used |= 1 << in_port;
                out_used |= 1 << out;
                self.arena
                    .set_owner(n, vnet, out, if flit.tail() { -1 } else { in_port as i8 });
                if out == OUT_EJECT {
                    self.in_flight -= 1;
                    if let Some(word) = flit.payload() {
                        let mut word = word;
                        if self.fault.is_some() {
                            word = self.eject_faulted(word, n, vnet, flit.trace());
                        }
                        self.routers[n].ejected[vnet].push_back((word, flit.trace()));
                        self.eject_pending.insert(n);
                        self.stats.delivered_words += 1;
                        // The message's first payload word (its header)
                        // reaching the ejection FIFO is the deliver
                        // event: the MDP dispatches on header arrival
                        // while the tail may still be streaming in, so
                        // keying on the tail would let dispatch precede
                        // delivery.
                        if let Some(tracer) = &mut self.tracer {
                            if flit.trace().is_some()
                                && self.routers[n].eject_cur[vnet] != flit.trace()
                            {
                                self.routers[n].eject_cur[vnet] = flit.trace();
                                tracer.emit(
                                    cycle,
                                    EventKind::Deliver {
                                        id: flit.trace(),
                                        node: NodeId((self.base + n) as u32),
                                    },
                                );
                            }
                        }
                    }
                    if flit.tail() {
                        if self.fault.is_some() {
                            self.routers[n].eject_hdr_seen[vnet] = false;
                        }
                        self.stats.delivered_msgs += 1;
                        // Ejection completes at the end of this cycle;
                        // injection can never postdate it.
                        debug_assert!(
                            cycle + 1 >= flit.inject_cycle,
                            "delivery precedes injection (cycle {cycle}, injected {})",
                            flit.inject_cycle
                        );
                        let latency = cycle + 1 - flit.inject_cycle;
                        self.stats.latency_sum += latency;
                        self.stats.latency_max = self.stats.latency_max.max(latency);
                    }
                } else {
                    if flit.head() {
                        if let Some(tracer) = &mut self.tracer {
                            if flit.trace().is_some() {
                                tracer.emit(
                                    cycle,
                                    EventKind::Hop {
                                        id: flit.trace(),
                                        node: NodeId((self.base + n) as u32),
                                    },
                                );
                            }
                        }
                    }
                    flit_hops += 1;
                    bisection_flits += u64::from(self.bisect_out[n] >> out & 1);
                    let mut moved = flit;
                    moved.ready_cycle = cycle + 1;
                    if local_m != usize::MAX {
                        self.arena.push(local_m, vnet, out, moved);
                        self.occ[local_m] += 1;
                        self.active.insert(local_m);
                    } else {
                        // Crossing a slab boundary: the flit leaves this
                        // shard's books and reaches the neighbor's input
                        // buffer at exchange time. Deferral is invisible
                        // (ready_cycle = cycle + 1 already bars every
                        // same-cycle consumer).
                        self.in_flight -= 1;
                        let code = self.neigh[n][out];
                        let scratch = if code & NEIGH_DOWN == 0 {
                            debug_assert!(above.is_some(), "checked above");
                            &mut self.cross_up
                        } else {
                            debug_assert!(below.is_some(), "checked above");
                            &mut self.cross_down
                        };
                        scratch.push((code & NEIGH_ID, vnet, moved));
                    }
                }
            }
        }
        self.stats.flit_hops += flit_hops;
        self.stats.bisection_flits += bisection_flits;
    }

    /// Phase 2 of a cycle: drains the edge mailboxes addressed to this shard
    /// into its boundary input buffers, then publishes those buffers' free
    /// space for the neighbors' next step. Must run after *every* shard
    /// touching `below`/`above` has finished phase 1 (callers put a barrier
    /// between the phases); a second barrier before the next phase 1 keeps
    /// the published snapshots stable while neighbors read them.
    pub fn exchange(&mut self, below: Option<&Edge>, above: Option<&Edge>) {
        let plane = self.plane();
        let flit_buffer = self.config.flit_buffer;
        if let Some(edge) = below {
            // The mutex is skipped on no-traffic cycles (the flag is set by
            // the poster's phase 1, already ordered before this exchange),
            // and a space snapshot is re-stored only when its value moved —
            // unchanged slots stay clean in the neighbor's cache instead of
            // bouncing the line every cycle.
            if edge.up_any.swap(false, Ordering::Relaxed) {
                let mut inbox = edge.up.lock().expect("mailbox poisoned");
                for (dest, vnet, flit) in inbox.drain(..) {
                    let l = self.local(NodeId(dest));
                    debug_assert!(l < plane, "up-crossing flit beyond the bottom plane");
                    self.arena.push(l, vnet, OUT_ZPOS, flit);
                    self.occ[l] += 1;
                    self.in_flight += 1;
                    self.active.insert(l);
                }
            }
            for p in 0..plane {
                for vnet in 0..2 {
                    let len = self.arena.len(p, vnet, OUT_ZPOS);
                    debug_assert!(len <= flit_buffer, "boundary buffer over capacity");
                    let space = (flit_buffer - len) as u8;
                    let slot = &edge.up_space[p][vnet];
                    if slot.load(Ordering::Relaxed) != space {
                        slot.store(space, Ordering::Release);
                    }
                }
            }
        }
        if let Some(edge) = above {
            let top = self.routers.len() - plane;
            if edge.down_any.swap(false, Ordering::Relaxed) {
                let mut inbox = edge.down.lock().expect("mailbox poisoned");
                for (dest, vnet, flit) in inbox.drain(..) {
                    let l = self.local(NodeId(dest));
                    debug_assert!(l >= top, "down-crossing flit above the top plane");
                    self.arena.push(l, vnet, OUT_ZNEG, flit);
                    self.occ[l] += 1;
                    self.in_flight += 1;
                    self.active.insert(l);
                }
            }
            for p in 0..plane {
                for vnet in 0..2 {
                    let len = self.arena.len(top + p, vnet, OUT_ZNEG);
                    debug_assert!(len <= flit_buffer, "boundary buffer over capacity");
                    let space = (flit_buffer - len) as u8;
                    let slot = &edge.down_space[p][vnet];
                    if slot.load(Ordering::Relaxed) != space {
                        slot.store(space, Ordering::Release);
                    }
                }
            }
        }
    }

    /// Fault-injection path for one payload word reaching the ejection
    /// port: the first payload word of each message (its header) passes
    /// untouched — corrupting the length field would desynchronize the
    /// queue rather than model payload damage — and every later word may
    /// get one seeded bit flip. The cycle advanced inside `step_cycle`
    /// hasn't been incremented yet, so `self.cycle` is the decision cycle.
    fn eject_faulted(&mut self, word: Word, n: usize, vnet: usize, trace: TraceId) -> Word {
        let router = &mut self.routers[n];
        if !router.eject_hdr_seen[vnet] {
            router.eject_hdr_seen[vnet] = true;
            return word;
        }
        let plan = self.fault.as_ref().expect("checked by caller");
        let Some(bit) = plan.corrupt_bit((self.base + n) as u32, self.cycle) else {
            return word;
        };
        self.stats.faults.corrupted_words += 1;
        if let Some(tracer) = &mut self.tracer {
            tracer.emit(
                self.cycle,
                EventKind::Fault {
                    id: trace,
                    node: NodeId((self.base + n) as u32),
                    what: FaultEvent::CorruptWord,
                },
            );
        }
        Word::new(word.tag(), word.bits() ^ (1 << bit))
    }

    /// Drains the buffered lifecycle events (empty when tracing is off).
    pub(crate) fn take_trace_events(&mut self) -> Tracer {
        self.tracer.as_mut().map(|t| t.take()).unwrap_or_default()
    }

    /// Calls `f` with a per-`(global node, vnet)` occupancy digest for every
    /// router in the shard, in ascending (node, vnet) order.
    ///
    /// Takes `&mut self` because a message on the wormhole bulk fast path
    /// must first be [materialized](Self::materialize_bulk) into the exact
    /// buffered state it stands for — the digest canonicalizes on the
    /// buffered representation, and materialization is semantically
    /// invisible by construction.
    ///
    /// The digest covers the channel-arena queues plus the router's
    /// interface state: the ejected-word FIFO. Trace ids, the `eject_cur`
    /// trace cursor, and statistics are excluded (observability state);
    /// `eject_hdr_seen` is included (it steers fault corruption).
    pub(crate) fn fold_components(&mut self, f: &mut dyn FnMut(NodeId, usize, u64)) {
        if self.bulk.is_some() {
            self.materialize_bulk();
        }
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

/// The `(below, above)` edges of shard `k`, given the edge list in which
/// `edges[i]` sits between shards `i` and `i + 1`.
pub fn edge_pair(edges: &[Edge], k: usize) -> (Option<&Edge>, Option<&Edge>) {
    (k.checked_sub(1).and_then(|i| edges.get(i)), edges.get(k))
}
