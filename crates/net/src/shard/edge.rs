//! The slab boundary: what crosses between two vertically adjacent shards,
//! and how.
//!
//! Only z channels cross a cut, so a boundary carries traffic in two
//! directions — up (+z, out of the shard below) and down (−z, out of the
//! shard above) — and the protocol is the same in both. An [`Edge`] is
//! therefore two identical lanes, and everything a shard does at a boundary
//! is written once with the direction as a value: read a lane's space
//! snapshot before moving a flit toward it, post the cycle's crossings into
//! it, and (on the receiving side, at exchange) drain it and publish fresh
//! space. For direction `d`, a shard *sends* on the edge at its `d` face and
//! *receives* on the edge at the opposite face, in both cases through that
//! edge's lane `d`; the flit travels in direction `d`, so it lands in input
//! port [`in_port`]`(d)` of the receiver's plane nearest the sender.

use super::NetShard;
use crate::flit::Flit;
use jm_fault::port;
use jm_isa::node::NodeId;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Mutex;

/// Direction of a boundary crossing: the +z lane.
const UP: usize = 0;
/// Direction of a boundary crossing: the −z lane.
const DOWN: usize = 1;

/// The router port a flit crossing in direction `d` leaves by and waits in.
#[inline]
fn in_port(d: usize) -> usize {
    port::ZPOS + d
}
const _: () = assert!(port::ZPOS + DOWN == port::ZNEG);

/// Neighbor-table flag: the channel crosses a slab boundary.
const NEIGH_BOUNDARY: u32 = 1 << 31;
/// Neighbor-table bit holding the crossing's direction.
const NEIGH_DIR_SHIFT: u32 = 30;
/// Neighbor-table mask for the global node id of a boundary neighbor.
const NEIGH_ID: u32 = (1 << NEIGH_DIR_SHIFT) - 1;

/// Neighbor-table entry for a channel that leaves the slab through output
/// `out` (±z) toward global node `m`. Always larger than any local index.
pub(super) fn boundary_code(out: usize, m: usize) -> u32 {
    debug_assert!(out == in_port(UP) || out == in_port(DOWN));
    NEIGH_BOUNDARY | (((out - port::ZPOS) as u32) << NEIGH_DIR_SHIFT) | m as u32
}

/// The direction and global destination id of a [`boundary_code`].
#[inline]
fn decode(code: u32) -> (usize, u32) {
    debug_assert_ne!(code, u32::MAX, "routed off-mesh");
    (((code >> NEIGH_DIR_SHIFT) & 1) as usize, code & NEIGH_ID)
}

/// A boundary-crossing flit in transit: `(global dest id, vnet, flit)`.
pub(super) type Crossing = (u32, usize, Flit);

/// One direction of a boundary: the mailbox carrying that direction's
/// crossing flits and the published space snapshot of the input buffers
/// they land in.
///
/// Mailbox entries keep the sender's deterministic scan order, and a
/// mailbox has exactly one writing shard per cycle, so the `Mutex` is
/// uncontended bookkeeping, not an ordering mechanism.
#[derive(Debug)]
struct Lane {
    mailbox: Mutex<Vec<Crossing>>,
    /// Whether the mailbox holds anything — lets the draining shard skip
    /// the mutex on the (common) cycle with no boundary traffic. `Relaxed`
    /// is enough: the poster's phase 1 and the drainer's exchange are
    /// ordered by the engine's progress counters (or barriers), never by
    /// this flag.
    any: AtomicBool,
    /// Free slots, at the start of the coming cycle, in the receiving
    /// plane's input buffers for this direction: `[plane index][vnet]`.
    /// Written only by the receiving shard (during its exchange), read only
    /// by the sending shard (during its step) — phases separated by the
    /// caller's barrier.
    space: Vec<[AtomicU8; 2]>,
}

/// The interface between two vertically adjacent shards: one `Lane` per
/// direction.
#[derive(Debug)]
pub struct Edge {
    lanes: [Lane; 2],
}

impl Edge {
    /// Creates the edge for a boundary of `plane` node columns, with every
    /// boundary buffer empty (`capacity` free slots).
    pub(crate) fn new(plane: usize, capacity: usize) -> Edge {
        assert!(u8::try_from(capacity).is_ok(), "flit buffer too deep");
        let fresh = |_| [AtomicU8::new(capacity as u8), AtomicU8::new(capacity as u8)];
        let lane = || Lane {
            mailbox: Mutex::new(Vec::new()),
            any: AtomicBool::new(false),
            space: (0..plane).map(fresh).collect(),
        };
        Edge {
            lanes: [lane(), lane()],
        }
    }
}

/// The `(below, above)` edges of shard `k`, given the edge list in which
/// `edges[i]` sits between shards `i` and `i + 1`.
pub fn edge_pair(edges: &[Edge], k: usize) -> (Option<&Edge>, Option<&Edge>) {
    (k.checked_sub(1).and_then(|i| edges.get(i)), edges.get(k))
}

/// The lane a shard sends direction-`d` flits on.
#[inline]
fn exit_lane<'a>(d: usize, below: Option<&'a Edge>, above: Option<&'a Edge>) -> &'a Lane {
    &[above, below][d]
        .expect("z exit without an edge at that face")
        .lanes[d]
}

impl NetShard {
    /// Free slots a sender sees in the boundary input buffer behind
    /// neighbor-table entry `code`: the snapshot the owning shard published
    /// at the last exchange, which is by construction a start-of-cycle
    /// value (module docs of [`super`]).
    #[inline]
    pub(super) fn boundary_space(
        &self,
        code: u32,
        vnet: usize,
        below: Option<&Edge>,
        above: Option<&Edge>,
    ) -> u8 {
        let (d, m) = decode(code);
        exit_lane(d, below, above).space[m as usize % self.plane()][vnet].load(Ordering::Acquire)
    }

    /// Takes a flit that moved toward `code` off this shard's books. It
    /// reaches the neighbor's input buffer at exchange time; deferral is
    /// invisible (`ready_cycle = cycle + 1` already bars every same-cycle
    /// consumer). Crossings accumulate per direction and are posted once
    /// per cycle by [`Self::post_crossings`] — one mutex acquisition per
    /// edge instead of one per flit, in the scan (FIFO) order the mailbox
    /// contract promises.
    #[inline]
    pub(super) fn cross(&mut self, code: u32, vnet: usize, flit: Flit) {
        let (d, m) = decode(code);
        self.in_flight -= 1;
        self.crossings[d].push((m, vnet, flit));
    }

    /// Posts the crossings the router scan accumulated this cycle.
    pub(super) fn post_crossings(&mut self, below: Option<&Edge>, above: Option<&Edge>) {
        for d in [UP, DOWN] {
            if !self.crossings[d].is_empty() {
                let lane = exit_lane(d, below, above);
                lane.mailbox
                    .lock()
                    .expect("mailbox poisoned")
                    .extend(self.crossings[d].drain(..));
                lane.any.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Phase 2 of a cycle: drains the edge mailboxes addressed to this shard
    /// into its boundary input buffers, then publishes those buffers' free
    /// space for the neighbors' next step. Must run after *every* shard
    /// touching `below`/`above` has finished phase 1 (callers put a barrier
    /// between the phases); a second barrier before the next phase 1 keeps
    /// the published snapshots stable while neighbors read them.
    pub fn exchange(&mut self, below: Option<&Edge>, above: Option<&Edge>) {
        // Upward traffic arrives from below, downward traffic from above.
        for (d, edge) in [(UP, below), (DOWN, above)] {
            if let Some(edge) = edge {
                self.receive(d, &edge.lanes[d]);
            }
        }
    }

    /// Drains and republishes one incoming lane.
    fn receive(&mut self, d: usize, lane: &Lane) {
        let plane = self.plane();
        let flit_buffer = self.config.flit_buffer;
        // The receiving plane is the one facing the sender: the bottom
        // plane for upward traffic, the top plane for downward.
        let first = if d == UP {
            0
        } else {
            self.routers.len() - plane
        };
        // The mutex is skipped on no-traffic cycles (the flag is set by
        // the poster's phase 1, already ordered before this exchange).
        if lane.any.swap(false, Ordering::Relaxed) {
            let mut inbox = lane.mailbox.lock().expect("mailbox poisoned");
            for (dest, vnet, flit) in inbox.drain(..) {
                let l = self.local(NodeId(dest));
                debug_assert!(
                    (first..first + plane).contains(&l),
                    "crossing flit landed outside the boundary plane"
                );
                self.arena.push(l, vnet, in_port(d), flit);
                self.in_flight += 1;
                self.active.insert(l);
            }
        }
        // A space snapshot is re-stored only when its value moved —
        // unchanged slots stay clean in the neighbor's cache instead of
        // bouncing the line every cycle.
        for p in 0..plane {
            for vnet in 0..2 {
                let len = self.arena.len(first + p, vnet, in_port(d));
                debug_assert!(len <= flit_buffer, "boundary buffer over capacity");
                let space = (flit_buffer - len) as u8;
                let slot = &lane.space[p][vnet];
                if slot.load(Ordering::Relaxed) != space {
                    slot.store(space, Ordering::Release);
                }
            }
        }
    }
}
