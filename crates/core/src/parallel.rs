//! Deterministic multi-threaded execution of a sharded machine.
//!
//! The mesh is cut into contiguous z-slabs (about two per worker, so the
//! crew can balance activity dynamically) and each slab's simulated cycle
//! is two *tasks*:
//!
//! 1. **Phase 1** ([`shard_cycle`]): pump the slab's ejection FIFOs, tick
//!    its due nodes, and step its routers against the *immutable* boundary
//!    space snapshots the neighbors published for this cycle. Writes to
//!    other slabs go to edge mailboxes only.
//! 2. **Exchange**: drain the mailboxes addressed to this slab and publish
//!    fresh boundary snapshots for the next cycle.
//!
//! Earlier revisions ran one worker per slab in lockstep with two global
//! barriers per simulated cycle; on a load-dominated mesh the barriers —
//! not per-node work — dominated, and with fewer cores than workers each
//! crossing burned a scheduling quantum. The crew design replaces both
//! global barriers with the task graph's *neighbor-only* data dependencies:
//!
//! * phase 1 of slab `k`, cycle `c` needs exchanges `c-1` of `k-1, k, k+1`
//!   (their boundary snapshots for `c` are then published);
//! * exchange of slab `k`, cycle `c` needs phase 1 `c` of `k-1, k, k+1`
//!   (every mailbox entry for cycle `c` has then been posted).
//!
//! Any worker may execute any ready task: a slab is claimed with a
//! `try_lock`, advanced as far as its dependencies allow, and released.
//! Per-slab progress counters (`p_cycle`/`x_cycle`) are the dependency
//! state; cross-slab latency is one cycle in both directions (mailbox
//! deliveries carry `ready_cycle = c + 1`, space snapshots describe the
//! *next* cycle's credit), so neighbor skew never exceeds one cycle and a
//! mailbox holds at most one cycle's flits — which is why the single-slot
//! mailbox/snapshot structures need no versioning. On an oversubscribed
//! host the crew degenerates gracefully: whichever thread the OS runs
//! sweeps *all* slabs forward itself instead of spinning on stragglers,
//! and task-starved workers back off spin → yield → sleep ([`Backoff`]).
//!
//! Global coordination — the stop/skip decision the drive loop's
//! [`head`] makes every cycle on the sequential engines — runs only at
//! **quantum boundaries**, the absolute multiples of [`QUANTUM`] and the
//! drive's stop: phase 1 may not pass `decided_through`, so the task graph
//! drains naturally at the boundary and exactly one worker claims the
//! serial [`QuantumCtl::decide`] section, which asks the same `head`.
//! Fixed-cycle drives (`run(cycles)`) need no decisions at all —
//! the deadline is the only boundary. Quiescence and the deadline are
//! *exact* despite the deferred check (see `DESIGN.md` §4.5: a quiet
//! slab's cycle changes nothing — time is an argument its tasks are given,
//! and a workless node that comes due is parked unticked — so the crew
//! may overrun quiescence by up to a quantum and the coordinator only
//! says at which cycle the clock stops); a node error stops every engine
//! on the first multiple of [`QUANTUM`] after it, which is a boundary
//! wherever the drive's legs fall.
//!
//! Determinism: every task runs exactly once, under its slab's mutex, with
//! all dependencies complete; phase 1 reads nothing another slab writes
//! during phase 1, exchange touches only slab-own state plus mailboxes
//! with deterministic content, and the decide section reads the slabs in
//! fixed order. Which worker runs a task, the thread count and the slab
//! count therefore cannot change any observable value — the equivalence
//! suites run the same workloads under two and four threads against the
//! sequential engines and demand bit-identical results.

use crate::machine::{head, next_multiple, quiet, EventSched, Head, Stop, PARKED, QUANTUM};
use jm_isa::instr::MsgPriority;
use jm_isa::node::NodeId;
use jm_isa::word::Word;
use jm_mdp::{InjectAck, MdpNode, NetPort, TickOutcome};
use jm_net::{edge_pair, ones, Edge, InjectResult, NetShard};
use std::sync::atomic::{
    AtomicBool, AtomicU64,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};
use std::sync::{Mutex, MutexGuard};

/// Adapter giving one node's `SEND` instructions access to its shard's
/// injection port at cycle `now` — the one [`NetPort`] every engine ticks
/// nodes through.
pub(crate) struct ShardPort<'a> {
    pub(crate) shard: &'a mut NetShard,
    pub(crate) node: NodeId,
    pub(crate) now: u64,
}

impl NetPort for ShardPort<'_> {
    fn commit(&mut self, priority: MsgPriority, words: &[Word]) -> InjectAck {
        match self.shard.commit_msg(self.now, self.node, priority, words) {
            InjectResult::Accepted => InjectAck::Accepted,
            InjectResult::Stall => InjectAck::Stall,
            InjectResult::BadRoute => InjectAck::Rejected,
        }
    }
}

/// Pumps one node's ejection FIFOs into its message queues, both
/// priorities, until a FIFO runs dry or a queue refuses a word (the word
/// then stays in the network: backpressure). This is the hardware delivery
/// path, rate-limited upstream by the 0.5 words/cycle eject channel.
/// Returns whether any word moved.
pub(crate) fn pump_node(shard: &mut NetShard, node: &mut MdpNode, now: u64) -> bool {
    let id = node.id();
    let mut delivered = false;
    for priority in MsgPriority::ALL {
        while let Some((word, trace)) = shard.delivered_front_traced(id, priority) {
            if !node.deliver_traced(priority, word, trace, now) {
                break;
            }
            shard.pop_delivered(id, priority);
            delivered = true;
        }
    }
    delivered
}

/// Most cycles a node may run on past a visit (DESIGN.md §4.5,
/// "Stretches"). A thread that polls — `wait_writes`, `scan_poll` — runs
/// as far ahead as it is allowed and is rewound by the write it waits
/// for: uncapped, `exchange512` ran 11× slower and `radix512` did not
/// finish. Measured (PERFLOG.md, "Stretches"), 8 / 16 / 32 / 64 / 128
/// cycles took 26 / 32 / 33 / 29 / 26 % off `radix512` and 16 / 16 / 19 /
/// 18 / 13 % off `exchange512`.
const STRETCH: u64 = 32;

/// Phase 1 for one shard: pump deliveries, advance due nodes, step
/// routers. `nodes` is the slab's slice of the machine's node array (local
/// indexing); `sched` is the slab's scheduler. A node may run on to `stop`,
/// the cycle its drive stops at, or [`STRETCH`] cycles, whichever is
/// nearer. Also the body of the sequential event engine's step —
/// `Engine::Event` is exactly this with one all-covering shard, which is
/// how the engines stay identical by construction.
pub(crate) fn shard_cycle(
    now: u64,
    stop: u64,
    shard: &mut NetShard,
    sched: &mut EventSched,
    nodes: &mut [MdpNode],
    below: Option<&Edge>,
    above: Option<&Edge>,
) {
    // 1. Pump — only nodes the shard flagged as holding deliveries, a word
    //    of the flag set at a time, ascending like the naive 0..n scan. A
    //    pump clears only its own node's flag (a bit the copied word has
    //    already passed) and nothing it does affects another node.
    for w in 0..shard.pending().word_count() {
        for bit in ones(shard.pending().word(w)) {
            let node = &mut nodes[64 * w + bit];
            if pump_node(shard, node, now) {
                sched.wake(node, now);
            }
        }
    }
    // 2. Execute every node due this cycle: walk the live set the same
    //    way. A visit touches only its own node's state and injection FIFO,
    //    and can re-schedule only itself, so this walk needs no snapshot
    //    either.
    let limit = stop.min(now + STRETCH);
    for w in 0..sched.live.word_count() {
        for bit in ones(sched.live.word(w)) {
            let l = 64 * w + bit;
            if sched.wake_at[l] > now {
                continue;
            }
            // The tick's outcome decides whether the node is filed again —
            // and a node without work is not ticked at all: its tick could
            // only count an idle cycle, which the gap rule
            // ([`MdpNode::tick`]) counts when the node next acts.
            sched.park(l);
            if !sched.has_work.contains(l) {
                continue;
            }
            let node = &mut nodes[l];
            let mut port = ShardPort {
                shard,
                node: node.id(),
                now,
            };
            match node.advance(now, limit, &mut port) {
                TickOutcome::Busy { until } => sched.schedule(l, until.max(now + 1)),
                // Queued words and nothing dispatchable: parked until the
                // delivery that completes the message.
                TickOutcome::Idle => {}
                TickOutcome::Stopped => {
                    if node.error().is_some() {
                        sched.record_error(l);
                    }
                }
            }
            sched.set_work(l, node.has_work());
        }
    }
    // The naive full scan's answer: nothing due is left, the live set is
    // exactly the scheduled nodes, and the cached work bits — which decide
    // who is parked unticked — are the nodes' own.
    debug_assert!(
        (0..nodes.len()).all(|l| sched.wake_at[l] > now
            && sched.live.contains(l) == (sched.wake_at[l] != PARKED)
            && sched.has_work.contains(l) == nodes[l].has_work()),
        "cycle {now}: a due node was passed over, or the scheduler's sets disagree with the nodes"
    );
    // 3. Move this shard's routers (O(1) when no flits are buffered).
    shard.step_cycle(now, below, above);
}

/// Escalating wait for task-starved workers: a short spin burst (the gap is
/// usually one neighbor task), then bounded `yield_now`, then sleeping in
/// growing slices. The sleep stage is what keeps an oversubscribed host
/// (fewer cores than workers) healthy — a yield storm between runnable
/// threads still burns the core the working thread needs, a sleeping
/// straggler does not.
pub(crate) struct Backoff {
    step: u32,
}

/// Steps 0..SPIN: `spin_loop` bursts doubling in length.
const SPIN_STEPS: u32 = 6;
/// Steps SPIN..SPIN+YIELD: `yield_now`.
const YIELD_STEPS: u32 = 8;
/// Sleep slice at the first sleep step (doubles up to [`MAX_SLEEP_US`]).
const BASE_SLEEP_US: u64 = 20;
/// Longest single sleep. Sized for the oversubscribed case: a starved
/// worker waking 4× per timeslice-ish interval costs the working thread
/// almost nothing, while a busy crew resets long before reaching the cap.
const MAX_SLEEP_US: u64 = 2_000;

impl Backoff {
    pub(crate) fn new() -> Backoff {
        Backoff { step: 0 }
    }

    /// Forget accumulated pressure (called after real progress).
    pub(crate) fn reset(&mut self) {
        self.step = 0;
    }

    /// Whether the next [`Backoff::snooze`] would sleep (for tests).
    #[cfg(test)]
    pub(crate) fn would_sleep(&self) -> bool {
        self.step >= SPIN_STEPS + YIELD_STEPS
    }

    /// Wait a little, escalating each call until `reset`.
    pub(crate) fn snooze(&mut self) {
        if self.step < SPIN_STEPS {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < SPIN_STEPS + YIELD_STEPS {
            std::thread::yield_now();
        } else {
            let exp = (self.step - SPIN_STEPS - YIELD_STEPS).min(16);
            let us = (BASE_SLEEP_US << exp).min(MAX_SLEEP_US);
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
        self.step = self.step.saturating_add(1);
    }
}

/// Sentinel in a slot's `quiet_since`: the shard is not currently quiet.
const NOT_QUIET: u64 = u64::MAX;

/// Per-shard progress word, aligned out of its neighbors' cache lines.
#[repr(align(128))]
struct Progress(AtomicU64);

/// One slab's mutable state, handed between workers under a mutex. The
/// mutex is the claim: whoever holds it may run the slab's next ready task.
pub(crate) struct ShardSlot<'a> {
    pub(crate) shard: &'a mut NetShard,
    pub(crate) sched: &'a mut EventSched,
    pub(crate) nodes: &'a mut [MdpNode],
    /// First cycle of the current quiet run (no node with work and network
    /// idle after that cycle's exchange), [`NOT_QUIET`] otherwise.
    /// Quiescence is absorbing (nothing can wake a workless idle mesh), so
    /// this only moves forward or resets on activity.
    quiet_since: u64,
}

impl<'a> ShardSlot<'a> {
    pub(crate) fn new(
        shard: &'a mut NetShard,
        sched: &'a mut EventSched,
        nodes: &'a mut [MdpNode],
    ) -> ShardSlot<'a> {
        ShardSlot {
            shard,
            sched,
            nodes,
            quiet_since: NOT_QUIET,
        }
    }
}

/// Shared control block for one parallel drive.
pub(crate) struct QuantumCtl {
    /// Absolute cycle the drive stops at, at the latest.
    deadline: u64,
    /// Whether the drive may stop or skip before that (decided at every
    /// multiple of [`QUANTUM`]); otherwise the deadline is the only
    /// boundary.
    until_quiescent: bool,
    /// Per-slab: the next cycle whose phase 1 has not run.
    p_cycle: Vec<Progress>,
    /// Per-slab: the next cycle whose exchange has not run.
    x_cycle: Vec<Progress>,
    /// Phase 1 may run cycles strictly below this (the current boundary).
    decided_through: AtomicU64,
    /// Boundary cycle whose decide section has been claimed (strictly
    /// increasing; a failed claim means another worker owns this boundary).
    claimed: AtomicU64,
    stopped: AtomicBool,
    final_cycle: AtomicU64,
}

impl QuantumCtl {
    pub(crate) fn new(
        shards: usize,
        deadline: u64,
        until_quiescent: bool,
        start: u64,
    ) -> QuantumCtl {
        let first_boundary = match until_quiescent {
            true => deadline.min(next_multiple(start, QUANTUM)),
            // No decisions: the whole drive is one quantum.
            false => deadline,
        };
        let progress = || (0..shards).map(|_| Progress(AtomicU64::new(start)));
        QuantumCtl {
            deadline,
            until_quiescent,
            p_cycle: progress().collect(),
            x_cycle: progress().collect(),
            decided_through: AtomicU64::new(first_boundary),
            claimed: AtomicU64::new(start),
            stopped: AtomicBool::new(false),
            final_cycle: AtomicU64::new(start),
        }
    }

    /// The cycle the machine stopped at (valid after the drive returns).
    pub(crate) fn final_cycle(&self) -> u64 {
        self.final_cycle.load(Acquire)
    }

    fn stop(&self, cycle: u64) {
        self.final_cycle.store(cycle, Release);
        self.stopped.store(true, Release);
    }

    /// Whether phase 1 of `c` may run on slab `k`: the boundary gate, the
    /// slab's own exchange of `c-1` (implied by the caller's progress
    /// read), and both neighbors' exchanges of `c-1` — their boundary
    /// snapshots for `c` are then final. `x_cycle` is the next unexchanged
    /// cycle, so "exchanged through `c-1`" reads as `x_cycle >= c`.
    fn phase1_ready(&self, k: usize, c: u64) -> bool {
        if c >= self.decided_through.load(Acquire) {
            return false;
        }
        (k == 0 || self.x_cycle[k - 1].0.load(Acquire) >= c)
            && (k + 1 == self.x_cycle.len() || self.x_cycle[k + 1].0.load(Acquire) >= c)
    }

    /// Whether the exchange of `c` may run on slab `k`: both neighbors'
    /// phase 1 of `c` (every mailbox entry for `c` is then posted). The
    /// slab's own phase 1 is implied by the caller's progress read.
    fn exchange_ready(&self, k: usize, c: u64) -> bool {
        (k == 0 || self.p_cycle[k - 1].0.load(Acquire) > c)
            && (k + 1 == self.p_cycle.len() || self.p_cycle[k + 1].0.load(Acquire) > c)
    }

    /// Advances slab `k` through every currently-ready task. Returns whether
    /// anything ran.
    fn advance(&self, k: usize, slot: &mut ShardSlot<'_>, edges: &[Edge]) -> bool {
        let (below, above) = edge_pair(edges, k);
        let mut progressed = false;
        loop {
            let p = self.p_cycle[k].0.load(Acquire);
            let x = self.x_cycle[k].0.load(Acquire);
            if x < p {
                // Exchange of cycle `x` is pending.
                if !self.exchange_ready(k, x) {
                    return progressed;
                }
                slot.shard.exchange(below, above);
                if !quiet(slot.sched, slot.shard, x + 1) {
                    slot.quiet_since = NOT_QUIET;
                } else if slot.quiet_since == NOT_QUIET {
                    slot.quiet_since = x;
                }
                self.x_cycle[k].0.store(x + 1, Release);
            } else {
                // Phase 1 of cycle `p` is pending.
                if !self.phase1_ready(k, p) {
                    return progressed;
                }
                shard_cycle(
                    p,
                    self.deadline,
                    slot.shard,
                    slot.sched,
                    slot.nodes,
                    below,
                    above,
                );
                self.p_cycle[k].0.store(p + 1, Release);
            }
            progressed = true;
        }
    }

    /// Boundary bookkeeping: detect completion of the current boundary and
    /// either finish a fixed drive or claim and run the serial decide
    /// section. Cheap when the boundary is not yet complete (n atomic
    /// loads). Returns whether this call decided (progress for the caller).
    fn try_decide(&self, slots: &[Mutex<ShardSlot<'_>>]) -> bool {
        if self.stopped.load(Acquire) {
            return false;
        }
        let b = self.decided_through.load(Acquire);
        if self.x_cycle.iter().any(|x| x.0.load(Acquire) < b) {
            return false;
        }
        if !self.until_quiescent {
            // All slabs exchanged through the deadline: the drive is done.
            // Several workers may observe this; the store is idempotent.
            self.stop(self.deadline);
            return true;
        }
        // Claim this boundary (boundaries strictly increase, so an equal
        // `claimed` value means another worker owns it).
        let prev = self.claimed.load(Relaxed);
        if prev >= b
            || self
                .claimed
                .compare_exchange(prev, b, AcqRel, Relaxed)
                .is_err()
        {
            return false;
        }
        self.decide(b, slots);
        true
    }

    /// Serial coordinator section at boundary `b` (all slabs aligned at
    /// `b`, no task runnable, this worker holds the claim): asks the drive
    /// loop's [`head`] over the slabs — locking a slab waits out the worker
    /// that ran its last task and brings in everything that task wrote;
    /// the crew only ever `try_lock`s, so holding them all blocks nobody —
    /// and carries out the answer, which never touches a node or a shard:
    /// time is an argument the next task is given.
    fn decide(&self, b: u64, slots: &[Mutex<ShardSlot<'_>>]) {
        let slots: Vec<MutexGuard<'_, ShardSlot<'_>>> = slots
            .iter()
            .map(|slot| slot.lock().expect("slab mutex poisoned"))
            .collect();
        let next = |from: u64| self.deadline.min(next_multiple(from, QUANTUM));
        let slabs = slots.iter().map(|s| (&*s.sched, &*s.shard));
        match head(slabs, b, self.deadline) {
            // `b` is a multiple of QUANTUM, where an error stops every
            // engine, or this drive's stop, where the drive loop asks again.
            Head::Stop(Stop::NodeError | Stop::Deadline) => self.stop(b),
            Head::Stop(Stop::Quiescent) => {
                // Every slab has been quiet since its own `quiet_since`
                // (quiescence is absorbing), so the machine has been
                // quiescent since the end of the latest of those cycles,
                // and the sequential engines stop the cycle after it. The
                // crew ran on to `b`, but a quiet slab's cycle changes
                // nothing, so stopping the clock there is all it takes.
                let quiet_max = slots.iter().map(|s| s.quiet_since).max();
                self.stop(quiet_max.expect("a machine has a slab") + 1);
            }
            Head::Skip(t) => {
                // Stepping the idle cycles up to `b` changed nothing
                // either, so skipping from here is exact. A skip that
                // reaches the deadline is stopped by the next decide.
                for (p, x) in self.p_cycle.iter().zip(&self.x_cycle) {
                    p.0.store(t, Release);
                    x.0.store(t, Release);
                }
                self.decided_through.store(next(t), Release);
            }
            Head::Run => self.decided_through.store(next(b), Release),
        }
    }
}

/// Body of one crew worker: sweep the slabs (own home slab first, then all
/// of them in ascending order), advancing every slab whose mutex is free
/// and whose next task is ready, deciding at quantum boundaries, and
/// backing off when task-starved.
pub(crate) fn crew_loop(
    me: usize,
    workers: usize,
    slots: &[Mutex<ShardSlot<'_>>],
    edges: &[Edge],
    ctl: &QuantumCtl,
) {
    let n = slots.len();
    // Spread workers' home slabs across the mesh so the common case is
    // every worker advancing its own pipeline stage.
    let home = me * n / workers.max(1);
    let mut backoff = Backoff::new();
    while !ctl.stopped.load(Acquire) {
        let mut progressed = false;
        // Every slab appears in the sweep: the home bias spreads
        // contention, it must never starve a dependency.
        for k in std::iter::once(home).chain(0..n) {
            if let Ok(mut slot) = slots[k].try_lock() {
                progressed |= ctl.advance(k, &mut slot, edges);
            }
        }
        progressed |= ctl.try_decide(slots);
        if progressed {
            backoff.reset();
        } else {
            backoff.snooze();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_escalates_to_sleeping() {
        let mut b = Backoff::new();
        assert!(!b.would_sleep());
        for _ in 0..(SPIN_STEPS + YIELD_STEPS) {
            assert!(!b.would_sleep());
            b.snooze();
        }
        assert!(b.would_sleep(), "escalation never reached the sleep stage");
        b.reset();
        assert!(!b.would_sleep());
    }

    #[test]
    fn backoff_sleep_slices_are_bounded() {
        let mut b = Backoff::new();
        for _ in 0..(SPIN_STEPS + YIELD_STEPS) {
            b.snooze();
        }
        let t0 = std::time::Instant::now();
        b.snooze(); // first sleep step
        let waited = t0.elapsed();
        assert!(
            waited >= std::time::Duration::from_micros(BASE_SLEEP_US / 2),
            "sleep step did not sleep ({waited:?})"
        );
    }
}
