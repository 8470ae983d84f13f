//! Merged whole-machine traces and per-message latency decomposition.

use crate::event::{Event, EventKind, Packed, Tracer};
use crate::histogram::Histogram;
use jm_isa::instr::MsgPriority;
use jm_isa::node::NodeId;
use jm_isa::TraceId;
use std::collections::HashMap;
use std::ops::{Bound, RangeBounds};

/// One periodic sample of machine-wide occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplePoint {
    /// Cycle at which the sample was taken.
    pub cycle: u64,
    /// Words buffered across all node message queues.
    pub queued_words: u64,
    /// Flits buffered inside the network.
    pub in_flight: u64,
    /// Routers currently holding flits.
    pub active_routers: u32,
    /// Nodes with runnable or queued work.
    pub busy_nodes: u32,
}

/// One message's reconstructed lifecycle, correlated by [`TraceId`].
///
/// Cycles are absolute; stages a message never reached (e.g. it was still
/// in flight when the trace was collected) are `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgTrace {
    /// The message.
    pub id: TraceId,
    /// Injecting node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Virtual network.
    pub priority: MsgPriority,
    /// Payload words (route word excluded).
    pub words: u32,
    /// Cycle the injection port accepted the message.
    pub inject: u64,
    /// Cycle the header word reached the destination ejection FIFO.
    pub deliver: Option<u64>,
    /// Cycle the header word entered the destination's message queue.
    pub queue_enter: Option<u64>,
    /// Cycle the hardware dispatched a handler thread for the message.
    pub dispatch: Option<u64>,
    /// Cycle the handler thread ended.
    pub handler_end: Option<u64>,
    /// Handler entry point, once dispatched.
    pub handler: Option<u32>,
    /// Router-to-router hops taken by the head flit.
    pub hops: u32,
}

impl MsgTrace {
    /// Network component: inject → header ejection.
    pub fn t_net(&self) -> Option<u64> {
        self.deliver.map(|d| d - self.inject)
    }

    /// Queueing component: header ejection → dispatch (ejection-FIFO
    /// staging, remaining streaming, and message-queue wait).
    pub fn t_queue(&self) -> Option<u64> {
        Some(self.dispatch? - self.deliver?)
    }

    /// Handler component: dispatch → thread end (includes the hardware's
    /// fixed dispatch cost).
    pub fn t_handler(&self) -> Option<u64> {
        Some(self.handler_end? - self.dispatch?)
    }

    /// End-to-end latency: inject → dispatch. Always equals
    /// `t_net + t_queue` by construction.
    pub fn end_to_end(&self) -> Option<u64> {
        self.dispatch.map(|d| d - self.inject)
    }
}

/// Latency histograms over every fully-dispatched message in a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// `t_net` distribution.
    pub net: Histogram,
    /// `t_queue` distribution.
    pub queue: Histogram,
    /// `t_handler` distribution (messages whose handler ended).
    pub handler: Histogram,
    /// End-to-end (inject → dispatch) distribution.
    pub end_to_end: Histogram,
    /// Hop-count distribution.
    pub hops: Histogram,
}

/// A whole machine run's merged trace: every component's events in one
/// deterministic order, plus the periodic occupancy samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineTrace {
    /// All events, sorted by `(cycle, causal rank, id)`.
    pub events: Vec<Event>,
    /// Periodic occupancy samples, in cycle order.
    pub samples: Vec<SamplePoint>,
    /// Number of nodes in the traced machine.
    pub nodes: u32,
}

impl MachineTrace {
    /// Merges hand-built per-component event buffers into one trace: every
    /// event of `sources`, in the order [`Self::merge`] gives them.
    #[cfg(test)]
    pub(crate) fn assemble(
        mut sources: Vec<Tracer>,
        samples: Vec<SamplePoint>,
        nodes: u32,
    ) -> MachineTrace {
        let mut trace = MachineTrace {
            events: Vec::new(),
            samples,
            nodes,
        };
        trace.merge(&mut sources, ..);
        trace
    }

    /// Drains the events of `sources` in `cycles` into [`Self::events`];
    /// later ones stay buffered. Events are ordered by cycle, then causal
    /// rank, then message id, then node; events equal on all four — which
    /// only one router or one node emits — keep the order of `sources` (the
    /// machine lists shards before nodes) and, within a source, emission
    /// order, so the trace is the same under every engine and shard cut.
    /// Batches merge to the events one merge would, as long as each ends
    /// at a cycle every source has passed and the next starts there.
    ///
    /// Linear in the event count, one window of `WINDOW` cycles at a time,
    /// each starting at the next cycle with an event, so an idle stretch
    /// costs nothing (DESIGN.md §4.6). A source out of cycle order is sorted
    /// by cycle first, stably.
    ///
    /// # Panics
    ///
    /// On a buffered event before the start of `cycles`: it belongs among
    /// events an earlier batch merged.
    pub fn merge<'a>(
        &mut self,
        sources: impl IntoIterator<Item = &'a mut Tracer>,
        cycles: impl RangeBounds<u64>,
    ) {
        let from = match cycles.start_bound() {
            Bound::Included(&c) => c,
            Bound::Excluded(&c) => c + 1,
            Bound::Unbounded => 0,
        };
        let mut sources: Vec<&mut Tracer> = sources.into_iter().collect();
        // How much of each buffer this merge takes.
        let ends: Vec<(usize, usize)> = (sources.iter_mut())
            .map(|t| {
                let packed = taken(&mut t.packed, from, &cycles, Packed::cycle);
                (packed, taken(&mut t.wide, from, &cycles, |e| e.cycle))
            })
            .collect();
        let runs = sources.iter().zip(&ends).flat_map(|(t, &(packed, wide))| {
            [
                Events::Packed(&t.packed[..packed]),
                Events::Wide(&t.wide[..wide]),
            ]
        });
        let total = ends.iter().map(|(packed, wide)| packed + wide).sum();
        self.events.reserve(total);
        let runs = runs.filter_map(|events| {
            let head = events.cycle(0)?;
            Some(Run {
                events,
                from: 0,
                at: 0,
                head,
            })
        });
        merge_runs(&mut self.events, runs.collect());
        for (t, (packed, wide)) in sources.into_iter().zip(ends) {
            t.packed.drain(..packed);
            t.wide.drain(..wide);
        }
    }

    /// Messages injected untraced because their source had used up its
    /// share of the trace-id space: each left an inject event with the null
    /// id and nothing else.
    pub(crate) fn untraced(&self) -> usize {
        let untraced = |e: &&Event| {
            matches!(
                e.kind,
                EventKind::Inject {
                    id: TraceId::NONE,
                    ..
                }
            )
        };
        self.events.iter().filter(untraced).count()
    }

    /// Reconstructs every traced message's lifecycle, in injection order.
    pub fn messages(&self) -> Vec<MsgTrace> {
        let mut by_id = IdIndex::new(self.events.len());
        let mut msgs: Vec<MsgTrace> = Vec::new();
        for e in &self.events {
            match e.kind {
                EventKind::Inject {
                    id,
                    src,
                    dst,
                    priority,
                    words,
                } if id.is_some() => {
                    by_id.insert(id, msgs.len());
                    msgs.push(MsgTrace {
                        id,
                        src,
                        dst,
                        priority,
                        words,
                        inject: e.cycle,
                        deliver: None,
                        queue_enter: None,
                        dispatch: None,
                        handler_end: None,
                        handler: None,
                        hops: 0,
                    });
                }
                EventKind::Hop { id, .. } => {
                    if let Some(i) = by_id.get(id) {
                        msgs[i].hops += 1;
                    }
                }
                EventKind::Deliver { id, .. } => {
                    if let Some(i) = by_id.get(id) {
                        msgs[i].deliver = Some(e.cycle);
                    }
                }
                EventKind::QueueEnter { id, .. } => {
                    if let Some(i) = by_id.get(id) {
                        msgs[i].queue_enter = Some(e.cycle);
                    }
                }
                EventKind::Dispatch { id, handler, .. } => {
                    if let Some(i) = by_id.get(id) {
                        msgs[i].dispatch = Some(e.cycle);
                        msgs[i].handler = Some(handler);
                    }
                }
                EventKind::HandlerEnd { id, .. } => {
                    if let Some(i) = by_id.get(id) {
                        msgs[i].handler_end = Some(e.cycle);
                    }
                }
                // Fault events annotate a message's lifecycle but are not
                // themselves a stage of it; an untraced message has none.
                EventKind::Fault { .. } | EventKind::Inject { .. } => {}
            }
        }
        msgs
    }

    /// Histograms of the latency decomposition over all dispatched messages.
    pub fn breakdown(&self) -> Breakdown {
        self.breakdown_window(0, u64::MAX)
    }

    /// Histograms of the latency decomposition restricted to messages
    /// *injected* in cycles `[from, until)` — the measurement window of a
    /// warmup/measure/drain protocol. Keying the filter on the injection
    /// cycle (rather than delivery) keeps the population well-defined: a
    /// message injected inside the window contributes its full latency even
    /// when it dispatches during the drain phase.
    pub fn breakdown_window(&self, from: u64, until: u64) -> Breakdown {
        let mut b = Breakdown::default();
        for m in self.messages() {
            if m.inject < from || m.inject >= until {
                continue;
            }
            if let (Some(net), Some(queue), Some(e2e)) = (m.t_net(), m.t_queue(), m.end_to_end()) {
                b.net.record(net);
                b.queue.record(queue);
                b.end_to_end.record(e2e);
                b.hops.record(u64::from(m.hops));
            }
            if let Some(h) = m.t_handler() {
                b.handler.record(h);
            }
        }
        b
    }

    /// Renders the per-mechanism latency breakdown as a text table: one row
    /// per component, mean/median/p99/max in cycles.
    pub fn breakdown_table(&self) -> String {
        let b = self.breakdown();
        let mut out = String::new();
        out.push_str(&format!(
            "per-mechanism latency breakdown over {} dispatched message(s)\n\n",
            b.end_to_end.count()
        ));
        out.push_str(&format!(
            "  {:<26} {:>10} {:>8} {:>8} {:>8}\n",
            "component", "mean", "p50<=", "p99<=", "max"
        ));
        for (name, h) in [
            ("T_net (wire)", &b.net),
            ("T_queue (eject+queue)", &b.queue),
            ("end-to-end (to dispatch)", &b.end_to_end),
            ("T_handler (incl. dispatch)", &b.handler),
            ("hops", &b.hops),
        ] {
            out.push_str(&format!(
                "  {:<26} {:>10.1} {:>8} {:>8} {:>8}\n",
                name,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max()
            ));
        }
        match self.untraced() {
            0 => {}
            n => out.push_str(&format!(
                "\n  {n} more message(s) injected untraced: past the trace-id space\n"
            )),
        }
        out
    }
}

/// Position in the message list by [`TraceId`]. Ids interleave the
/// sources' injection ordinals (`ordinal × nodes + node + 1`), so sources
/// that inject alike keep them near-dense and this is a flat table indexed
/// by the id, grown on demand; only an id beyond four times the trace's
/// event count — a source far ahead of the rest — goes to a map instead
/// of stretching the table.
struct IdIndex {
    /// Ids below this index `slots`; the rest go to `sparse`.
    dense_limit: u64,
    /// Message position + 1 per id; 0 = none.
    slots: Vec<u32>,
    sparse: HashMap<TraceId, usize>,
}

impl IdIndex {
    fn new(events: usize) -> IdIndex {
        // Positions are stored in 32 bits; a trace too long for that (tens of
        // gigabytes) uses the map throughout.
        let dense_limit = match u32::try_from(events) {
            Ok(n) if n < u32::MAX / 4 => u64::from(n) * 4,
            _ => 0,
        };
        IdIndex {
            dense_limit,
            slots: Vec::new(),
            sparse: HashMap::new(),
        }
    }

    fn insert(&mut self, id: TraceId, index: usize) {
        if id.0 < self.dense_limit {
            let slot = id.0 as usize;
            if slot >= self.slots.len() {
                self.slots.resize((slot + 1).next_power_of_two(), 0);
            }
            self.slots[slot] = index as u32 + 1;
        } else {
            self.sparse.insert(id, index);
        }
    }

    #[inline]
    fn get(&self, id: TraceId) -> Option<usize> {
        if id.0 < self.dense_limit {
            let stored = *self.slots.get(id.0 as usize)?;
            (stored != 0).then(|| stored as usize - 1)
        } else {
            self.sparse.get(&id).copied()
        }
    }
}

/// Cycles per merge window: small enough that the window's slots and
/// its share of a loaded trace's output (about a megabyte) stay in cache
/// through the count, scatter and sort passes.
const WINDOW: usize = 256;

/// Distinct values of [`EventKind::rank`], rounded up to a power of two.
const RANKS: usize = 8;

/// A window holding fewer events than this counts them per cycle, not per
/// `(cycle, rank)`: they would leave most of the finer slots empty, and
/// clearing and summing those would cost more than sorting the few events
/// that share a cycle.
const DENSE: usize = WINDOW * RANKS / 16;

/// How many of a buffer's events fall in `cycles`, once it is in cycle
/// order: one that is not is sorted by cycle (stably: ties keep emission
/// order).
///
/// # Panics
///
/// On an event before `from`, the start of `cycles`.
fn taken<T>(
    buffer: &mut [T],
    from: u64,
    cycles: &impl RangeBounds<u64>,
    cycle: impl Fn(&T) -> u64,
) -> usize {
    if !buffer.is_sorted_by_key(&cycle) {
        buffer.sort_by_key(&cycle);
    }
    if let Some(early) = buffer.first().map(&cycle).filter(|&c| c < from) {
        panic!("trace event at cycle {early} after a merge of every cycle before {from}");
    }
    buffer.partition_point(|e| cycles.contains(&cycle(e)))
}

/// One source buffer's events to merge, in whichever form it holds them.
#[derive(Clone, Copy)]
enum Events<'a> {
    Packed(&'a [Packed]),
    Wide(&'a [Event]),
}

impl Events<'_> {
    /// The cycle of event `i`, if there is one.
    fn cycle(&self, i: usize) -> Option<u64> {
        match self {
            Events::Packed(e) => e.get(i).map(Packed::cycle),
            Events::Wide(e) => e.get(i).map(|e| e.cycle),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> Event {
        match self {
            Events::Packed(e) => e[i].widen(),
            Events::Wide(e) => e[i],
        }
    }

    /// End of the events from `at` on at or before cycle `last`.
    fn end(&self, at: usize, last: u64) -> usize {
        match self {
            Events::Packed(e) => gallop(e, at, last, Packed::cycle),
            Events::Wide(e) => gallop(e, at, last, |e| e.cycle),
        }
    }
}

/// End of the cycle-ordered `items` from `at` on at or before cycle
/// `last`: a galloping search, so a window costs the log of its own
/// events, not of the buffer's.
fn gallop<T>(items: &[T], at: usize, last: u64, cycle: impl Fn(&T) -> u64) -> usize {
    let (mut lo, mut step) = (at, 1);
    while lo < items.len() && cycle(&items[lo]) <= last {
        lo += step;
        step *= 2;
    }
    // The event `step / 2` before `lo` is in (or there was none: `at`).
    let from = lo - step / 2;
    from + items[from..lo.min(items.len())].partition_point(|e| cycle(e) <= last)
}

/// One cycle-ordered source buffer being merged: where the current
/// window's events start, the next unread event, and that event's cycle.
struct Run<'a> {
    events: Events<'a>,
    from: usize,
    at: usize,
    head: u64,
}

/// Appends the events of cycle-ordered `runs` to `out` in trace order, one
/// window at a time: a counting sort on `(cycle, rank)` — on `cycle` alone
/// when the window is sparse — and a small sort of each bucket on the rest
/// of the key.
fn merge_runs(out: &mut Vec<Event>, mut runs: Vec<Run<'_>>) {
    // Per slot of the window: first a count, then the next output position.
    let mut slots = Vec::new();
    while let Some(lo) = runs.iter().map(|r| r.head).min() {
        let last = lo.saturating_add(WINDOW as u64 - 1);
        // The window's events, in source order.
        let base = out.len();
        for run in &mut runs {
            run.from = run.at;
            if run.head <= last {
                run.at = run.events.end(run.at, last);
                out.extend((run.from..run.at).map(|i| run.events.get(i)));
            }
        }
        // A sparse window gets one slot per cycle, not per (cycle, rank).
        let sparse = out.len() - base < DENSE;
        let shift = RANKS.ilog2() * u32::from(sparse);
        let slot_of =
            |e: &Event| ((e.cycle - lo) as usize * RANKS + e.kind.rank() as usize) >> shift;
        slots.clear();
        slots.resize((WINDOW * RANKS) >> shift, 0usize);
        for e in &out[base..] {
            slots[slot_of(e)] += 1;
        }
        let mut end = base;
        for slot in &mut slots {
            end += std::mem::replace(slot, end);
        }
        for run in &runs {
            for e in (run.from..run.at).map(|i| run.events.get(i)) {
                let slot = &mut slots[slot_of(&e)];
                out[*slot] = e;
                *slot += 1;
            }
        }
        // Each slot now marks the end of its bucket, whose events agree on
        // cycle (and rank, when dense) and stand in source order.
        let mut start = base;
        for &end in &slots {
            if end - start > 1 {
                out[start..end].sort_by_key(|e| (e.kind.rank(), e.kind.id(), sort_node(&e.kind)));
            }
            start = end;
        }
        // A run read to its end leaves the merge.
        runs.retain_mut(|run| {
            if run.from < run.at {
                match run.events.cycle(run.at) {
                    Some(cycle) => run.head = cycle,
                    None => return false,
                }
            }
            true
        });
    }
}

/// Node used only to complete the deterministic sort key.
fn sort_node(kind: &EventKind) -> u32 {
    match *kind {
        EventKind::Inject { src, .. } => src.0,
        EventKind::Hop { node, .. }
        | EventKind::Deliver { node, .. }
        | EventKind::QueueEnter { node, .. }
        | EventKind::Dispatch { node, .. }
        | EventKind::HandlerEnd { node, .. }
        | EventKind::Fault { node, .. } => node.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lifecycle_events() -> Vec<Event> {
        let id = TraceId(1);
        vec![
            Event {
                cycle: 10,
                kind: EventKind::Inject {
                    id,
                    src: NodeId(0),
                    dst: NodeId(3),
                    priority: MsgPriority::P0,
                    words: 2,
                },
            },
            Event {
                cycle: 12,
                kind: EventKind::Hop {
                    id,
                    node: NodeId(0),
                },
            },
            Event {
                cycle: 13,
                kind: EventKind::Hop {
                    id,
                    node: NodeId(1),
                },
            },
            Event {
                cycle: 18,
                kind: EventKind::Deliver {
                    id,
                    node: NodeId(3),
                },
            },
            Event {
                cycle: 19,
                kind: EventKind::QueueEnter {
                    id,
                    node: NodeId(3),
                    priority: MsgPriority::P0,
                },
            },
            Event {
                cycle: 20,
                kind: EventKind::Dispatch {
                    id,
                    node: NodeId(3),
                    handler: 7,
                },
            },
            Event {
                cycle: 30,
                kind: EventKind::HandlerEnd {
                    id,
                    node: NodeId(3),
                    handler: 7,
                },
            },
        ]
    }

    #[test]
    fn assemble_orders_across_buffers() {
        let all = lifecycle_events();
        // Split events across two buffers in a scrambled grouping.
        let a = [all[3], all[6]].into_iter().collect();
        let b = [all[0], all[1], all[2], all[4], all[5]]
            .into_iter()
            .collect();
        let t = MachineTrace::assemble(vec![a, b], Vec::new(), 8);
        assert_eq!(t.events, all);
    }

    #[test]
    fn messages_reconstruct_the_decomposition() {
        let t = MachineTrace::assemble(
            vec![lifecycle_events().into_iter().collect()],
            Vec::new(),
            8,
        );
        let msgs = t.messages();
        assert_eq!(msgs.len(), 1);
        let m = &msgs[0];
        assert_eq!(m.hops, 2);
        assert_eq!(m.t_net(), Some(8));
        assert_eq!(m.t_queue(), Some(2));
        assert_eq!(m.t_handler(), Some(10));
        assert_eq!(m.end_to_end(), Some(10));
        assert_eq!(
            m.t_net().unwrap() + m.t_queue().unwrap(),
            m.end_to_end().unwrap()
        );
    }

    #[test]
    fn breakdown_counts_only_dispatched_messages() {
        let mut events = lifecycle_events();
        // A second message that never got past injection.
        events.push(Event {
            cycle: 40,
            kind: EventKind::Inject {
                id: TraceId(2),
                src: NodeId(1),
                dst: NodeId(2),
                priority: MsgPriority::P0,
                words: 3,
            },
        });
        let t = MachineTrace::assemble(vec![events.into_iter().collect()], Vec::new(), 8);
        let b = t.breakdown();
        assert_eq!(b.end_to_end.count(), 1);
        assert_eq!(t.messages().len(), 2);
        assert!(t.breakdown_table().contains("1 dispatched message"));
    }

    #[test]
    fn breakdown_window_filters_on_inject_cycle() {
        // The lifecycle message injects at cycle 10 and dispatches at 20:
        // a window containing its injection keeps it even when the window
        // closes before dispatch; a window past its injection drops it.
        let t = MachineTrace::assemble(
            vec![lifecycle_events().into_iter().collect()],
            Vec::new(),
            8,
        );
        assert_eq!(t.breakdown_window(0, 11).end_to_end.count(), 1);
        assert_eq!(t.breakdown_window(10, 11).end_to_end.count(), 1);
        assert_eq!(t.breakdown_window(11, 100).end_to_end.count(), 0);
        assert_eq!(t.breakdown_window(0, 10).end_to_end.count(), 0);
        assert_eq!(t.breakdown_window(0, 11), t.breakdown());
    }

    /// The comparison sort that `assemble` replaced, kept as its oracle:
    /// flatten the sources in order and stable-sort on the four-part key.
    fn assemble_by_sorting(sources: &[Vec<Event>]) -> Vec<Event> {
        let mut events: Vec<Event> = sources.iter().flatten().copied().collect();
        events.sort_by_key(|e| (e.cycle, e.kind.rank(), e.kind.id(), sort_node(&e.kind)));
        events
    }

    fn assemble_linear(sources: &[Vec<Event>]) -> Vec<Event> {
        let tracers = sources
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect();
        MachineTrace::assemble(tracers, Vec::new(), 0).events
    }

    /// A random event; small id and node ranges make full-key ties common,
    /// and the fields outside the key (`handler`, `words`, …) tell tied
    /// events apart, so a wrong tie order fails the comparison.
    fn random_event(rng: &mut jm_prng::Prng, cycle: u64) -> Event {
        let id = TraceId(rng.range_u64(0, 4));
        let node = NodeId(rng.range_u32(0, 3));
        let tag = rng.next_u32();
        let priority = if tag & 1 == 0 {
            MsgPriority::P0
        } else {
            MsgPriority::P1
        };
        let kind = match rng.range_u32(0, 7) {
            0 => EventKind::Inject {
                id,
                src: node,
                dst: NodeId(tag % 5),
                priority,
                words: tag % 7,
            },
            1 => EventKind::Hop { id, node },
            2 => EventKind::Deliver { id, node },
            3 => EventKind::QueueEnter { id, node, priority },
            4 => EventKind::Dispatch {
                id,
                node,
                handler: tag,
            },
            5 => EventKind::HandlerEnd {
                id,
                node,
                handler: tag,
            },
            _ => EventKind::Fault {
                id,
                node,
                what: [
                    crate::FaultEvent::CorruptWord,
                    crate::FaultEvent::DropMessage,
                    crate::FaultEvent::SendStall,
                ][tag as usize % 3],
            },
        };
        Event { cycle, kind }
    }

    #[test]
    fn linear_assembly_matches_the_sorting_oracle() {
        let mut rng = jm_prng::Prng::new(0x7ace);
        for sources in [1usize, 2, 3, 17, 600] {
            for stride in [0u64, 1, 3, 400] {
                let srcs: Vec<Vec<Event>> = (0..sources)
                    .map(|_| {
                        // Every third source or so stays empty.
                        let len = if rng.chance(0.3) {
                            0
                        } else {
                            rng.range_usize(1, 40)
                        };
                        let mut cycle = rng.range_u64(0, 50);
                        (0..len)
                            .map(|_| {
                                cycle += rng.range_u64(0, stride + 1);
                                random_event(&mut rng, cycle)
                            })
                            .collect()
                    })
                    .collect();
                assert_eq!(
                    assemble_linear(&srcs),
                    assemble_by_sorting(&srcs),
                    "{sources} sources, stride {stride}"
                );
            }
        }
    }

    #[test]
    fn assembly_handles_sparse_spans_and_long_sources() {
        let mut rng = jm_prng::Prng::new(0x5ba5e);
        // One event at cycle 0, one at 10^9, one at the end of time.
        let sparse = vec![
            vec![random_event(&mut rng, 0)],
            vec![
                random_event(&mut rng, 1_000_000_000),
                random_event(&mut rng, u64::MAX),
            ],
        ];
        assert_eq!(assemble_linear(&sparse), assemble_by_sorting(&sparse));
        // Two sources long enough to span many windows, with ids and nodes
        // too wide for the packed form mixed in.
        let long: Vec<Vec<Event>> = (0..2)
            .map(|_| {
                let mut cycle = 0;
                (0..150_000)
                    .map(|i| {
                        cycle += rng.range_u64(0, 2);
                        let mut e = random_event(&mut rng, cycle);
                        if i % 1000 == 0 {
                            e.kind = EventKind::Hop {
                                id: TraceId(u64::from(u32::MAX) + 1 + i),
                                node: NodeId(u32::MAX - i as u32),
                            };
                        }
                        e
                    })
                    .collect()
            })
            .collect();
        assert_eq!(assemble_linear(&long), assemble_by_sorting(&long));
    }

    /// Sources shaped like a run's: `dense` ones emit an event every cycle
    /// or two, the rest one every few cycles (a token ring's shape), and
    /// any may jump 10^9 cycles ahead.
    fn run_shaped_sources(rng: &mut jm_prng::Prng, count: usize, dense: bool) -> Vec<Vec<Event>> {
        (0..count)
            .map(|_| {
                let mut cycle = rng.range_u64(0, 20);
                let len = rng.range_usize(0, if dense { 3_000 } else { 300 });
                (0..len)
                    .map(|_| {
                        cycle += match rng.range_u32(0, 200) {
                            0 => 1_000_000_000,
                            _ if dense => rng.range_u64(0, 2),
                            _ => rng.range_u64(1, 12),
                        };
                        random_event(rng, cycle)
                    })
                    .collect()
            })
            .collect()
    }

    /// Emits `sources` into tracers as a run would and merges them in
    /// batches at `cuts`: by each cut a source has emitted every event
    /// before it and perhaps a few more, which stay buffered; the last
    /// merge takes the rest.
    fn merge_in_batches(
        sources: &[Vec<Event>],
        cuts: &[u64],
        rng: &mut jm_prng::Prng,
    ) -> Vec<Event> {
        let mut tracers = vec![Tracer::new(); sources.len()];
        let mut emitted = vec![0; sources.len()];
        let mut trace = MachineTrace::default();
        let mut from = 0;
        for &cut in cuts {
            for ((src, t), done) in sources.iter().zip(&mut tracers).zip(&mut emitted) {
                let due = src.partition_point(|e| e.cycle < cut);
                let upto = (due + rng.range_usize(0, 4)).min(src.len()).max(*done);
                for e in &src[*done..upto] {
                    t.emit(e.cycle, e.kind);
                }
                *done = upto;
            }
            trace.merge(&mut tracers, from..cut);
            from = cut;
        }
        for ((src, t), done) in sources.iter().zip(&mut tracers).zip(&emitted) {
            for e in &src[*done..] {
                t.emit(e.cycle, e.kind);
            }
        }
        trace.merge(&mut tracers, from..);
        assert!(tracers.iter().all(Tracer::is_empty));
        trace.events
    }

    #[test]
    fn batched_merging_matches_the_sorting_oracle() {
        let mut rng = jm_prng::Prng::new(0xba7c4);
        for (count, dense) in [(1, false), (3, true), (40, false), (40, true), (300, false)] {
            for _ in 0..4 {
                let srcs = run_shaped_sources(&mut rng, count, dense);
                let mut cycles: Vec<u64> = srcs.iter().flatten().map(|e| e.cycle).collect();
                cycles.sort_unstable();
                // Cuts on a cycle that has events (ties included), between
                // two, past the end, and one repeated: an empty batch.
                let mut cuts: Vec<u64> = (0..rng.range_usize(0, 12))
                    .filter_map(|_| {
                        let at = *cycles.get(rng.range_usize(0, cycles.len().max(1)))?;
                        Some(at + rng.range_u64(0, 2))
                    })
                    .collect();
                cuts.push(cycles.last().map_or(0, |c| c + 5));
                cuts.sort_unstable();
                if let Some(&first) = cuts.first() {
                    cuts.push(first);
                    cuts.sort_unstable();
                }
                assert_eq!(
                    merge_in_batches(&srcs, &cuts, &mut rng),
                    assemble_by_sorting(&srcs),
                    "{count} sources, dense {dense}, cuts {cuts:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "trace event at cycle 7 after a merge of every cycle before 10")]
    fn an_event_older_than_a_merge_panics() {
        let mut rng = jm_prng::Prng::new(0x1a7e);
        let mut source = Tracer::new();
        let mut trace = MachineTrace::default();
        let e = random_event(&mut rng, 5);
        source.emit(e.cycle, e.kind);
        trace.merge([&mut source], 0..10);
        assert_eq!(trace.events, [e]);
        source.emit(7, e.kind);
        trace.merge([&mut source], 10..20);
    }

    #[test]
    fn a_source_out_of_cycle_order_is_still_sorted() {
        let mut rng = jm_prng::Prng::new(0xd15c0);
        let mut srcs: Vec<Vec<Event>> = (0..4)
            .map(|_| (0..200).map(|i| random_event(&mut rng, i / 2)).collect())
            .collect();
        // Scramble one source's cycles (ties within it keep emission order).
        for e in &mut srcs[2] {
            e.cycle = rng.range_u64(0, 100);
        }
        let tracer: Tracer = srcs[2].iter().copied().collect();
        assert!(
            !tracer.wide.is_sorted_by_key(|e| e.cycle)
                || !tracer.packed.is_sorted_by_key(Packed::cycle)
        );
        assert_eq!(assemble_linear(&srcs), assemble_by_sorting(&srcs));
    }

    #[test]
    fn messages_index_sparse_and_repeated_ids() {
        let inject = |cycle, id| Event {
            cycle,
            kind: EventKind::Inject {
                id: TraceId(id),
                src: NodeId(0),
                dst: NodeId(1),
                priority: MsgPriority::P0,
                words: 1,
            },
        };
        let deliver = |cycle, id| Event {
            cycle,
            kind: EventKind::Deliver {
                id: TraceId(id),
                node: NodeId(1),
            },
        };
        // Id 1 is dense, 10^12 is far past four times the event count, and
        // id 2 is injected twice: the later injection owns later events.
        let far = 1_000_000_000_000;
        let events = vec![
            inject(0, 1),
            inject(1, far),
            inject(2, 2),
            deliver(3, 2),
            inject(4, 2),
            deliver(5, 1),
            deliver(6, far),
            deliver(7, 2),
            deliver(8, 99),
        ];
        let t = MachineTrace::assemble(vec![events.into_iter().collect()], Vec::new(), 2);
        let delivered: Vec<(u64, Option<u64>)> =
            t.messages().iter().map(|m| (m.id.0, m.deliver)).collect();
        assert_eq!(
            delivered,
            [(1, Some(5)), (far, Some(6)), (2, Some(3)), (2, Some(7))]
        );
    }
}
