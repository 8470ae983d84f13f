//! Lifecycle events and the per-component event buffer.

use jm_isa::instr::MsgPriority;
use jm_isa::node::NodeId;
use jm_isa::TraceId;

/// One lifecycle event, stamped with the machine cycle at which it occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Machine cycle of the event.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The stages of a message's life, in causal order.
///
/// The end-to-end latency of message *m* decomposes along these events
/// exactly as the paper's cost model `T = T_net + T_queue + T_dispatch`
/// predicts:
///
/// * [`Inject`](EventKind::Inject) → [`Deliver`](EventKind::Deliver) is
///   `T_net` (injection pipeline plus wire time of the header word — the
///   MDP dispatches on header arrival while the tail may still be
///   streaming through the network, so delivery is keyed on the head);
/// * [`Deliver`](EventKind::Deliver) → [`Dispatch`](EventKind::Dispatch) is
///   `T_queue` (ejection-FIFO staging, remaining streaming, and
///   message-queue wait);
/// * [`Dispatch`](EventKind::Dispatch) → first handler instruction is the
///   hardware's fixed dispatch cost, and →
///   [`HandlerEnd`](EventKind::HandlerEnd) the handler run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A whole message was accepted by a node's injection port.
    Inject {
        /// The message.
        id: TraceId,
        /// Injecting node.
        src: NodeId,
        /// Destination named by the route word.
        dst: NodeId,
        /// Virtual network.
        priority: MsgPriority,
        /// Payload length in words (route word excluded).
        words: u32,
    },
    /// The message's head flit advanced one hop to a neighbouring router.
    Hop {
        /// The message.
        id: TraceId,
        /// Router the flit departed from.
        node: NodeId,
    },
    /// The message's first payload word (its header) reached the
    /// destination's ejection FIFO.
    Deliver {
        /// The message.
        id: TraceId,
        /// Destination node.
        node: NodeId,
    },
    /// The message's header word entered the node's hardware message queue.
    QueueEnter {
        /// The message ([`TraceId::NONE`] for host-port deliveries).
        id: TraceId,
        /// Receiving node.
        node: NodeId,
        /// Queue priority.
        priority: MsgPriority,
    },
    /// The queue head reached dispatch: a handler thread was created.
    Dispatch {
        /// The message ([`TraceId::NONE`] for host-port deliveries).
        id: TraceId,
        /// Dispatching node.
        node: NodeId,
        /// Handler entry point (instruction index).
        handler: u32,
    },
    /// The handler thread ended (`SUSPEND` retired).
    HandlerEnd {
        /// The message that created the thread.
        id: TraceId,
        /// Node the thread ran on.
        node: NodeId,
        /// Handler entry point.
        handler: u32,
    },
    /// A fault was injected into (or detected on) a message. Emitted only
    /// by fault-injection runs; ordinary traces never contain it.
    Fault {
        /// The affected message ([`TraceId::NONE`] when no message is
        /// identifiable, e.g. a refused injection).
        id: TraceId,
        /// Node where the fault struck.
        node: NodeId,
        /// What happened.
        what: FaultEvent,
    },
}

/// What a [`EventKind::Fault`] event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A payload word had one bit flipped at the ejection port.
    CorruptWord,
    /// Checksum validation failed at dispatch; the message was dropped.
    DropMessage,
    /// An injection was refused because the node's interface was down.
    SendStall,
}

impl FaultEvent {
    /// Stable small integer for hashing and export.
    pub fn code(self) -> u32 {
        match self {
            FaultEvent::CorruptWord => 0,
            FaultEvent::DropMessage => 1,
            FaultEvent::SendStall => 2,
        }
    }

    /// Short label for exporters.
    pub fn label(self) -> &'static str {
        match self {
            FaultEvent::CorruptWord => "corrupt-word",
            FaultEvent::DropMessage => "drop-message",
            FaultEvent::SendStall => "send-stall",
        }
    }
}

impl EventKind {
    /// Causal rank of the kind, used as a deterministic same-cycle
    /// tie-breaker when buffers from independent components are merged.
    pub fn rank(&self) -> u8 {
        match self {
            EventKind::Inject { .. } => 0,
            EventKind::Hop { .. } => 1,
            EventKind::Deliver { .. } => 2,
            EventKind::QueueEnter { .. } => 3,
            EventKind::Dispatch { .. } => 4,
            EventKind::HandlerEnd { .. } => 5,
            EventKind::Fault { .. } => 6,
        }
    }

    /// The message the event belongs to.
    pub fn id(&self) -> TraceId {
        match *self {
            EventKind::Inject { id, .. }
            | EventKind::Hop { id, .. }
            | EventKind::Deliver { id, .. }
            | EventKind::QueueEnter { id, .. }
            | EventKind::Dispatch { id, .. }
            | EventKind::HandlerEnd { id, .. }
            | EventKind::Fault { id, .. } => id,
        }
    }
}

/// A hop or deliver event in 16 bytes — half an [`Event`]. These two kinds
/// are about four of every five events a loaded mesh emits, and all they
/// carry is a cycle, a message id (32 bits wide on the flit already)
/// and a node; the kind rides in the node's top bit. Buffers hold them
/// packed and assembly widens them into the public `Event` once, in the
/// output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Packed {
    cycle: u64,
    id: u32,
    /// Node id, with [`Packed::DELIVER`] set for a deliver event.
    node: u32,
}

impl Packed {
    const DELIVER: u32 = 1 << 31;

    /// Packs a hop or deliver event whose id and node fit; `None` for
    /// everything else (which stays a full `Event`).
    #[inline]
    fn pack(cycle: u64, kind: &EventKind) -> Option<Packed> {
        let (id, node, flag) = match *kind {
            EventKind::Hop { id, node } => (id, node, 0),
            EventKind::Deliver { id, node } => (id, node, Packed::DELIVER),
            _ => return None,
        };
        let id = u32::try_from(id.0).ok()?;
        (node.0 & Packed::DELIVER == 0).then_some(Packed {
            cycle,
            id,
            node: node.0 | flag,
        })
    }

    #[inline]
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    #[inline]
    pub(crate) fn widen(self) -> Event {
        let id = TraceId(u64::from(self.id));
        let node = NodeId(self.node & !Packed::DELIVER);
        let kind = if self.node & Packed::DELIVER == 0 {
            EventKind::Hop { id, node }
        } else {
            EventKind::Deliver { id, node }
        };
        Event {
            cycle: self.cycle,
            kind,
        }
    }
}

/// An append-only event buffer owned by one simulation component.
///
/// Each component (every network shard, every node) that traces holds its
/// own `Tracer`, so the hot paths never contend on a shared sink; the
/// machine drains the buffers into its [`MachineTrace`](crate::MachineTrace)
/// as the run goes ([`MachineTrace::merge`](crate::MachineTrace::merge)). A
/// component that is not tracing holds no tracer at all (it is boxed
/// behind an `Option`), making the disabled path a single pointer test.
///
/// Hop and deliver events are buffered in a packed 16-byte form, all
/// others as full [`Event`]s: two plain vectors, each in emission order.
/// A merge drains them in place, so they keep their capacity and a long
/// run's buffers stay the size of one batch.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    pub(crate) packed: Vec<Packed>,
    pub(crate) wide: Vec<Event>,
}

impl Tracer {
    /// Creates an empty buffer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Records one event.
    #[inline]
    pub fn emit(&mut self, cycle: u64, kind: EventKind) {
        match Packed::pack(cycle, &kind) {
            Some(packed) => self.packed.push(packed),
            None => self.wide.push(Event { cycle, kind }),
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.packed.len() + self.wide.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
impl FromIterator<Event> for Tracer {
    fn from_iter<I: IntoIterator<Item = Event>>(events: I) -> Tracer {
        let mut tracer = Tracer::new();
        for e in events {
            tracer.emit(e.cycle, e.kind);
        }
        tracer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_follow_causal_order() {
        let id = TraceId(1);
        let n = NodeId(0);
        let seq = [
            EventKind::Inject {
                id,
                src: n,
                dst: n,
                priority: MsgPriority::P0,
                words: 2,
            },
            EventKind::Hop { id, node: n },
            EventKind::Deliver { id, node: n },
            EventKind::QueueEnter {
                id,
                node: n,
                priority: MsgPriority::P0,
            },
            EventKind::Dispatch {
                id,
                node: n,
                handler: 0,
            },
            EventKind::HandlerEnd {
                id,
                node: n,
                handler: 0,
            },
        ];
        for (i, k) in seq.iter().enumerate() {
            assert_eq!(k.rank() as usize, i);
            assert_eq!(k.id(), id);
        }
    }

    #[test]
    fn tracer_records_and_drains() {
        let mut t = Tracer::new();
        assert!(t.is_empty());
        t.emit(
            3,
            EventKind::Hop {
                id: TraceId(1),
                node: NodeId(2),
            },
        );
        assert_eq!(t.len(), 1);
        let mut trace = crate::MachineTrace::default();
        trace.merge([&mut t], 0..);
        assert_eq!(trace.events.len(), 1);
        assert!(t.is_empty());
        assert!(
            t.packed.capacity() > 0,
            "a drained buffer keeps its capacity"
        );
    }

    #[test]
    fn every_kind_round_trips_through_a_tracer() {
        let n = NodeId(5);
        let kinds = |id: TraceId| {
            [
                EventKind::Inject {
                    id,
                    src: n,
                    dst: NodeId(6),
                    priority: MsgPriority::P1,
                    words: 3,
                },
                EventKind::Hop { id, node: n },
                EventKind::Deliver { id, node: n },
                EventKind::QueueEnter {
                    id,
                    node: n,
                    priority: MsgPriority::P1,
                },
                EventKind::Dispatch {
                    id,
                    node: n,
                    handler: 9,
                },
                EventKind::HandlerEnd {
                    id,
                    node: n,
                    handler: 9,
                },
                EventKind::Fault {
                    id,
                    node: n,
                    what: FaultEvent::DropMessage,
                },
            ]
        };
        // Ids at both edges of the packed form's 32 bits, and the null id.
        for id in [0, 1, u64::from(u32::MAX), u64::from(u32::MAX) + 1, u64::MAX] {
            for (cycle, kind) in kinds(TraceId(id)).into_iter().enumerate() {
                let cycle = cycle as u64 * 1_000_000_007;
                let mut t = Tracer::new();
                t.emit(cycle, kind);
                assert_eq!(t.len(), 1);
                let packs = matches!(kind, EventKind::Hop { .. } | EventKind::Deliver { .. })
                    && id <= u64::from(u32::MAX);
                assert_eq!(t.packed.len(), usize::from(packs), "{kind:?}");
                let trace = crate::MachineTrace::assemble(vec![t], Vec::new(), 8);
                assert_eq!(trace.events, [Event { cycle, kind }]);
            }
        }
        // A node id using the packed form's flag bit stays wide.
        let high = EventKind::Deliver {
            id: TraceId(1),
            node: NodeId(u32::MAX),
        };
        assert_eq!(Packed::pack(0, &high), None);
        assert!(std::mem::size_of::<Packed>() <= 16);
    }
}
