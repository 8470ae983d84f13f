//! The MDP node: architectural state, thread scheduling, dispatch, and
//! fault machinery. Instruction semantics live in [`crate::exec`].

use crate::config::{MdpConfig, QUEUE_VBASE, STAGING_FRAME, STAGING_VBASE};
use crate::lower::{Code, Op};
use crate::memory::{Memory, MemoryStats};
use crate::queue::MsgQueue;
use crate::stats::NodeStats;
use crate::stretch::Stretch;
use crate::xlate::XlateCache;
use jm_asm::Program;
use jm_isa::consts::FaultKind;
use jm_isa::instr::{MsgPriority, StatClass};
use jm_isa::node::{MeshDims, NodeId};
use jm_isa::reg::{Priority, RegFile};
use jm_isa::tag::Tag;
use jm_isa::word::{MsgHeader, SegDesc, Word};
use jm_isa::TraceId;
use jm_trace::{EventKind, FaultEvent, Tracer};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Network injection acknowledgement, as seen by the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectAck {
    /// Word accepted.
    Accepted,
    /// Injection FIFO full: the `SEND` takes a send fault and retries.
    Stall,
    /// Framing violation (first word not a valid route word) — a program
    /// bug surfaced as a node error.
    Rejected,
}

/// The node's view of the network injection port.
///
/// Messages are composed in a per-thread buffer by the `SEND` family and
/// launched **whole** when the `SENDE` form retires — so a preempting
/// handler can never interleave its words into another thread's open
/// message, and a refused launch (send fault) retries without duplicating
/// already-injected words.
pub trait NetPort {
    /// Atomically offers a complete message: route word plus payload.
    fn commit(&mut self, priority: MsgPriority, words: &[Word]) -> InjectAck;
}

/// What a [`MdpNode::tick`] did, telling the machine's scheduler when (and
/// whether) the node next needs a tick. A node that reports [`Idle`] or
/// [`Stopped`] makes no progress until something external arrives — a
/// network delivery or a host injection — so an event-driven engine may
/// park it without changing any observable behavior.
///
/// [`Idle`]: TickOutcome::Idle
/// [`Stopped`]: TickOutcome::Stopped
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// The node did (or is doing) work and next makes progress at `until`.
    /// Ticks before `until` are no-ops.
    Busy {
        /// First cycle at which the node can do further work.
        until: u64,
    },
    /// Nothing runnable and nothing dispatchable: the node burned one idle
    /// cycle (already attributed to [`StatClass::Idle`]) and every
    /// subsequent cycle is idle too until a delivery arrives. An engine
    /// that ticks every node every cycle sees this whenever a node has
    /// nothing to do; one that parks workless nodes unticked (the machine's
    /// `shard_cycle`) still receives it from a node with queued words and
    /// nothing dispatchable — a checksummed message short of its trailer.
    Idle,
    /// The node halted or stopped on an error; it will never tick again.
    Stopped,
}

/// A fatal per-node condition. Real hardware would wedge or vector into a
/// debugger; the simulator stops the node and surfaces the error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// A fault was raised whose vector slot does not hold an `ip` word.
    UnhandledFault {
        /// The fault raised.
        kind: FaultKind,
        /// IP of the faulting instruction.
        ip: u32,
    },
    /// A fault was raised while already in a fault handler (staging buffer
    /// would be clobbered).
    NestedFault {
        /// The second fault.
        kind: FaultKind,
        /// IP of the second faulting instruction.
        ip: u32,
    },
    /// The queue head is not a `msg`-tagged word — stream desynchronized.
    QueueDesync(Word),
    /// A message header named an out-of-range handler.
    BadHandler(u32),
    /// Execution ran off the end of the code image.
    IpOutOfRange(u32),
    /// The network rejected a send (bad route word framing).
    BadSend(Word),
    /// `RESUME` executed with a non-`ip` word in the staged IP slot.
    BadResume(Word),
    /// A thread suspended or halted while mid-message (network port locked
    /// without a terminating `SENDE`).
    OpenMessage,
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::UnhandledFault { kind, ip } => {
                write!(f, "unhandled {kind} fault at ip {ip}")
            }
            NodeError::NestedFault { kind, ip } => {
                write!(f, "nested {kind} fault at ip {ip}")
            }
            NodeError::QueueDesync(w) => write!(f, "queue head is not a header: {w:?}"),
            NodeError::BadHandler(ip) => write!(f, "message header names bad handler {ip}"),
            NodeError::IpOutOfRange(ip) => write!(f, "instruction pointer {ip} out of range"),
            NodeError::BadSend(w) => write!(f, "network rejected send of {w:?}"),
            NodeError::BadResume(w) => write!(f, "staged ip is not an ip word: {w:?}"),
            NodeError::OpenMessage => f.write_str("thread ended while composing a message"),
        }
    }
}

impl std::error::Error for NodeError {}

/// The message being handled by a priority level.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MsgCtx {
    /// Total message length in words.
    pub len: u32,
}

/// One J-Machine processing node.
pub struct MdpNode {
    pub(crate) id: NodeId,
    pub(crate) dims: MeshDims,
    pub(crate) config: MdpConfig,
    pub(crate) regs: RegFile,
    pub(crate) mem: Memory,
    /// The program's lowered code ([`Code`]), shared by every node that
    /// runs it.
    pub(crate) ops: Arc<[Op]>,
    pub(crate) queues: [MsgQueue; 2],
    pub(crate) xlate: XlateCache,
    /// Register staging frames (R0–3, A0–3, IP), one per priority bank.
    pub(crate) staging: [[Word; 9]; 3],
    /// Whether the background thread may run.
    pub(crate) bg_runnable: bool,
    /// Whether a handler is active at P0/P1.
    pub(crate) active: [bool; 2],
    pub(crate) msg_ctx: [Option<MsgCtx>; 2],
    /// Cycle-attribution class per bank.
    pub(crate) class: [StatClass; 3],
    /// Entry IP of the thread running in each bank (per-handler stats).
    pub(crate) cur_handler: [u32; 3],
    /// Cached [`HandlerMap`](crate::stats::HandlerMap) slot of each bank's
    /// `cur_handler` (`usize::MAX` until first touched), so the
    /// per-instruction attribution is a plain indexed add.
    pub(crate) handler_slot: [usize; 3],
    /// Per-bank message-composition buffers: words accumulated by `SEND`
    /// instructions, launched whole at the `SENDE`.
    pub(crate) compose: [Vec<Word>; 3],
    /// Per bank: the composed message is complete and awaiting a
    /// successful commit (retried across send faults).
    pub(crate) commit_pending: [bool; 3],
    /// Whether each bank is inside a fault handler.
    pub(crate) in_fault: [bool; 3],
    /// Fault state specials.
    pub(crate) fip: u32,
    pub(crate) fval: Word,
    pub(crate) faddr: Word,
    pub(crate) busy_until: u64,
    pub(crate) halted: bool,
    pub(crate) error: Option<NodeError>,
    pub(crate) stats: NodeStats,
    /// Lifecycle-event buffer; `None` (the default) disables tracing.
    pub(crate) tracer: Option<Box<Tracer>>,
    /// Tracing only: payload words still owed by the message currently
    /// streaming into each queue (frames word deliveries into messages).
    pub(crate) incoming_rem: [u32; 2],
    /// Tracing only: trace ids of queued-but-undispatched messages, in
    /// arrival (= dispatch) order.
    pub(crate) trace_pending: [VecDeque<TraceId>; 2],
    /// Tracing only: trace id of the message each bank's thread is handling.
    pub(crate) cur_trace: [TraceId; 3],
    /// One past the start cycle of the last instruction the current
    /// stretch retired (0: none): a delivery or a drive stop before it
    /// lands inside the stretch.
    pub(crate) spec_end: u64,
    /// The current stretch's checkpoint (see [`crate::stretch`]).
    pub(crate) stretch: Box<Stretch>,
}

impl fmt::Debug for MdpNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MdpNode")
            .field("id", &self.id)
            .field("halted", &self.halted)
            .field("bg_runnable", &self.bg_runnable)
            .field("active", &self.active)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

/// What the scheduler decided for this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    Exec(Priority),
    Dispatch(MsgPriority),
    Idle,
    Stopped,
}

impl MdpNode {
    /// Creates a node, loads the shared program image (code placement, data
    /// blocks), and prepares the background thread if the program declares
    /// an entry point and `start_background` is set. The program is lowered
    /// ([`Code`]) once for all the nodes one thread builds from the same
    /// `Arc` while any of them lives.
    pub fn new(
        id: NodeId,
        dims: MeshDims,
        program: Arc<Program>,
        config: MdpConfig,
        start_background: bool,
    ) -> MdpNode {
        let code = Code::shared(program, &config.timing);
        MdpNode::with_code(id, dims, &code, config, start_background)
    }

    /// [`Self::new`] for a program already lowered.
    ///
    /// # Panics
    ///
    /// Panics if `code` was lowered under another timing model than
    /// `config`'s.
    pub fn with_code(
        id: NodeId,
        dims: MeshDims,
        code: &Code,
        config: MdpConfig,
        start_background: bool,
    ) -> MdpNode {
        assert_eq!(
            code.timing, config.timing,
            "code lowered under another timing model"
        );
        let program = &code.program;
        let mut mem = Memory::new();
        for block in &program.data {
            if !block.init.is_empty() {
                mem.load(block.base, &block.init);
            }
        }
        let mut regs = RegFile::new();
        let bg_entry = if start_background {
            program.entry
        } else {
            None
        };
        let bg_runnable = bg_entry.is_some();
        if let Some(entry) = bg_entry {
            regs.bank_mut(Priority::Background).ip = entry;
        }
        let cur_handler = [bg_entry.unwrap_or(0), 0, 0];
        MdpNode {
            id,
            dims,
            config,
            regs,
            mem,
            ops: Arc::clone(&code.ops),
            queues: [
                MsgQueue::new(config.queue0_words),
                MsgQueue::new(config.queue1_words),
            ],
            xlate: XlateCache::new(config.xlate_entries),
            staging: [[Word::NIL; 9]; 3],
            bg_runnable,
            active: [false, false],
            msg_ctx: [None, None],
            class: [StatClass::Compute; 3],
            cur_handler,
            handler_slot: [usize::MAX; 3],
            compose: Default::default(),
            commit_pending: [false; 3],
            in_fault: [false; 3],
            fip: 0,
            fval: Word::NIL,
            faddr: Word::NIL,
            busy_until: 0,
            halted: false,
            error: None,
            stats: NodeStats::default(),
            tracer: None,
            incoming_rem: [0; 2],
            trace_pending: Default::default(),
            cur_trace: [TraceId::NONE; 3],
            spec_end: 0,
            stretch: Box::default(),
        }
    }

    /// Turns lifecycle tracing on or off. While on, the node emits
    /// queue-enter, dispatch, and handler-end events and correlates each
    /// dispatched thread with the trace id of the message that created it.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracer = if on {
            Some(Box::new(Tracer::new()))
        } else {
            None
        };
    }

    /// Whether lifecycle tracing is on.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The buffered lifecycle events (`None` when tracing is off), for the
    /// machine to drain as it merges its trace.
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_deref_mut()
    }

    /// The node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The node's host-side storage counters: the memory pages and queue
    /// words its program has written so far.
    pub fn memory_stats(&self) -> MemoryStats {
        let (sram, dram) = self.mem.allocated_pages();
        MemoryStats {
            sram_pages: sram as u64,
            dram_pages: dram as u64,
            queue_words: self.queues.iter().map(|q| q.stored_words() as u64).sum(),
        }
    }

    /// The node's fatal error, if it stopped.
    pub fn error(&self) -> Option<&NodeError> {
        self.error.as_ref()
    }

    /// Whether the node executed `HALT`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Whether the node has any runnable or pending work.
    pub fn has_work(&self) -> bool {
        if self.error.is_some() || self.halted {
            return false;
        }
        self.bg_runnable
            || self.active[0]
            || self.active[1]
            || !self.queues[0].is_empty()
            || !self.queues[1].is_empty()
    }

    /// Whether messages remain queued (useful to detect work stranded at a
    /// halted or errored node).
    pub fn queued_words(&self) -> usize {
        self.queues[0].len() + self.queues[1].len()
    }

    /// Host access: reads a memory word.
    pub fn read_mem(&self, addr: u32) -> Word {
        self.mem.read(addr)
    }

    /// Host access: writes a memory word.
    pub fn write_mem(&mut self, addr: u32, word: Word) {
        self.mem.write(addr, word);
    }

    /// Host access: bulk-reads memory.
    pub fn dump_mem(&self, base: u32, len: u32) -> Vec<Word> {
        self.mem.dump(base, len)
    }

    /// Installs a fault vector: the handler's `ip` word at the vector slot.
    pub fn install_vector(&mut self, kind: FaultKind, handler_ip: u32) {
        self.mem.write(kind.vector(), Word::ip(handler_ip));
    }

    /// Offers one arriving word to a message queue, returning `false` when
    /// the queue is full (the network must hold the word — backpressure).
    /// `trace` is the id of the message the word belongs to
    /// ([`TraceId::NONE`] for a host delivery) and `now` the delivery
    /// cycle: when the word opens a new message (the previous one's words
    /// have all arrived) a queue-enter event is emitted and `trace` is
    /// remembered so the eventual dispatch can name it.
    ///
    /// A word landing above the priority of a thread that ran on past
    /// `now` (see [`Self::advance`]) rewinds that stretch to `now`: the
    /// instructions starting from `now` on belong to whatever the word
    /// dispatches — or, in checksum mode, waits for — first. The node's
    /// [`Self::busy_until`] then moves back.
    pub fn deliver_traced(
        &mut self,
        priority: MsgPriority,
        word: Word,
        trace: TraceId,
        now: u64,
    ) -> bool {
        let q = priority.index();
        if !self.queues[q].push(word) {
            return false;
        }
        if now < self.spec_end && q + 1 > self.stretch.priority.index() {
            self.rewind(now);
        }
        if let Some(tracer) = &mut self.tracer {
            if self.incoming_rem[q] == 0 {
                // Header word of a new message; `msg` headers carry the
                // total length, anything else is treated as one word (it
                // will surface as a queue desync at dispatch).
                let len = if word.tag() == Tag::Msg {
                    let len = MsgHeader::from_word(word).len;
                    // Checksum mode: the wire message carries one trailer
                    // word beyond the header's stated length.
                    if self.config.checksum_msgs {
                        len + 1
                    } else {
                        len
                    }
                } else {
                    1
                };
                self.incoming_rem[q] = len.saturating_sub(1);
                self.trace_pending[q].push_back(trace);
                tracer.emit(
                    now,
                    EventKind::QueueEnter {
                        id: trace,
                        node: self.id,
                        priority,
                    },
                );
            } else {
                self.incoming_rem[q] -= 1;
            }
        }
        true
    }

    /// Queue occupancy high-water mark.
    pub fn queue_high_water(&self, priority: MsgPriority) -> usize {
        self.queues[priority.index()].high_water()
    }

    /// Deliveries refused because the queue was full (each refusal leaves
    /// the word parked in the network's ejection FIFO — backpressure).
    pub fn queue_refusals(&self, priority: MsgPriority) -> u64 {
        self.queues[priority.index()].refusals()
    }

    fn schedule(&self) -> Decision {
        if self.error.is_some() || self.halted {
            return Decision::Stopped;
        }
        if self.active[1] {
            return Decision::Exec(Priority::P1);
        }
        if self.dispatchable(1) {
            return Decision::Dispatch(MsgPriority::P1);
        }
        if self.active[0] {
            return Decision::Exec(Priority::P0);
        }
        if self.dispatchable(0) {
            return Decision::Dispatch(MsgPriority::P0);
        }
        if self.bg_runnable {
            return Decision::Exec(Priority::Background);
        }
        Decision::Idle
    }

    /// Whether queue `q`'s head message may dispatch now. Normally the
    /// header's arrival alone is enough (dispatch-on-arrival, §2.1; late
    /// argument reads stall in [`crate::exec`]). In checksum mode dispatch
    /// instead waits for the whole message plus its trailer word, because
    /// validation must read every word before a handler may see any of
    /// them. A desynchronized head (non-`msg` word) dispatches immediately
    /// in both modes so the error surfaces.
    fn dispatchable(&self, q: usize) -> bool {
        match self.queues[q].header() {
            None => false,
            Some(Err(_)) => true,
            Some(Ok(h)) => {
                !self.config.checksum_msgs || self.queues[q].get(h.len as usize).is_some()
            }
        }
    }

    /// Advances the node at cycle `now` by at most one instruction (or
    /// dispatch): [`Self::advance`] with no room to run on. A cycle-scanning
    /// engine calls this once per machine cycle; an event-driven engine
    /// calls it only at the cycles the returned [`TickOutcome`] names (plus
    /// wake-ups on deliveries). Generic over the port so monomorphized
    /// engines inline the injection path.
    ///
    /// Idle is the gap between two acts: before the node acts or counts an
    /// idle cycle at `now`, the cycles since `busy_until` that no tick
    /// claimed go to [`StatClass::Idle`] — none for a node ticked every
    /// cycle, all of them for a node an engine left alone while it could do
    /// nothing. Every cycle a live node has lived through thus belongs to
    /// exactly one class: `stats().total_cycles() == busy_until`, and
    /// between ticks the remainder is [`Self::idle_owed`].
    pub fn tick<P: NetPort + ?Sized>(&mut self, now: u64, net: &mut P) -> TickOutcome {
        self.advance(now, now + 1, net)
    }

    /// Advances the node at cycle `now`, running on until `limit`: a thread
    /// whose instruction at `now` retires keeps retiring the node-private
    /// instructions after it that start before `limit` — a *stretch*,
    /// which ends before a message commit, the thread's end, a queue word
    /// that has not arrived, or anything that would stall or fault
    /// (DESIGN.md §4.5, "Stretches"). The result is the node a
    /// [`Self::tick`] at every cycle up to `limit` leaves behind, as long
    /// as nothing is delivered above the thread's priority inside the
    /// stretch; a delivery that is rewinds it ([`Self::deliver_traced`]),
    /// and so does [`Self::settle`] at a drive stop inside it.
    pub fn advance<P: NetPort + ?Sized>(
        &mut self,
        now: u64,
        limit: u64,
        net: &mut P,
    ) -> TickOutcome {
        if now < self.busy_until {
            return TickOutcome::Busy {
                until: self.busy_until,
            };
        }
        let decision = self.schedule();
        if decision != Decision::Stopped {
            let gap = now - self.busy_until;
            self.stats.add_cycles(StatClass::Idle, gap);
        }
        match decision {
            Decision::Stopped => TickOutcome::Stopped,
            Decision::Idle => {
                self.stats.add_cycles(StatClass::Idle, 1);
                self.busy_until = now + 1;
                TickOutcome::Idle
            }
            Decision::Dispatch(mp) => {
                self.dispatch(mp, now);
                self.outcome()
            }
            Decision::Exec(priority) => {
                self.exec_slice(priority, now, limit, net);
                self.outcome()
            }
        }
    }

    /// Outcome after a dispatch or execution step: stopped if it raised a
    /// fatal error, otherwise busy until `busy_until`.
    fn outcome(&self) -> TickOutcome {
        if self.error.is_some() || self.halted {
            TickOutcome::Stopped
        } else {
            TickOutcome::Busy {
                until: self.busy_until,
            }
        }
    }

    /// First cycle at which the node can act again.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Idle cycles a live node has lived through by `now` that no tick has
    /// claimed yet (its next one will, see [`Self::tick`]): what a
    /// cycle-scanning engine would already have counted. Zero for a halted
    /// or errored node, which accrues nothing.
    pub fn idle_owed(&self, now: u64) -> u64 {
        if self.error.is_some() || self.halted {
            return 0;
        }
        // The ledger: every cycle a live node has lived through belongs to
        // exactly one class, so `total + owed == max(busy_until, now)`.
        debug_assert_eq!(
            self.stats.total_cycles(),
            self.busy_until,
            "{}: cycles counted twice or never",
            self.id
        );
        now.saturating_sub(self.busy_until)
    }

    fn dispatch(&mut self, mp: MsgPriority, now: u64) {
        let q = mp.index();
        let header = match self.queues[q].header() {
            Some(Ok(h)) => h,
            Some(Err(w)) => {
                // Fatal: no handler can run off a desynchronized queue, so
                // the fault is counted (for the statistics report) and the
                // node halts with a machine-level error rather than vectoring.
                self.stats.count_fault(FaultKind::QueueDesync);
                self.error = Some(NodeError::QueueDesync(w));
                return;
            }
            None => unreachable!("dispatch without header"),
        };
        if self.config.checksum_msgs && !self.verify_checksum(q, header, now) {
            return;
        }
        if header.ip as usize >= self.ops.len() {
            self.error = Some(NodeError::BadHandler(header.ip));
            return;
        }
        let priority = if mp == MsgPriority::P0 {
            Priority::P0
        } else {
            Priority::P1
        };
        let head_slot = self.queues[q].head_slot() as u32;
        let bank = self.regs.bank_mut(priority);
        bank.ip = header.ip;
        // A3 := descriptor of the message, inside the queue window.
        bank.a[3] = SegDesc::new(QUEUE_VBASE[q] + head_slot, header.len).to_word();
        self.active[q] = true;
        // The handler's A3 window covers the header's `len` words; in
        // checksum mode the context length additionally counts the trailer
        // so `end_thread` pops the whole wire message.
        let wire_len = if self.config.checksum_msgs {
            header.len + 1
        } else {
            header.len
        };
        self.msg_ctx[q] = Some(MsgCtx { len: wire_len });
        self.class[priority.index()] = StatClass::Compute;
        self.cur_handler[priority.index()] = header.ip;
        self.compose[priority.index()].clear();
        self.commit_pending[priority.index()] = false;
        if let Some(tracer) = &mut self.tracer {
            let id = self.trace_pending[q].pop_front().unwrap_or(TraceId::NONE);
            self.cur_trace[priority.index()] = id;
            tracer.emit(
                now,
                EventKind::Dispatch {
                    id,
                    node: self.id,
                    handler: header.ip,
                },
            );
        }
        self.stats.threads += 1;
        self.stats.msgs_received += 1;
        let slot = self.stats.handlers.entry_slot(header.ip);
        self.handler_slot[priority.index()] = slot;
        let entry = self.stats.handlers.slot_mut(slot);
        entry.threads += 1;
        entry.msg_words += u64::from(header.len);
        let cost = self.config.timing.dispatch;
        self.stats.add_cycles(StatClass::Dispatch, cost);
        self.busy_until = now + cost;
    }

    /// Checksum-mode dispatch validation: recomputes the FNV-1a fold over
    /// the head message's `len` words and compares it with the trailer word
    /// at offset `len` (guaranteed present — [`Self::dispatchable`] held
    /// dispatch until full arrival). On mismatch the message is dropped
    /// whole: the fault is counted, the dispatch cost still charged (the
    /// hardware spent those cycles reading the message), and recovery is
    /// left to sender-side retry. Returns whether the message is intact.
    fn verify_checksum(&mut self, q: usize, header: MsgHeader, now: u64) -> bool {
        let len = header.len as usize;
        let mut acc = jm_fault::CHECKSUM_INIT;
        for offset in 0..len {
            let word = self.queues[q]
                .get(offset)
                .expect("dispatchable checked full arrival");
            acc = jm_fault::checksum_fold(acc, word);
        }
        let trailer = self.queues[q]
            .get(len)
            .expect("dispatchable checked trailer arrival");
        if trailer == Word::new(Tag::Int, acc) {
            return true;
        }
        self.stats.count_fault(FaultKind::CorruptMessage);
        self.queues[q].pop_msg(len + 1);
        if let Some(tracer) = &mut self.tracer {
            let id = self.trace_pending[q].pop_front().unwrap_or(TraceId::NONE);
            tracer.emit(
                now,
                EventKind::Fault {
                    id,
                    node: self.id,
                    what: FaultEvent::DropMessage,
                },
            );
        }
        let cost = self.config.timing.dispatch;
        self.stats.add_cycles(StatClass::Dispatch, cost);
        self.busy_until = now + cost;
        false
    }

    /// Ends the thread at `priority`: pops its message (if any) and clears
    /// activity. Background suspension parks the background thread for good.
    pub(crate) fn end_thread(&mut self, priority: Priority, now: u64) {
        if !self.compose[priority.index()].is_empty() {
            self.error = Some(NodeError::OpenMessage);
            return;
        }
        match priority {
            Priority::Background => {
                self.bg_runnable = false;
            }
            Priority::P0 | Priority::P1 => {
                let q = if priority == Priority::P0 { 0 } else { 1 };
                if let Some(ctx) = self.msg_ctx[q].take() {
                    self.queues[q].pop_msg(ctx.len as usize);
                    if let Some(tracer) = &mut self.tracer {
                        let pi = priority.index();
                        tracer.emit(
                            now,
                            EventKind::HandlerEnd {
                                id: self.cur_trace[pi],
                                node: self.id,
                                handler: self.cur_handler[pi],
                            },
                        );
                        self.cur_trace[pi] = TraceId::NONE;
                    }
                }
                self.active[q] = false;
            }
        }
        self.in_fault[priority.index()] = false;
        self.class[priority.index()] = StatClass::Compute;
    }

    /// Raises a fault in `priority`'s bank: saves registers to the staging
    /// frame, latches `FIP`/`FVAL`/`FADDR`, and vectors. Returns the cost,
    /// or stops the node if the vector is not installed or a fault handler
    /// faulted.
    pub(crate) fn raise_fault(
        &mut self,
        priority: Priority,
        kind: FaultKind,
        val: Word,
        addr: Word,
    ) -> u64 {
        self.stats.count_fault(kind);
        let bank_index = priority.index();
        let ip = self.regs.bank(priority).ip;
        if self.in_fault[bank_index] {
            self.error = Some(NodeError::NestedFault { kind, ip });
            return 0;
        }
        let vector = self.mem.read(kind.vector());
        if vector.tag() != Tag::Ip || vector.bits() as usize >= self.ops.len() {
            self.error = Some(NodeError::UnhandledFault { kind, ip });
            return 0;
        }
        // Hardware staging save.
        let bank = self.regs.bank(priority);
        let mut frame = [Word::NIL; 9];
        frame[..4].copy_from_slice(&bank.r);
        frame[4..8].copy_from_slice(&bank.a);
        frame[8] = Word::ip(ip);
        self.staging[bank_index] = frame;
        self.fip = ip;
        self.fval = val;
        self.faddr = addr;
        self.in_fault[bank_index] = true;
        self.regs.bank_mut(priority).ip = vector.bits();
        // Attribute fault entry according to its nature.
        let class = match kind {
            FaultKind::CFutRead | FaultKind::FutUse => StatClass::Sync,
            FaultKind::XlateMiss => StatClass::Xlate,
            _ => self.class[bank_index],
        };
        self.class[bank_index] = class;
        self.config.timing.fault_entry
    }

    /// Reads a staging-window word (memory-mapped at [`STAGING_VBASE`]).
    pub(crate) fn staging_read(&self, addr: u32) -> Option<Word> {
        let off = addr - STAGING_VBASE;
        let bank = (off / STAGING_FRAME) as usize;
        let slot = (off % STAGING_FRAME) as usize;
        if bank < 3 && slot < 9 {
            Some(self.staging[bank][slot])
        } else {
            None
        }
    }

    /// Writes a staging-window word.
    pub(crate) fn staging_write(&mut self, addr: u32, word: Word) -> bool {
        let off = addr - STAGING_VBASE;
        let bank = (off / STAGING_FRAME) as usize;
        let slot = (off % STAGING_FRAME) as usize;
        if bank < 3 && slot < 9 {
            self.staging[bank][slot] = word;
            true
        } else {
            false
        }
    }
}
