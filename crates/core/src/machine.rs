//! The machine: nodes + network under one clock.
//!
//! Three engines advance that clock (see [`Engine`]) between the
//! boundaries of one drive loop ([`JMachine::run`] and
//! [`JMachine::run_until_quiescent`] are its two stop conditions), which
//! alone decides when to stop, skip or observe (`head`): a naive
//! reference that scans every node and router each cycle, the default
//! event-driven engine that tracks *where work is* — a wake table and live
//! bitset for busy nodes, the network's delivery notifications for queue
//! pumping, and counters that make quiescence an O(1) check — and the
//! parallel engine that runs the event engine's per-shard step on a crew
//! of threads. All produce bit-identical observable results, the lifecycle
//! trace included; `DESIGN.md` §4.5 ("Engines") gives the
//! invariants and the cycle-exactness argument.

use crate::config::{Engine, MachineConfig, StartPolicy};
use crate::parallel::{crew_shape, hand_over, pump_node, visit};
use crate::state::ArchState;
use crate::stats::MachineStats;
use jm_asm::Program;
use jm_fault::{checksum_words, FaultPlan};
use jm_isa::consts::FaultKind;
use jm_isa::instr::{MsgPriority, StatClass};
use jm_isa::node::NodeId;
use jm_isa::word::{MsgHeader, Word};
use jm_isa::TraceId;
use jm_mdp::{Code, MdpNode, MemoryStats, NodeError, StretchStats};
use jm_net::{BitSet, BulkStats, NetShard, Network};
use jm_replay::HostOp;
use jm_trace::{MachineTrace, SamplePoint};
use jm_traffic::TrafficPlan;
use std::fmt;
use std::ops::RangeBounds;
use std::sync::Arc;

/// A machine-level failure.
#[derive(Debug, Clone)]
pub enum MachineError {
    /// One or more nodes stopped with an error.
    NodeErrors(Vec<(NodeId, NodeError)>),
    /// The cycle budget elapsed before quiescence.
    Timeout {
        /// Cycles simulated before giving up.
        cycles: u64,
        /// Nodes that still had work.
        busy_nodes: u32,
        /// Flits still in the network.
        in_flight: u64,
    },
    /// The machine quiesced but undelivered words remain queued at halted
    /// nodes (a protocol bug in the guest program).
    StrandedMessages {
        /// Nodes with stranded words.
        nodes: Vec<NodeId>,
    },
    /// The configuration describes no buildable machine; the message names
    /// the offending field.
    InvalidConfig(&'static str),
    /// The program image fails [`Program::validate`]; the message is its
    /// first violation.
    InvalidProgram(String),
    /// A host delivery found its queue without room for all its words: a
    /// replay log whose deliveries together overfill a queue.
    QueueFull {
        /// Cycle of the delivery.
        cycle: u64,
        /// Target node.
        node: NodeId,
        /// Target queue.
        priority: MsgPriority,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::NodeErrors(errors) => {
                write!(f, "{} node error(s):", errors.len())?;
                for (id, e) in errors.iter().take(4) {
                    write!(f, " [{id}: {e}]")?;
                }
                Ok(())
            }
            MachineError::Timeout {
                cycles,
                busy_nodes,
                in_flight,
            } => write!(
                f,
                "no quiescence after {cycles} cycles ({busy_nodes} busy nodes, {in_flight} flits in flight)"
            ),
            MachineError::StrandedMessages { nodes } => {
                write!(f, "messages stranded at {} halted node(s)", nodes.len())
            }
            MachineError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            MachineError::InvalidProgram(why) => write!(f, "invalid program image: {why}"),
            MachineError::QueueFull {
                cycle,
                node,
                priority,
            } => write!(
                f,
                "host delivery at cycle {cycle} overfills node {}'s priority-{priority} queue",
                node.0
            ),
        }
    }
}

impl std::error::Error for MachineError {}

/// Sentinel in `wake_at`: the node is parked (not in the live set).
pub(crate) const PARKED: u64 = u64::MAX;

/// Cycles between the crew's global decisions, and the grain of an error
/// stop: a drive toward quiescence stops on the first multiple of this
/// after a node error, under every engine (DESIGN.md §4.5).
pub(crate) const QUANTUM: u64 = 64;

/// Buffered lifecycle events past which an occupancy sample merges the
/// slabs' buffers into the machine's trace: 1 MiB of 32-byte events, a
/// batch small enough that the buffers and the merge's working set stay a
/// few megabytes and cache-warm.
const TRACE_BATCH: usize = 1 << 15;

/// Event-engine bookkeeping for one shard's nodes: which need ticking and
/// when. The sequential event engine uses a single all-covering instance;
/// the parallel engine gives each shard its own, mirroring the network's
/// slab layout. Everything is indexed locally (`id - base`); only
/// [`EventSched::wake`], handed a node, needs `base` to find its index.
///
/// Invariants (between steps), writing `l` for a node's local index:
/// * `live` holds `l` iff `wake_at[l] != PARKED`; the per-cycle loop walks
///   `live` a word at a time and ticks the nodes whose `wake_at` has come,
///   so a cycle costs the live nodes and a parked node costs nothing;
/// * a parked node's `schedule()` decision is `Idle` or `Stopped`, so it
///   cannot make progress until a delivery arrives (which re-schedules it);
///   the cycles it sits out are nobody's to count here — the node's next
///   tick claims them as the gap since its `busy_until`, and until then
///   they are its [`MdpNode::idle_owed`];
/// * `has_work` holds `l` iff `nodes[l].has_work()`, and `errored` latches
///   the nodes that stopped with an error (the only set the naive engine
///   keeps too); each set maintains its own count, which makes quiescence
///   and the error check O(shards).
pub(crate) struct EventSched {
    /// First global node id this scheduler covers.
    base: usize,
    pub(crate) wake_at: Vec<u64>,
    pub(crate) live: BitSet,
    pub(crate) has_work: BitSet,
    pub(crate) errored: BitSet,
}

impl EventSched {
    /// Every node starts scheduled for cycle 0: the first step ticks the
    /// ones with work and parks the rest.
    /// `nodes` is the covered slice (ids `base .. base + nodes.len()`).
    fn new(nodes: &[MdpNode], base: usize) -> EventSched {
        let n = nodes.len();
        let mut live = BitSet::new(n);
        let mut has_work = BitSet::new(n);
        for (l, node) in nodes.iter().enumerate() {
            live.insert(l);
            if node.has_work() {
                has_work.insert(l);
            }
        }
        EventSched {
            base,
            wake_at: vec![0; n],
            live,
            has_work,
            errored: BitSet::new(n),
        }
    }

    /// Schedules node `l`, parked or just ticked, for cycle `at`.
    pub(crate) fn schedule(&mut self, l: usize, at: u64) {
        self.wake_at[l] = at;
        self.live.insert(l);
    }

    /// Takes the node at local index `l` out of the live set: the loop
    /// parks a due node before ticking it, and the tick's outcome decides
    /// whether it is scheduled again.
    pub(crate) fn park(&mut self, l: usize) {
        self.live.remove(l);
        self.wake_at[l] = PARKED;
    }

    /// A delivery reached `node` at cycle `at`, or a drive stopped there:
    /// files it for the first cycle it can act, `at` or its `busy_until`,
    /// if that is earlier than where it is filed — a parked node, or one
    /// whose stretch the delivery rewound — and refreshes its cached
    /// `has_work` bit.
    pub(crate) fn wake(&mut self, node: &MdpNode, at: u64) {
        let l = node.id().index() - self.base;
        let due = at.max(node.busy_until());
        if due < self.wake_at[l] {
            self.schedule(l, due);
        }
        self.set_work(l, node.has_work());
    }

    /// Updates the cached `has_work` bit for node `l`.
    pub(crate) fn set_work(&mut self, l: usize, work: bool) {
        if work {
            self.has_work.insert(l);
        } else {
            self.has_work.remove(l);
        }
    }

    /// Latches node `l`'s error (once).
    pub(crate) fn record_error(&mut self, l: usize) {
        self.errored.insert(l);
    }

    /// Earliest scheduled wake-up, `u64::MAX` when every node is parked.
    pub(crate) fn next_due(&self) -> u64 {
        let due = self.live.iter().map(|l| self.wake_at[l]);
        due.min().unwrap_or(u64::MAX)
    }
}

/// Why a drive ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// A node stopped with an error.
    NodeError,
    /// Nothing can happen anymore.
    Quiescent,
    /// The clock reached the deadline.
    Deadline,
}

/// What the head of the drive loop finds at cycle `now`: a stop, an idle
/// span to jump, or a cycle to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Head {
    /// The drive is over.
    Stop(Stop),
    /// Every network is idle and nothing is due before this cycle (later
    /// than `now`, no later than the deadline): every cycle in between
    /// changes nothing, so the skip is an assignment to the clock.
    Skip(u64),
    /// Something can act this cycle.
    Run,
}

/// Whether a slab can never act again on its own from cycle `now` on: no
/// node with work, no flit or undelivered word, and no traffic window still
/// ahead (a mesh whose generator can still fire is not finished, however
/// idle it looks).
pub(crate) fn quiet(sched: &EventSched, shard: &NetShard, now: u64) -> bool {
    sched.has_work.is_empty() && shard.is_idle() && shard.traffic_wake(now) == u64::MAX
}

/// The stop rule of a drive toward quiescence at cycle `now`, under every
/// engine: a latched node error stops it on a multiple of [`QUANTUM`] or at
/// the deadline, whichever comes first, and until then the machine runs on
/// and is not quiescent; otherwise quiescence beats the deadline.
fn stop_rule(error: bool, quiet: bool, now: u64, deadline: u64) -> Option<Stop> {
    if error && (now.is_multiple_of(QUANTUM) || now >= deadline) {
        Some(Stop::NodeError)
    } else if quiet && !error {
        Some(Stop::Quiescent)
    } else {
        (now >= deadline).then_some(Stop::Deadline)
    }
}

/// The one stop / skip rule of a drive toward quiescence, over a machine's
/// slabs — [`stop_rule`], then a skip: the sequential loop asks it every
/// cycle, the parallel engine's coordinator at every multiple of
/// [`QUANTUM`]. O(slabs), plus a walk of the live sets when every network
/// is idle.
pub(crate) fn head<'a>(
    slabs: impl Iterator<Item = (&'a EventSched, &'a NetShard)> + Clone,
    now: u64,
    deadline: u64,
) -> Head {
    let (mut error, mut all_quiet, mut idle) = (false, true, true);
    for (sched, shard) in slabs.clone() {
        error |= !sched.errored.is_empty();
        all_quiet &= quiet(sched, shard, now);
        idle &= shard.is_idle();
    }
    if let Some(stop) = stop_rule(error, all_quiet, now, deadline) {
        return Head::Stop(stop);
    }
    if idle {
        // A pending traffic window is a scheduled wake-up too: skipping to
        // its first cycle is sound (nothing can fire before it), skipping
        // past it would lose generated messages.
        let wake = slabs.map(|(sched, shard)| sched.next_due().min(shard.traffic_wake(now)));
        let t = wake.min().unwrap_or(u64::MAX).min(deadline);
        if t > now {
            return Head::Skip(t);
        }
    }
    Head::Run
}

/// First multiple of `every` strictly after `cycle`: where the next
/// periodic boundary of the drive loop falls (never, for a zero interval).
pub(crate) fn next_multiple(cycle: u64, every: u64) -> u64 {
    let passed = cycle.checked_div(every);
    passed.map_or(u64::MAX, |n| (n + 1).saturating_mul(every))
}

/// A simulated J-Machine.
pub struct JMachine {
    program: Arc<Program>,
    config: MachineConfig,
    nodes: Vec<MdpNode>,
    /// The network — and the machine's one stored clock ([`Network::cycle`]).
    net: Network,
    /// One scheduler per network shard (a single all-covering instance on
    /// the sequential engines), mirroring the network's slab layout.
    scheds: Vec<EventSched>,
    /// The lifecycle trace so far (tracing only): occupancy samples, and
    /// the events merged out of the components' buffers.
    trace: MachineTrace,
    /// The clock at the last merge: every event still buffered is at or
    /// after it.
    trace_from: u64,
    /// Replay recorder: `Some` while this machine is capturing a replay log
    /// (see [`crate::replay`]). `None` on the hot path — every hook below
    /// is a single pointer test.
    pub(crate) recorder: Option<crate::replay::Recorder>,
}

impl fmt::Debug for JMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JMachine")
            .field("nodes", &self.nodes.len())
            .field("cycle", &self.cycle())
            .finish_non_exhaustive()
    }
}

impl JMachine {
    /// Boots a machine with `program` loaded on every node.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation (assembled programs are
    /// always valid), or if the configuration is rejected (see
    /// [`JMachine::try_new`] for the fallible form).
    pub fn new(program: Program, config: MachineConfig) -> JMachine {
        JMachine::try_new(program, config).expect("unbuildable machine")
    }

    /// Boots a machine with `program` loaded on every node, reporting a
    /// bad program or configuration instead of panicking.
    ///
    /// # Errors
    ///
    /// [`MachineError::InvalidProgram`] when the image fails
    /// [`Program::validate`] (assembled programs are always valid), and
    /// [`MachineError::InvalidConfig`], naming the field,
    /// when `net.dims` differs from `dims`, tracing is on with a zero
    /// `trace.sample_every`, or the crate that owns a field rejects its
    /// value ([`NetConfig::validate`](jm_net::NetConfig::validate),
    /// [`TrafficSpec::validate`](jm_traffic::TrafficSpec::validate)) — before
    /// anything is allocated.
    pub fn try_new(program: Program, config: MachineConfig) -> Result<JMachine, MachineError> {
        program.validate().map_err(MachineError::InvalidProgram)?;
        let mut config = config;
        // The fields are public, so a hand-built struct gets here. Each
        // crate says what its own part of a buildable machine is.
        let buildable = || {
            config.net.validate()?;
            if config.net.dims != config.dims {
                // A network sized for another mesh would route only part
                // of the machine.
                return Err("net.dims differs from dims");
            }
            if config.trace.enabled && config.trace.sample_every == 0 {
                // Samples fall on multiples of the interval.
                return Err("trace.sample_every is zero while tracing");
            }
            config.traffic.map_or(Ok(()), |t| t.validate())
        };
        buildable().map_err(MachineError::InvalidConfig)?;
        // Canonicalize the fault plan: a vacuous spec is no plan at all, so
        // every fault hook below stays on its fault-free path.
        let fault = config.fault.and_then(FaultPlan::from_spec);
        config.mdp.checksum_msgs = fault.is_some_and(|p| p.checksums());
        // Same canonicalization for the synthetic-traffic plan.
        let traffic = config.traffic.and_then(TrafficPlan::from_spec);
        let (slabs, _) = crew_shape(&config);
        let program = Arc::new(program);
        // One table for every node: a copy each would multiply its
        // footprint by the node count (4 096 on a 16³ mesh).
        let code = Code::lower(Arc::clone(&program));
        let mut nodes = config
            .dims
            .iter_nodes()
            .map(|id| {
                let start = match config.start {
                    StartPolicy::AllNodes => true,
                    StartPolicy::Node0 => id.0 == 0,
                    StartPolicy::None => false,
                };
                MdpNode::with_code(id, config.dims, &code, config.mdp, start)
            })
            .collect::<Vec<_>>();
        let mut net = Network::with_shards(config.net, slabs);
        net.set_fault_plan(fault);
        net.set_traffic_plan(traffic);
        if config.trace.enabled {
            net.set_tracing(true);
            for node in &mut nodes {
                node.set_tracing(true);
            }
        }
        let scheds = {
            let (parts, _) = net.shard_parts();
            parts
                .iter()
                .map(|s| EventSched::new(&nodes[s.base()..s.base() + s.len()], s.base()))
                .collect()
        };
        Ok(JMachine {
            program,
            config,
            nodes,
            net,
            scheds,
            trace: MachineTrace {
                nodes: config.nodes(),
                ..MachineTrace::default()
            },
            trace_from: 0,
            recorder: crate::replay::Recorder::from_capture(),
        })
    }

    /// The loaded program image.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current cycle.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.net.cycle()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// A node, by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &MdpNode {
        &self.nodes[id.index()]
    }

    /// Mutable node access (host interface).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut MdpNode {
        &mut self.nodes[id.index()]
    }

    /// The network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Installs a fault vector on every node, resolving `handler` through
    /// the program's symbol table.
    ///
    /// # Panics
    ///
    /// Panics if the label is not a code symbol.
    pub fn install_vector_all(&mut self, kind: FaultKind, handler: &str) {
        let ip = self.program.handler(handler);
        self.host_op(HostOp::InstallVectorAll { kind, ip });
    }

    /// Installs a fault vector on one node, resolving `handler` through the
    /// program's symbol table. The machine-level twin of
    /// [`MdpNode::install_vector`]; host harnesses should prefer this form —
    /// it is captured in replay logs, where direct node pokes are invisible.
    ///
    /// # Panics
    ///
    /// Panics if the label is not a code symbol or `node` is out of range.
    pub fn install_vector(&mut self, node: NodeId, kind: FaultKind, handler: &str) {
        let (node, ip) = (node.0, self.program.handler(handler));
        self.host_op(HostOp::InstallVector { node, kind, ip });
    }

    /// Host interface: delivers a message directly into a node's queue
    /// (bypassing the network, like the prototype's host port).
    ///
    /// # Panics
    ///
    /// Panics if the handler label is unknown.
    pub fn deliver_message(
        &mut self,
        node: NodeId,
        priority: MsgPriority,
        handler: &str,
        args: &[Word],
    ) {
        let ip = self.program.handler(handler);
        let header = MsgHeader::new(ip, args.len() as u32 + 1).to_word();
        // In checksum mode host messages carry the trailer too — the node
        // validates every dispatch, however the message arrived.
        let mut words = Vec::with_capacity(args.len() + 2);
        words.push(header);
        words.extend_from_slice(args);
        if self.config.mdp.checksum_msgs {
            words.push(checksum_words(&words));
        }
        self.host_op(HostOp::Deliver {
            node: node.0,
            priority,
            words,
        });
    }

    /// Host interface: reads a word of node memory.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is past the end of memory, as
    /// [`MdpNode::read_mem`] does.
    pub fn read_word(&self, node: NodeId, addr: u32) -> Word {
        self.nodes[node.index()].read_mem(addr)
    }

    /// Host interface: writes a word of node memory.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is past the end of memory, as
    /// [`MdpNode::write_mem`] does.
    pub fn write_word(&mut self, node: NodeId, addr: u32, word: Word) {
        let node = node.0;
        self.host_op(HostOp::WriteWord { node, addr, word });
    }

    /// One host-boundary input: applied, and logged at the current cycle if
    /// a replay capture is on.
    fn host_op(&mut self, op: HostOp) {
        self.apply_op(&op).unwrap_or_else(|e| panic!("{e}"));
        let cycle = self.cycle();
        if let Some(recorder) = &mut self.recorder {
            recorder.records.push(jm_replay::Record::Op { cycle, op });
        }
    }

    /// What a host op does to the machine: the one body behind the host
    /// interface above and behind replay, which applies logged ops without
    /// re-resolving symbols or recomputing checksums (a log stores resolved
    /// addresses and the delivered words, header and trailer included).
    /// Unlike the host interface it records nothing.
    ///
    /// # Errors
    ///
    /// [`MachineError::QueueFull`], applying nothing, when a delivery has
    /// more words than its queue has room for.
    ///
    /// # Panics
    ///
    /// Panics if the op names a node the machine does not have
    /// (`ReplayLog::from_bytes` checks a logged op's node id, address and
    /// length).
    pub fn apply_op(&mut self, op: &HostOp) -> Result<(), MachineError> {
        match *op {
            HostOp::InstallVectorAll { kind, ip } => {
                for node in &mut self.nodes {
                    node.install_vector(kind, ip);
                }
            }
            HostOp::InstallVector { node, kind, ip } => {
                self.nodes[node as usize].install_vector(kind, ip);
            }
            HostOp::WriteWord { node, addr, word } => {
                self.nodes[node as usize].write_mem(addr, word);
            }
            HostOp::Deliver {
                node,
                priority,
                ref words,
            } => {
                let cycle = self.cycle();
                let target = &mut self.nodes[node as usize];
                if words.len() > target.queue_room(priority) {
                    let node = NodeId(node);
                    return Err(MachineError::QueueFull {
                        cycle,
                        node,
                        priority,
                    });
                }
                // Host deliveries bypass the network and carry no trace id.
                for &w in words {
                    target.deliver_traced(priority, w, TraceId::NONE, cycle);
                }
                let k = self.net.shard_of_node(NodeId(node));
                let (shards, _) = self.net.shard_parts();
                hand_over(&mut shards[k], target);
                self.scheds[k].wake(target, cycle);
            }
        }
        Ok(())
    }

    /// Host interface: reads a whole named data block from one node.
    ///
    /// # Panics
    ///
    /// Panics if the program has no such block.
    pub fn read_block(&self, node: NodeId, name: &str) -> Vec<Word> {
        let block = self
            .program
            .data
            .iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("no data block `{name}`"));
        self.nodes[node.index()].dump_mem(block.base, block.len)
    }

    /// One cycle under the configured engine's sequential stepper: ejected
    /// words are pumped into the queues, nodes act, and the network moves
    /// flits. The sharded engines' nodes may run on up to `stop`.
    fn step_cycle(&mut self, stop: u64) {
        match self.config.engine {
            Engine::Naive => self.step_naive(),
            Engine::Event | Engine::Parallel(_) => self.step_event(stop),
        }
    }

    /// First boundary strictly after the current cycle: the next occupancy
    /// sample (tracing), replay hash boundary (capturing) or — while a node
    /// error is latched — multiple of [`QUANTUM`], where the error stops
    /// the drive; `u64::MAX` with none of them on. The drive loop ends
    /// every leg there.
    fn next_boundary(&self) -> u64 {
        // A zero interval has no multiple to reach.
        let (now, trace) = (self.cycle(), self.config.trace);
        let sample = next_multiple(now, if trace.enabled { trace.sample_every } else { 0 });
        let error = next_multiple(now, if self.error_latched() { QUANTUM } else { 0 });
        sample.min(error).min(self.next_hash_boundary())
    }

    /// Whether a node has stopped with an error. O(slabs).
    fn error_latched(&self) -> bool {
        self.scheds.iter().any(|s| !s.errored.is_empty())
    }

    /// The one post-leg hook: records whatever boundary the clock just
    /// landed on — an occupancy sample, a replay checkpoint — however the
    /// machine got there (stepped, skipped, or driven by the crew). Pure
    /// observation: reads counters every engine already maintains. A
    /// sample with a batch of events buffered also merges them into the
    /// trace: every component has simulated every cycle before this one,
    /// so whatever it emits from here on comes later.
    fn observe_boundary(&mut self) {
        let trace = self.config.trace;
        let cycle = self.cycle();
        if trace.enabled && cycle.is_multiple_of(trace.sample_every) {
            let queued_words: u64 = self.nodes.iter().map(|n| n.queued_words() as u64).sum();
            self.trace.samples.push(SamplePoint {
                cycle,
                queued_words,
                in_flight: self.net.in_flight(),
                active_routers: self.net.active_routers(),
                busy_nodes: self.busy_nodes(),
            });
            let buffered = self.net.tracers_mut().map(|t| t.len());
            if buffered.sum::<usize>() >= TRACE_BATCH {
                self.merge_trace(self.trace_from..cycle);
            }
        }
        self.checkpoint();
    }

    /// Drains the buffered events in `cycles` into the trace; the next
    /// merge starts at the current cycle.
    fn merge_trace(&mut self, cycles: impl RangeBounds<u64>) {
        self.trace.merge(self.net.tracers_mut(), cycles);
        self.trace_from = self.cycle();
    }

    /// Reference engine: pump, tick, and scan everything, every cycle. What
    /// pumping and visiting *are* is the engines' shared code
    /// ([`pump_node`], [`visit`]); which nodes get pumped and ticked is
    /// this engine's own answer — all of them.
    fn step_naive(&mut self) {
        let now = self.cycle();
        let (shards, _) = self.net.shard_parts();
        let [shard] = shards else {
            unreachable!("the naive engine runs the mesh as one shard");
        };
        let traced = shard.tracer_mut().is_some();
        // 1. Pump ejection FIFOs into message queues.
        for node in &mut self.nodes {
            pump_node(shard, node, now, traced);
        }
        // 2. Execute one cycle each, latching errors where the drive loop
        //    looks for them.
        for (l, node) in self.nodes.iter_mut().enumerate() {
            visit(shard, node, now, now + 1, traced);
            if node.error().is_some() {
                self.scheds[0].record_error(l);
            }
        }
        // 3. Move the network, and the clock with it.
        self.net.step();
    }

    /// Event engine step: touch only nodes that can act this cycle.
    /// Cycle-exact with [`Self::step_naive`] — skipped nodes are exactly
    /// those whose naive tick would be a no-op (still busy) or a pure idle
    /// count (the gap their next tick claims), and skipped routers hold no
    /// flits. It is the per-shard code the worker threads run, on the one
    /// shard that covers the mesh: a machine cut into several is threaded,
    /// and [`Self::drive`] hands it to [`Self::drive_parallel`].
    fn step_event(&mut self, stop: u64) {
        let now = self.cycle();
        let (shards, _) = self.net.shard_parts();
        let [shard] = shards else {
            unreachable!("a machine of several shards is driven by its crew");
        };
        let nodes = &mut self.nodes;
        crate::parallel::shard_cycle(now, stop, shard, &mut self.scheds[0], nodes, None, None);
        self.net.advance_to(now + 1);
    }

    /// Hands the machine to its crew of worker threads ([`crew_shape`])
    /// until the clock reaches `stop` or — when `until_quiescent` — the
    /// crew's decision at a multiple of [`QUANTUM`] stops them earlier (see
    /// [`crate::parallel`]), then sets the clock to where the crew stopped.
    /// Only called with more than one shard.
    fn drive_parallel(&mut self, stop: u64, until_quiescent: bool) {
        let start = self.cycle();
        let (_, workers) = crew_shape(&self.config);
        let (shards, edges) = self.net.shard_parts();
        let ctl = crate::parallel::QuantumCtl::new(shards.len(), stop, until_quiescent, start);
        let mut slots = Vec::with_capacity(shards.len());
        let mut nodes_rest: &mut [MdpNode] = &mut self.nodes;
        for (shard, sched) in shards.iter_mut().zip(&mut self.scheds) {
            let (nodes, rest) = std::mem::take(&mut nodes_rest).split_at_mut(shard.len());
            nodes_rest = rest;
            slots.push(std::sync::Mutex::new(crate::parallel::ShardSlot::new(
                shard, sched, nodes,
            )));
        }
        std::thread::scope(|scope| {
            let ctl = &ctl;
            let slots = &slots;
            for me in 1..workers {
                scope.spawn(move || crate::parallel::crew_loop(me, workers, slots, edges, ctl));
            }
            // The calling thread joins the crew instead of idling.
            crate::parallel::crew_loop(0, workers, slots, edges, ctl);
        });
        self.net.advance_to(ctl.final_cycle());
    }

    /// Whether this machine runs multi-threaded: cut into more than one
    /// slab ([`crew_shape`]; a 1-thread parallel machine degenerates to the
    /// event engine's sequential path).
    fn threaded(&self) -> bool {
        crew_shape(&self.config).0 > 1
    }

    /// Runs for a fixed number of cycles.
    pub fn run(&mut self, cycles: u64) {
        self.drive(self.cycle().saturating_add(cycles), false);
    }

    /// Whether nothing can happen anymore: every node idle with empty
    /// queues, the network drained, and no traffic window still ahead (a
    /// machine whose plan can still generate messages is not finished,
    /// however idle it looks right now). A full scan — the drive loop's
    /// own answer is `head`'s, from maintained counters.
    pub fn is_quiescent(&self) -> bool {
        self.net.traffic_wake() == u64::MAX
            && self.net.is_idle()
            && self.nodes.iter().all(|n| !n.has_work())
    }

    /// Nodes that stopped with an error.
    pub fn node_errors(&self) -> Vec<(NodeId, NodeError)> {
        self.nodes
            .iter()
            .filter_map(|n| n.error().map(|e| (n.id(), e.clone())))
            .collect()
    }

    /// Nodes that still have runnable or queued work.
    fn busy_nodes(&self) -> u32 {
        match self.config.engine {
            Engine::Naive => self.nodes.iter().filter(|n| n.has_work()).count() as u32,
            Engine::Event | Engine::Parallel(_) => {
                self.scheds.iter().map(|s| s.has_work.count() as u32).sum()
            }
        }
    }

    /// Runs until quiescence, a node error, or the cycle budget, and stops
    /// on the same cycle under every engine: the cycle quiescence sets in,
    /// the budget's last, or — after a node error, while every other node
    /// runs on — the first multiple of 64 cycles after it (the budget's
    /// last, if that comes first). On the event engine each check is O(1)
    /// and runs of cycles where nothing can happen are skipped outright.
    ///
    /// # Errors
    ///
    /// [`MachineError::NodeErrors`] if any node stopped on a fatal error,
    /// [`MachineError::Timeout`] if the budget elapsed, and
    /// [`MachineError::StrandedMessages`] if the machine quiesced with
    /// words still queued at halted/errored nodes.
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> Result<u64, MachineError> {
        let start = self.cycle();
        match self.drive(start.saturating_add(max_cycles), true) {
            Stop::NodeError => Err(MachineError::NodeErrors(self.node_errors())),
            Stop::Quiescent => {
                let stranded: Vec<NodeId> = self
                    .nodes
                    .iter()
                    .filter(|n| n.queued_words() > 0)
                    .map(|n| n.id())
                    .collect();
                if !stranded.is_empty() {
                    return Err(MachineError::StrandedMessages { nodes: stranded });
                }
                Ok(self.cycle() - start)
            }
            Stop::Deadline => Err(MachineError::Timeout {
                cycles: self.cycle() - start,
                busy_nodes: self.busy_nodes(),
                in_flight: self.net.in_flight(),
            }),
        }
    }

    /// What the loop head finds. On a drive toward quiescence the event
    /// engines ask [`head`] and the naive engine applies its [`stop_rule`]
    /// to its own full scan, never skipping; a fixed run stops for nothing
    /// but its deadline, and steps every cycle.
    fn loop_head(&mut self, deadline: u64, until_quiescent: bool) -> Head {
        let now = self.cycle();
        if until_quiescent && self.config.engine != Engine::Naive {
            let (shards, _) = self.net.shard_parts();
            return head(self.scheds.iter().zip(&*shards), now, deadline);
        }
        let error = until_quiescent && self.error_latched();
        let quiet = until_quiescent && self.is_quiescent();
        stop_rule(error, quiet, now, deadline).map_or(Head::Run, Head::Stop)
    }

    /// The one drive loop, and the only place that decides anything:
    /// advances the clock to `deadline`, or — when `until_quiescent` — to
    /// quiescence or a node error's stop before it. Each pass asks the
    /// loop head, then advances one leg: an idle skip, and a single
    /// sequential cycle or, threaded, a whole crew drive. A leg ends at
    /// the deadline or the next boundary ([`Self::next_boundary`]),
    /// whichever comes first, where [`Self::observe_boundary`] records it;
    /// every engine stops on the exact cycle asked for, so that chunking is
    /// unobservable in simulated state.
    fn drive(&mut self, deadline: u64, until_quiescent: bool) -> Stop {
        let threaded = self.threaded();
        loop {
            let stop = deadline.min(self.next_boundary());
            match self.loop_head(deadline, until_quiescent) {
                Head::Stop(Stop::NodeError) => {
                    self.settle();
                    return Stop::NodeError;
                }
                Head::Stop(why) => return why,
                Head::Skip(t) => self.net.skip_to(t.min(stop)),
                Head::Run => {}
            }
            // Short of the boundary — an error's stop is one — a skip ends
            // on a cycle where something is due, so the head's answer there
            // is already known: run.
            if self.cycle() < stop {
                if threaded {
                    self.drive_parallel(stop, until_quiescent);
                } else {
                    self.step_cycle(stop);
                }
            }
            self.observe_boundary();
        }
    }

    /// Settles every node at the current cycle: the one stop no stretch
    /// is bounded by is another node's error, which a stretch begun before
    /// the error latched, or on the crew, may have run on past (DESIGN.md
    /// §4.5, "Stretches"). Its stretch is rewound to the stop and the node
    /// re-filed where it can act again.
    fn settle(&mut self) {
        let now = self.cycle();
        for sched in &mut self.scheds {
            let nodes = &mut self.nodes[sched.base..sched.base + sched.wake_at.len()];
            for node in nodes {
                if node.settle(now) {
                    sched.wake(node, now);
                }
            }
        }
    }

    /// The nodes' host-side stretch counters, summed: how much of the
    /// sharded engines' work ran on past the visits that started it.
    pub fn stretch_stats(&self) -> StretchStats {
        let mut total = StretchStats::default();
        for node in &self.nodes {
            total.merge(&node.stretch_stats());
        }
        total
    }

    /// The nodes' host-side storage counters, summed: SRAM and DRAM pages
    /// and message-queue words their programs have written. Outside
    /// [`MachineStats`] and every digest; a rewound stretch may leave a
    /// page allocated, so the page counts depend on the engine.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut total = MemoryStats::default();
        for node in &self.nodes {
            total.merge(&node.memory_stats());
        }
        total
    }

    /// The shards' host-side bulk-advance counters, summed: how many
    /// messages whose route no other message in flight contended for took
    /// the closed-form timing law, how many of them were turned back into
    /// buffered flits, the flit moves the law made, and the most it carried
    /// at once.
    pub fn bulk_stats(&self) -> BulkStats {
        self.net.bulk_stats()
    }

    /// Aggregated statistics snapshot.
    ///
    /// A node an engine left unticked while it could do nothing has not yet
    /// claimed those cycles; they are added here as its
    /// [`MdpNode::idle_owed`], so the snapshot is what the naive engine
    /// (which owes nothing: it ticks every node every cycle) reports at the
    /// same cycle. Per node the exact statement is `node.stats()` plus
    /// `node.idle_owed(now)` idle cycles.
    pub fn stats(&self) -> MachineStats {
        let now = self.cycle();
        let mut nodes = jm_mdp::NodeStats::default();
        for node in &self.nodes {
            nodes.merge(node.stats());
            // `idle_owed` debug-asserts the ledger on the way: a live
            // node's counters reach its `busy_until`, the rest is owed.
            nodes.add_cycles(StatClass::Idle, node.idle_owed(now));
        }
        MachineStats {
            cycles: now,
            nodes,
            net: self.net.stats(),
        }
    }

    /// Collects the machine's lifecycle trace: every component's events in
    /// one deterministically-ordered [`MachineTrace`], plus the periodic
    /// occupancy samples. Most events were merged during the run (a sample
    /// with a batch buffered merges it); this merges the rest. Returns
    /// `None` when the machine was built with tracing disabled. Taking is
    /// destructive — a second call covers only what happened since, and two
    /// calls around a stop of the run concatenate to what one would return.
    pub fn take_trace(&mut self) -> Option<MachineTrace> {
        if !self.config.trace.enabled {
            return None;
        }
        debug_assert!(
            (self.nodes.iter_mut()).all(|n| n.tracer_mut().is_none_or(|t| t.is_empty())),
            "a node kept lifecycle events its slab was never handed"
        );
        self.merge_trace(self.trace_from..);
        let fresh = MachineTrace {
            nodes: self.node_count(),
            ..MachineTrace::default()
        };
        Some(std::mem::replace(&mut self.trace, fresh))
    }

    /// The architectural state at the current cycle: every node's, then
    /// every router's — what the engines are required to agree on. Engine
    /// bookkeeping (schedulers, statistics, traces) is not state, so equal
    /// machine states compare equal under *any* engine or thread count.
    /// Takes `&mut self` because in-flight bulk wormhole transfers are
    /// first materialized to their exact buffered equivalent (a
    /// semantically invisible canonicalization; see `jm-net`).
    pub fn arch_state(&mut self) -> ArchState {
        let at = self.cycle();
        let nodes = self.nodes.iter().map(|n| n.arch_state(at)).collect();
        let routers = self.net.arch_state().collect();
        ArchState { nodes, routers }
    }

    /// The state hash at the current cycle: the fold of
    /// [`Self::arch_state`], every node's state and then every router's,
    /// each built, folded and dropped in turn.
    pub fn state_hash(&mut self) -> u64 {
        let at = self.cycle();
        let mut h = jm_trace::Fnv1a::new();
        self.nodes
            .iter()
            .for_each(|n| n.arch_state(at).fold(&mut h));
        self.net.arch_state().for_each(|r| r.fold(&mut h));
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_asm::{hdr, Builder, Region};
    use jm_isa::instr::{AluOp, StatClass};
    use jm_isa::node::MeshDims;
    use jm_isa::operand::{MemRef, Special};
    use jm_isa::reg::AReg::*;
    use jm_isa::reg::DReg::*;
    use jm_isa::tag::Tag;

    /// Node 0 sends an increment request to node (1,1,3) — the last node of
    /// a 2×2×4 mesh, in the other slab of its two-slab cut; that node
    /// replies with the incremented value; node 0 stores it.
    fn rpc_program() -> Program {
        let mut b = Builder::new();
        b.reserve("out", Region::Imem, 1);

        b.label("main");
        b.movi(R0, 0xC21);
        b.wtag(R0, R0, Tag::Route.bits() as i32);
        b.send(MsgPriority::P0, R0);
        b.send2(MsgPriority::P0, hdr("incr", 3), 41);
        b.sende(MsgPriority::P0, Special::Nnr); // reply route
        b.suspend();

        b.label("incr");
        b.mov(R0, MemRef::disp(A3, 1)); // value
        b.addi(R0, R0, 1);
        b.send(MsgPriority::P0, MemRef::disp(A3, 2)); // reply route word
        b.send2e(MsgPriority::P0, hdr("store", 2), R0);
        b.suspend();

        b.label("store");
        b.mov(R0, MemRef::disp(A3, 1));
        b.load_seg(A0, "out");
        b.mov(MemRef::disp(A0, 0), R0);
        b.suspend();

        b.entry("main");
        b.assemble().unwrap()
    }

    #[test]
    fn end_to_end_rpc() {
        let mut m = JMachine::new(rpc_program(), MachineConfig::new(16));
        let cycles = m.run_until_quiescent(10_000).unwrap();
        let out = m.program().segment("out");
        assert_eq!(m.read_word(NodeId(0), out.base).as_i32(), 42);
        // Whole exchange should take tens of cycles, not thousands.
        assert!(cycles < 200, "RPC took {cycles} cycles");
        let stats = m.stats();
        assert_eq!(stats.nodes.msgs_sent, 2);
        assert_eq!(stats.nodes.msgs_received, 2);
        assert_eq!(stats.net.delivered_msgs, 2);
    }

    #[test]
    fn next_due_is_the_minimum_over_scheduled_nodes() {
        let m = JMachine::new(rpc_program(), MachineConfig::new(128));
        // A slab's scheduler: 96 nodes, two words of live set.
        let mut sched = EventSched::new(&m.nodes[32..], 32);
        assert_eq!(sched.next_due(), 0, "every node starts scheduled for 0");
        for l in 0..96 {
            sched.park(l);
        }
        assert_eq!(sched.next_due(), u64::MAX, "all parked");
        for (l, at) in [(70, 900), (3, 17), (95, 40), (64, 17), (0, 5000)] {
            sched.schedule(l, at);
        }
        assert_eq!(sched.next_due(), 17);
        // A re-scheduled node moves; a parked one no longer counts.
        sched.schedule(3, 1000);
        sched.park(64);
        assert_eq!(sched.next_due(), 40);
        assert_eq!(sched.live.count(), 4);
    }

    #[test]
    fn head_ranks_its_answers() {
        // Two hand-built slabs of a 2×2×4 mesh and their schedulers, every
        // node parked: nothing the head reads is set.
        let dims = MeshDims::new(2, 2, 4);
        let cfg = MachineConfig::with_dims(dims).start(StartPolicy::None);
        let boot = JMachine::new(rpc_program(), cfg);
        let slabs = |traffic: Option<jm_traffic::TrafficSpec>| {
            let mut net = Network::with_shards(cfg.net, 2);
            net.set_traffic_plan(traffic.and_then(TrafficPlan::from_spec));
            let (parts, _) = net.shard_parts();
            let mut scheds: Vec<EventSched> = parts
                .iter()
                .map(|s| EventSched::new(&boot.nodes[s.base()..s.base() + s.len()], s.base()))
                .collect();
            for sched in &mut scheds {
                (0..8).for_each(|l| sched.park(l));
            }
            (net, scheds)
        };
        let ask = |net: &mut Network, scheds: &[EventSched], now, deadline| {
            let (parts, _) = net.shard_parts();
            head(scheds.iter().zip(&*parts), now, deadline)
        };
        let msg = |to| {
            let route = jm_isa::node::RouteWord::new(dims.coord(NodeId(to))).to_word();
            [route, MsgHeader::new(0, 1).to_word()]
        };
        let (stop, quiescent) = (Head::Stop, Stop::Quiescent);

        // Nothing anywhere: quiescent, even past the deadline.
        let (mut net, mut scheds) = slabs(None);
        assert_eq!(ask(&mut net, &scheds, 5, 100), stop(quiescent));
        assert_eq!(ask(&mut net, &scheds, 100, 100), stop(quiescent));
        // A node with work, scheduled later, under an idle network: skip to
        // its wake-up — the earliest over the slabs, capped at the deadline
        // — and run once the clock is there; the deadline beats the skip.
        scheds[1].set_work(4, true);
        scheds[1].schedule(4, 40);
        assert_eq!(ask(&mut net, &scheds, 5, 100), Head::Skip(40));
        scheds[0].schedule(3, 30);
        assert_eq!(ask(&mut net, &scheds, 5, 100), Head::Skip(30));
        assert_eq!(ask(&mut net, &scheds, 5, 20), Head::Skip(20));
        assert_eq!(ask(&mut net, &scheds, 30, 100), Head::Run);
        assert_eq!(ask(&mut net, &scheds, 20, 20), stop(Stop::Deadline));
        // A flit anywhere forbids the skip, and quiescence.
        let sent = net.commit_msg(NodeId(0), MsgPriority::P0, &msg(15));
        assert_eq!(sent, jm_net::InjectResult::Accepted);
        assert_eq!(ask(&mut net, &scheds, 5, 100), Head::Run);
        scheds[1].set_work(4, false);
        assert_eq!(ask(&mut net, &scheds, 5, 100), Head::Run);
        assert_eq!(ask(&mut net, &scheds, 100, 100), stop(Stop::Deadline));
        // An error beats everything on a multiple of the quantum or at the
        // deadline; in between the machine runs on.
        scheds[0].record_error(2);
        assert_eq!(ask(&mut net, &scheds, 100, 100), stop(Stop::NodeError));
        assert_eq!(ask(&mut net, &scheds, 64, 100), stop(Stop::NodeError));
        assert_eq!(ask(&mut net, &scheds, 65, 100), Head::Run);
        // Nor is a machine with an error latched ever quiescent: it skips,
        // and the drive cuts the skip at the quantum's next multiple.
        let (mut net, mut scheds) = slabs(None);
        scheds[1].record_error(1);
        assert_eq!(ask(&mut net, &scheds, 5, 100), Head::Skip(100));
        assert_eq!(ask(&mut net, &scheds, 128, 200), stop(Stop::NodeError));

        // A traffic window still ahead defers quiescence and bounds the
        // skip like a scheduled wake-up; once it has passed it does neither.
        // (At one flit per node per million cycles the window stays empty.)
        let window = jm_traffic::TrafficSpec::new(1).load(1).window(50, 60);
        let (mut net, mut scheds) = slabs(Some(window));
        assert_eq!(ask(&mut net, &scheds, 5, 100), Head::Skip(50));
        scheds[0].set_work(3, true);
        scheds[0].schedule(3, 70);
        assert_eq!(ask(&mut net, &scheds, 5, 100), Head::Skip(50));
        assert_eq!(ask(&mut net, &scheds, 5, 45), Head::Skip(45));
        net.skip_to(50);
        assert_eq!(ask(&mut net, &scheds, 50, 100), Head::Run);
        for _ in 0..10 {
            net.step();
        }
        assert!(net.is_idle(), "the window fired");
        assert_eq!(ask(&mut net, &scheds, 60, 100), Head::Skip(70));
        scheds[0].set_work(3, false);
        assert_eq!(ask(&mut net, &scheds, 60, 100), stop(quiescent));
    }

    #[test]
    fn parallel_one_is_the_event_engine() {
        // One worker gets one slab and no crew: the differential suites
        // need no `Parallel(1)` column, it would run `Event` twice.
        let run = |engine| {
            let mut m = JMachine::new(rpc_program(), MachineConfig::new(64).engine(engine));
            assert_eq!(m.network().shard_count(), 1);
            assert!(!m.threaded());
            let outcome = m.run_until_quiescent(10_000).unwrap();
            (outcome, m.stats(), m.state_hash())
        };
        assert_eq!(run(Engine::Parallel(1)), run(Engine::Event));
    }

    #[test]
    fn faulted_rpc_completes_and_engines_agree() {
        // A lossless delay plan (flaky links) plus checksum trailers: the
        // RPC must still produce the right answer on every engine, with
        // bit-identical statistics, while the plan demonstrably interfered.
        let spec = jm_fault::FaultSpec::new(99).flaky(200_000).checksums(true);
        let mut reference: Option<(u64, MachineStats)> = None;
        for engine in [Engine::Naive, Engine::Event, Engine::Parallel(2)] {
            let cfg = MachineConfig::new(16).engine(engine).fault(spec);
            let mut m = JMachine::new(rpc_program(), cfg);
            if engine == Engine::Parallel(2) {
                assert_eq!(m.network().shard_count(), 2, "no crew");
            }
            let cycles = m.run_until_quiescent(100_000).unwrap();
            let out = m.program().segment("out");
            assert_eq!(m.read_word(NodeId(0), out.base).as_i32(), 42);
            let stats = m.stats();
            assert!(
                stats.net.faults.blocked_moves > 0,
                "plan injected nothing on {engine:?}"
            );
            assert_eq!(stats.net.delivered_msgs, 2);
            match &reference {
                None => reference = Some((cycles, stats)),
                Some((c, s)) => {
                    assert_eq!(cycles, *c, "{engine:?} cycle count diverged");
                    assert_eq!(&stats, s, "{engine:?} stats diverged");
                }
            }
        }
    }

    #[test]
    fn vacuous_fault_spec_is_fault_free() {
        let mut clean = JMachine::new(rpc_program(), MachineConfig::new(16));
        let clean_cycles = clean.run_until_quiescent(10_000).unwrap();
        let cfg = MachineConfig::new(16).fault(jm_fault::FaultSpec::none());
        let mut vacuous = JMachine::new(rpc_program(), cfg);
        let vac_cycles = vacuous.run_until_quiescent(10_000).unwrap();
        assert_eq!(clean_cycles, vac_cycles);
        assert_eq!(clean.stats(), vacuous.stats());
        // No plan was materialized, so no checksum trailers either.
        assert!(!vacuous.config().mdp.checksum_msgs);
    }

    #[test]
    fn host_delivery_and_block_read() {
        let mut b = Builder::new();
        b.reserve("out", Region::Imem, 4);
        b.label("fill");
        b.load_seg(A0, "out");
        b.movi(R0, 0);
        b.label("loop");
        b.mov(MemRef::reg(A0, R0), R0);
        b.addi(R0, R0, 1);
        b.alu(AluOp::Lt, R1, R0, 4);
        b.bt(R1, "loop");
        b.suspend();
        let p = b.assemble().unwrap();
        let mut m = JMachine::new(p, MachineConfig::new(1).start(StartPolicy::None));
        m.deliver_message(NodeId(0), MsgPriority::P0, "fill", &[]);
        m.run_until_quiescent(10_000).unwrap();
        let block = m.read_block(NodeId(0), "out");
        let values: Vec<i32> = block.iter().map(|w| w.as_i32()).collect();
        assert_eq!(values, vec![0, 1, 2, 3]);
    }

    #[test]
    fn timeout_reports_busy_state() {
        let mut b = Builder::new();
        b.label("spin");
        b.br("spin");
        b.entry("spin");
        let mut m = JMachine::new(b.assemble().unwrap(), MachineConfig::new(1));
        match m.run_until_quiescent(100) {
            Err(MachineError::Timeout { busy_nodes, .. }) => assert_eq!(busy_nodes, 1),
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn node_error_surfaces() {
        let mut b = Builder::new();
        b.label("main");
        b.alu(AluOp::Div, R0, 1, 0); // no vector installed
        b.halt();
        b.entry("main");
        let mut m = JMachine::new(b.assemble().unwrap(), MachineConfig::new(1));
        match m.run_until_quiescent(1000) {
            Err(MachineError::NodeErrors(errors)) => {
                assert_eq!(errors.len(), 1);
                assert!(matches!(errors[0].1, NodeError::UnhandledFault { .. }));
            }
            other => panic!("expected node error, got {other:?}"),
        }
    }

    #[test]
    fn all_nodes_policy_runs_everywhere() {
        let mut b = Builder::new();
        b.reserve("out", Region::Imem, 1);
        b.label("main");
        b.load_seg(A0, "out");
        b.mov(MemRef::disp(A0, 0), Special::Nid);
        b.halt();
        b.entry("main");
        let p = b.assemble().unwrap();
        let out = p.segment("out");
        let mut m = JMachine::new(p, MachineConfig::new(8).start(StartPolicy::AllNodes));
        m.run_until_quiescent(10_000).unwrap();
        for id in 0..8 {
            assert_eq!(m.read_word(NodeId(id), out.base).as_i32(), id as i32);
        }
        // Every node spent dispatch-free compute time; idle only at the end.
        let stats = m.stats();
        assert!(stats.class_fraction(StatClass::Compute) > 0.0);
    }

    #[test]
    fn stranded_messages_detected() {
        let mut b = Builder::new();
        b.label("main");
        b.halt();
        b.label("never");
        b.suspend();
        b.entry("main");
        let p = b.assemble().unwrap();
        let mut m = JMachine::new(p, MachineConfig::new(1));
        // Halt the node, then deliver a message nobody will handle.
        m.run_until_quiescent(1000).unwrap();
        m.deliver_message(NodeId(0), MsgPriority::P0, "never", &[]);
        match m.run_until_quiescent(1000) {
            Err(MachineError::StrandedMessages { nodes }) => assert_eq!(nodes, vec![NodeId(0)]),
            other => panic!("expected stranded, got {other:?}"),
        }
    }

    #[test]
    fn unbuildable_configs_are_errors() {
        let ok = MachineConfig::new(64);
        let net = |edit: fn(&mut jm_net::NetConfig)| {
            let mut cfg = ok;
            edit(&mut cfg.net);
            cfg
        };
        let traffic = |edit: fn(&mut jm_traffic::TrafficSpec)| {
            let mut spec = jm_traffic::TrafficSpec::new(1).load(100_000);
            edit(&mut spec);
            ok.traffic(spec)
        };
        // `MeshDims`' fields are public: a zero or oversized extent can be
        // written straight into the struct, past `MeshDims::new`.
        let mut flat = ok;
        flat.dims.z = 0;
        flat.net.dims.z = 0;
        let mut deep = ok;
        deep.dims.x = 32;
        deep.net.dims.x = 32;
        let cases = [
            (flat, "must be in 1..=31"),
            (deep, "must be in 1..=31"),
            // A network sized for another mesh would route only part of
            // the machine.
            (net(|n| n.dims = MeshDims::new(2, 2, 2)), "net.dims"),
            // Samples fall on multiples of the interval. The builder and
            // the CLI refuse zero; a hand-built struct gets past both.
            (
                ok.trace(crate::TraceConfig {
                    enabled: true,
                    sample_every: 0,
                }),
                "trace.sample_every",
            ),
            // Every generated message is led by a header of its length.
            (
                traffic(|t| t.msg_words = MsgHeader::MAX_LEN + 1),
                "traffic.msg_words",
            ),
        ];
        let recorded = {
            let mut m = JMachine::new(rpc_program(), ok);
            m.record_replay(64);
            m.finish_replay().unwrap()
        };
        for (cfg, names) in cases {
            match JMachine::try_new(rpc_program(), cfg) {
                Err(MachineError::InvalidConfig(why)) => assert!(why.contains(names), "{why}"),
                Err(other) => panic!("a config with a bad {names}: {other}"),
                Ok(_) => panic!("a config with a bad {names} built a machine"),
            }
            // What the front door refuses, a log header cannot carry in:
            // the reader calls the validators `try_new` calls. (A header
            // holds one set of dims and no trace settings.)
            if cfg.net.dims == cfg.dims && cfg.trace == ok.trace {
                let mut log = recorded.clone();
                log.config.dims = cfg.dims;
                log.traffic = cfg.traffic;
                match jm_replay::ReplayLog::from_bytes(&log.to_bytes()) {
                    Err(e) => assert!(e.to_string().contains(names), "{e}"),
                    Ok(_) => panic!("a header with a bad {names} parsed"),
                }
            }
        }
        // A program is input too: an image whose entry point lies outside
        // its code is an error, not a panic.
        let mut image = rpc_program();
        image.entry = Some(image.code.len() as u32);
        match JMachine::try_new(image, ok) {
            Err(MachineError::InvalidProgram(why)) => assert!(why.contains("entry point"), "{why}"),
            other => panic!("a bad program image: {other:?}"),
        }
        assert!(JMachine::try_new(rpc_program(), ok).is_ok());
    }

    #[test]
    fn oversubscribed_parallel_run_stays_linear() {
        // Regression test for the spin-barrier collapse: with more worker
        // threads than host cores, busy-wait synchronization burned whole
        // scheduling quanta and parallel-4 ran at 0.27x the event engine
        // on the committed 1-CPU bench. The crew design lets whichever
        // thread the OS runs advance *every* slab while task-starved
        // workers escalate spin -> yield -> sleep, so adding threads past
        // the core count may cost only a modest constant factor -- on any
        // host, including a single-core one.
        let spin = || {
            let mut b = Builder::new();
            b.label("spin");
            b.br("spin");
            b.entry("spin");
            b.assemble().unwrap()
        };
        let wall = |threads: u32| {
            let mut m = JMachine::new(
                spin(),
                MachineConfig::new(16)
                    .start(StartPolicy::AllNodes)
                    .engine(Engine::Parallel(threads)),
            );
            let t0 = std::time::Instant::now();
            m.run(150_000);
            assert_eq!(m.cycle(), 150_000);
            t0.elapsed()
        };
        let p1 = wall(1);
        let p4 = wall(4);
        assert!(
            p4 < p1 * 4 + std::time::Duration::from_millis(250),
            "parallel-4 degraded super-linearly vs parallel-1: {p4:?} vs {p1:?}"
        );
    }
}
