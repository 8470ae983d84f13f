//! Replay for [`JMachine`]: capture, re-execution, divergence bisection.
//!
//! The three engines (Naive, Event, Parallel with any thread count) are
//! held bit-identical by differential test suites — but when
//! one of them fails, a bare "digests differ" is undebuggable. A run is
//! therefore recordable as a `jm_replay::ReplayLog` (the format lives in
//! `jm-replay`, below this crate in the dependency order), and this module
//! is everything that touches a machine:
//!
//! * **Recording.** A capturing machine logs every host-boundary input
//!   (vector installs, host message deliveries, memory pokes) stamped with
//!   the cycle it was applied at, plus a combined state hash
//!   ([`JMachine::state_hash`]) at every `interval`-cycle boundary. The
//!   machine's drive loop ends each leg at those boundaries; the
//!   chunking is unobservable in simulated state because every engine can
//!   stop on any exact cycle. Nothing else needs recording — given the
//!   config, the program, the fault spec, and the host inputs, every
//!   engine reproduces the run bit-identically (that is the repo's core
//!   invariant, and the hashes are how a violation is caught and
//!   localized).
//! * **Capture control.** Per machine, [`JMachine::record_replay`] /
//!   [`JMachine::finish_replay`]. Process-wide,
//!   [`capture_replay_from_env`] (reading `JM_REPLAY_CAPTURE`) arms every
//!   subsequently-built machine and writes each machine's log into the
//!   capture directory when it drops — this is how harness binaries
//!   capture replay artifacts from experiments they cannot individually
//!   instrument.
//! * **Re-execution.** A [`MachineFactory`] rebuilds a machine from a
//!   log's recorded configuration — optionally overriding the engine,
//!   which is the whole point of cross-engine verification. [`verify`]
//!   drives one through the log ([`JMachine::run`] stops on the exact
//!   cycle asked for under every engine, which is what makes a
//!   single-cycle probe meaningful) and compares every checkpoint;
//!   [`bisect`] narrows a mismatch to the **first diverging cycle and
//!   field** of the machine's [`ArchState`](crate::ArchState) (e.g.
//!   `cycle 48211, node 17 mem[0x0a12]: 5:int vs 6:int`). A
//!   [`Corruption`] can be attached to a factory to inject a deliberate,
//!   unrecorded single-word divergence at a chosen cycle; the tests use it
//!   to prove the bisector localizes a fault to the exact cycle and word.

use crate::config::{Engine, MachineConfig, StartPolicy};
use crate::machine::{next_multiple, JMachine, MachineError};
use jm_isa::node::NodeId;
use jm_isa::word::Word;
use jm_replay::{Record, RecordedConfig, RecordedEngine, RecordedStart, ReplayLog};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Process-wide capture directive (see [`capture_replay_from_env`]).
struct Capture {
    dir: PathBuf,
    interval: u64,
    seq: AtomicU64,
}

static CAPTURE: OnceLock<Capture> = OnceLock::new();

/// Arms process-wide replay capture from the environment:
/// `JM_REPLAY_CAPTURE` names the capture directory (unset or empty leaves
/// capture off). Every [`JMachine`] built after this call records a replay
/// log with hash boundaries every [`jm_replay::DEFAULT_INTERVAL`] cycles
/// and writes it to `dir/replay-NNNN.jmrp` when the machine is dropped
/// (sequence numbers follow drop order). Returns whether capture was
/// armed. The first arming wins; later calls are ignored — harness
/// binaries call this once, at startup, so CI can capture an entire
/// experiment suite without a flag or a parameter plumbed through every
/// experiment's API.
pub fn capture_replay_from_env() -> bool {
    let dir = match std::env::var("JM_REPLAY_CAPTURE") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => return false,
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "jm-machine: warning: cannot create replay capture dir {}: {e}",
            dir.display()
        );
    }
    let _ = CAPTURE.set(Capture {
        dir,
        interval: jm_replay::DEFAULT_INTERVAL,
        seq: AtomicU64::new(0),
    });
    true
}

/// Per-machine recording state (attached to a [`JMachine`] while it is
/// capturing).
pub(crate) struct Recorder {
    /// Hash-boundary spacing in cycles.
    pub(crate) interval: u64,
    /// Whether the drop handler writes the log into the process-wide
    /// capture directory (global capture) or an explicit
    /// [`JMachine::finish_replay`] is expected (per-machine capture).
    pub(crate) autosave: bool,
    /// Ops and checkpoints accumulated so far, in order.
    pub(crate) records: Vec<Record>,
}

impl Recorder {
    /// A recorder for a freshly-built machine when process-wide capture is
    /// armed, else `None`.
    pub(crate) fn from_capture() -> Option<Recorder> {
        CAPTURE.get().map(|c| Recorder {
            interval: c.interval,
            autosave: true,
            records: Vec::new(),
        })
    }
}

impl JMachine {
    /// Starts capturing a replay log on this machine, with a state-hash
    /// checkpoint every `interval` cycles ([`jm_replay::DEFAULT_INTERVAL`]
    /// is the tuned default). Call before any host op — recording starts
    /// empty. [`Self::finish_replay`] collects the log.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or the machine has already run.
    pub fn record_replay(&mut self, interval: u64) {
        assert!(interval > 0, "replay interval must be positive");
        assert_eq!(
            self.cycle(),
            0,
            "replay capture must start on an unrun machine"
        );
        self.recorder = Some(Recorder {
            interval,
            autosave: false,
            records: Vec::new(),
        });
    }

    /// Stops capturing and returns the finished log (with a final `End`
    /// checkpoint at the current cycle), or `None` if the machine was not
    /// recording.
    pub fn finish_replay(&mut self) -> Option<ReplayLog> {
        self.recorder.as_ref()?;
        let cycle = self.cycle();
        let hash = self.state_hash();
        let rec = self.recorder.take().expect("checked above");
        let mut records = rec.records;
        records.push(Record::End { cycle, hash });
        Some(ReplayLog {
            config: recorded_config(self.config()),
            fault: self.config().fault,
            traffic: self.config().traffic,
            interval: rec.interval,
            program: self.program().clone(),
            records,
        })
    }

    /// First hash boundary strictly after the current cycle (`u64::MAX`
    /// unless capturing): the drive loop ends every leg there.
    pub(crate) fn next_hash_boundary(&self) -> u64 {
        let capturing = self.recorder.as_ref();
        capturing.map_or(u64::MAX, |r| next_multiple(self.cycle(), r.interval))
    }

    /// Records a state-hash checkpoint if the clock just landed on a hash
    /// boundary (no-op unless capturing). Called after every leg of the
    /// drive loop, so a boundary is recorded exactly once however the
    /// machine got there — `run` or `run_until_quiescent`, in any chunks.
    pub(crate) fn checkpoint(&mut self) {
        let cycle = self.cycle();
        let due = |r: &Recorder| cycle.is_multiple_of(r.interval);
        if self.recorder.as_ref().is_some_and(due) {
            let hash = self.state_hash();
            let recorder = self.recorder.as_mut().expect("checked above");
            recorder.records.push(Record::Boundary { cycle, hash });
        }
    }
}

impl Drop for JMachine {
    /// Globally-captured machines write their log on drop — this is what
    /// lets harness binaries capture experiments they cannot individually
    /// instrument, and what preserves a partial log (no `End` record) when
    /// a run dies mid-flight.
    fn drop(&mut self) {
        if std::thread::panicking() || !self.recorder.as_ref().is_some_and(|r| r.autosave) {
            return;
        }
        let Some(log) = self.finish_replay() else {
            return;
        };
        let Some(cap) = CAPTURE.get() else { return };
        let n = cap.seq.fetch_add(1, Ordering::Relaxed);
        let path = cap.dir.join(format!("replay-{n:04}.jmrp"));
        if let Err(e) = log.write_file(&path) {
            eprintln!(
                "jm-machine: warning: failed to write replay log {}: {e}",
                path.display()
            );
        }
    }
}

/// [`MachineConfig`] → the log header's engine-portable subset.
fn recorded_config(c: &MachineConfig) -> RecordedConfig {
    let (engine, threads) = match c.engine {
        Engine::Naive => (RecordedEngine::Naive, 0),
        Engine::Event => (RecordedEngine::Event, 0),
        Engine::Parallel(t) => (RecordedEngine::Parallel, t),
    };
    RecordedConfig {
        dims: c.dims,
        start: match c.start {
            StartPolicy::Node0 => RecordedStart::Node0,
            StartPolicy::AllNodes => RecordedStart::AllNodes,
            StartPolicy::None => RecordedStart::None,
        },
        engine,
        threads,
    }
}

/// Reconstructs the [`MachineConfig`] a log was recorded under (tracing
/// off — it is observational and not part of the recorded run; checksum
/// mode is re-derived from the fault spec at build). This is the
/// configuration [`MachineFactory::recorded`] replays with.
fn recorded_machine_config(log: &ReplayLog) -> MachineConfig {
    let rc = &log.config;
    let mut cfg = MachineConfig::with_dims(rc.dims);
    cfg.start = match rc.start {
        RecordedStart::Node0 => StartPolicy::Node0,
        RecordedStart::AllNodes => StartPolicy::AllNodes,
        RecordedStart::None => StartPolicy::None,
    };
    cfg.engine = match rc.engine {
        RecordedEngine::Naive => Engine::Naive,
        RecordedEngine::Event => Engine::Event,
        RecordedEngine::Parallel => Engine::Parallel(rc.threads),
    };
    cfg.fault = log.fault;
    cfg.traffic = log.traffic;
    cfg
}

/// A deliberate, *unrecorded* single-word memory write injected into a
/// replayed execution: the machine's state at `cycle` (and after) differs
/// from an uncorrupted replay by exactly this write, so bisection must
/// localize the divergence to `cycle` and the word `node N mem[addr]`.
/// This is the test fixture that proves the bisector's localization claim
/// end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corruption {
    /// Cycle the write lands at (state *at* this cycle already differs).
    /// Must be at least 1 — the executions agree at cycle 0 by
    /// construction.
    pub cycle: u64,
    /// Target node.
    pub node: NodeId,
    /// Word address written.
    pub addr: u32,
    /// Value written.
    pub word: Word,
}

/// Builds the machines a replay log is re-executed on. The default replays
/// under the *recorded* configuration; the builder methods override the
/// engine (with thread count) — the cross-engine axis the replay machinery
/// exists to compare — and optionally attach a [`Corruption`]. Bisection
/// restarts from cycle 0 for each probe (machines are not cloneable), so a
/// factory builds `O(log interval)` machines.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineFactory {
    engine: Option<Engine>,
    corruption: Option<Corruption>,
}

impl MachineFactory {
    /// Replays under exactly the recorded configuration.
    pub fn recorded() -> MachineFactory {
        MachineFactory::default()
    }

    /// Overrides the engine (builder style).
    pub fn engine(mut self, engine: Engine) -> MachineFactory {
        self.engine = Some(engine);
        self
    }

    /// Injects an unrecorded memory corruption into every execution this
    /// factory builds (builder style).
    pub fn corrupt(mut self, corruption: Corruption) -> MachineFactory {
        self.corruption = Some(corruption);
        self
    }

    /// A fresh machine at cycle 0, configured per the log header and this
    /// factory's overrides.
    ///
    /// # Panics
    ///
    /// Panics if the log was not read by `ReplayLog::from_bytes` (or
    /// recorded by a machine) and its configuration builds no machine.
    pub fn build(&self, log: &ReplayLog) -> JMachine {
        let mut cfg = recorded_machine_config(log);
        if let Some(e) = self.engine {
            cfg.engine = e;
        }
        let mut m = JMachine::new(log.program.clone(), cfg);
        // A replayed machine never re-captures, even under global capture.
        m.recorder = None;
        m
    }

    /// Advances `m` to exactly `cycle` (no-op if already there), landing
    /// the corruption on the way past its cycle.
    fn advance(&self, m: &mut JMachine, cycle: u64) {
        if let Some(c) = self.corruption {
            if m.cycle() < c.cycle && cycle >= c.cycle {
                m.run(c.cycle - m.cycle());
                m.node_mut(c.node).write_mem(c.addr, c.word);
            }
        }
        m.run(cycle.saturating_sub(m.cycle()));
    }
}

/// The first checkpoint where a re-execution's hash differed from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryMismatch {
    /// Cycle of the last checkpoint that still matched (0 if none did —
    /// both sides start from the same built machine state).
    pub prev_cycle: u64,
    /// Cycle of the first mismatching checkpoint.
    pub cycle: u64,
    /// Hash the log recorded at that checkpoint.
    pub logged: u64,
    /// Hash the re-execution computed.
    pub got: u64,
}

/// Outcome of a [`verify`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Checkpoints compared (stops at the first mismatch).
    pub checked: u64,
    /// Cycle the pass ended at.
    pub end_cycle: u64,
    /// The first mismatch, or `None` for a clean replay.
    pub mismatch: Option<BoundaryMismatch>,
}

impl VerifyReport {
    /// Whether the re-execution matched the log at every checkpoint.
    pub fn clean(&self) -> bool {
        self.mismatch.is_none()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.mismatch {
            None => write!(
                f,
                "clean replay: {} checkpoints matched through cycle {}",
                self.checked, self.end_cycle
            ),
            Some(m) => write!(
                f,
                "hash mismatch at checkpoint cycle {} (logged {:#018x}, got {:#018x}); \
                 last match at cycle {}",
                m.cycle, m.logged, m.got, m.prev_cycle
            ),
        }
    }
}

/// What [`bisect`] concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The target replay matched every checkpoint.
    None,
    /// The target mismatched the log, but so did a fresh run under the
    /// *recorded* configuration — the log itself is wrong (corrupted, or
    /// the recording environment was nondeterministic). `cycle` is the
    /// first checkpoint the recorded configuration cannot reproduce.
    LogMismatch {
        /// First irreproducible checkpoint cycle.
        cycle: u64,
        /// Hash the log recorded there.
        logged: u64,
        /// Hash the recorded configuration reproduces.
        recomputed: u64,
    },
    /// Reference and target executions genuinely diverge.
    Diverged {
        /// First cycle at which the combined hashes differ.
        cycle: u64,
        /// The checkpoint interval the mismatch was narrowed from.
        interval: (u64, u64),
        /// The first field of the machine's state that differs at `cycle`,
        /// with both values ([`ArchState::diff`](crate::ArchState::diff)).
        diff: String,
    },
}

/// Outcome of a [`bisect`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectReport {
    /// The conclusion.
    pub divergence: Divergence,
    /// Fresh executions built while narrowing (2 per halving probe).
    pub probes: u32,
}

impl fmt::Display for BisectReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.divergence {
            Divergence::None => write!(f, "no divergence"),
            Divergence::LogMismatch {
                cycle,
                logged,
                recomputed,
            } => write!(
                f,
                "log mismatch at cycle {cycle}: the recorded configuration reproduces \
                 {recomputed:#018x} but the log says {logged:#018x} (log corrupt, or the \
                 recording was nondeterministic)"
            ),
            Divergence::Diverged {
                cycle,
                interval,
                diff,
            } => write!(
                f,
                "first divergence at cycle {cycle} (bisected from checkpoint interval \
                 ({}, {}]):\n  cycle {cycle}, {diff}",
                interval.0, interval.1
            ),
        }
    }
}

/// The one re-execution of a log: builds a fresh machine from `factory`
/// and walks `log.records` in order, up to the first op stamped after
/// `until` or checkpoint at or after it, applying each host op at its
/// cycle. At each checkpoint on the way, `checkpoint` sees the machine
/// advanced to it and the logged hash, and the walk stops where it returns
/// false. Returns the machine where the walk stopped, or the op it refused
/// ([`JMachine::apply_op`]).
fn walk(
    log: &ReplayLog,
    factory: &MachineFactory,
    until: u64,
    mut checkpoint: impl FnMut(&mut JMachine, u64, u64) -> bool,
) -> Result<JMachine, MachineError> {
    let mut m = factory.build(log);
    for r in &log.records {
        match *r {
            Record::Op { cycle, ref op } if cycle <= until => {
                factory.advance(&mut m, cycle);
                m.apply_op(op)?;
            }
            Record::Boundary { cycle, hash } | Record::End { cycle, hash } if cycle < until => {
                factory.advance(&mut m, cycle);
                if !checkpoint(&mut m, cycle, hash) {
                    break;
                }
            }
            _ => break,
        }
    }
    Ok(m)
}

/// Replays `log` under `factory`'s configuration, comparing the machine's
/// state hash against every recorded checkpoint in order. Stops at the
/// first mismatch.
///
/// # Errors
///
/// [`MachineError::QueueFull`] when a logged host delivery does not fit
/// the queue the replayed run has filled so far.
pub fn verify(log: &ReplayLog, factory: &MachineFactory) -> Result<VerifyReport, MachineError> {
    let (mut checked, mut prev_cycle, mut mismatch) = (0, 0, None);
    let m = walk(log, factory, u64::MAX, |m, cycle, logged| {
        let got = m.state_hash();
        checked += 1;
        if got != logged {
            mismatch = Some(BoundaryMismatch {
                prev_cycle,
                cycle,
                logged,
                got,
            });
            return false;
        }
        prev_cycle = cycle;
        true
    })?;
    Ok(VerifyReport {
        checked,
        end_cycle: m.cycle(),
        mismatch,
    })
}

/// A fresh machine driven through the log to exactly `cycle`, every host
/// op stamped at or before it applied (in recording order) and no
/// checkpoint compared: the probe bisection samples state with.
fn state_at(
    log: &ReplayLog,
    factory: &MachineFactory,
    cycle: u64,
) -> Result<JMachine, MachineError> {
    let mut m = walk(log, factory, cycle, |_, _, _| true)?;
    factory.advance(&mut m, cycle);
    Ok(m)
}

/// Verifies `target` against the log and, on mismatch, narrows the failure
/// to a single cycle and the first field of the state that differs.
///
/// The algorithm: (1) [`verify`] the target; a clean pass is
/// [`Divergence::None`]. (2) Re-verify under `reference` (the *recorded*
/// configuration); if the reference cannot reproduce a checkpoint at or
/// before the target's first mismatch, the log itself is wrong —
/// [`Divergence::LogMismatch`] names that checkpoint's cycle exactly.
/// (3) Otherwise binary-search the mismatching checkpoint interval
/// `(a, b]`: each probe rebuilds both machines from cycle 0 and drives
/// them to the midpoint (every engine can stop on any exact cycle, so the
/// probe is bit-exact), until the first cycle where the state hashes
/// differ; [`ArchState::diff`](crate::ArchState::diff) of the two states
/// at that cycle names the first field that differs, with both values.
///
/// # Errors
///
/// As [`verify`], from either side.
pub fn bisect(
    log: &ReplayLog,
    reference: &MachineFactory,
    target: &MachineFactory,
) -> Result<BisectReport, MachineError> {
    let tv = verify(log, target)?;
    let Some(tm) = tv.mismatch else {
        return Ok(BisectReport {
            divergence: Divergence::None,
            probes: 0,
        });
    };
    let rv = verify(log, reference)?;
    if let Some(rm) = rv.mismatch {
        if rm.cycle <= tm.cycle {
            return Ok(BisectReport {
                divergence: Divergence::LogMismatch {
                    cycle: rm.cycle,
                    logged: rm.logged,
                    recomputed: rm.got,
                },
                probes: 0,
            });
        }
    }
    // Hashes agree at tm.prev_cycle (both replays matched the log there)
    // and differ at tm.cycle. Halve until the bounds are adjacent.
    let (mut lo, mut hi) = (tm.prev_cycle, tm.cycle);
    let mut probes = 0;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let r = state_at(log, reference, mid)?.state_hash();
        let t = state_at(log, target, mid)?.state_hash();
        probes += 2;
        if r == t {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let r = state_at(log, reference, hi)?.arch_state();
    let t = state_at(log, target, hi)?.arch_state();
    probes += 2;
    Ok(BisectReport {
        divergence: Divergence::Diverged {
            cycle: hi,
            interval: (tm.prev_cycle, tm.cycle),
            diff: r.diff(&t).expect("states whose hashes differ differ"),
        },
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_asm::{hdr, Builder, Region};
    use jm_isa::consts::FaultKind;
    use jm_isa::instr::MsgPriority;
    use jm_isa::node::MeshDims;
    use jm_isa::operand::{MemRef, Special};
    use jm_isa::reg::AReg::*;
    use jm_isa::reg::DReg::*;
    use jm_isa::tag::Tag;

    /// Route word of the far corner of a 2×2×2 mesh, (1,1,1).
    const CORNER: i32 = 0x421;
    /// Route word of the far corner of a 2×2×4 mesh, (1,1,3): the mesh the
    /// parallel engine cuts into two slabs, with node 0 in the other one.
    const FAR_SLAB: i32 = 0xC21;

    /// Node 0 ping-pongs a counter with the node at `route` `rounds` times,
    /// then stores it — enough traffic to keep routers and queues busy
    /// across many hash boundaries.
    fn pingpong(route: i32, rounds: i32) -> jm_asm::Program {
        let mut b = Builder::new();
        b.reserve("out", Region::Imem, 1);
        b.label("main");
        b.movi(R0, route);
        b.wtag(R0, R0, Tag::Route.bits() as i32);
        b.send(jm_isa::instr::MsgPriority::P0, R0);
        b.send2(jm_isa::instr::MsgPriority::P0, hdr("pong", 3), 0);
        b.sende(jm_isa::instr::MsgPriority::P0, Special::Nnr);
        b.suspend();

        b.label("pong");
        b.mov(R0, MemRef::disp(A3, 1));
        b.addi(R0, R0, 1);
        b.send(jm_isa::instr::MsgPriority::P0, MemRef::disp(A3, 2));
        b.send2e(jm_isa::instr::MsgPriority::P0, hdr("ping", 2), R0);
        b.suspend();

        b.label("ping");
        b.mov(R0, MemRef::disp(A3, 1));
        b.alu(jm_isa::instr::AluOp::Lt, R1, R0, rounds);
        b.bf(R1, "done");
        b.movi(R2, route);
        b.wtag(R2, R2, Tag::Route.bits() as i32);
        b.send(jm_isa::instr::MsgPriority::P0, R2);
        b.send2(jm_isa::instr::MsgPriority::P0, hdr("pong", 3), R0);
        b.sende(jm_isa::instr::MsgPriority::P0, Special::Nnr);
        b.suspend();
        b.label("done");
        b.load_seg(A0, "out");
        b.mov(MemRef::disp(A0, 0), R0);
        b.suspend();

        b.entry("main");
        b.assemble().unwrap()
    }

    /// Records 40 rounds of [`pingpong`] between the two slabs of a 2×2×4
    /// mesh.
    fn record(engine: Engine, interval: u64) -> ReplayLog {
        let cfg = MachineConfig::with_dims(MeshDims::new(2, 2, 4)).engine(engine);
        let mut m = JMachine::new(pingpong(FAR_SLAB, 40), cfg);
        m.record_replay(interval);
        m.run_until_quiescent(100_000).unwrap();
        let log = m.finish_replay().unwrap();
        assert!(m.finish_replay().is_none(), "finish is one-shot");
        log
    }

    /// A factory for the parallel engine that forms a crew on `log`'s mesh:
    /// two slabs, one per thread.
    fn crew(log: &ReplayLog) -> MachineFactory {
        let crew = MachineFactory::recorded().engine(Engine::Parallel(2));
        assert_eq!(crew.build(log).network().shard_count(), 2);
        crew
    }

    #[test]
    fn recorded_run_verifies_under_other_engines() {
        let log = record(Engine::Event, 32);
        assert!(log.checkpoints() > 3, "expected several checkpoints");
        for f in [
            MachineFactory::recorded(),
            MachineFactory::recorded().engine(Engine::Naive),
            crew(&log),
        ] {
            let report = verify(&log, &f).unwrap();
            assert!(report.clean(), "{f:?}: {report}");
            assert_eq!(report.checked as usize, log.checkpoints());
        }
    }

    #[test]
    fn log_round_trips_and_host_ops_replay() {
        // Exercise every op kind: per-node and all-node vector installs, a
        // host delivery, and a memory poke mid-run.
        let mut b = Builder::new();
        b.reserve("out", Region::Imem, 2);
        b.label("main");
        b.suspend();
        b.label("copy");
        b.mov(R0, MemRef::disp(A3, 1));
        b.load_seg(A0, "out");
        b.mov(MemRef::disp(A0, 0), R0);
        b.suspend();
        b.entry("main");
        let program = b.assemble().unwrap();
        let cfg = MachineConfig::new(8).start(StartPolicy::None);
        let mut m = JMachine::new(program, cfg);
        m.record_replay(16);
        m.install_vector_all(FaultKind::CFutRead, "copy");
        m.install_vector(NodeId(3), FaultKind::FutUse, "copy");
        m.deliver_message(NodeId(3), MsgPriority::P0, "copy", &[Word::int(9)]);
        m.run_until_quiescent(10_000).unwrap();
        m.write_word(NodeId(3), 0x200, Word::int(77));
        m.run(40);
        let log = m.finish_replay().unwrap();
        let back = ReplayLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back, log);
        let ops = log
            .records
            .iter()
            .filter(|r| matches!(r, Record::Op { .. }))
            .count();
        assert_eq!(ops, 4);
        let report = verify(&back, &MachineFactory::recorded().engine(Engine::Naive)).unwrap();
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn corruption_is_bisected_to_its_cycle_and_component() {
        let log = record(Engine::Event, 64);
        let end = log.end_cycle();
        assert!(end > 130, "run too short for a mid-run corruption: {end}");
        let at = 97; // deliberately not a checkpoint cycle
        let target = MachineFactory::recorded().corrupt(Corruption {
            cycle: at,
            node: NodeId(5),
            addr: 0x300,
            word: Word::int(123),
        });
        let report = bisect(&log, &MachineFactory::recorded(), &target).unwrap();
        match &report.divergence {
            Divergence::Diverged { cycle, diff, .. } => {
                assert_eq!(*cycle, at, "{report}");
                assert!(diff.starts_with("node 5 mem[0x0300]: "), "{report}");
                assert!(diff.ends_with(" vs 123:int"), "{report}");
                let line = format!("\n  cycle {at}, {diff}");
                assert!(report.to_string().ends_with(&line), "{report}");
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    /// The state hash is the fold of the parts of [`JMachine::arch_state`],
    /// nodes then routers, and `diff` names nothing between equal states,
    /// the word a host write changed, and a router's field by vnet.
    #[test]
    fn the_state_hash_folds_the_arch_state_and_diff_names_the_word() {
        let cfg = MachineConfig::with_dims(MeshDims::new(2, 2, 4));
        let mut m = JMachine::new(pingpong(FAR_SLAB, 40), cfg);
        while m.network().in_flight() == 0 {
            assert!(m.cycle() < 1_000, "no message left node 0");
            m.run(1);
        }
        let state = m.arch_state();
        let mut h = jm_trace::Fnv1a::new();
        state.nodes.iter().for_each(|n| n.fold(&mut h));
        state.routers.iter().for_each(|r| r.fold(&mut h));
        assert_eq!(h.finish(), m.state_hash());
        assert_eq!(state.diff(&m.arch_state()), None);
        m.write_word(NodeId(6), 0x2a0, Word::int(5));
        let diff = state.diff(&m.arch_state()).expect("a word differs");
        assert_eq!(diff, "node 6 mem[0x02a0]: 0x0:nil vs 5:int");
        let mut owned = state.clone();
        owned.routers[3].owners[1] = [6; 7];
        let diff = state.diff(&owned).expect("an owner differs");
        assert!(diff.starts_with("router 3 vnet1 owners: ["), "{diff}");
        assert!(diff.ends_with(" vs [6, 6, 6, 6, 6, 6, 6]"), "{diff}");
    }

    #[test]
    fn corrupted_checkpoint_is_named_as_log_mismatch() {
        let mut log = record(Engine::Event, 64);
        let is_checkpoint = |r: &&mut Record| !matches!(r, Record::Op { .. });
        let Some(Record::Boundary { cycle, hash }) =
            log.records.iter_mut().filter(is_checkpoint).nth(1)
        else {
            panic!("the second checkpoint is a boundary");
        };
        *hash ^= 1;
        let cycle = *cycle;
        let report = bisect(&log, &MachineFactory::recorded(), &crew(&log)).unwrap();
        match &report.divergence {
            Divergence::LogMismatch { cycle: c, .. } => assert_eq!(*c, cycle, "{report}"),
            other => panic!("expected LogMismatch, got {other:?}"),
        }
    }

    #[test]
    fn capture_is_transparent() {
        // A captured run and an uncaptured run of the same config land on
        // the same outcome, cycle, stats, and state — whether the drive
        // ends in quiescence, in a timeout short of a hash boundary, or on
        // a node error, sequential or threaded (2×2×4 cuts into two slabs).
        let mut b = Builder::new();
        b.label("main");
        b.movi(R0, FAR_SLAB);
        b.wtag(R0, R0, Tag::Route.bits() as i32);
        b.send(MsgPriority::P0, R0);
        b.send2e(MsgPriority::P0, hdr("boom", 2), 0);
        b.suspend();
        b.label("boom");
        b.alu(jm_isa::instr::AluOp::Div, R0, 1, 0); // no vector installed
        b.suspend();
        b.entry("main");
        let remote_fault = b.assemble().unwrap();
        for engine in [Engine::Event, Engine::Parallel(2)] {
            let config = MachineConfig::with_dims(MeshDims::new(2, 2, 4)).engine(engine);
            for (expect, program, budget) in [
                ("Ok(", pingpong(FAR_SLAB, 25), 100_000),
                ("Err(Timeout", pingpong(FAR_SLAB, 25), 777),
                ("Err(NodeErrors", remote_fault.clone(), 100_000),
            ] {
                let run = |capture: bool| {
                    let mut m = JMachine::new(program.clone(), config);
                    if capture {
                        m.record_replay(32);
                    }
                    let outcome = format!("{:?}", m.run_until_quiescent(budget));
                    (outcome, m.cycle(), m.stats(), m.state_hash())
                };
                let plain = run(false);
                assert!(plain.0.starts_with(expect), "{engine:?}: {plain:?}");
                assert_eq!(plain, run(true), "{engine:?} {expect}");
            }
        }
        // Single steps pass the same boundaries a fixed run does.
        let log = |drive: fn(&mut JMachine)| {
            let mut m = JMachine::new(pingpong(CORNER, 4), MachineConfig::new(8));
            m.record_replay(4);
            drive(&mut m);
            m.finish_replay().unwrap()
        };
        let stepped = log(|m| (0..16).for_each(|_| m.run(1)));
        assert_eq!(stepped.checkpoints(), 5);
        assert_eq!(stepped, log(|m| m.run(16)));
    }

    #[test]
    fn recorded_config_round_trips() {
        let spec = jm_fault::FaultSpec::new(3).flaky(100_000).checksums(true);
        let cfg = MachineConfig::new(8)
            .engine(Engine::Parallel(3))
            .start(StartPolicy::AllNodes)
            .fault(spec);
        let mut m = JMachine::new(pingpong(CORNER, 4), cfg);
        m.record_replay(64);
        let log = m.finish_replay().unwrap();
        let back = recorded_machine_config(&log);
        assert_eq!(back.dims, cfg.dims);
        assert_eq!(back.engine, Engine::Parallel(3));
        assert_eq!(back.start, StartPolicy::AllNodes);
        assert_eq!(back.fault, Some(spec));
    }

    #[test]
    fn traffic_run_records_its_spec_and_replays_clean() {
        // A machine driven purely by the synthetic-traffic generator has
        // no host ops at all — everything it does comes from the traffic
        // spec. If the log did not carry the spec, a replay would rebuild
        // a silent machine and diverge at the first injected message.
        let mut b = Builder::new();
        b.data("acc", Region::Imem, vec![Word::int(0)]);
        b.label("sink");
        b.load_seg(A0, "acc");
        b.mov(R0, MemRef::disp(A0, 0));
        b.mov(R1, MemRef::disp(A3, 1));
        b.alu(jm_isa::instr::AluOp::Add, R0, R0, R1);
        b.mov(MemRef::disp(A0, 0), R0);
        b.suspend();
        let program = b.assemble().unwrap();
        let spec = crate::TrafficSpec::new(11)
            .pattern(crate::TrafficPattern::BitReversal)
            .load(200_000)
            .msg_words(3)
            .window(0, 300)
            .handler(program.handler("sink"));
        let cfg = MachineConfig::with_dims(MeshDims::new(2, 2, 4))
            .start(StartPolicy::None)
            .traffic(spec);
        let mut m = JMachine::new(program, cfg);
        m.record_replay(64);
        m.run(300);
        m.run_until_quiescent(100_000).unwrap();
        let log = m.finish_replay().unwrap();
        assert_eq!(log.traffic, Some(spec));
        assert!(log.checkpoints() > 3, "expected several checkpoints");
        let back = ReplayLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back, log);
        assert_eq!(recorded_machine_config(&log).traffic, Some(spec));
        for f in [
            MachineFactory::recorded(),
            MachineFactory::recorded().engine(Engine::Naive),
            crew(&log),
        ] {
            let report = verify(&log, &f).unwrap();
            assert!(report.clean(), "{f:?}: {report}");
            assert_eq!(report.checked as usize, log.checkpoints());
        }
    }
}
