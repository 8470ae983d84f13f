//! Instruction semantics and timing: the executor of the ops
//! [`crate::lower`] makes.
//!
//! An op reads every operand first and commits its writes last, so nothing
//! is written before every hazard is known — a stall, a presence-tag fault,
//! or (inside a stretch) an access the checkpoint cannot undo. A stretch
//! therefore stops before an op with nothing to take back.

use crate::config::{
    BASE, BRANCH_TAKEN, EMEM_FETCH, EMEM_OPERAND, IMEM_OPERAND, IMM_EXT, QUEUE_OPERAND,
    QUEUE_VBASE, STAGING_FRAME, STAGING_VBASE,
};
use crate::lower::{Kind, Op, Opd};
use crate::memory::Memory;
use crate::node::{InjectAck, MdpNode, NetPort, NodeError};
use jm_isa::consts::{FaultKind, MEM_WORDS, XLATE_BASE, XLATE_SETS, XLATE_WAYS};
use jm_isa::instr::{Alu1Op, AluOp, Cond};
use jm_isa::node::RouteWord;
use jm_isa::operand::Special;
use jm_isa::reg::{DReg, Priority, RegBank};
use jm_isa::tag::Tag;
use jm_isa::word::{SegDesc, Word};

/// Why an op could not complete this cycle.
enum Hazard {
    /// Data not available yet (message word in flight): retry next cycle.
    Stall,
    /// Processor fault: vector through the fault table.
    Fault(FaultKind, Word, Word),
    /// Inside a stretch only: an access the checkpoint cannot undo — the
    /// staging window.
    Visible,
}

/// A hazard, and the operand cycles spent before it was met.
type Blocked = (Hazard, u64);

/// How strictly a source read enforces presence tags.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Level {
    /// No tag enforcement (`RTAG`/`WTAG`/`CHECK`, fault handlers).
    Raw,
    /// `MOVE`/`SEND` semantics: `cfut` faults, `fut` may be copied.
    Move,
    /// Computing use: both `cfut` and `fut` fault.
    Use,
}

/// A retired op: its cycles and the index it continues at.
struct Retired {
    cost: u64,
    next: u32,
}

impl Retired {
    /// `op`, retired after `extra` cycles on top of its own, continuing at
    /// `next`.
    #[inline(always)]
    fn at(op: &Op, extra: u64, next: u32) -> Retired {
        Retired {
            cost: (u64::from(op.cost) + extra).max(1),
            next,
        }
    }
}

/// What a visit's op did.
enum Step {
    /// Retired.
    Done(Retired),
    /// Ended the thread (`SUSPEND`, `HALT`); bookkeeping already done.
    End,
    /// Not retired (a send fault or an arrival stall): retry it.
    Retry,
    /// A fault vectored, costing this much; the bank IP is the handler's.
    Vectored(u64),
    /// The node recorded a fatal [`NodeError`].
    Error,
}

impl MdpNode {
    /// Executes `priority`'s thread at cycle `now`: one op, and, if it
    /// retired and the engine gave room (`limit` past its end), the stretch
    /// after it.
    pub(crate) fn exec_slice<P: NetPort + ?Sized>(
        &mut self,
        priority: Priority,
        now: u64,
        limit: u64,
        net: &mut P,
    ) {
        if self.step(priority, now, net) && self.busy_until < limit {
            let retired = self.run_on(priority, limit);
            if retired > 0 {
                let counts = &mut self.stretch.stats;
                counts.stretches += 1;
                counts.retired += retired;
            }
        }
    }

    /// Runs `priority`'s thread on from `busy_until`, an op boundary, while
    /// the next op starts before `limit`, is private and meets no hazard;
    /// checkpoints where it starts. The run's instructions, handler count
    /// and class cycles are credited once, at its end. Returns the
    /// instructions retired.
    pub(crate) fn run_on(&mut self, priority: Priority, limit: u64) -> u64 {
        let pi = priority.index();
        let mut t = self.busy_until;
        let mut ip = self.threads[pi].regs.ip;
        let mut class = self.threads[pi].class;
        let (mut retired, mut cycles, mut last) = (0, 0, 0);
        while t < limit {
            let Some(&op) = self.ops.get(ip as usize) else {
                break;
            };
            if !op.private {
                break;
            }
            if retired == 0 {
                self.checkpoint(priority, class);
            }
            let Ok(done) = self.exec(priority, &op, t, true) else {
                break;
            };
            if let Some(marked) = op.class {
                if marked != class {
                    self.stats.add_cycles(class, cycles);
                    (class, cycles) = (marked, 0);
                }
            }
            (retired, cycles, last) = (retired + 1, cycles + done.cost, t);
            t += done.cost;
            ip = done.next;
        }
        self.spec_end = 0;
        if retired > 0 {
            self.stats.add_cycles(class, cycles);
            self.threads[pi].class = class;
            self.threads[pi].regs.ip = ip;
            self.credit(pi, retired);
            self.busy_until = t;
            self.spec_end = last + 1;
        }
        retired
    }

    /// Executes the op at `priority`'s IP at cycle `start`, the visit's own:
    /// the `MARK`s in front of it are taken, and its stall, fault or error
    /// takes effect. Returns whether it retired plainly, so a stretch may go
    /// on.
    fn step<P: NetPort + ?Sized>(&mut self, priority: Priority, start: u64, net: &mut P) -> bool {
        let pi = priority.index();
        let ip = self.threads[pi].regs.ip;
        let Some(&op) = self.ops.get(ip as usize) else {
            self.error = Some(NodeError::IpOutOfRange(ip));
            return false;
        };
        if let Some(class) = op.class {
            self.threads[pi].class = class;
            self.threads[pi].regs.ip = op.next - 1;
        }
        let step = if op.private {
            match self.exec(priority, &op, start, false) {
                // The common case, without the rest's bookkeeping: about
                // 5 % of a tick (PERFLOG.md, "Where the time goes after
                // stretches").
                Ok(Retired { cost, next }) => {
                    self.threads[pi].regs.ip = next;
                    self.credit(pi, 1);
                    self.stats.add_cycles(self.threads[pi].class, cost);
                    self.busy_until = start + cost;
                    return true;
                }
                Err(blocked) => Err(blocked),
            }
        } else {
            self.exec_visible(priority, &op, start, net)
        };
        let step = step.unwrap_or_else(|(hazard, extra)| self.blocked(priority, hazard, extra));
        let fetch = if op.emem { EMEM_FETCH } else { 0 };
        let cost = match step {
            Step::Done(Retired { cost, next }) => {
                self.threads[pi].regs.ip = next;
                self.credit(pi, 1);
                cost
            }
            Step::End => {
                self.credit(pi, 1);
                u64::from(op.cost).max(1)
            }
            Step::Retry => 1 + fetch,
            Step::Vectored(cost) => (cost + fetch).max(1),
            Step::Error => return false,
        };
        if self.error.is_some() {
            return false;
        }
        self.stats.add_cycles(self.threads[pi].class, cost);
        self.busy_until = start + cost;
        matches!(step, Step::Done(_))
    }

    /// Credits `n` retired instructions to the node and to the handler
    /// running at bank `pi`.
    fn credit(&mut self, pi: usize, n: u64) {
        self.stats.instructions += n;
        let thread = &mut self.threads[pi];
        if thread.handler_slot == u32::MAX {
            thread.handler_slot = self.stats.handlers.entry_slot(thread.handler);
        }
        let slot = thread.handler_slot;
        self.stats.handlers.slot_mut(slot).instructions += n;
    }

    /// What a hazard met after `extra` operand cycles makes of a visit's op.
    /// Cold: it is off every op's common path.
    #[cold]
    fn blocked(&mut self, priority: Priority, hazard: Hazard, extra: u64) -> Step {
        match hazard {
            Hazard::Stall => {
                self.stats.arrival_stalls += 1;
                Step::Retry
            }
            Hazard::Fault(kind, val, addr) => {
                let entry = self.raise_fault(priority, kind, val, addr);
                if self.error.is_some() {
                    return Step::Error;
                }
                // The detecting instruction spends its own cycles (base +
                // operand access) before the vector entry: a cfut read
                // costs 2 (detect) + 4 (vector) = the paper's 6-cycle
                // failure (Table 2).
                Step::Vectored(entry + BASE + extra)
            }
            Hazard::Visible => unreachable!("only a stretch stops at a visible access"),
        }
    }

    /// Executes a private op starting at cycle `now`: reads its operands,
    /// then commits its writes — one, or an `ENTER`'s name-table words.
    /// Inside a stretch (`spec`), memory writes go to the undo log, and the
    /// staging window is a hazard.
    #[inline(always)]
    fn exec(
        &mut self,
        priority: Priority,
        op: &Op,
        now: u64,
        spec: bool,
    ) -> Result<Retired, Blocked> {
        let mut extra = 0;
        macro_rules! read {
            ($opd:ident, $k:expr, $level:ident) => {
                match self.read(
                    priority,
                    op.$opd,
                    op.val[$k],
                    Level::$level,
                    now,
                    &mut extra,
                    spec,
                ) {
                    Ok(word) => word,
                    Err(hazard) => return Err((hazard, extra)),
                }
            };
        }
        let fault = |kind, word| Hazard::Fault(kind, word, Word::NIL);
        let word = match op.kind {
            Kind::Nop => return Ok(Retired::at(op, 0, op.next)),
            Kind::Move => read!(a, 0, Move),
            Kind::Alu(alu) => {
                let a = read!(a, 0, Use);
                let b = read!(b, 1, Use);
                alu2(alu, a, b).map_err(|hazard| (hazard, extra))?
            }
            Kind::Alu1(alu) => {
                let v = read!(a, 0, Use);
                let (want, out) = match alu {
                    Alu1Op::Neg => (Tag::Int, Word::int(v.as_i32().wrapping_neg())),
                    Alu1Op::Not => (Tag::Bool, Word::bool(!v.as_bool())),
                    Alu1Op::Inv => (Tag::Int, Word::int(!v.as_i32())),
                };
                if v.tag() != want {
                    return Err((fault(FaultKind::TagMismatch, v), extra));
                }
                out
            }
            Kind::Br => return Ok(Retired::at(op, 0, op.val[2])),
            Kind::Bc(cond) => {
                let v = read!(a, 0, Use);
                let taken = match cond {
                    Cond::True | Cond::False if v.tag() == Tag::Bool => {
                        (cond == Cond::True) == v.as_bool()
                    }
                    Cond::Zero | Cond::NonZero if v.tag() == Tag::Int => {
                        (cond == Cond::Zero) == (v.as_i32() == 0)
                    }
                    _ => return Err((fault(FaultKind::TagMismatch, v), extra)),
                };
                return Ok(if taken {
                    Retired::at(op, extra + BRANCH_TAKEN, op.val[2])
                } else {
                    Retired::at(op, extra, op.next)
                });
            }
            Kind::Jmp => {
                let v = read!(a, 0, Use);
                if v.tag() != Tag::Ip && v.tag() != Tag::Int {
                    return Err((fault(FaultKind::TagMismatch, v), extra));
                }
                return Ok(Retired::at(op, extra, v.bits()));
            }
            Kind::Jal => {
                let Opd::D(link) = op.d else {
                    unreachable!("JAL links through a data register")
                };
                self.threads[priority.index()].regs.r[link.index()] = Word::ip(op.next);
                return Ok(Retired::at(op, 0, op.val[2]));
            }
            Kind::Send(_) => {
                debug_assert!(!self.threads[priority.index()].commit_pending);
                let extra = self.compose(priority, op, now, spec)?;
                self.stats.sends += 1;
                return Ok(Retired::at(op, extra, op.next));
            }
            Kind::Rtag => Word::int(i32::from(read!(a, 0, Raw).tag().bits())),
            Kind::Wtag => {
                let v = read!(a, 0, Raw);
                let t = read!(b, 1, Use);
                if t.tag() != Tag::Int {
                    return Err((fault(FaultKind::TagMismatch, t), extra));
                }
                v.retagged(Tag::from_bits((t.bits() & 0xf) as u8))
            }
            Kind::Check(tag) => Word::bool(read!(a, 0, Raw).tag() == tag),
            Kind::Enter => {
                let key = read!(a, 0, Raw);
                let value = read!(b, 1, Raw);
                self.enter(key, value, spec);
                return Ok(Retired::at(op, extra, op.next));
            }
            Kind::Xlate | Kind::Probe => {
                let key = read!(a, 0, Raw);
                let found = self.xlate(key);
                if found.is_none() && op.kind == Kind::Xlate {
                    // A stretch stops here; the visit counts the miss.
                    if !spec {
                        self.stats.xlates += 1;
                        self.stats.xlate_misses += 1;
                    }
                    return Err((fault(FaultKind::XlateMiss, key), extra));
                }
                let word = found.unwrap_or(Word::NIL);
                if let Err(hazard) = self.write(priority, op.d, op.val[2], word, &mut extra, spec) {
                    return Err((hazard, extra));
                }
                self.stats.xlates += 1;
                self.stats.xlate_misses += u64::from(found.is_none());
                return Ok(Retired::at(op, extra, op.next));
            }
            _ => unreachable!("a visible op runs at its visit"),
        };
        if let Err(hazard) = self.write(priority, op.d, op.val[2], word, &mut extra, spec) {
            return Err((hazard, extra));
        }
        Ok(Retired::at(op, extra, op.next))
    }

    /// Reads both operands of a `SEND` — both before either is appended: a
    /// `SEND2` that stalls or faults on its second retries (or resumes) from
    /// a composition that does not hold its first — and appends them.
    /// Returns the operand cycles.
    #[inline(always)]
    fn compose(
        &mut self,
        priority: Priority,
        op: &Op,
        now: u64,
        spec: bool,
    ) -> Result<u64, Blocked> {
        let mut extra = 0;
        let mut words = [Word::NIL; 2];
        let n = if op.b == Opd::None { 1 } else { 2 };
        for (k, opd) in [op.a, op.b].into_iter().take(n).enumerate() {
            words[k] = self
                .read(priority, opd, op.val[k], Level::Move, now, &mut extra, spec)
                .map_err(|hazard| (hazard, extra))?;
        }
        self.threads[priority.index()]
            .compose
            .extend_from_slice(&words[..n]);
        Ok(extra)
    }

    /// Executes an op no stretch runs — one that commits a message, ends
    /// the thread or reads the staging frame and fault state, which the
    /// checkpoint does not hold — at its visit, at cycle `now`.
    fn exec_visible<P: NetPort + ?Sized>(
        &mut self,
        priority: Priority,
        op: &Op,
        now: u64,
        net: &mut P,
    ) -> Result<Step, Blocked> {
        let pi = priority.index();
        match op.kind {
            Kind::SendEnd(mp) => {
                // A retried commit's operands were appended before its send
                // fault.
                let mut extra = 0;
                if !self.threads[pi].commit_pending {
                    extra = self.compose(priority, op, now, false)?;
                    self.threads[pi].commit_pending = true;
                }
                let thread = &mut self.threads[pi];
                match net.commit(mp, &thread.compose) {
                    InjectAck::Accepted => {
                        thread.compose.clear();
                        thread.commit_pending = false;
                        self.stats.msgs_sent += 1;
                    }
                    InjectAck::Stall => {
                        self.stats.send_faults += 1;
                        return Ok(Step::Retry);
                    }
                    InjectAck::Rejected => {
                        let word = thread.compose.first().copied().unwrap_or(Word::NIL);
                        self.error = Some(NodeError::BadSend(word));
                        return Ok(Step::Error);
                    }
                }
                self.stats.sends += 1;
                Ok(Step::Done(Retired::at(op, extra, op.next)))
            }
            Kind::Suspend => {
                if self.end_thread(priority, now) {
                    Ok(Step::End)
                } else {
                    Err((Hazard::Stall, 0))
                }
            }
            Kind::Halt => {
                self.halted = true;
                self.threads[0].running = false;
                Ok(Step::End)
            }
            Kind::Resume => {
                let thread = &mut self.threads[pi];
                let staged_ip = thread.staging[8];
                if staged_ip.tag() != Tag::Ip {
                    self.error = Some(NodeError::BadResume(staged_ip));
                    return Ok(Step::Error);
                }
                thread.regs.r.copy_from_slice(&thread.staging[..4]);
                thread.regs.a.copy_from_slice(&thread.staging[4..8]);
                thread.in_fault = false;
                Ok(Step::Done(Retired::at(op, 0, staged_ip.bits())))
            }
            Kind::PastEnd => {
                self.error = Some(NodeError::IpOutOfRange(op.next - 1));
                Ok(Step::Error)
            }
            _ => unreachable!("a private op runs through exec"),
        }
    }

    fn read_special(&self, sp: Special, now: u64) -> Word {
        match sp {
            Special::Nnr => RouteWord::new(self.dims.coord(self.id)).to_word(),
            Special::Nid => Word::int(self.id.0 as i32),
            Special::NNodes => Word::int(self.dims.nodes() as i32),
            Special::Dims => Word::new(
                Tag::Route,
                u32::from(self.dims.x)
                    | (u32::from(self.dims.y) << 5)
                    | (u32::from(self.dims.z) << 10),
            ),
            Special::Cycle => Word::int(now as i32),
            Special::Fip => Word::ip(self.fip),
            Special::FVal => self.fval,
            Special::FAddr => self.faddr,
        }
    }

    /// Reads source operand `opd` (payload `val`) at `level`, charging
    /// operand cycles into `extra`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn read(
        &self,
        priority: Priority,
        opd: Opd,
        val: u32,
        level: Level,
        now: u64,
        extra: &mut u64,
        spec: bool,
    ) -> Result<Word, Hazard> {
        let thread = &self.threads[priority.index()];
        let bank = &thread.regs;
        let (word, addr) = match opd {
            Opd::D(r) => (bank.r[r.index()], Word::NIL),
            Opd::A(a) => (bank.a[a.index()], Word::NIL),
            Opd::Imm(tag) | Opd::Ext(tag) => {
                if let Opd::Ext(_) = opd {
                    *extra += IMM_EXT;
                }
                // Immediates are program text, not data: a `cfut` immediate
                // is how slots are (re)initialized, so it never faults as a
                // MOVE source. Computing uses still enforce tags below.
                let word = Word::new(tag, val);
                if level == Level::Move {
                    return Ok(word);
                }
                (word, Word::NIL)
            }
            Opd::Sp(sp) => (self.read_special(sp, now), Word::NIL),
            Opd::Disp(_) | Opd::Index(_) => {
                let addr = address(bank, opd, val)?;
                (self.load(addr, extra, spec)?, Word::int(addr as i32))
            }
            Opd::None => unreachable!("the lowering gives every read operand"),
        };
        // Inside a fault handler the MDP masks presence-tag faults (a
        // nested fault would clobber the staging buffer), so handlers can
        // copy arbitrary words with plain MOVEs.
        if thread.in_fault {
            return Ok(word);
        }
        match level {
            Level::Raw => Ok(word),
            Level::Move if word.faults_on_read() => {
                Err(Hazard::Fault(FaultKind::CFutRead, word, addr))
            }
            Level::Move => Ok(word),
            Level::Use => match word.tag() {
                Tag::CFut => Err(Hazard::Fault(FaultKind::CFutRead, word, addr)),
                Tag::Fut => Err(Hazard::Fault(FaultKind::FutUse, word, addr)),
                _ => Ok(word),
            },
        }
    }

    /// Writes `word` to destination operand `opd` (payload `val`).
    #[inline(always)]
    fn write(
        &mut self,
        priority: Priority,
        opd: Opd,
        val: u32,
        word: Word,
        extra: &mut u64,
        spec: bool,
    ) -> Result<(), Hazard> {
        let bank = &mut self.threads[priority.index()].regs;
        match opd {
            Opd::D(r) => bank.r[r.index()] = word,
            Opd::A(a) => bank.a[a.index()] = word,
            _ => {
                let addr = address(bank, opd, val)?;
                self.store(addr, word, extra, spec)?;
            }
        }
        Ok(())
    }

    /// Reads the word at an absolute address, charging region cost into
    /// `extra`. Queue-window reads stall until the word has arrived; a
    /// stretch (`spec`) stops at the staging window.
    #[inline]
    fn load(&self, addr: u32, extra: &mut u64, spec: bool) -> Result<Word, Hazard> {
        if addr < MEM_WORDS {
            *extra += if Memory::is_internal(addr) {
                IMEM_OPERAND
            } else {
                EMEM_OPERAND
            };
            return Ok(self.mem.read(addr));
        }
        for (q, &base) in QUEUE_VBASE.iter().enumerate() {
            let cap = self.queues[q].capacity() as u32;
            // The window is twice the ring size: a message descriptor's
            // base is `head_slot`, so in-message offsets may run past the
            // ring end and wrap (read_slot reduces modulo the capacity).
            if addr >= base && addr < base + 2 * cap {
                *extra += QUEUE_OPERAND;
                let slot = self.queues[q].read_slot((addr - base) as usize);
                return slot.ok_or(Hazard::Stall);
            }
        }
        if (STAGING_VBASE..STAGING_VBASE + 3 * STAGING_FRAME).contains(&addr) {
            if spec {
                return Err(Hazard::Visible);
            }
            if let Some(word) = self.staging_read(addr) {
                return Ok(word);
            }
        }
        Err(Hazard::Fault(
            FaultKind::Bounds,
            Word::int(addr as i32),
            Word::NIL,
        ))
    }

    /// Writes the word at an absolute address, charging region cost.
    /// Inside a stretch (`spec`) the overwritten word goes to its undo log,
    /// and a staging-window write stops the stretch.
    #[inline]
    fn store(&mut self, addr: u32, word: Word, extra: &mut u64, spec: bool) -> Result<(), Hazard> {
        if addr < MEM_WORDS {
            *extra += if Memory::is_internal(addr) {
                IMEM_OPERAND
            } else {
                EMEM_OPERAND
            };
            self.poke(addr, word, spec);
            return Ok(());
        }
        if (STAGING_VBASE..STAGING_VBASE + 3 * STAGING_FRAME).contains(&addr) {
            if spec {
                return Err(Hazard::Visible);
            }
            if self.staging_write(addr, word) {
                return Ok(());
            }
        }
        // Queue windows are read-only to software.
        Err(Hazard::Fault(
            FaultKind::Bounds,
            Word::int(addr as i32),
            word,
        ))
    }

    /// Writes a word of memory, logging the word it overwrites inside a
    /// stretch (`spec`). Any write can be undone: a page it allocated stays
    /// allocated, and NIL folds as unwritten.
    #[inline]
    fn poke(&mut self, addr: u32, word: Word, spec: bool) {
        if spec {
            self.stretch.undo.push((addr, self.mem.read(addr)));
        }
        self.mem.write(addr, word);
    }

    /// The address of `key`'s way in the name table, if the table binds
    /// it: the key word, its value after it.
    fn xlate_way(&self, key: Word) -> Option<u32> {
        let set = xlate_set(key);
        (set..set + 2 * XLATE_WAYS)
            .step_by(2)
            .find(|&at| self.mem.read(at) == key)
    }

    /// The value `key` is bound to in the name table (`XLATE`, `PROBE`).
    fn xlate(&self, key: Word) -> Option<Word> {
        self.xlate_way(key).map(|at| self.mem.read(at + 1))
    }

    /// Binds `key` to `value` in the name table (`ENTER`): in place if the
    /// set holds `key`, else in way 0, each way's pair moved to the next
    /// and the last way's dropped — first in, first out per set.
    fn enter(&mut self, key: Word, value: Word, spec: bool) {
        if let Some(at) = self.xlate_way(key) {
            return self.poke(at + 1, value, spec);
        }
        let set = xlate_set(key);
        for at in (set + 2..set + 2 * XLATE_WAYS).rev() {
            self.poke(at, self.mem.read(at - 2), spec);
        }
        self.poke(set, key, spec);
        self.poke(set + 1, value, spec);
    }
}

/// The first word of `key`'s set in the name table: the set's ways follow
/// one another, each a key word and its value (DESIGN.md §6).
#[inline]
fn xlate_set(key: Word) -> u32 {
    XLATE_BASE + (key.bits() & (XLATE_SETS - 1)) * 2 * XLATE_WAYS
}

/// Resolves memory operand `opd` (payload `val`: a displacement, or the
/// index register's number) to an absolute address.
#[inline(always)]
fn address(bank: &RegBank, opd: Opd, val: u32) -> Result<u32, Hazard> {
    let (Opd::Disp(base) | Opd::Index(base)) = opd else {
        unreachable!("the lowering gives every memory operand a base")
    };
    let desc_word = bank.a[base.index()];
    if desc_word.tag() != Tag::Addr {
        return Err(Hazard::Fault(FaultKind::Bounds, desc_word, Word::NIL));
    }
    let index = match opd {
        Opd::Index(_) => {
            let w = bank.r[DReg::from_index(val as usize & 3).index()];
            if w.faults_on_use() {
                let kind = if w.tag() == Tag::CFut {
                    FaultKind::CFutRead
                } else {
                    FaultKind::FutUse
                };
                return Err(Hazard::Fault(kind, w, Word::NIL));
            }
            if w.tag() != Tag::Int || w.as_i32() < 0 {
                return Err(Hazard::Fault(FaultKind::Bounds, w, desc_word));
            }
            w.bits()
        }
        _ => val,
    };
    SegDesc::from_word(desc_word)
        .address(index)
        .ok_or(Hazard::Fault(
            FaultKind::Bounds,
            desc_word,
            Word::int(index as i32),
        ))
}

#[inline]
fn alu2(op: AluOp, a: Word, b: Word) -> Result<Word, Hazard> {
    use AluOp::*;
    let mismatch = |w: Word| Hazard::Fault(FaultKind::TagMismatch, w, Word::NIL);
    match op {
        Eq => return Ok(Word::bool(a == b)),
        Ne => return Ok(Word::bool(a != b)),
        And | Or | Xor if a.tag() == Tag::Bool && b.tag() == Tag::Bool => {
            let v = match op {
                And => a.as_bool() && b.as_bool(),
                Or => a.as_bool() || b.as_bool(),
                _ => a.as_bool() != b.as_bool(),
            };
            return Ok(Word::bool(v));
        }
        _ => {}
    }
    if a.tag() != Tag::Int {
        return Err(mismatch(a));
    }
    if b.tag() != Tag::Int {
        return Err(mismatch(b));
    }
    let (x, y) = (a.as_i32(), b.as_i32());
    let value = match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div => {
            if y == 0 {
                return Err(Hazard::Fault(FaultKind::DivZero, a, b));
            }
            x.wrapping_div(y)
        }
        Rem => {
            if y == 0 {
                return Err(Hazard::Fault(FaultKind::DivZero, a, b));
            }
            x.wrapping_rem(y)
        }
        And => ((x as u32) & (y as u32)) as i32,
        Or => ((x as u32) | (y as u32)) as i32,
        Xor => ((x as u32) ^ (y as u32)) as i32,
        Lsh => {
            if y >= 32 || y <= -32 {
                0
            } else if y >= 0 {
                ((x as u32) << y) as i32
            } else {
                ((x as u32) >> (-y)) as i32
            }
        }
        Ash => {
            if y >= 32 {
                0
            } else if y <= -32 {
                x >> 31
            } else if y >= 0 {
                ((x as u32) << y) as i32
            } else {
                x >> (-y)
            }
        }
        Lt => return Ok(Word::bool(x < y)),
        Le => return Ok(Word::bool(x <= y)),
        Gt => return Ok(Word::bool(x > y)),
        Ge => return Ok(Word::bool(x >= y)),
        Min => x.min(y),
        Max => x.max(y),
        Eq | Ne => unreachable!(),
    };
    Ok(Word::int(value))
}
