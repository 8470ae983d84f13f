//! Instruction semantics and timing: the execution engine.

use crate::config::{QUEUE_VBASE, STAGING_FRAME, STAGING_VBASE};
use crate::memory::Memory;
use crate::node::{InjectAck, MdpNode, NetPort, NodeError};
use jm_isa::consts::{FaultKind, MEM_WORDS};
use jm_isa::instr::{Alu1Op, AluOp, Cond, Instruction, MsgPriority};
use jm_isa::node::RouteWord;
use jm_isa::operand::{Dst, Index, MemRef, Special, Src};
use jm_isa::reg::Priority;
use jm_isa::tag::Tag;
use jm_isa::word::{SegDesc, Word};

/// Why an operand access could not complete this cycle.
enum Hazard {
    /// Data not available yet (message word in flight): retry next cycle.
    Stall,
    /// Processor fault: vector through the fault table.
    Fault(FaultKind, Word, Word),
    /// Inside a stretch only: an access the checkpoint cannot undo — the
    /// staging window, or a write that would allocate a DRAM page.
    Visible,
}

/// How strictly a source read enforces presence tags.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReadLevel {
    /// No tag enforcement (`RTAG`/`WTAG`/`CHECK`, fault handlers).
    Raw,
    /// `MOVE`/`SEND` semantics: `cfut` faults, `fut` may be copied.
    Move,
    /// Computing use: both `cfut` and `fut` fault.
    Use,
}

/// Result of executing one instruction.
enum Step {
    /// Retired normally; continue at `next_ip`.
    Done { cost: u64, next_ip: u32 },
    /// Not retired (send fault or arrival stall); retry the instruction.
    Retry { cost: u64 },
    /// Thread ended (`SUSPEND`/`HALT`); bookkeeping already done.
    End { cost: u64 },
    /// A fault vectored; the bank IP now points at the handler.
    Vectored { cost: u64 },
    /// The node recorded a fatal [`NodeError`].
    Error,
    /// Inside a stretch only: not executed, nothing changed; the stretch
    /// ends before it.
    Yield,
}

/// The port a stretch runs with: it stops before every message commit.
struct NoPort;

impl NetPort for NoPort {
    fn commit(&mut self, _: MsgPriority, _: &[Word]) -> InjectAck {
        unreachable!("a stretch stops before a message commit")
    }
}

/// Whether `instr` may retire inside a stretch: everything but what makes
/// a thread visible outside its node — a message commit, the thread's end
/// (`SUSPEND`, `HALT`) — and what the stretch's checkpoint does not hold:
/// `RESUME`'s staging frame and fault state, and the translation cache
/// behind `ENTER`/`XLATE`/`PROBE`.
fn private(instr: Instruction) -> bool {
    match instr {
        Instruction::Send { end, .. } => !end,
        Instruction::Suspend
        | Instruction::Halt
        | Instruction::Resume
        | Instruction::Enter { .. }
        | Instruction::Xlate { .. }
        | Instruction::Probe { .. } => false,
        _ => true,
    }
}

impl MdpNode {
    /// Executes `priority`'s thread at cycle `now`: one instruction (plus
    /// any zero-cost `MARK`s preceding it), and, if it retired and the
    /// engine gave room (`limit` past its end), the stretch after it.
    pub(crate) fn exec_slice<P: NetPort + ?Sized>(
        &mut self,
        priority: Priority,
        now: u64,
        limit: u64,
        net: &mut P,
    ) {
        if self.step::<false, _>(priority, now, net) && self.busy_until < limit {
            let retired = self.run_on(priority, limit);
            if retired > 0 {
                let counts = &mut self.stretch.stats;
                counts.stretches += 1;
                counts.retired += retired;
            }
        }
    }

    /// Runs `priority`'s thread on from `busy_until`, an instruction
    /// boundary, while the next instruction starts before `limit` and is
    /// node-private; checkpoints where it starts. Returns the instructions
    /// retired.
    pub(crate) fn run_on(&mut self, priority: Priority, limit: u64) -> u64 {
        let before = self.stats.instructions;
        self.spec_end = 0;
        while self.busy_until < limit
            && self.step::<true, _>(priority, self.busy_until, &mut NoPort)
        {}
        self.stats.instructions - before
    }

    /// Executes one instruction of `priority`'s thread, starting at cycle
    /// `start`: a visit's own (`SPEC` false), whose stall, fault or error
    /// takes effect, or one inside a stretch (`SPEC` true), which is not
    /// executed at all — no side effect, `MARK`s included — if it is not
    /// node-private or would stall or fault, so that it does so at its own
    /// visit. Returns whether it retired plainly, so a stretch may go on.
    /// (`SPEC` is a parameter of the type, not the call, so that neither
    /// mode pays for the other's checks; each instance has one caller.)
    #[inline(always)]
    fn step<const SPEC: bool, P: NetPort + ?Sized>(
        &mut self,
        priority: Priority,
        start: u64,
        net: &mut P,
    ) -> bool {
        let pi = priority.index();
        let (first_ip, first_class) = (self.regs.bank(priority).ip, self.class[pi]);
        let mut ip = first_ip;
        let instr = loop {
            let Some(&instr) = self.program.code.get(ip as usize) else {
                if SPEC {
                    self.class[pi] = first_class;
                } else {
                    self.regs.bank_mut(priority).ip = ip;
                    self.error = Some(NodeError::IpOutOfRange(ip));
                }
                return false;
            };
            match instr {
                Instruction::Mark { class } => {
                    self.class[pi] = class;
                    ip += 1;
                }
                _ => break instr,
            }
        };
        if SPEC {
            if !private(instr) {
                self.class[pi] = first_class;
                return false;
            }
            if self.spec_end == 0 {
                self.checkpoint(priority, first_class);
            }
        }
        if ip != first_ip {
            self.regs.bank_mut(priority).ip = ip;
        }
        let fetch_extra = if ip >= self.emem_code_from {
            self.config.timing.emem_fetch
        } else {
            0
        };
        let step = self.exec_one::<SPEC, P>(priority, instr, ip, start, net);
        if matches!(step, Step::Done { .. } | Step::End { .. }) {
            self.stats.instructions += 1;
            let mut slot = self.handler_slot[pi];
            if slot == usize::MAX {
                slot = self.stats.handlers.entry_slot(self.cur_handler[pi]);
                self.handler_slot[pi] = slot;
            }
            self.stats.handlers.slot_mut(slot).instructions += 1;
        }
        let cost = match step {
            Step::Done { cost, next_ip } => {
                self.regs.bank_mut(priority).ip = next_ip;
                cost
            }
            Step::Retry { cost } | Step::End { cost } | Step::Vectored { cost } => cost,
            Step::Yield => {
                self.class[pi] = first_class;
                self.regs.bank_mut(priority).ip = first_ip;
                return false;
            }
            Step::Error => return false,
        };
        if self.error.is_some() {
            return false;
        }
        let cost = (cost + fetch_extra).max(1);
        self.stats.add_cycles(self.class[pi], cost);
        self.busy_until = start + cost;
        if SPEC {
            self.spec_end = start + 1;
        }
        matches!(step, Step::Done { .. })
    }

    /// What a hazard met `cost` cycles into an instruction makes of it.
    /// Cold: inlined at each of `exec_one`'s hazard sites it made the
    /// interpreter loop ~5 % slower per instruction.
    #[cold]
    fn blocked(&mut self, priority: Priority, hazard: Hazard, spec: bool, cost: u64) -> Step {
        match hazard {
            _ if spec => Step::Yield,
            Hazard::Stall => {
                self.stats.arrival_stalls += 1;
                Step::Retry { cost: 1 }
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
                Step::Vectored { cost: entry + cost }
            }
            Hazard::Visible => unreachable!("only a stretch stops at a visible access"),
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

    /// Resolves a memory reference to an absolute address.
    #[inline]
    fn resolve_mem(&self, priority: Priority, m: MemRef) -> Result<u32, Hazard> {
        let bank = self.regs.bank(priority);
        let desc_word = bank.a[m.base.index()];
        if desc_word.tag() != Tag::Addr {
            return Err(Hazard::Fault(FaultKind::Bounds, desc_word, Word::NIL));
        }
        let desc = SegDesc::from_word(desc_word);
        let index = match m.index {
            Index::Disp(d) => d,
            Index::Reg(r) => {
                let w = bank.r[r.index()];
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
        };
        match desc.address(index) {
            Some(addr) => Ok(addr),
            None => Err(Hazard::Fault(
                FaultKind::Bounds,
                desc_word,
                Word::int(index as i32),
            )),
        }
    }

    /// Reads the word at an absolute address, charging region cost into
    /// `extra`. Queue-window reads stall until the word has arrived; a
    /// stretch (`SPEC`) stops at the staging window.
    #[inline]
    fn addressed_read<const SPEC: bool>(&self, addr: u32, extra: &mut u64) -> Result<Word, Hazard> {
        let t = &self.config.timing;
        if addr < MEM_WORDS {
            *extra += if Memory::is_internal(addr) {
                t.imem_operand
            } else {
                t.emem_operand
            };
            return Ok(self.mem.read(addr));
        }
        for (q, &base) in QUEUE_VBASE.iter().enumerate() {
            let cap = self.queues[q].capacity() as u32;
            // The window is twice the ring size: a message descriptor's
            // base is `head_slot`, so in-message offsets may run past the
            // ring end and wrap (read_slot reduces modulo the capacity).
            if addr >= base && addr < base + 2 * cap {
                *extra += t.queue_operand;
                let slot = self.queues[q].read_slot((addr - base) as usize);
                return slot.ok_or(Hazard::Stall);
            }
        }
        if (STAGING_VBASE..STAGING_VBASE + 3 * STAGING_FRAME).contains(&addr) {
            if SPEC {
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
    /// Inside a stretch (`SPEC`) the overwritten word goes to its undo log,
    /// and a write that would allocate a DRAM page, or any staging-window
    /// write, stops the stretch.
    #[inline]
    fn addressed_write<const SPEC: bool>(
        &mut self,
        addr: u32,
        word: Word,
        extra: &mut u64,
    ) -> Result<(), Hazard> {
        let t = &self.config.timing;
        if addr < MEM_WORDS {
            *extra += if Memory::is_internal(addr) {
                t.imem_operand
            } else {
                t.emem_operand
            };
            if SPEC {
                if !self.mem.is_mapped(addr) {
                    return Err(Hazard::Visible);
                }
                self.stretch.undo.push((addr, self.mem.read(addr)));
            }
            self.mem.write(addr, word);
            return Ok(());
        }
        if (STAGING_VBASE..STAGING_VBASE + 3 * STAGING_FRAME).contains(&addr) {
            if SPEC {
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

    #[inline]
    fn read_src<const SPEC: bool>(
        &self,
        priority: Priority,
        src: Src,
        level: ReadLevel,
        now: u64,
        extra: &mut u64,
    ) -> Result<Word, Hazard> {
        let t = &self.config.timing;
        let (word, addr) = match src {
            Src::D(r) => (self.regs.bank(priority).r[r.index()], Word::NIL),
            Src::A(a) => (self.regs.bank(priority).a[a.index()], Word::NIL),
            Src::Sp(sp) => (self.read_special(sp, now), Word::NIL),
            Src::Imm(w) => {
                if !(w.tag() == Tag::Int && (-128..128).contains(&w.as_i32())) {
                    *extra += t.imm_ext;
                }
                // Immediates are program text, not data: a `cfut` immediate
                // is how slots are (re)initialized, so it never faults as a
                // MOVE source. Computing uses still enforce tags below by
                // falling through.
                if level == ReadLevel::Move {
                    return Ok(w);
                }
                (w, Word::NIL)
            }
            Src::Mem(m) => {
                let addr = self.resolve_mem(priority, m)?;
                (
                    self.addressed_read::<SPEC>(addr, extra)?,
                    Word::int(addr as i32),
                )
            }
        };
        // Inside a fault handler the MDP masks presence-tag faults (a
        // nested fault would clobber the staging buffer), so handlers can
        // copy arbitrary words with plain MOVEs.
        let level = if self.in_fault[priority.index()] {
            ReadLevel::Raw
        } else {
            level
        };
        match level {
            ReadLevel::Raw => Ok(word),
            ReadLevel::Move => {
                if word.faults_on_read() {
                    Err(Hazard::Fault(FaultKind::CFutRead, word, addr))
                } else {
                    Ok(word)
                }
            }
            ReadLevel::Use => {
                if word.tag() == Tag::CFut {
                    Err(Hazard::Fault(FaultKind::CFutRead, word, addr))
                } else if word.tag() == Tag::Fut {
                    Err(Hazard::Fault(FaultKind::FutUse, word, addr))
                } else {
                    Ok(word)
                }
            }
        }
    }

    #[inline]
    fn write_dst<const SPEC: bool>(
        &mut self,
        priority: Priority,
        dst: Dst,
        word: Word,
        extra: &mut u64,
    ) -> Result<(), Hazard> {
        match dst {
            Dst::D(r) => {
                self.regs.bank_mut(priority).r[r.index()] = word;
                Ok(())
            }
            Dst::A(a) => {
                self.regs.bank_mut(priority).a[a.index()] = word;
                Ok(())
            }
            Dst::Mem(m) => {
                let addr = self.resolve_mem(priority, m)?;
                self.addressed_write::<SPEC>(addr, word, extra)
            }
        }
    }

    #[inline]
    fn alu2(&self, op: AluOp, a: Word, b: Word) -> Result<Word, Hazard> {
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

    fn exec_one<const SPEC: bool, P: NetPort + ?Sized>(
        &mut self,
        priority: Priority,
        instr: Instruction,
        ip: u32,
        now: u64,
        net: &mut P,
    ) -> Step {
        let pi = priority.index();
        let base = self.config.timing.base;
        let mut extra = 0u64;

        macro_rules! hazard {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(hazard) => return self.blocked(priority, hazard, SPEC, base + extra),
                }
            };
        }
        // A source operand read at a `ReadLevel`, and a destination write.
        macro_rules! src {
            ($src:expr, $level:ident) => {
                hazard!(self.read_src::<SPEC>(priority, $src, ReadLevel::$level, now, &mut extra))
            };
        }
        macro_rules! dst {
            ($dst:expr, $word:expr) => {
                hazard!(self.write_dst::<SPEC>(priority, $dst, $word, &mut extra))
            };
        }

        match instr {
            Instruction::Mark { .. } => unreachable!("handled in step"),
            Instruction::Move { dst, src } => {
                let v = src!(src, Move);
                dst!(dst, v);
                Step::Done {
                    cost: base + extra,
                    next_ip: ip + 1,
                }
            }
            Instruction::Alu { op, dst, a, b } => {
                let av = src!(a, Use);
                let bv = src!(b, Use);
                let out = hazard!(self.alu2(op, av, bv));
                dst!(dst, out);
                let op_extra = match op {
                    AluOp::Mul => self.config.timing.mul,
                    AluOp::Div | AluOp::Rem => self.config.timing.div,
                    _ => 0,
                };
                Step::Done {
                    cost: base + extra + op_extra,
                    next_ip: ip + 1,
                }
            }
            Instruction::Alu1 { op, dst, src } => {
                let v = src!(src, Use);
                let out = match op {
                    Alu1Op::Neg => {
                        if v.tag() != Tag::Int {
                            hazard!(Err(Hazard::Fault(FaultKind::TagMismatch, v, Word::NIL)))
                        } else {
                            Word::int(v.as_i32().wrapping_neg())
                        }
                    }
                    Alu1Op::Not => {
                        if v.tag() != Tag::Bool {
                            hazard!(Err(Hazard::Fault(FaultKind::TagMismatch, v, Word::NIL)))
                        } else {
                            Word::bool(!v.as_bool())
                        }
                    }
                    Alu1Op::Inv => {
                        if v.tag() != Tag::Int {
                            hazard!(Err(Hazard::Fault(FaultKind::TagMismatch, v, Word::NIL)))
                        } else {
                            Word::int(!v.as_i32())
                        }
                    }
                };
                dst!(dst, out);
                Step::Done {
                    cost: base + extra,
                    next_ip: ip + 1,
                }
            }
            Instruction::Br { off } => Step::Done {
                cost: base + self.config.timing.branch_taken,
                next_ip: (ip as i64 + 1 + off as i64) as u32,
            },
            Instruction::Bc { cond, src, off } => {
                let v = src!(src, Use);
                let taken = match cond {
                    Cond::True | Cond::False => {
                        if v.tag() != Tag::Bool {
                            hazard!(Err(Hazard::Fault(FaultKind::TagMismatch, v, Word::NIL)))
                        } else {
                            (cond == Cond::True) == v.as_bool()
                        }
                    }
                    Cond::Zero | Cond::NonZero => {
                        if v.tag() != Tag::Int {
                            hazard!(Err(Hazard::Fault(FaultKind::TagMismatch, v, Word::NIL)))
                        } else {
                            (cond == Cond::Zero) == (v.as_i32() == 0)
                        }
                    }
                };
                let (cost, next_ip) = if taken {
                    (
                        base + extra + self.config.timing.branch_taken,
                        (ip as i64 + 1 + off as i64) as u32,
                    )
                } else {
                    (base + extra, ip + 1)
                };
                Step::Done { cost, next_ip }
            }
            Instruction::Jmp { target } => {
                let v = src!(target, Use);
                if v.tag() != Tag::Ip && v.tag() != Tag::Int {
                    hazard!(Err(Hazard::Fault(FaultKind::TagMismatch, v, Word::NIL)))
                }
                Step::Done {
                    cost: base + extra + self.config.timing.jump,
                    next_ip: v.bits(),
                }
            }
            Instruction::Jal { link, off } => {
                self.regs.bank_mut(priority).r[link.index()] = Word::ip(ip + 1);
                Step::Done {
                    cost: base + self.config.timing.jump,
                    next_ip: (ip as i64 + 1 + off as i64) as u32,
                }
            }
            Instruction::Send {
                priority: mp,
                a,
                b,
                end,
            } => self.exec_send::<SPEC, P>(priority, mp, a, b, end, ip, now, net),
            Instruction::Suspend => match priority {
                Priority::Background => {
                    self.end_thread(priority, now);
                    Step::End { cost: base }
                }
                Priority::P0 | Priority::P1 => {
                    let q = if priority == Priority::P0 { 0 } else { 1 };
                    if self.msg_ctx[q].is_some() && !self.queues[q].head_complete() {
                        self.stats.arrival_stalls += 1;
                        return Step::Retry { cost: 1 };
                    }
                    self.end_thread(priority, now);
                    Step::End { cost: base }
                }
            },
            Instruction::Resume => {
                let frame = self.staging[pi];
                let staged_ip = frame[8];
                if staged_ip.tag() != Tag::Ip {
                    self.error = Some(NodeError::BadResume(staged_ip));
                    return Step::Error;
                }
                let bank = self.regs.bank_mut(priority);
                bank.r.copy_from_slice(&frame[..4]);
                bank.a.copy_from_slice(&frame[4..8]);
                self.in_fault[pi] = false;
                Step::Done {
                    cost: base + self.config.timing.resume_extra,
                    next_ip: staged_ip.bits(),
                }
            }
            Instruction::Rtag { dst, src } => {
                let v = src!(src, Raw);
                let tag = Word::int(i32::from(v.tag().bits()));
                dst!(dst, tag);
                Step::Done {
                    cost: base + extra,
                    next_ip: ip + 1,
                }
            }
            Instruction::Wtag { dst, src, tag } => {
                let v = src!(src, Raw);
                let t = src!(tag, Use);
                if t.tag() != Tag::Int {
                    hazard!(Err(Hazard::Fault(FaultKind::TagMismatch, t, Word::NIL)))
                }
                let new_tag = Tag::from_bits((t.bits() & 0xf) as u8);
                dst!(dst, v.retagged(new_tag));
                Step::Done {
                    cost: base + extra,
                    next_ip: ip + 1,
                }
            }
            Instruction::Check { dst, src, tag } => {
                let v = src!(src, Raw);
                dst!(dst, Word::bool(v.tag() == tag));
                Step::Done {
                    cost: base + extra,
                    next_ip: ip + 1,
                }
            }
            Instruction::Enter { key, value } => {
                let k = src!(key, Raw);
                let v = src!(value, Raw);
                self.xlate.enter(k, v);
                Step::Done {
                    cost: base + extra + self.config.timing.enter_extra,
                    next_ip: ip + 1,
                }
            }
            Instruction::Xlate { dst, key } => {
                let k = src!(key, Raw);
                self.stats.xlates += 1;
                match self.xlate.xlate(k) {
                    Some(v) => {
                        dst!(dst, v);
                        Step::Done {
                            cost: base + extra + self.config.timing.xlate_extra,
                            next_ip: ip + 1,
                        }
                    }
                    None => {
                        self.stats.xlate_misses += 1;
                        hazard!(Err(Hazard::Fault(FaultKind::XlateMiss, k, Word::NIL)));
                        unreachable!()
                    }
                }
            }
            Instruction::Probe { dst, key } => {
                let k = src!(key, Raw);
                self.stats.xlates += 1;
                let v = self.xlate.xlate(k).unwrap_or_else(|| {
                    self.stats.xlate_misses += 1;
                    Word::NIL
                });
                dst!(dst, v);
                Step::Done {
                    cost: base + extra + self.config.timing.xlate_extra,
                    next_ip: ip + 1,
                }
            }
            Instruction::Halt => {
                self.halted = true;
                self.bg_runnable = false;
                Step::End { cost: base }
            }
            Instruction::Nop => Step::Done {
                cost: base,
                next_ip: ip + 1,
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_send<const SPEC: bool, P: NetPort + ?Sized>(
        &mut self,
        priority: Priority,
        mp: MsgPriority,
        a: Src,
        b: Option<Src>,
        end: bool,
        ip: u32,
        now: u64,
        net: &mut P,
    ) -> Step {
        let pi = priority.index();
        let base = self.config.timing.base;
        debug_assert!(!SPEC || !(end || self.commit_pending[pi]));
        let mut extra = 0u64;
        // Compose (unless this is a retried commit, whose operands were
        // already appended before the send fault). Both operands are read
        // before either is appended: a `SEND2` that stalls or faults on
        // its second retries (or resumes) from a composition that does not
        // hold its first.
        if !self.commit_pending[pi] {
            let mut words = [Word::NIL; 2];
            let operands = [Some(a), b];
            for (word, src) in words.iter_mut().zip(operands.iter().flatten()) {
                *word =
                    match self.read_src::<SPEC>(priority, *src, ReadLevel::Move, now, &mut extra) {
                        Ok(word) => word,
                        Err(hazard) => return self.blocked(priority, hazard, SPEC, base + extra),
                    };
            }
            let count = if b.is_some() { 2 } else { 1 };
            self.compose[pi].extend_from_slice(&words[..count]);
            if end {
                self.commit_pending[pi] = true;
            }
        }
        // Launch on message end.
        if self.commit_pending[pi] {
            match net.commit(mp, &self.compose[pi]) {
                InjectAck::Accepted => {
                    self.compose[pi].clear();
                    self.commit_pending[pi] = false;
                    self.stats.msgs_sent += 1;
                }
                InjectAck::Stall => {
                    self.stats.send_faults += 1;
                    return Step::Retry { cost: 1 };
                }
                InjectAck::Rejected => {
                    let word = self.compose[pi].first().copied().unwrap_or(Word::NIL);
                    self.error = Some(NodeError::BadSend(word));
                    return Step::Error;
                }
            }
        }
        self.stats.sends += 1;
        Step::Done {
            cost: base + extra,
            next_ip: ip + 1,
        }
    }
}
