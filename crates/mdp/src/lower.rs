//! One decode: a program's code lowered, once, into the table of ops the
//! executor runs (DESIGN.md §4.5, "One decode").
//!
//! Code never changes after load, so everything the interpreter would
//! otherwise work out for every instruction it retires is worked out here,
//! once per program: which kind of operand each one is, what an immediate
//! costs, where a branch lands, what the instruction costs before its
//! operands are read (code in external memory included), whether a stretch
//! may run it, and which attribution class the `MARK`s in front of it
//! select. [`Instruction`] stays the assembler's and the encoder's type;
//! the executor never sees one. Every node running a program shares its
//! [`Code`].

use crate::config::TimingConfig;
use jm_asm::Program;
use jm_isa::consts::EMEM_BASE;
use jm_isa::instr::{Alu1Op, AluOp, Cond, Instruction, MsgPriority, StatClass};
use jm_isa::operand::{Dst, Index, MemRef, Special, Src};
use jm_isa::reg::{AReg, DReg};
use jm_isa::tag::Tag;
use std::cell::RefCell;
use std::sync::{Arc, Weak};

/// A program lowered for execution under one timing model: one op per
/// instruction index. Nodes built from one `Code`
/// ([`MdpNode::with_code`](crate::MdpNode::with_code)) share its table.
#[derive(Debug)]
pub struct Code {
    pub(crate) program: Arc<Program>,
    pub(crate) timing: TimingConfig,
    pub(crate) ops: Arc<[Op]>,
}

impl Code {
    /// Lowers `program`'s code, its costs under `timing`.
    pub fn lower(program: Arc<Program>, timing: &TimingConfig) -> Code {
        let code = &program.code;
        // Where code crosses into external memory (two instructions per
        // word, nominally); every instruction from there on costs an extra
        // fetch.
        let emem_from = if program.code_base >= EMEM_BASE {
            0
        } else {
            (EMEM_BASE - program.code_base).saturating_mul(2)
        };
        let past_end = code.len() as u32;
        let mut ops = vec![Op::past_end(past_end, StatClass::Compute); code.len()];
        // Backwards, so that a `MARK` finds the op it prefixes lowered.
        for ip in (0..code.len()).rev() {
            ops[ip] = match code[ip] {
                Instruction::Mark { class } => {
                    let mut op = ops
                        .get(ip + 1)
                        .copied()
                        .unwrap_or(Op::past_end(past_end, class));
                    // Of a run of `MARK`s the last one taken is the one
                    // nearest the instruction.
                    op.class = op.class.or(Some(class));
                    op
                }
                instr => Op::lower(instr, ip as u32, ip as u32 >= emem_from, timing),
            };
        }
        Code {
            program,
            timing: *timing,
            ops: ops.into(),
        }
    }

    /// [`Self::lower`], once for all the nodes one thread builds from the
    /// same `Arc<Program>` and timing while any of them lives: a host that
    /// builds its own nodes with [`MdpNode::new`](crate::MdpNode::new) —
    /// jmbench's split stepper and interpreter kernel — gets one table, as
    /// a `JMachine` does, not a copy per node in every cache.
    pub(crate) fn shared(program: Arc<Program>, timing: &TimingConfig) -> Code {
        type Entry = (Weak<Program>, TimingConfig, Weak<[Op]>);
        thread_local! {
            static LOWERED: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
        }
        LOWERED.with_borrow_mut(|lowered| {
            lowered.retain(|(_, _, ops)| ops.strong_count() > 0);
            let same = |(p, t, _): &&Entry| p.as_ptr() == Arc::as_ptr(&program) && t == timing;
            if let Some(ops) = lowered
                .iter()
                .find(same)
                .and_then(|(_, _, ops)| ops.upgrade())
            {
                return Code {
                    program,
                    timing: *timing,
                    ops,
                };
            }
            let code = Code::lower(Arc::clone(&program), timing);
            let entry = (Arc::downgrade(&program), *timing, Arc::downgrade(&code.ops));
            lowered.push(entry);
            code
        })
    }
}

/// What an op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Nop,
    Move,
    Alu(AluOp),
    Alu1(Alu1Op),
    Br,
    Bc(Cond),
    Jmp,
    Jal,
    /// A `SEND` or `SEND2` that does not end its message.
    Send(MsgPriority),
    Rtag,
    Wtag,
    Check(Tag),
    /// The `SENDE` forms: they commit the message.
    SendEnd(MsgPriority),
    Suspend,
    Resume,
    Enter,
    Xlate,
    Probe,
    Halt,
    /// Nothing: the `MARK`s at the end of the code run off it.
    PastEnd,
}

/// An operand, resolved. Its 32-bit payload (an immediate's bits, a
/// displacement, an index register's number) is the op's `val` at the
/// operand's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Opd {
    None,
    D(DReg),
    A(AReg),
    /// An immediate in the instruction word, with this tag.
    Imm(Tag),
    /// An immediate in an extension word, which costs `imm_ext` to read.
    Ext(Tag),
    Sp(Special),
    /// `[base + displacement]`.
    Disp(AReg),
    /// `[base + index register]`.
    Index(AReg),
}

/// One instruction, lowered: its kind, its operands — sources `a`, `b` and
/// destination `d` (`JAL`'s link register) — their payloads in `val`, with
/// a branch's absolute target in `d`'s, the index after the instruction,
/// and its cost before operand access and a taken branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Op {
    pub(crate) kind: Kind,
    pub(crate) a: Opd,
    pub(crate) b: Opd,
    pub(crate) d: Opd,
    /// The class the `MARK`s in front of the instruction select (`None`
    /// when none precede it). An op at a `MARK`'s index is the instruction
    /// after the run, with this class and `next` past it.
    pub(crate) class: Option<StatClass>,
    /// Whether a stretch may run it ([`crate::stretch`]).
    pub(crate) private: bool,
    /// Whether its code word is in external memory.
    pub(crate) emem: bool,
    pub(crate) val: [u32; 3],
    pub(crate) next: u32,
    pub(crate) cost: u32,
}

// The table is walked on every retired instruction: two ops to a cache line.
const _: () = assert!(std::mem::size_of::<Op>() <= 32);

impl Op {
    /// The op where nothing follows a run of `MARK`s: taking them leaves the
    /// IP at `past_end`, out of range.
    fn past_end(past_end: u32, class: StatClass) -> Op {
        Op {
            kind: Kind::PastEnd,
            a: Opd::None,
            b: Opd::None,
            d: Opd::None,
            class: Some(class),
            private: false,
            emem: false,
            val: [0; 3],
            next: past_end + 1,
            cost: 0,
        }
    }

    fn lower(instr: Instruction, ip: u32, emem: bool, t: &TimingConfig) -> Op {
        let target = |off: i32| (i64::from(ip) + 1 + i64::from(off)) as u32;
        let mut op = Op {
            kind: Kind::Nop,
            a: Opd::None,
            b: Opd::None,
            d: Opd::None,
            class: None,
            private: true,
            emem,
            val: [0; 3],
            next: ip + 1,
            cost: 0,
        };
        let mut extra = 0;
        op.kind = match instr {
            Instruction::Mark { .. } => unreachable!("a MARK lowers into the op after it"),
            Instruction::Nop => Kind::Nop,
            Instruction::Move { dst, src } => {
                op.dst(dst).src(0, src);
                Kind::Move
            }
            Instruction::Alu { op: alu, dst, a, b } => {
                op.dst(dst).src(0, a).src(1, b);
                extra = match alu {
                    AluOp::Mul => t.mul,
                    AluOp::Div | AluOp::Rem => t.div,
                    _ => 0,
                };
                Kind::Alu(alu)
            }
            Instruction::Alu1 { op: alu, dst, src } => {
                op.dst(dst).src(0, src);
                Kind::Alu1(alu)
            }
            Instruction::Br { off } => {
                op.val[2] = target(off);
                extra = t.branch_taken;
                Kind::Br
            }
            Instruction::Bc { cond, src, off } => {
                op.src(0, src).val[2] = target(off);
                Kind::Bc(cond)
            }
            Instruction::Jmp { target } => {
                op.src(0, target);
                extra = t.jump;
                Kind::Jmp
            }
            Instruction::Jal { link, off } => {
                op.d = Opd::D(link);
                op.val[2] = target(off);
                extra = t.jump;
                Kind::Jal
            }
            Instruction::Send {
                priority,
                a,
                b,
                end,
            } => {
                op.src(0, a);
                if let Some(b) = b {
                    op.src(1, b);
                }
                if end {
                    Kind::SendEnd(priority)
                } else {
                    Kind::Send(priority)
                }
            }
            Instruction::Suspend => Kind::Suspend,
            Instruction::Resume => {
                extra = t.resume_extra;
                Kind::Resume
            }
            Instruction::Rtag { dst, src } => {
                op.dst(dst).src(0, src);
                Kind::Rtag
            }
            Instruction::Wtag { dst, src, tag } => {
                op.dst(dst).src(0, src).src(1, tag);
                Kind::Wtag
            }
            Instruction::Check { dst, src, tag } => {
                op.dst(dst).src(0, src);
                Kind::Check(tag)
            }
            Instruction::Enter { key, value } => {
                op.src(0, key).src(1, value);
                extra = t.enter_extra;
                Kind::Enter
            }
            Instruction::Xlate { dst, key } => {
                op.dst(dst).src(0, key);
                extra = t.xlate_extra;
                Kind::Xlate
            }
            Instruction::Probe { dst, key } => {
                op.dst(dst).src(0, key);
                extra = t.xlate_extra;
                Kind::Probe
            }
            Instruction::Halt => Kind::Halt,
        };
        // See [`crate::stretch`] for why these are not private.
        op.private = !matches!(
            op.kind,
            Kind::SendEnd(_)
                | Kind::Suspend
                | Kind::Resume
                | Kind::Enter
                | Kind::Xlate
                | Kind::Probe
                | Kind::Halt
        );
        let fetch = if emem { t.emem_fetch } else { 0 };
        // Each term is at most `MAX_CYCLE_COST` (2^20), so the sum fits.
        op.cost = (t.base + extra + fetch) as u32;
        op
    }

    /// Sets source operand `k` (`a` or `b`).
    fn src(&mut self, k: usize, src: Src) -> &mut Op {
        let (opd, val) = match src {
            Src::D(r) => (Opd::D(r), 0),
            Src::A(a) => (Opd::A(a), 0),
            Src::Imm(w) if w.tag() == Tag::Int && (-128..128).contains(&w.as_i32()) => {
                (Opd::Imm(Tag::Int), w.bits())
            }
            Src::Imm(w) => (Opd::Ext(w.tag()), w.bits()),
            Src::Sp(sp) => (Opd::Sp(sp), 0),
            Src::Mem(m) => mem(m),
        };
        if k == 0 {
            self.a = opd;
        } else {
            self.b = opd;
        }
        self.val[k] = val;
        self
    }

    /// Sets the destination operand.
    fn dst(&mut self, dst: Dst) -> &mut Op {
        (self.d, self.val[2]) = match dst {
            Dst::D(r) => (Opd::D(r), 0),
            Dst::A(a) => (Opd::A(a), 0),
            Dst::Mem(m) => mem(m),
        };
        self
    }
}

fn mem(m: MemRef) -> (Opd, u32) {
    match m.index {
        Index::Disp(d) => (Opd::Disp(m.base), d),
        Index::Reg(r) => (Opd::Index(m.base), r.index() as u32),
    }
}

/// The instruction generator of `jm-isa`'s encoding round trip.
#[cfg(test)]
#[path = "../../isa/tests/arb/mod.rs"]
mod arb;

#[cfg(test)]
mod tests {
    use super::*;
    use jm_isa::consts::EMEM_BASE;
    use jm_prng::Prng;

    fn lowered(code: Vec<Instruction>, code_base: u32) -> Code {
        let program = Program {
            code,
            code_base,
            ..Program::default()
        };
        Code::lower(Arc::new(program), &TimingConfig::default())
    }

    /// The source operand `opd`, with payload `val`, was lowered from.
    fn src(opd: Opd, val: u32) -> Src {
        match opd {
            Opd::D(r) => Src::D(r),
            Opd::A(a) => Src::A(a),
            Opd::Imm(tag) | Opd::Ext(tag) => Src::Imm(jm_isa::word::Word::new(tag, val)),
            Opd::Sp(sp) => Src::Sp(sp),
            Opd::Disp(base) => Src::Mem(MemRef::disp(base, val)),
            Opd::Index(base) => Src::Mem(MemRef::reg(base, DReg::from_index(val as usize))),
            Opd::None => panic!("no operand"),
        }
    }

    /// The destination operand `opd`, with payload `val`, was lowered from.
    fn dst(opd: Opd, val: u32) -> Dst {
        match src(opd, val) {
            Src::D(r) => Dst::D(r),
            Src::A(a) => Dst::A(a),
            Src::Mem(m) => Dst::Mem(m),
            other => panic!("{other} is no destination"),
        }
    }

    /// The instruction the op at `ip` was lowered from (the one after the
    /// `MARK`s, for an op at a `MARK`'s index).
    fn raise(op: &Op, ip: u32) -> Instruction {
        let a = || src(op.a, op.val[0]);
        let b = || src(op.b, op.val[1]);
        let d = || dst(op.d, op.val[2]);
        let off = op.val[2].wrapping_sub(ip).wrapping_sub(1) as i32;
        match op.kind {
            Kind::Nop => Instruction::Nop,
            Kind::Move => Instruction::Move { dst: d(), src: a() },
            Kind::Alu(alu) => Instruction::Alu {
                op: alu,
                dst: d(),
                a: a(),
                b: b(),
            },
            Kind::Alu1(alu) => Instruction::Alu1 {
                op: alu,
                dst: d(),
                src: a(),
            },
            Kind::Br => Instruction::Br { off },
            Kind::Bc(cond) => Instruction::Bc {
                cond,
                src: a(),
                off,
            },
            Kind::Jmp => Instruction::Jmp { target: a() },
            Kind::Jal => {
                let Opd::D(link) = op.d else {
                    panic!("JAL without a link register")
                };
                Instruction::Jal { link, off }
            }
            Kind::Send(priority) | Kind::SendEnd(priority) => Instruction::Send {
                priority,
                a: a(),
                b: (op.b != Opd::None).then(b),
                end: matches!(op.kind, Kind::SendEnd(_)),
            },
            Kind::Suspend => Instruction::Suspend,
            Kind::Resume => Instruction::Resume,
            Kind::Rtag => Instruction::Rtag { dst: d(), src: a() },
            Kind::Wtag => Instruction::Wtag {
                dst: d(),
                src: a(),
                tag: b(),
            },
            Kind::Check(tag) => Instruction::Check {
                dst: d(),
                src: a(),
                tag,
            },
            Kind::Enter => Instruction::Enter {
                key: a(),
                value: b(),
            },
            Kind::Xlate => Instruction::Xlate { dst: d(), key: a() },
            Kind::Probe => Instruction::Probe { dst: d(), key: a() },
            Kind::Halt => Instruction::Halt,
            Kind::PastEnd => panic!("nothing was lowered past the end"),
        }
    }

    /// Every instruction the encoder's generator makes — `MARK`s included,
    /// in runs — lowers to an op that gives it back field for field, with
    /// an extension-word immediate exactly where the encoder needs one and
    /// the privacy the stretch rules give it.
    #[test]
    fn every_instruction_lowers_to_an_op_that_gives_it_back() {
        let mut g = Prng::from_label("lowering_round_trips", 0);
        for _ in 0..3_000 {
            let code: Vec<Instruction> = (0..8).map(|_| super::arb::arb_instr(&mut g)).collect();
            let lowered = lowered(code.clone(), 16);
            for (ip, op) in lowered.ops.iter().enumerate() {
                let at = code[ip..]
                    .iter()
                    .position(|i| !matches!(i, Instruction::Mark { .. }))
                    .map(|k| ip + k);
                let mut marks = code[ip..at.unwrap_or(code.len())].iter().map(|i| match i {
                    Instruction::Mark { class } => *class,
                    _ => unreachable!(),
                });
                assert_eq!(op.class, marks.next_back(), "{:?} at {ip}", code[ip]);
                let Some(at) = at else {
                    assert_eq!((op.kind, op.next), (Kind::PastEnd, code.len() as u32 + 1));
                    continue;
                };
                let instr = code[at];
                assert_eq!(op.next, at as u32 + 1);
                assert_eq!(raise(op, at as u32), instr, "at {at}");
                for (opd, val) in [(op.a, op.val[0]), (op.b, op.val[1])] {
                    if let Opd::Imm(_) | Opd::Ext(_) = opd {
                        let wide = jm_isa::encode::encode(&Instruction::Move {
                            dst: Dst::D(DReg::R0),
                            src: src(opd, val),
                        })
                        .slots()
                            > 1;
                        assert_eq!(matches!(opd, Opd::Ext(_)), wide, "{instr}");
                    }
                }
                let visible = matches!(
                    instr,
                    Instruction::Send { end: true, .. }
                        | Instruction::Suspend
                        | Instruction::Halt
                        | Instruction::Resume
                        | Instruction::Enter { .. }
                        | Instruction::Xlate { .. }
                        | Instruction::Probe { .. }
                );
                assert_eq!(op.private, !visible, "{instr}");
            }
        }
    }

    /// An op's cost is what the instruction costs before its operands are
    /// read and a branch is taken: the base cycle, the operation's own
    /// extra, and the fetch from external memory past the boundary.
    #[test]
    fn costs_fold_the_operation_and_the_fetch() {
        let t = TimingConfig::default();
        let code = vec![
            Instruction::Nop,
            Instruction::Alu {
                op: AluOp::Div,
                dst: Dst::D(DReg::R0),
                a: Src::D(DReg::R1),
                b: Src::imm(3),
            },
            Instruction::Br { off: -3 },
            Instruction::Resume,
        ];
        let inside = lowered(code.clone(), 16);
        let costs: Vec<u32> = inside.ops.iter().map(|op| op.cost).collect();
        let expect = [
            t.base,
            t.base + t.div,
            t.base + t.branch_taken,
            t.base + t.resume_extra,
        ];
        assert_eq!(costs, expect.map(|c| c as u32));
        assert!(inside.ops.iter().all(|op| !op.emem));
        assert_eq!(inside.ops[2].val[2], 0, "BR -3 from index 2 lands on 0");
        // Code placed in external memory pays the fetch on every op.
        let outside = lowered(code, EMEM_BASE);
        for (op, cost) in outside.ops.iter().zip(expect) {
            assert!(op.emem);
            assert_eq!(u64::from(op.cost), cost + t.emem_fetch);
        }
    }

    /// Nodes built one by one from one `Arc<Program>` share one table while
    /// any of them lives; another timing model, or another program, is
    /// lowered afresh.
    #[test]
    fn nodes_built_alone_share_one_table() {
        let program = Arc::new(Program {
            code: vec![Instruction::Nop; 4],
            code_base: 16,
            ..Program::default()
        });
        let t = TimingConfig::default();
        let first = Code::shared(Arc::clone(&program), &t);
        let second = Code::shared(Arc::clone(&program), &t);
        assert!(Arc::ptr_eq(&first.ops, &second.ops));
        let slow = TimingConfig { base: 2, ..t };
        assert!(!Arc::ptr_eq(
            &first.ops,
            &Code::shared(Arc::clone(&program), &slow).ops
        ));
        let other = Arc::new(Program::clone(&program));
        assert!(!Arc::ptr_eq(&first.ops, &Code::shared(other, &t).ops));
        // Once no node holds the table, the next one lowers it again.
        let weak = Arc::downgrade(&first.ops);
        drop((first, second));
        assert_eq!(weak.strong_count(), 0);
        assert_eq!(Code::shared(program, &t).ops.len(), 4);
    }
}
