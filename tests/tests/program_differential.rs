//! A differential over programs nobody wrote. A seeded generator builds
//! MDP programs that terminate by construction, through `jm_asm::Builder`:
//!
//! * ALU and tag operations (`RTAG`, `WTAG`, `CHECK`) over registers,
//!   immediates, specials and memory operands;
//! * loads and stores in internal and external memory, some of them the
//!   first write to a DRAM page;
//! * bounded loops and bounded polling loops, forward branches, leaf calls,
//!   with `MARK`s at branch targets and in front of the instructions a
//!   stretch stops at;
//! * `SEND`/`SEND2`/`SENDE` handler graphs at both priorities, every message
//!   carrying a fuel word its handler decrements before sending on, so every
//!   chain dies;
//! * `cfut`/`fut` slots read under an installed fault handler that fills the
//!   slot and resumes, and `XLATE` misses under one that enters the key;
//! * in about one seed in eight, a fatal fault no handler catches: one node
//!   divides by zero after a counted loop, and the run ends in a node error.
//!
//! Every engine runs each program. The naive reference ticks one
//! instruction per call and the others run on through stretches, so this
//! holds the stretched executor against the unstretched one: the outcome,
//! statistics, declared memory and state hash must agree at the end, and
//! the state hash every few cycles along the way. A divergence is shrunk —
//! handlers, calls and statements dropped while the runs still disagree —
//! and the smallest program is printed with its seed.

use jm_asm::{hdr, Builder, Program, Region};
use jm_isa::consts::FaultKind;
use jm_isa::instr::{Alu1Op, AluOp, MsgPriority, StatClass};
use jm_isa::node::{MeshDims, NodeId};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg, DReg};
use jm_isa::tag::Tag;
use jm_isa::word::{SegDesc, Word};
use jm_isa::RouteWord;
use jm_machine::{Engine, JMachine, MachineConfig, StartPolicy};
use jm_prng::Prng;
use jm_tests::{columns, observe, Observation};

/// Words in the internal and the initialized external data segments.
const DATA_WORDS: u32 = 16;
/// DRAM pages (of 4 096 words) the uninitialized segment spans past its
/// first: stores into it are first touches.
const DRAM_PAGES: u32 = 3;
/// `cfut`/`fut` slots.
const FUT_SLOTS: u32 = 8;
/// Route table: entry `k` routes to node `(id + ROUTE_STEPS[k]) mod N`.
const ROUTE_STEPS: [u32; 4] = [0, 1, 3, 6];
/// Words in every message: header, fuel and three payload words.
const MSG_WORDS: u32 = 5;
/// Name-translation keys.
const KEYS: u32 = 6;
/// Longest run the differential waits for.
const MAX_CYCLES: u64 = 400_000;

/// Where a memory operand points; each segment has its own base register,
/// loaded by the statement that uses it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Seg {
    /// Internal memory, ints only.
    Imem,
    /// External memory, initialized, ints only.
    Emem,
    /// External memory past its first page, unwritten until a store.
    Dram,
    /// Internal memory holding ints, `cfut`s and `fut`s.
    Fut,
    /// Internal memory holding route words, written by the host.
    Routes,
}

impl Seg {
    fn name(self) -> &'static str {
        match self {
            Seg::Imem => "g_imem",
            Seg::Emem => "g_emem",
            Seg::Dram => "g_dram",
            Seg::Fut => "g_fut",
            Seg::Routes => "g_routes",
        }
    }

    fn base(self) -> AReg {
        match self {
            Seg::Imem => AReg::A0,
            Seg::Emem | Seg::Dram => AReg::A1,
            Seg::Fut | Seg::Routes => AReg::A2,
        }
    }
}

/// A source operand. `R0` and `R1` hold ints between statements; `R2` is a
/// statement's scratch, `R3` a loop's counter.
#[derive(Clone, Copy, Debug)]
enum Val {
    R(DReg),
    Int(i32),
    Sp(Special),
    Mem(Seg, u32),
    /// Word `k` of the handler's message (`[A3+k]`).
    Arg(u32),
}

/// A destination operand.
#[derive(Clone, Copy, Debug)]
enum Place {
    R(DReg),
    Mem(Seg, u32),
}

/// How a forward branch decides.
#[derive(Clone, Copy, Debug)]
enum Test {
    /// `op R2, a, b` (a comparison), optionally `NOT R2, R2`, then `BT`/`BF`.
    Cmp(AluOp, Val, Val, bool, bool),
    /// `CHECK R2, v, tag`, then `BT`/`BF`.
    Check(Val, Tag, bool),
    /// `BZ`/`BNZ` on an int.
    Zero(Val, bool),
}

#[derive(Clone, Debug)]
enum Stmt {
    /// `dst = a op b`, an int.
    Alu(AluOp, Place, Val, Val),
    /// `dst = op v` (`NEG` or `INV`).
    Alu1(Alu1Op, Place, Val),
    Move(Place, Val),
    /// `AND R2, R0, 7`, then `R1` loaded from or stored at `[base + R2]`.
    Indexed(Seg, bool),
    /// `WTAG R2, v, #tag` then `RTAG dst, R2`.
    Retag(Place, Val, u8),
    /// A forward branch over `body`, `MARK`ed at its target.
    Skip(Test, Vec<Stmt>, Option<StatClass>),
    /// `body` `n` times, counted in `R3`, `MARK`ed at its head.
    Loop(i32, Vec<Stmt>, Option<StatClass>),
    /// Polls an internal word up to `n` times, leaving once it is non-zero.
    Poll(u32, i32, Option<StatClass>),
    /// Arms slot `k` with a `cfut` (true) or a `fut` (false).
    Arm(u32, bool),
    /// Reads slot `k`: a computing use (`ADD R0, R0, slot`, true) or a move
    /// into the scratch register.
    Touch(u32, bool),
    /// A message to handler `to`, while fuel lasts: route, header, fuel,
    /// `payload`, `R0` and `R1` in one of four `SEND` shapes, `MARK`ed in
    /// front of its end.
    Send {
        to: usize,
        route: usize,
        shape: u8,
        payload: Val,
        /// The background thread's budget (a handler sends its own, less one).
        fuel: i32,
        mark: Option<StatClass>,
    },
    /// `ENTER #key, R0` (0), `PROBE R2, #key` (1) or `XLATE R2, #key` (2).
    Name(u8, u32, Option<StatClass>),
    /// `JAL R2, sub`; the leaf routine returns with `JMP R2`.
    Call(usize),
    Mark(StatClass),
    Nop,
}

#[derive(Clone, Debug)]
struct Handler {
    priority: MsgPriority,
    /// The message word the handler reads first: the words after it may
    /// still be arriving when the body reads them.
    first: u32,
    body: Vec<Stmt>,
    end_mark: Option<StatClass>,
}

/// A generated program before assembly: the background thread, the message
/// handlers and the leaf routines.
#[derive(Clone, Debug)]
struct Gen {
    main: Vec<Stmt>,
    handlers: Vec<Handler>,
    subs: Vec<Vec<Stmt>>,
    /// At the end of its background thread this node turns an empty loop
    /// this many times, then divides by zero with no vector installed.
    fatal: Option<(u32, i32)>,
}

/// What a statement may use where it stands.
#[derive(Clone, Copy)]
struct Ctx {
    /// In a handler (may read its message).
    handler: bool,
    /// Inside a loop (may not use `R3`, send or poll).
    in_loop: bool,
    /// Inside a leaf routine (may not touch `R2`, the link).
    leaf: bool,
    /// Handlers a send may target.
    handlers: usize,
    subs: usize,
}

const INT_OPS: [AluOp; 12] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Lsh,
    AluOp::Ash,
    AluOp::Min,
    AluOp::Max,
];
const CMP_OPS: [AluOp; 6] = [
    AluOp::Eq,
    AluOp::Ne,
    AluOp::Lt,
    AluOp::Le,
    AluOp::Gt,
    AluOp::Ge,
];
const MARKS: [StatClass; 6] = [
    StatClass::Compute,
    StatClass::Comm,
    StatClass::Sync,
    StatClass::Xlate,
    StatClass::NnrCalc,
    StatClass::Idle,
];

fn pick<T: Copy>(g: &mut Prng, from: &[T]) -> T {
    from[g.range_usize(0, from.len())]
}

fn maybe_mark(g: &mut Prng) -> Option<StatClass> {
    g.chance(0.5).then(|| pick(g, &MARKS))
}

fn int_reg(g: &mut Prng) -> DReg {
    if g.chance(0.5) {
        DReg::R0
    } else {
        DReg::R1
    }
}

/// An int-valued memory operand: internal or initialized external memory.
fn int_mem(g: &mut Prng) -> Val {
    let seg = if g.chance(0.6) { Seg::Imem } else { Seg::Emem };
    Val::Mem(seg, g.range_u32(0, DATA_WORDS))
}

/// An int-valued source; a memory operand only if `mem`.
fn int_val(g: &mut Prng, ctx: Ctx, mem: bool) -> Val {
    match g.range_u32(0, 10) {
        0..=2 => Val::R(int_reg(g)),
        3 => Val::Int(g.range_i32(-100, 100)),
        4 => Val::Int(g.next_u32() as i32),
        5 => Val::Sp(pick(g, &[Special::Nid, Special::NNodes, Special::Cycle])),
        6 | 7 if mem => int_mem(g),
        8 if mem && ctx.handler => Val::Arg(g.range_u32(1, MSG_WORDS)),
        _ => Val::R(int_reg(g)),
    }
}

/// Any word at all, for the tag operations (which read raw).
fn any_val(g: &mut Prng, ctx: Ctx) -> Val {
    match g.range_u32(0, 4) {
        0 => Val::Mem(Seg::Fut, g.range_u32(0, FUT_SLOTS)),
        1 => Val::Mem(Seg::Dram, dram_disp(g)),
        2 => Val::Mem(Seg::Routes, g.range_u32(0, ROUTE_STEPS.len() as u32)),
        _ => int_val(g, ctx, true),
    }
}

/// A DRAM displacement near the start of one of the segment's pages.
fn dram_disp(g: &mut Prng) -> u32 {
    g.range_u32(0, DRAM_PAGES + 1) * 4096 + g.range_u32(0, 8)
}

/// An int destination, in memory with probability `p`.
fn place(g: &mut Prng, p: f64) -> Place {
    if !g.chance(p) {
        return Place::R(int_reg(g));
    }
    match g.range_u32(0, 3) {
        0 => Place::Mem(Seg::Imem, g.range_u32(0, DATA_WORDS)),
        1 => Place::Mem(Seg::Emem, g.range_u32(0, DATA_WORDS)),
        _ => Place::Mem(Seg::Dram, dram_disp(g)),
    }
}

fn is_mem(v: Val) -> bool {
    matches!(v, Val::Mem(..) | Val::Arg(_))
}

fn stmt(g: &mut Prng, ctx: Ctx, depth: u32) -> Stmt {
    loop {
        let s = match g.range_u32(0, 20) {
            0..=3 => {
                let op = pick(g, &INT_OPS);
                let dst = place(g, 0.4);
                let mem = !matches!(dst, Place::Mem(..));
                let a = int_val(g, ctx, mem);
                let b = match op {
                    AluOp::Div | AluOp::Rem => {
                        let v = g.range_i32(1, 20);
                        Val::Int(if g.chance(0.5) { v } else { -v })
                    }
                    AluOp::Lsh | AluOp::Ash => Val::Int(g.range_i32(-40, 40)),
                    _ => int_val(g, ctx, mem && !is_mem(a)),
                };
                Stmt::Alu(op, dst, a, b)
            }
            4 => {
                let dst = place(g, 0.3);
                let mem = !matches!(dst, Place::Mem(..));
                let op = if g.chance(0.5) {
                    Alu1Op::Neg
                } else {
                    Alu1Op::Inv
                };
                Stmt::Alu1(op, dst, int_val(g, ctx, mem))
            }
            5 | 6 => {
                let dst = place(g, 0.5);
                let mem = !matches!(dst, Place::Mem(..));
                Stmt::Move(dst, int_val(g, ctx, mem))
            }
            7 if !ctx.leaf => {
                let seg = if g.chance(0.7) { Seg::Imem } else { Seg::Emem };
                Stmt::Indexed(seg, g.chance(0.5))
            }
            8 if !ctx.leaf => {
                let src = any_val(g, ctx);
                let dst = place(g, if is_mem(src) { 0.0 } else { 0.3 });
                Stmt::Retag(dst, src, g.range_u32(0, 16) as u8)
            }
            9 | 10 if !ctx.leaf && depth < 2 => {
                let test = match g.range_u32(0, 3) {
                    0 => {
                        let a = int_val(g, ctx, true);
                        let b = int_val(g, ctx, !is_mem(a));
                        Test::Cmp(pick(g, &CMP_OPS), a, b, g.chance(0.3), g.chance(0.5))
                    }
                    1 => Test::Check(
                        any_val(g, ctx),
                        Tag::from_bits(g.range_u32(0, 16) as u8),
                        g.chance(0.5),
                    ),
                    _ => Test::Zero(int_val(g, ctx, true), g.chance(0.5)),
                };
                let n = g.range_usize(1, 4);
                let body = (0..n).map(|_| stmt(g, ctx, depth + 1)).collect();
                Stmt::Skip(test, body, maybe_mark(g))
            }
            11 if !ctx.in_loop && !ctx.leaf && depth < 2 => {
                let inner = Ctx {
                    in_loop: true,
                    ..ctx
                };
                let n = g.range_usize(1, 5);
                let body = (0..n).map(|_| stmt(g, inner, depth + 1)).collect();
                Stmt::Loop(g.range_i32(1, 20), body, maybe_mark(g))
            }
            12 if !ctx.in_loop && !ctx.leaf => Stmt::Poll(
                g.range_u32(0, DATA_WORDS),
                g.range_i32(1, 30),
                maybe_mark(g),
            ),
            13 => Stmt::Arm(g.range_u32(0, FUT_SLOTS), g.chance(0.5)),
            14 | 15 => Stmt::Touch(g.range_u32(0, FUT_SLOTS), ctx.leaf || g.chance(0.6)),
            16 | 17 if !ctx.in_loop && !ctx.leaf && ctx.handlers > 0 => {
                // The payload shares its instruction with the fuel word,
                // never another memory operand.
                let payload = int_val(g, ctx, true);
                Stmt::Send {
                    to: g.range_usize(0, ctx.handlers),
                    route: g.range_usize(0, ROUTE_STEPS.len()),
                    shape: g.range_u32(0, 4) as u8,
                    payload,
                    fuel: g.range_i32(1, 4),
                    mark: maybe_mark(g),
                }
            }
            18 if !ctx.leaf => {
                Stmt::Name(g.range_u32(0, 3) as u8, g.range_u32(0, KEYS), maybe_mark(g))
            }
            19 if !ctx.leaf && ctx.subs > 0 => Stmt::Call(g.range_usize(0, ctx.subs)),
            19 => Stmt::Mark(pick(g, &MARKS)),
            _ if g.chance(0.1) => Stmt::Nop,
            _ => continue,
        };
        return s;
    }
}

fn generate(seed: u64) -> Gen {
    let mut g = Prng::from_label("program_differential", seed);
    let handlers = g.range_usize(1, 5);
    let subs = g.range_usize(0, 3);
    let ctx = Ctx {
        handler: false,
        in_loop: false,
        leaf: false,
        handlers,
        subs,
    };
    // A body of between `lo` and `hi` statements.
    fn body(g: &mut Prng, ctx: Ctx, lo: usize, hi: usize) -> Vec<Stmt> {
        let n = g.range_usize(lo, hi);
        (0..n).map(|_| stmt(g, ctx, 0)).collect()
    }
    let main = body(&mut g, ctx, 4, 20);
    let in_handler = Ctx {
        handler: true,
        ..ctx
    };
    let handlers = (0..handlers)
        .map(|_| Handler {
            priority: if g.chance(0.35) {
                MsgPriority::P1
            } else {
                MsgPriority::P0
            },
            first: g.range_u32(1, MSG_WORDS),
            body: body(&mut g, in_handler, 2, 10),
            end_mark: maybe_mark(&mut g),
        })
        .collect();
    let leaf = Ctx { leaf: true, ..ctx };
    let subs = (0..subs).map(|_| body(&mut g, leaf, 1, 4)).collect();
    let fatal = g
        .chance(0.125)
        .then(|| (g.range_u32(0, dims().nodes()), g.range_i32(1, 150)));
    Gen {
        main,
        handlers,
        subs,
        fatal,
    }
}

fn src(v: Val) -> jm_asm::PSrc {
    match v {
        Val::R(r) => r.into(),
        Val::Int(i) => i.into(),
        Val::Sp(s) => s.into(),
        Val::Mem(seg, d) => MemRef::disp(seg.base(), d).into(),
        Val::Arg(k) => MemRef::disp(AReg::A3, k).into(),
    }
}

fn dst(p: Place) -> jm_isa::operand::Dst {
    match p {
        Place::R(r) => r.into(),
        Place::Mem(seg, d) => MemRef::disp(seg.base(), d).into(),
    }
}

/// Loads the base register of whichever operand is in a data segment.
fn bases(b: &mut Builder, vals: &[Val], places: &[Place]) {
    let segs = vals
        .iter()
        .filter_map(|v| match v {
            Val::Mem(seg, _) => Some(*seg),
            _ => None,
        })
        .chain(places.iter().filter_map(|p| match p {
            Place::Mem(seg, _) => Some(*seg),
            Place::R(_) => None,
        }));
    for seg in segs {
        b.load_seg(seg.base(), seg.name());
    }
}

/// Emits statements into `b`; `priorities` are the handlers'.
struct Emitter {
    b: Builder,
    labels: u32,
    priorities: Vec<MsgPriority>,
}

impl Emitter {
    fn fresh(&mut self) -> String {
        self.labels += 1;
        format!("L{}", self.labels)
    }

    fn mark(&mut self, mark: Option<StatClass>) {
        if let Some(class) = mark {
            self.b.mark(class);
        }
    }

    fn stmts(&mut self, stmts: &[Stmt], handler: bool) {
        for s in stmts {
            self.stmt(s, handler);
        }
    }

    fn stmt(&mut self, s: &Stmt, handler: bool) {
        use DReg::*;
        match *s {
            Stmt::Alu(op, d, a, v) => {
                bases(&mut self.b, &[a, v], &[d]);
                self.b.alu(op, dst(d), src(a), src(v));
            }
            Stmt::Alu1(op, d, a) => {
                bases(&mut self.b, &[a], &[d]);
                self.b.alu1(op, dst(d), src(a));
            }
            Stmt::Move(d, a) => {
                bases(&mut self.b, &[a], &[d]);
                self.b.mov(dst(d), src(a));
            }
            Stmt::Indexed(seg, store) => {
                self.b.load_seg(seg.base(), seg.name());
                self.b.alu(AluOp::And, R2, R0, 7);
                let at = MemRef::reg(seg.base(), R2);
                if store {
                    self.b.mov(at, R1);
                } else {
                    self.b.mov(R1, at);
                }
            }
            Stmt::Retag(d, a, tag) => {
                bases(&mut self.b, &[a], &[d]);
                self.b.wtag(R2, src(a), i32::from(tag));
                self.b.rtag(dst(d), R2);
            }
            Stmt::Skip(test, ref body, mark) => {
                let target = self.fresh();
                match test {
                    Test::Cmp(op, a, v, not, when) => {
                        bases(&mut self.b, &[a, v], &[]);
                        self.b.alu(op, R2, src(a), src(v));
                        if not {
                            self.b.alu1(Alu1Op::Not, R2, R2);
                        }
                        self.bool_branch(when, &target);
                    }
                    Test::Check(a, tag, when) => {
                        bases(&mut self.b, &[a], &[]);
                        self.b.check(R2, src(a), tag);
                        self.bool_branch(when, &target);
                    }
                    Test::Zero(a, when) => {
                        bases(&mut self.b, &[a], &[]);
                        if when {
                            self.b.bz(src(a), target.as_str());
                        } else {
                            self.b.bnz(src(a), target.as_str());
                        }
                    }
                }
                self.stmts(body, handler);
                self.b.label(target);
                self.mark(mark);
            }
            Stmt::Loop(n, ref body, mark) => {
                let head = self.fresh();
                self.b.movi(R3, n);
                self.b.label(head.as_str());
                self.mark(mark);
                self.stmts(body, handler);
                self.b.subi(R3, R3, 1);
                self.b.bnz(R3, head);
            }
            Stmt::Poll(k, n, mark) => {
                let (head, out) = (self.fresh(), self.fresh());
                self.b.load_seg(AReg::A0, Seg::Imem.name());
                self.b.movi(R3, n);
                self.b.label(head.as_str());
                self.b.mov(R2, MemRef::disp(AReg::A0, k));
                self.b.bnz(R2, out.as_str());
                self.b.subi(R3, R3, 1);
                self.b.bnz(R3, head);
                self.b.label(out);
                self.mark(mark);
            }
            Stmt::Arm(k, cfut) => {
                self.b.load_seg(AReg::A2, Seg::Fut.name());
                let word = if cfut { Word::cfut() } else { Word::fut(k) };
                self.b.mov(MemRef::disp(AReg::A2, k), word);
            }
            Stmt::Touch(k, use_) => {
                self.b.load_seg(AReg::A2, Seg::Fut.name());
                let slot = MemRef::disp(AReg::A2, k);
                if use_ {
                    self.b.alu(AluOp::Add, R0, R0, slot);
                } else {
                    self.b.mov(R2, slot);
                }
            }
            Stmt::Send {
                to,
                route,
                shape,
                payload,
                fuel,
                mark,
            } => {
                let skip = self.fresh();
                // The fuel word: the handler's own, less one, or (from the
                // background thread) a fresh budget.
                let fuel = if handler {
                    self.b.mov(R2, MemRef::disp(AReg::A3, 1));
                    self.b.bz(R2, skip.as_str());
                    self.b.subi(R2, R2, 1);
                    src(Val::R(R2))
                } else {
                    src(Val::Int(fuel))
                };
                bases(&mut self.b, &[payload], &[]);
                self.b.load_seg(AReg::A2, Seg::Routes.name());
                let p = self.priorities[to];
                let rt = MemRef::disp(AReg::A2, route as u32);
                let header = hdr(format!("h{to}"), MSG_WORDS);
                let (pay, r0, r1) = (src(payload), src(Val::R(R0)), src(Val::R(R1)));
                match shape {
                    0 => {
                        self.b.send(p, rt);
                        self.b.send2(p, header, fuel);
                        self.b.send2(p, r0, r1);
                        self.mark(mark);
                        self.b.sende(p, pay);
                    }
                    1 => {
                        self.b.send2(p, rt, header);
                        self.b.send2(p, fuel, pay);
                        self.mark(mark);
                        self.b.send2e(p, r1, r0);
                    }
                    2 => {
                        self.b.send(p, rt);
                        self.b.send(p, header);
                        self.b.send(p, fuel);
                        self.b.send(p, pay);
                        self.mark(mark);
                        self.b.send2e(p, r0, r1);
                    }
                    _ => {
                        self.b.send2(p, rt, header);
                        self.b.send(p, fuel);
                        self.b.send2(p, pay, r1);
                        self.mark(mark);
                        self.b.sende(p, r0);
                    }
                }
                self.b.label(skip);
            }
            Stmt::Name(kind, key, mark) => {
                self.mark(mark);
                let key = Word::sym(key);
                match kind {
                    0 => self.b.enter(key, R0),
                    1 => self.b.probe(R2, key),
                    _ => self.b.xlate(R2, key),
                };
            }
            Stmt::Call(k) => {
                self.b.jal(R2, format!("s{k}"));
            }
            Stmt::Mark(class) => {
                self.b.mark(class);
            }
            Stmt::Nop => {
                self.b.nop();
            }
        }
    }

    fn bool_branch(&mut self, when: bool, target: &str) {
        if when {
            self.b.bt(DReg::R2, target);
        } else {
            self.b.bf(DReg::R2, target);
        }
    }
}

fn assemble(gen: &Gen) -> Program {
    use DReg::*;
    let mut e = Emitter {
        b: Builder::new(),
        labels: 0,
        priorities: gen.handlers.iter().map(|h| h.priority).collect(),
    };
    let b = &mut e.b;
    b.data(
        Seg::Imem.name(),
        Region::Imem,
        (0..DATA_WORDS as i32).map(Word::int).collect(),
    );
    b.data(
        Seg::Emem.name(),
        Region::Emem,
        (0..DATA_WORDS as i32).map(|i| Word::int(100 - i)).collect(),
    );
    b.reserve(Seg::Dram.name(), Region::Emem, DRAM_PAGES * 4096 + 8);
    b.data(
        Seg::Fut.name(),
        Region::Imem,
        vec![Word::int(3); FUT_SLOTS as usize],
    );
    b.reserve(Seg::Routes.name(), Region::Imem, ROUTE_STEPS.len() as u32);
    b.label("main");
    b.movi(R0, 1);
    b.movi(R1, 2);
    e.stmts(&gen.main, false);
    if let Some((node, turns)) = gen.fatal {
        let (head, spared) = (e.fresh(), e.fresh());
        e.b.mov(R2, Special::Nid);
        e.b.alu(AluOp::Sub, R2, R2, node as i32);
        e.b.bnz(R2, spared.as_str());
        e.b.movi(R3, turns);
        e.b.label(head.as_str());
        e.b.subi(R3, R3, 1);
        e.b.bnz(R3, head);
        e.b.alu(AluOp::Div, R0, 1, 0);
        e.b.label(spared);
    }
    e.b.suspend();
    for (k, h) in gen.handlers.iter().enumerate() {
        e.b.label(format!("h{k}"));
        e.b.mov(R1, MemRef::disp(AReg::A3, h.first));
        e.b.mov(R0, Special::Nid);
        e.stmts(&h.body, true);
        e.mark(h.end_mark);
        e.b.suspend();
    }
    for (k, body) in gen.subs.iter().enumerate() {
        e.b.label(format!("s{k}"));
        e.stmts(body, false);
        e.b.jmp(R2);
    }
    // A presence fault fills the slot it read (its address is in FADDR) and
    // re-executes the reading instruction. FADDR is shared by the banks, so
    // a preempting fault may have replaced it: then the read faults again.
    let b = &mut e.b;
    b.label("g_fix_slot");
    b.mark(StatClass::Sync);
    b.mov(R0, Special::FAddr);
    b.check(R1, R0, Tag::Int);
    b.bf(R1, "g_fix_done");
    b.mov(AReg::A0, SegDesc::unbounded(0).to_word());
    b.mov(MemRef::reg(AReg::A0, R0), Word::int(5));
    b.label("g_fix_done");
    b.mark(StatClass::Compute);
    b.resume();
    // A translation miss enters the key it missed.
    b.label("g_fix_xlate");
    b.enter(Special::FVal, Word::int(1));
    b.resume();
    b.entry("main");
    e.b.assemble().expect("generated programs assemble")
}

fn dims() -> MeshDims {
    MeshDims::new(2, 2, 4)
}

fn config(engine: Engine) -> MachineConfig {
    MachineConfig::with_dims(dims())
        .start(StartPolicy::AllNodes)
        .engine(engine)
}

/// The host's part of every run: fault vectors and route tables.
fn setup(m: &mut JMachine) {
    m.install_vector_all(FaultKind::CFutRead, "g_fix_slot");
    m.install_vector_all(FaultKind::FutUse, "g_fix_slot");
    m.install_vector_all(FaultKind::XlateMiss, "g_fix_xlate");
    let routes = m.program().segment(Seg::Routes.name()).base;
    let n = dims().nodes();
    for id in 0..n {
        for (k, step) in ROUTE_STEPS.iter().enumerate() {
            let to = dims().coord(NodeId((id + step) % n));
            m.write_word(NodeId(id), routes + k as u32, RouteWord::new(to).to_word());
        }
    }
}

/// The state hash every `every` cycles up to `until`, the run cut at each.
fn trajectory(program: &Program, engine: Engine, every: u64, until: u64) -> Vec<u64> {
    let mut m = JMachine::new(program.clone(), config(engine));
    setup(&mut m);
    let mut hashes = Vec::new();
    while m.cycle() < until {
        m.run(every.min(until - m.cycle()));
        hashes.push(m.state_hash());
    }
    hashes
}

/// How the engines disagree on `gen`, if they do; otherwise the naive
/// observation and the rewinds the stretching engines took.
fn verdict(gen: &Gen) -> Result<(Observation, u64), String> {
    let program = assemble(gen);
    let mut machines = columns("program", |engine| {
        let mut m = JMachine::new(program.clone(), config(engine));
        setup(&mut m);
        m
    })
    .into_iter();
    let naive = observe(&mut machines.next().expect("the naive column"), MAX_CYCLES);
    // Two dozen looks along the first few thousand cycles.
    let until = naive.stats.cycles.min(4_000);
    let every = (until / 24).max(1);
    let hashes = trajectory(&program, Engine::Naive, every, until);
    let mut rewinds = 0;
    for mut m in machines {
        let (engine, other) = (m.config().engine, observe(&mut m, MAX_CYCLES));
        rewinds += m.stretch_stats().rewinds;
        if other != naive {
            return Err(format!(
                "{engine:?}: observation diverged\nnaive: {naive:?}\n{engine:?}: {other:?}"
            ));
        }
        let theirs = trajectory(&program, engine, every, until);
        if let Some(k) = (0..hashes.len()).find(|&k| hashes[k] != theirs[k]) {
            return Err(format!(
                "{engine:?}: state hash diverged at cycle {}",
                (k as u64 + 1) * every
            ));
        }
    }
    Ok((naive, rewinds))
}

/// Every program one deletion smaller: the fatal fault, a handler (with the
/// sends to it), a leaf routine (with the calls to it), a statement, or a
/// loop or branch replaced by its body.
fn smaller(gen: &Gen) -> Vec<Gen> {
    let mut out = Vec::new();
    if gen.fatal.is_some() {
        out.push(Gen {
            fatal: None,
            ..gen.clone()
        });
    }
    for k in 0..gen.handlers.len() {
        let mut next = gen.clone();
        next.handlers.remove(k);
        next.retarget(|s| match s {
            Stmt::Send { to, .. } if *to == k => None,
            Stmt::Send { to, .. } if *to > k => {
                *to -= 1;
                Some(())
            }
            _ => Some(()),
        });
        out.push(next);
    }
    for k in 0..gen.subs.len() {
        let mut next = gen.clone();
        next.subs.remove(k);
        next.retarget(|s| match s {
            Stmt::Call(c) if *c == k => None,
            Stmt::Call(c) if *c > k => {
                *c -= 1;
                Some(())
            }
            _ => Some(()),
        });
        out.push(next);
    }
    let bodies = 1 + gen.handlers.len() + gen.subs.len();
    for body in 0..bodies {
        let list = |g: &Gen| -> Vec<Stmt> {
            match body {
                0 => g.main.clone(),
                b if b <= g.handlers.len() => g.handlers[b - 1].body.clone(),
                b => g.subs[b - 1 - g.handlers.len()].clone(),
            }
        };
        for variant in one_less(&list(gen)) {
            let mut next = gen.clone();
            match body {
                0 => next.main = variant,
                b if b <= gen.handlers.len() => next.handlers[b - 1].body = variant,
                b => next.subs[b - 1 - gen.handlers.len()] = variant,
            }
            out.push(next);
        }
    }
    out
}

/// `stmts` with one statement dropped, or one compound flattened, anywhere.
fn one_less(stmts: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for (i, s) in stmts.iter().enumerate() {
        let mut without = stmts.to_vec();
        without.remove(i);
        out.push(without);
        let inner = match s {
            Stmt::Skip(_, body, _) | Stmt::Loop(_, body, _) => body,
            _ => continue,
        };
        let mut flat = stmts[..i].to_vec();
        flat.extend(inner.iter().cloned());
        flat.extend(stmts[i + 1..].iter().cloned());
        out.push(flat);
        for variant in one_less(inner) {
            let mut next = stmts.to_vec();
            match &mut next[i] {
                Stmt::Skip(_, body, _) | Stmt::Loop(_, body, _) => *body = variant,
                _ => unreachable!(),
            }
            out.push(next);
        }
    }
    out
}

impl Gen {
    /// Rewrites every statement with `f`, dropping those it returns `None` for.
    fn retarget(&mut self, f: impl Fn(&mut Stmt) -> Option<()> + Copy) {
        fn walk(stmts: &mut Vec<Stmt>, f: impl Fn(&mut Stmt) -> Option<()> + Copy) {
            stmts.retain_mut(|s| f(s).is_some());
            for s in stmts {
                if let Stmt::Skip(_, body, _) | Stmt::Loop(_, body, _) = s {
                    walk(body, f);
                }
            }
        }
        walk(&mut self.main, f);
        for h in &mut self.handlers {
            walk(&mut h.body, f);
        }
        for s in &mut self.subs {
            walk(s, f);
        }
    }
}

/// Shrinks a diverging program while it still diverges.
fn shrink(mut gen: Gen) -> (Gen, String) {
    let mut why = verdict(&gen).expect_err("shrinking a diverging program");
    'smaller: loop {
        for next in smaller(&gen) {
            if let Err(e) = verdict(&next) {
                (gen, why) = (next, e);
                continue 'smaller;
            }
        }
        return (gen, why);
    }
}

/// Whether a run ended in a node error.
fn node_error(outcome: &Result<u64, String>) -> bool {
    outcome.as_ref().is_err_and(|e| e.starts_with("NodeErrors"))
}

/// Runs the differential over `seeds`; panics with the shrunk program at
/// the first divergence. Returns the summed naive statistics, the rewinds,
/// and how many runs ended in a node error.
fn check_seeds(seeds: impl Iterator<Item = u64>) -> (jm_machine::MachineStats, u64, u32) {
    let mut total = jm_machine::MachineStats::default();
    let (mut rewinds, mut errors) = (0, 0);
    for seed in seeds {
        let gen = generate(seed);
        match verdict(&gen) {
            Ok((obs, taken)) => {
                total.nodes.merge(&obs.stats.nodes);
                total.cycles += obs.stats.cycles;
                rewinds += taken;
                errors += u32::from(node_error(&obs.outcome));
            }
            Err(_) => {
                let (small, why) = shrink(gen);
                panic!(
                    "seed {seed}: the engines diverge\n{why}\nshrunk program:\n{}",
                    assemble(&small)
                );
            }
        }
    }
    (total, rewinds, errors)
}

#[test]
fn generated_programs_are_engine_exact() {
    let (total, rewinds, errors) = check_seeds(0..120);
    // The programs did what they were generated to do, fatal faults and
    // the error stops they end in included.
    assert!(errors > 0, "no run ended in a node error");
    let nodes = &total.nodes;
    assert!(nodes.msgs_received > 100, "{nodes:?}");
    assert!(nodes.fault_count(FaultKind::CFutRead) > 0, "{nodes:?}");
    assert!(nodes.fault_count(FaultKind::FutUse) > 0, "{nodes:?}");
    assert!(nodes.fault_count(FaultKind::XlateMiss) > 0, "{nodes:?}");
    assert!(nodes.arrival_stalls > 0, "{nodes:?}");
    assert!(rewinds > 0, "no stretch was rewound");
    for class in [StatClass::Comm, StatClass::Sync, StatClass::NnrCalc] {
        assert!(nodes.class_cycles(class) > 0, "{class} never marked");
    }
}

/// A generated program that fails to run at all would make the
/// differential vacuous: most seeds must quiesce cleanly or stop on the
/// fatal fault they were generated with, and only those stop on an error.
#[test]
fn generated_programs_mostly_quiesce() {
    let (mut clean, mut fatal) = (0, 0);
    for seed in 0..20 {
        let gen = generate(seed);
        let mut m = JMachine::new(assemble(&gen), config(Engine::Event));
        setup(&mut m);
        let outcome = observe(&mut m, MAX_CYCLES).outcome;
        if node_error(&outcome) {
            assert!(gen.fatal.is_some(), "seed {seed}: {outcome:?}");
            fatal += 1;
        }
        clean += usize::from(outcome.is_ok());
    }
    assert!(
        clean + fatal >= 15,
        "only {clean} of 20 programs quiesced and {fatal} stopped on their fatal fault"
    );
}

/// The shrinker keeps what the runs need to disagree and drops the rest: a
/// predicate standing in for a divergence (the program still sends at
/// priority 1) shrinks a generated program to one send, its target and, if
/// the send is a handler's, that handler.
#[test]
fn shrinking_drops_what_the_divergence_does_not_need() {
    fn sends_p1(gen: &Gen) -> bool {
        fn any(stmts: &[Stmt], gen: &Gen) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::Send { to, .. } => gen.handlers[*to].priority == MsgPriority::P1,
                Stmt::Skip(_, body, _) | Stmt::Loop(_, body, _) => any(body, gen),
                _ => false,
            })
        }
        any(&gen.main, gen) || gen.handlers.iter().any(|h| any(&h.body, gen))
    }
    let gen = (0..)
        .map(generate)
        .find(|g| sends_p1(g) && g.handlers.len() > 1)
        .unwrap();
    let mut small = gen;
    'smaller: loop {
        for next in smaller(&small) {
            if sends_p1(&next) {
                small = next;
                continue 'smaller;
            }
        }
        break;
    }
    assert!(small.handlers.len() <= 2, "{small:?}");
    assert!(small.subs.is_empty());
    let count = |stmts: &[Stmt]| stmts.len();
    assert_eq!(
        count(&small.main) + small.handlers.iter().map(|h| count(&h.body)).sum::<usize>(),
        1,
        "{small:?}"
    );
}

/// Nightly: fresh seeds, named on failure so the run can be repeated.
#[test]
#[ignore = "fresh seeds every run; nightly"]
fn fresh_generated_programs_are_engine_exact() {
    // Behind a flag: when JM_REPLAY_CAPTURE is set, every machine records
    // a replay event log (DESIGN.md §4.8), so a diverging fresh seed
    // leaves a bisectable reproducer behind.
    jm_machine::capture_replay_from_env();
    let base = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after the epoch")
        .as_secs()
        << 16;
    println!("seeds {base}..{}", base + 400);
    check_seeds(base..base + 400);
}
