//! The programmatic assembler: emit instructions with symbolic references,
//! then [`Builder::assemble`] into a resolved [`Program`].

use crate::error::AsmError;
use crate::program::{DataBlock, Program, SymbolTable, SymbolValue};
use jm_isa::consts::{EMEM_BASE, MEM_WORDS, VECTOR_COUNT, XLATE_BASE};
use jm_isa::encode::footprint_words;
use jm_isa::instr::{Alu1Op, AluOp, Cond, Instruction, MsgPriority, StatClass};
use jm_isa::operand::{Dst, Src};
use jm_isa::reg::{AReg, DReg};
use jm_isa::tag::Tag;
use jm_isa::word::{MsgHeader, Word};
use std::collections::HashMap;

/// Which memory a data block is placed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// On-chip SRAM (fast: 1-cycle operand access).
    Imem,
    /// External DRAM (slow: 6-cycle operand access).
    Emem,
}

/// A pending immediate expression, resolved at assembly time.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PExpr {
    /// The `ip` word of a code label.
    LabelIp(String),
    /// A message header word: handler label + total length.
    MsgHdr(String, u32),
    /// The `addr` word (segment descriptor) of a data block.
    Seg(String),
    /// The base address of a data block, as an `int`.
    SegBase(String),
    /// The length of a data block, as an `int`.
    SegLen(String),
    /// A named constant bound with [`Builder::equ`].
    Const(String),
}

/// A source operand that may reference an unresolved symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PSrc {
    ready: Src,
    pending: Option<PExpr>,
}

impl PSrc {
    fn pending(expr: PExpr) -> PSrc {
        // Placeholder with a full-width tagged immediate so the encoded
        // footprint is identical before and after resolution.
        PSrc {
            ready: Src::Imm(Word::new(Tag::Ip, u32::MAX)),
            pending: Some(expr),
        }
    }
}

macro_rules! psrc_from {
    ($($ty:ty),* $(,)?) => {
        $(impl From<$ty> for PSrc {
            fn from(value: $ty) -> PSrc {
                PSrc {
                    ready: value.into(),
                    pending: None,
                }
            }
        })*
    };
}

psrc_from!(Src, DReg, AReg, Word, i32, jm_isa::operand::MemRef,);

impl From<jm_isa::operand::Special> for PSrc {
    fn from(value: jm_isa::operand::Special) -> PSrc {
        PSrc {
            ready: Src::Sp(value),
            pending: None,
        }
    }
}

/// Pending operand: the `ip` word of code label `name`.
pub fn lab(name: impl Into<String>) -> PSrc {
    PSrc::pending(PExpr::LabelIp(name.into()))
}

/// Pending operand: a message header invoking `handler` with total message
/// length `len` words (header included).
pub fn hdr(handler: impl Into<String>, len: u32) -> PSrc {
    PSrc::pending(PExpr::MsgHdr(handler.into(), len))
}

/// Pending operand: the segment descriptor of data block `name`.
pub fn seg(name: impl Into<String>) -> PSrc {
    PSrc::pending(PExpr::Seg(name.into()))
}

/// Pending operand: the base address of data block `name` as an `int`.
pub fn seg_base(name: impl Into<String>) -> PSrc {
    PSrc::pending(PExpr::SegBase(name.into()))
}

/// Pending operand: the length of data block `name` as an `int`.
pub fn seg_len(name: impl Into<String>) -> PSrc {
    PSrc::pending(PExpr::SegLen(name.into()))
}

/// Pending operand: the constant bound to `name` with [`Builder::equ`].
pub fn cst(name: impl Into<String>) -> PSrc {
    PSrc::pending(PExpr::Const(name.into()))
}

/// Operand slot positions within an instruction, for fixups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Src0,
    Src1,
}

fn slot_mut(instr: &mut Instruction, slot: Slot) -> Option<&mut Src> {
    use Instruction as I;
    match (instr, slot) {
        (I::Move { src, .. }, Slot::Src0) => Some(src),
        (I::Alu { a, .. }, Slot::Src0) => Some(a),
        (I::Alu { b, .. }, Slot::Src1) => Some(b),
        (I::Alu1 { src, .. }, Slot::Src0) => Some(src),
        (I::Bc { src, .. }, Slot::Src0) => Some(src),
        (I::Jmp { target }, Slot::Src0) => Some(target),
        (I::Send { a, .. }, Slot::Src0) => Some(a),
        (I::Send { b: Some(b), .. }, Slot::Src1) => Some(b),
        (I::Rtag { src, .. }, Slot::Src0) => Some(src),
        (I::Wtag { src, .. }, Slot::Src0) => Some(src),
        (I::Wtag { tag, .. }, Slot::Src1) => Some(tag),
        (I::Check { src, .. }, Slot::Src0) => Some(src),
        (I::Enter { key, .. }, Slot::Src0) => Some(key),
        (I::Enter { value, .. }, Slot::Src1) => Some(value),
        (I::Xlate { key, .. }, Slot::Src0) => Some(key),
        (I::Probe { key, .. }, Slot::Src0) => Some(key),
        _ => None,
    }
}

#[derive(Debug, Clone)]
struct PInstr {
    instr: Instruction,
    fixups: Vec<(Slot, PExpr)>,
    branch: Option<String>,
}

#[derive(Debug, Clone)]
struct PData {
    name: String,
    region: Region,
    len: u32,
    init: Vec<Word>,
}

/// Incremental program builder.
///
/// Emission methods append one instruction each and return `&mut Self` so
/// short sequences can chain. Operands accept anything convertible to
/// [`Src`]/[`Dst`] (registers, immediates, memory references) plus the
/// pending-symbol helpers [`lab`], [`hdr`], [`seg`], [`seg_base`],
/// [`seg_len`], and [`cst`].
#[derive(Debug, Clone, Default)]
pub struct Builder {
    instrs: Vec<PInstr>,
    labels: Vec<(String, u32)>,
    data: Vec<PData>,
    equs: Vec<(String, Word)>,
    entry: Option<String>,
}

impl Builder {
    /// Creates an empty builder.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// The index the next emitted instruction will occupy.
    pub fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    /// Binds a code label at the current position.
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        self.labels.push((name.into(), self.here()));
        self
    }

    /// Binds a named constant.
    pub fn equ(&mut self, name: impl Into<String>, value: Word) -> &mut Self {
        self.equs.push((name.into(), value));
        self
    }

    /// Declares an initialized data block.
    pub fn data(&mut self, name: impl Into<String>, region: Region, init: Vec<Word>) -> &mut Self {
        let len = init.len() as u32;
        self.data.push(PData {
            name: name.into(),
            region,
            len,
            init,
        });
        self
    }

    /// Declares a zero-initialized data block of `len` words.
    pub fn reserve(&mut self, name: impl Into<String>, region: Region, len: u32) -> &mut Self {
        self.data.push(PData {
            name: name.into(),
            region,
            len,
            init: Vec::new(),
        });
        self
    }

    /// Declares the background entry point.
    pub fn entry(&mut self, label: impl Into<String>) -> &mut Self {
        self.entry = Some(label.into());
        self
    }

    fn push(&mut self, instr: Instruction, fixups: Vec<(Slot, PExpr)>, branch: Option<String>) {
        self.instrs.push(PInstr {
            instr,
            fixups,
            branch,
        });
    }

    fn push_src1(&mut self, make: impl FnOnce(Src) -> Instruction, src: PSrc) {
        let mut fixups = Vec::new();
        if let Some(expr) = src.pending {
            fixups.push((Slot::Src0, expr));
        }
        self.push(make(src.ready), fixups, None);
    }

    fn push_src2(&mut self, make: impl FnOnce(Src, Src) -> Instruction, a: PSrc, b: PSrc) {
        let mut fixups = Vec::new();
        if let Some(expr) = a.pending {
            fixups.push((Slot::Src0, expr));
        }
        if let Some(expr) = b.pending {
            fixups.push((Slot::Src1, expr));
        }
        self.push(make(a.ready, b.ready), fixups, None);
    }

    /// Emits `MOVE dst, src`.
    pub fn mov(&mut self, dst: impl Into<Dst>, src: impl Into<PSrc>) -> &mut Self {
        let dst = dst.into();
        self.push_src1(|src| Instruction::Move { dst, src }, src.into());
        self
    }

    /// Emits `MOVE dst, #value` (integer immediate).
    pub fn movi(&mut self, dst: impl Into<Dst>, value: i32) -> &mut Self {
        self.mov(dst, value)
    }

    /// Emits a binary ALU instruction.
    pub fn alu(
        &mut self,
        op: AluOp,
        dst: impl Into<Dst>,
        a: impl Into<PSrc>,
        b: impl Into<PSrc>,
    ) -> &mut Self {
        let dst = dst.into();
        self.push_src2(
            |a, b| Instruction::Alu { op, dst, a, b },
            a.into(),
            b.into(),
        );
        self
    }

    /// Emits a unary ALU instruction.
    pub fn alu1(&mut self, op: Alu1Op, dst: impl Into<Dst>, src: impl Into<PSrc>) -> &mut Self {
        let dst = dst.into();
        self.push_src1(|src| Instruction::Alu1 { op, dst, src }, src.into());
        self
    }

    /// Emits an unconditional branch to `label`.
    pub fn br(&mut self, label: impl Into<String>) -> &mut Self {
        self.push(Instruction::Br { off: 0 }, Vec::new(), Some(label.into()));
        self
    }

    fn bc(&mut self, cond: Cond, src: PSrc, label: String) {
        let mut fixups = Vec::new();
        let mut src = src;
        if let Some(expr) = src.pending.take() {
            fixups.push((Slot::Src0, expr));
        }
        self.push(
            Instruction::Bc {
                cond,
                src: src.ready,
                off: 0,
            },
            fixups,
            Some(label),
        );
    }

    /// Emits `BT src, label` (branch if `bool` true).
    pub fn bt(&mut self, src: impl Into<PSrc>, label: impl Into<String>) -> &mut Self {
        self.bc(Cond::True, src.into(), label.into());
        self
    }

    /// Emits `BF src, label` (branch if `bool` false).
    pub fn bf(&mut self, src: impl Into<PSrc>, label: impl Into<String>) -> &mut Self {
        self.bc(Cond::False, src.into(), label.into());
        self
    }

    /// Emits `BZ src, label` (branch if integer zero).
    pub fn bz(&mut self, src: impl Into<PSrc>, label: impl Into<String>) -> &mut Self {
        self.bc(Cond::Zero, src.into(), label.into());
        self
    }

    /// Emits `BNZ src, label` (branch if integer non-zero).
    pub fn bnz(&mut self, src: impl Into<PSrc>, label: impl Into<String>) -> &mut Self {
        self.bc(Cond::NonZero, src.into(), label.into());
        self
    }

    /// Emits an indirect jump.
    pub fn jmp(&mut self, target: impl Into<PSrc>) -> &mut Self {
        self.push_src1(|target| Instruction::Jmp { target }, target.into());
        self
    }

    /// Emits `JAL link, label`.
    pub fn jal(&mut self, link: DReg, label: impl Into<String>) -> &mut Self {
        self.push(
            Instruction::Jal { link, off: 0 },
            Vec::new(),
            Some(label.into()),
        );
        self
    }

    /// Emits the conventional call: `JAL R3, label`.
    pub fn call(&mut self, label: impl Into<String>) -> &mut Self {
        self.jal(DReg::R3, label)
    }

    /// Emits the conventional return: `JMP R3`.
    pub fn ret(&mut self) -> &mut Self {
        self.jmp(DReg::R3)
    }

    /// Emits `SEND.p a` (inject one word, message continues).
    pub fn send(&mut self, priority: MsgPriority, a: impl Into<PSrc>) -> &mut Self {
        self.push_src1(
            |a| Instruction::Send {
                priority,
                a,
                b: None,
                end: false,
            },
            a.into(),
        );
        self
    }

    /// Emits `SEND2.p a, b` (inject two words, message continues).
    pub fn send2(
        &mut self,
        priority: MsgPriority,
        a: impl Into<PSrc>,
        b: impl Into<PSrc>,
    ) -> &mut Self {
        self.push_src2(
            |a, b| Instruction::Send {
                priority,
                a,
                b: Some(b),
                end: false,
            },
            a.into(),
            b.into(),
        );
        self
    }

    /// Emits `SENDE.p a` (inject one word and end the message).
    pub fn sende(&mut self, priority: MsgPriority, a: impl Into<PSrc>) -> &mut Self {
        self.push_src1(
            |a| Instruction::Send {
                priority,
                a,
                b: None,
                end: true,
            },
            a.into(),
        );
        self
    }

    /// Emits `SEND2E.p a, b` (inject two words and end the message).
    pub fn send2e(
        &mut self,
        priority: MsgPriority,
        a: impl Into<PSrc>,
        b: impl Into<PSrc>,
    ) -> &mut Self {
        self.push_src2(
            |a, b| Instruction::Send {
                priority,
                a,
                b: Some(b),
                end: true,
            },
            a.into(),
            b.into(),
        );
        self
    }

    /// Emits `SUSPEND`.
    pub fn suspend(&mut self) -> &mut Self {
        self.push(Instruction::Suspend, Vec::new(), None);
        self
    }

    /// Emits `RESUME`.
    pub fn resume(&mut self) -> &mut Self {
        self.push(Instruction::Resume, Vec::new(), None);
        self
    }

    /// Emits `RTAG dst, src`.
    pub fn rtag(&mut self, dst: impl Into<Dst>, src: impl Into<PSrc>) -> &mut Self {
        let dst = dst.into();
        self.push_src1(|src| Instruction::Rtag { dst, src }, src.into());
        self
    }

    /// Emits `WTAG dst, src, tag`.
    pub fn wtag(
        &mut self,
        dst: impl Into<Dst>,
        src: impl Into<PSrc>,
        tag: impl Into<PSrc>,
    ) -> &mut Self {
        let dst = dst.into();
        self.push_src2(
            |src, tag| Instruction::Wtag { dst, src, tag },
            src.into(),
            tag.into(),
        );
        self
    }

    /// Emits `CHECK dst, src, tag`.
    pub fn check(&mut self, dst: impl Into<Dst>, src: impl Into<PSrc>, tag: Tag) -> &mut Self {
        let dst = dst.into();
        self.push_src1(|src| Instruction::Check { dst, src, tag }, src.into());
        self
    }

    /// Emits `ENTER key, value`.
    pub fn enter(&mut self, key: impl Into<PSrc>, value: impl Into<PSrc>) -> &mut Self {
        self.push_src2(
            |key, value| Instruction::Enter { key, value },
            key.into(),
            value.into(),
        );
        self
    }

    /// Emits `XLATE dst, key` (faults on miss).
    pub fn xlate(&mut self, dst: impl Into<Dst>, key: impl Into<PSrc>) -> &mut Self {
        let dst = dst.into();
        self.push_src1(|key| Instruction::Xlate { dst, key }, key.into());
        self
    }

    /// Emits `PROBE dst, key` (nil on miss).
    pub fn probe(&mut self, dst: impl Into<Dst>, key: impl Into<PSrc>) -> &mut Self {
        let dst = dst.into();
        self.push_src1(|key| Instruction::Probe { dst, key }, key.into());
        self
    }

    /// Emits `MARK class` (zero-cycle statistics attribution).
    pub fn mark(&mut self, class: StatClass) -> &mut Self {
        self.push(Instruction::Mark { class }, Vec::new(), None);
        self
    }

    /// Emits `HALT`.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instruction::Halt, Vec::new(), None);
        self
    }

    /// Emits `NOP`.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Instruction::Nop, Vec::new(), None);
        self
    }

    /// Loads the segment descriptor of data block `name` into an address
    /// register: `MOVE areg, seg(name)`.
    pub fn load_seg(&mut self, areg: AReg, name: impl Into<String>) -> &mut Self {
        self.mov(areg, seg(name))
    }

    /// Convenience: `ADD dst, a, #imm`.
    pub fn addi(&mut self, dst: impl Into<Dst>, a: impl Into<PSrc>, imm: i32) -> &mut Self {
        self.alu(AluOp::Add, dst, a, imm)
    }

    /// Convenience: `SUB dst, a, #imm`.
    pub fn subi(&mut self, dst: impl Into<Dst>, a: impl Into<PSrc>, imm: i32) -> &mut Self {
        self.alu(AluOp::Sub, dst, a, imm)
    }

    /// Assembles the program: places data, resolves symbols and branches,
    /// and validates the image.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] for duplicate or missing symbols, branch targets
    /// that do not exist, memory exhaustion, or instructions violating
    /// hardware constraints.
    pub fn assemble(&self) -> Result<Program, AsmError> {
        // 1. Label map.
        let mut label_map: HashMap<&str, u32> = HashMap::new();
        for (name, index) in &self.labels {
            if label_map.insert(name, *index).is_some() {
                return Err(AsmError::new(format!("duplicate label `{name}`")));
            }
        }

        // 2. Resolve branch offsets (they only depend on indices).
        let mut code: Vec<Instruction> = Vec::with_capacity(self.instrs.len());
        for (index, p) in self.instrs.iter().enumerate() {
            let mut instr = p.instr;
            if let Some(target) = &p.branch {
                let target_ip = *label_map
                    .get(target.as_str())
                    .ok_or_else(|| AsmError::new(format!("unknown branch target `{target}`")))?;
                let off = target_ip as i64 - (index as i64 + 1);
                let off = i32::try_from(off)
                    .map_err(|_| AsmError::new(format!("branch to `{target}` out of range")))?;
                match &mut instr {
                    Instruction::Br { off: o }
                    | Instruction::Bc { off: o, .. }
                    | Instruction::Jal { off: o, .. } => *o = off,
                    other => {
                        return Err(AsmError::new(format!(
                            "internal: branch fixup on non-branch {other}"
                        )))
                    }
                }
            }
            code.push(instr);
        }

        // 3. Footprint with placeholder (full-width) immediates, then place
        //    data blocks. Placeholders and resolved symbols encode to the
        //    same width, so the footprint is stable. Code and SRAM data end
        //    where the name table begins.
        let code_base = VECTOR_COUNT;
        let code_words = footprint_words(&code);
        let mut imem_cursor = code_base + code_words;
        let over = |what: &str, end: u32| {
            AsmError::new(format!(
                "internal memory exhausted placing {what}: it ends at word {end}, past \
                 the name table's base {XLATE_BASE}"
            ))
        };
        if imem_cursor > XLATE_BASE {
            return Err(over("the code", imem_cursor));
        }
        let mut emem_cursor = EMEM_BASE;
        let mut blocks = Vec::with_capacity(self.data.len());
        let mut symbols = SymbolTable::new();
        for d in &self.data {
            let base = match d.region {
                Region::Imem => {
                    let base = imem_cursor;
                    imem_cursor = imem_cursor.saturating_add(d.len);
                    if imem_cursor > XLATE_BASE {
                        return Err(over(&format!("`{}`", d.name), imem_cursor));
                    }
                    base
                }
                Region::Emem => {
                    let base = emem_cursor;
                    emem_cursor = emem_cursor.saturating_add(d.len);
                    if emem_cursor > MEM_WORDS {
                        return Err(AsmError::new(format!(
                            "external memory exhausted placing `{}`",
                            d.name
                        )));
                    }
                    base
                }
            };
            let block = DataBlock {
                name: d.name.clone(),
                base,
                len: d.len,
                init: d.init.clone(),
            };
            if symbols
                .insert(d.name.clone(), SymbolValue::Data(block.seg()))
                .is_some()
            {
                return Err(AsmError::new(format!("duplicate symbol `{}`", d.name)));
            }
            blocks.push(block);
        }
        for (name, index) in &self.labels {
            if symbols
                .insert(name.clone(), SymbolValue::Code(*index))
                .is_some()
            {
                return Err(AsmError::new(format!("duplicate symbol `{name}`")));
            }
        }
        for (name, value) in &self.equs {
            if symbols
                .insert(name.clone(), SymbolValue::Const(*value))
                .is_some()
            {
                return Err(AsmError::new(format!("duplicate symbol `{name}`")));
            }
        }

        // 4. Resolve pending immediates.
        let resolve = |expr: &PExpr| -> Result<Word, AsmError> {
            let missing = |name: &str| AsmError::new(format!("unknown symbol `{name}`"));
            match expr {
                PExpr::LabelIp(name) => match symbols.get(name) {
                    Some(SymbolValue::Code(ip)) => Ok(Word::ip(ip)),
                    Some(_) => Err(AsmError::new(format!("`{name}` is not a code label"))),
                    None => Err(missing(name)),
                },
                PExpr::MsgHdr(name, len) => match symbols.get(name) {
                    Some(SymbolValue::Code(ip)) => Ok(MsgHeader::new(ip, *len).to_word()),
                    Some(_) => Err(AsmError::new(format!("`{name}` is not a code label"))),
                    None => Err(missing(name)),
                },
                PExpr::Seg(name) => symbols
                    .data(name)
                    .map(|s| s.to_word())
                    .ok_or_else(|| missing(name)),
                PExpr::SegBase(name) => symbols
                    .data(name)
                    .map(|s| Word::int(s.base as i32))
                    .ok_or_else(|| missing(name)),
                PExpr::SegLen(name) => {
                    let block = blocks
                        .iter()
                        .find(|b| b.name == *name)
                        .ok_or_else(|| missing(name))?;
                    Ok(Word::int(block.len as i32))
                }
                PExpr::Const(name) => match symbols.get(name) {
                    Some(SymbolValue::Const(w)) => Ok(w),
                    Some(_) => Err(AsmError::new(format!("`{name}` is not a constant"))),
                    None => Err(missing(name)),
                },
            }
        };
        for (index, p) in self.instrs.iter().enumerate() {
            for (slot, expr) in &p.fixups {
                let word = resolve(expr)?;
                let src = slot_mut(&mut code[index], *slot).ok_or_else(|| {
                    AsmError::new(format!("internal: bad fixup slot in instruction {index}"))
                })?;
                *src = Src::Imm(word);
            }
        }

        // 5. Entry point.
        let entry = match &self.entry {
            Some(name) => Some(
                symbols
                    .code(name)
                    .ok_or_else(|| AsmError::new(format!("unknown entry label `{name}`")))?,
            ),
            None => None,
        };

        let program = Program {
            code,
            code_base,
            code_words,
            data: blocks,
            symbols,
            entry,
        };
        program.validate().map_err(AsmError::new)?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_isa::operand::MemRef;
    use jm_isa::reg::AReg::*;
    use jm_isa::reg::DReg::*;

    #[test]
    fn builds_and_resolves_labels() {
        let mut b = Builder::new();
        b.label("loop");
        b.subi(R0, R0, 1);
        b.bnz(R0, "loop");
        b.halt();
        b.entry("loop");
        let p = b.assemble().unwrap();
        assert_eq!(p.entry, Some(0));
        match p.code[1] {
            Instruction::Bc { off, .. } => assert_eq!(off, -2),
            ref other => panic!("expected branch, got {other}"),
        }
    }

    #[test]
    fn resolves_data_segments_and_headers() {
        let mut b = Builder::new();
        b.data("tbl", Region::Imem, vec![Word::int(1), Word::int(2)]);
        b.reserve("buf", Region::Emem, 100);
        b.label("handler");
        b.suspend();
        b.label("main");
        b.mov(A0, seg("tbl"));
        b.mov(R0, hdr("handler", 3));
        b.mov(R1, seg_base("buf"));
        b.mov(R2, seg_len("buf"));
        b.halt();
        let p = b.assemble().unwrap();
        let tbl = p.segment("tbl");
        assert_eq!(tbl.len, 2);
        assert!(tbl.base >= p.code_base + p.code_words - 1);
        let buf = p.segment("buf");
        assert_eq!(buf.base, EMEM_BASE);
        // Check resolved immediates.
        let main = p.handler("main") as usize;
        match p.code[main + 1] {
            Instruction::Move {
                src: Src::Imm(w), ..
            } => {
                let h = jm_isa::word::MsgHeader::from_word(w);
                assert_eq!(h.ip, p.handler("handler"));
                assert_eq!(h.len, 3);
            }
            ref other => panic!("unexpected {other}"),
        }
        match p.code[main + 3] {
            Instruction::Move {
                src: Src::Imm(w), ..
            } => assert_eq!(w.as_i32(), 100),
            ref other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn rejects_duplicate_labels() {
        let mut b = Builder::new();
        b.label("x").nop();
        b.label("x").nop();
        assert!(b.assemble().is_err());
    }

    #[test]
    fn rejects_unknown_branch_target() {
        let mut b = Builder::new();
        b.br("nowhere");
        let err = b.assemble().unwrap_err();
        assert!(err.to_string().contains("nowhere"));
    }

    #[test]
    fn rejects_imem_exhaustion() {
        let mut b = Builder::new();
        b.reserve("huge", Region::Imem, 5000);
        b.nop();
        assert!(b.assemble().unwrap_err().to_string().contains("exhausted"));
    }

    /// Code and SRAM data end where the name table begins: a block that
    /// ends at its base assembles, and one word more is an error naming
    /// the segment that crosses — as is code that long, or a length no
    /// memory holds.
    #[test]
    fn sram_data_and_code_stop_at_the_name_table() {
        let program = |len: u32| {
            let mut b = Builder::new();
            b.data("low", Region::Imem, vec![Word::int(1)]);
            b.reserve("top", Region::Imem, len);
            b.halt();
            b.assemble()
        };
        let free = XLATE_BASE - program(0).unwrap().segment("top").base;
        let top = program(free).unwrap().segment("top");
        assert_eq!(top.base + top.len, XLATE_BASE);
        for len in [free + 1, u32::MAX] {
            let err = program(len).unwrap_err().to_string();
            assert!(err.contains("`top`") && !err.contains("`low`"), "{err}");
            assert!(err.contains("name table"), "{err}");
        }
        let mut b = Builder::new();
        b.reserve("far", Region::Emem, u32::MAX);
        assert!(b.assemble().unwrap_err().to_string().contains("`far`"));
        let mut b = Builder::new();
        for _ in 0..2 * XLATE_BASE {
            b.nop();
        }
        let err = b.assemble().unwrap_err().to_string();
        assert!(
            err.contains("the code") && err.contains("name table"),
            "{err}"
        );
    }

    #[test]
    fn rejects_two_memory_operands() {
        let mut b = Builder::new();
        b.mov(MemRef::disp(A0, 0), MemRef::disp(A1, 0));
        assert!(b.assemble().is_err());
    }

    #[test]
    fn chains_fluently() {
        let mut b = Builder::new();
        b.label("f").movi(R0, 1).addi(R0, R0, 2).halt();
        let p = b.assemble().unwrap();
        assert_eq!(p.code.len(), 3);
    }

    #[test]
    fn equ_constants_resolve() {
        let mut b = Builder::new();
        b.equ("K", Word::int(77));
        b.mov(R0, cst("K"));
        b.halt();
        let p = b.assemble().unwrap();
        match p.code[0] {
            Instruction::Move {
                src: Src::Imm(w), ..
            } => assert_eq!(w.as_i32(), 77),
            ref other => panic!("unexpected {other}"),
        }
    }
}
