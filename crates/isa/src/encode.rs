//! Binary instruction encoding.
//!
//! The MDP packs two 17-bit instructions into each 36-bit memory word (§2.1).
//! This module implements a variable-length bit-level encoding in that
//! spirit: each instruction serializes to a stream of bits occupying one or
//! more 17-bit *slots*; slots pack two per word. Common register-register
//! forms fit one slot; instructions with large immediates or displacements
//! spill into additional slots, mirroring the real machine's constant
//! extension words.
//!
//! The simulator executes decoded [`Instruction`] values; this encoding
//! exists to pin the ISA down precisely (round-trip property tests in this
//! module and in `jm-asm`) and to compute code footprints.

use crate::instr::{Alu1Op, AluOp, Cond, Instruction, MsgPriority, StatClass};
use crate::operand::{Dst, Index, MemRef, Special, Src};
use crate::reg::{AReg, DReg};
use crate::tag::Tag;
use crate::word::Word;
use std::fmt;

/// Bits per instruction slot (two slots per 36-bit word, minus the two
/// alignment bits, §2.1).
pub const SLOT_BITS: usize = 17;

/// An encoding or decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    message: String,
}

impl CodecError {
    fn new(message: impl Into<String>) -> CodecError {
        CodecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instruction codec error: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

/// Append-only bit sink, LSB-first within each `u64` limb.
#[derive(Debug, Default, Clone)]
struct BitWriter {
    limbs: Vec<u64>,
    len: usize,
}

impl BitWriter {
    fn put(&mut self, width: usize, value: u64) {
        debug_assert!(width <= 64);
        debug_assert!(width == 64 || value < (1u64 << width));
        let mut remaining = width;
        let mut value = value;
        while remaining > 0 {
            let limb = self.len / 64;
            let offset = self.len % 64;
            if limb == self.limbs.len() {
                self.limbs.push(0);
            }
            let take = (64 - offset).min(remaining);
            let mask = if take == 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            self.limbs[limb] |= (value & mask) << offset;
            value >>= take as u32 % 64;
            self.len += take;
            remaining -= take;
        }
    }

    fn put_i32(&mut self, value: i32) {
        self.put(32, value as u32 as u64);
    }
}

/// Bit source matching [`BitWriter`].
#[derive(Debug)]
struct BitReader<'a> {
    limbs: &'a [u64],
    len: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn take(&mut self, width: usize) -> Result<u64, CodecError> {
        if self.pos + width > self.len {
            return Err(CodecError::new("bitstream underrun"));
        }
        let mut out = 0u64;
        let mut got = 0usize;
        while got < width {
            let limb = (self.pos + got) / 64;
            let offset = (self.pos + got) % 64;
            let take = (64 - offset).min(width - got);
            let mask = if take == 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            out |= ((self.limbs[limb] >> offset) & mask) << got;
            got += take;
        }
        self.pos += width;
        Ok(out)
    }

    fn take_i32(&mut self) -> Result<i32, CodecError> {
        Ok(self.take(32)? as u32 as i32)
    }
}

/// An encoded instruction: a little-endian bit stream plus its length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoded {
    limbs: Vec<u64>,
    bits: usize,
}

impl Encoded {
    /// Number of 17-bit slots this instruction occupies.
    pub fn slots(&self) -> usize {
        self.bits.div_ceil(SLOT_BITS).max(1)
    }

    /// The raw slot values (17 bits each, zero-padded at the tail).
    pub fn slot_values(&self) -> Vec<u32> {
        // Reading beyond `bits` would underrun; pad a copy to slot-aligned.
        let mut padded = self.limbs.clone();
        let needed_limbs = (self.slots() * SLOT_BITS).div_ceil(64);
        padded.resize(needed_limbs, 0);
        let mut reader = BitReader {
            limbs: &padded,
            len: self.slots() * SLOT_BITS,
            pos: 0,
        };
        let mut out = Vec::with_capacity(self.slots());
        for _ in 0..self.slots() {
            out.push(reader.take(SLOT_BITS).expect("padded stream") as u32);
        }
        out
    }

    /// Reassembles an encoded instruction from its raw 17-bit slot values
    /// (the inverse of [`Encoded::slot_values`]). The reconstructed bit
    /// stream is slot-aligned — possibly longer than the original encoding
    /// by up to 16 zero bits of tail padding — which [`decode`] tolerates
    /// (it reads exactly the bits the opcode demands and ignores the tail),
    /// so `decode(&Encoded::from_slots(&e.slot_values()))` round-trips.
    ///
    /// # Panics
    ///
    /// Panics if any slot value exceeds 17 bits.
    pub fn from_slots(slots: &[u32]) -> Encoded {
        let mut w = BitWriter::default();
        for &s in slots {
            assert!(s < (1 << SLOT_BITS), "slot value exceeds {SLOT_BITS} bits");
            w.put(SLOT_BITS, u64::from(s));
        }
        Encoded {
            limbs: w.limbs,
            bits: w.len,
        }
    }
}

// Opcode numbers. Stable: the assembler's image format depends on them.
const OP_MOVE: u64 = 0;
const OP_ALU: u64 = 1;
const OP_ALU1: u64 = 2;
const OP_BR: u64 = 3;
const OP_BC: u64 = 4;
const OP_JMP: u64 = 5;
const OP_JAL: u64 = 6;
const OP_SEND: u64 = 7;
const OP_SUSPEND: u64 = 8;
const OP_RESUME: u64 = 9;
const OP_RTAG: u64 = 10;
const OP_WTAG: u64 = 11;
const OP_CHECK: u64 = 12;
const OP_ENTER: u64 = 13;
const OP_XLATE: u64 = 14;
const OP_PROBE: u64 = 15;
const OP_MARK: u64 = 16;
const OP_HALT: u64 = 17;
const OP_NOP: u64 = 18;

fn put_src(w: &mut BitWriter, src: Src) {
    match src {
        Src::D(r) => {
            w.put(3, 0);
            w.put(2, r.index() as u64);
        }
        Src::A(a) => {
            w.put(3, 1);
            w.put(2, a.index() as u64);
        }
        Src::Imm(word) => {
            w.put(3, 2);
            let v = word.as_i32();
            if word.tag() == Tag::Int && (-128..128).contains(&v) {
                w.put(1, 0);
                w.put(8, (v as i16 as u16 & 0xff) as u64);
            } else {
                w.put(1, 1);
                w.put(4, word.tag().bits() as u64);
                w.put_i32(word.bits() as i32);
            }
        }
        Src::Mem(m) => {
            w.put(3, 3);
            put_mem(w, m);
        }
        Src::Sp(s) => {
            w.put(3, 4);
            w.put(3, s.index() as u64);
        }
    }
}

fn take_src(r: &mut BitReader<'_>) -> Result<Src, CodecError> {
    match r.take(3)? {
        0 => Ok(Src::D(DReg::from_index(r.take(2)? as usize))),
        1 => Ok(Src::A(AReg::from_index(r.take(2)? as usize))),
        2 => {
            if r.take(1)? == 0 {
                let raw = r.take(8)? as u8;
                Ok(Src::Imm(Word::int(i32::from(raw as i8))))
            } else {
                let tag = Tag::from_bits(r.take(4)? as u8);
                let bits = r.take_i32()? as u32;
                Ok(Src::Imm(Word::new(tag, bits)))
            }
        }
        3 => Ok(Src::Mem(take_mem(r)?)),
        4 => Ok(Src::Sp(Special::from_index(r.take(3)? as usize))),
        other => Err(CodecError::new(format!("bad src mode {other}"))),
    }
}

fn put_mem(w: &mut BitWriter, m: MemRef) {
    w.put(2, m.base.index() as u64);
    match m.index {
        Index::Disp(d) => {
            w.put(1, 0);
            if d < 64 {
                w.put(1, 0);
                w.put(6, u64::from(d));
            } else {
                w.put(1, 1);
                w.put(32, u64::from(d));
            }
        }
        Index::Reg(reg) => {
            w.put(1, 1);
            w.put(2, reg.index() as u64);
        }
    }
}

fn take_mem(r: &mut BitReader<'_>) -> Result<MemRef, CodecError> {
    let base = AReg::from_index(r.take(2)? as usize);
    let index = if r.take(1)? == 0 {
        if r.take(1)? == 0 {
            Index::Disp(r.take(6)? as u32)
        } else {
            Index::Disp(r.take(32)? as u32)
        }
    } else {
        Index::Reg(DReg::from_index(r.take(2)? as usize))
    };
    Ok(MemRef { base, index })
}

fn put_dst(w: &mut BitWriter, dst: Dst) {
    match dst {
        Dst::D(r) => {
            w.put(2, 0);
            w.put(2, r.index() as u64);
        }
        Dst::A(a) => {
            w.put(2, 1);
            w.put(2, a.index() as u64);
        }
        Dst::Mem(m) => {
            w.put(2, 2);
            put_mem(w, m);
        }
    }
}

fn take_dst(r: &mut BitReader<'_>) -> Result<Dst, CodecError> {
    match r.take(2)? {
        0 => Ok(Dst::D(DReg::from_index(r.take(2)? as usize))),
        1 => Ok(Dst::A(AReg::from_index(r.take(2)? as usize))),
        2 => Ok(Dst::Mem(take_mem(r)?)),
        other => Err(CodecError::new(format!("bad dst mode {other}"))),
    }
}

fn put_off(w: &mut BitWriter, off: i32) {
    if (-512..512).contains(&off) {
        w.put(1, 0);
        w.put(10, (off as i16 as u16 & 0x3ff) as u64);
    } else {
        w.put(1, 1);
        w.put_i32(off);
    }
}

fn take_off(r: &mut BitReader<'_>) -> Result<i32, CodecError> {
    if r.take(1)? == 0 {
        let raw = r.take(10)? as u32;
        // Sign-extend 10 bits.
        Ok(((raw << 22) as i32) >> 22)
    } else {
        r.take_i32()
    }
}

/// Encodes a single instruction into its bit stream.
pub fn encode(instr: &Instruction) -> Encoded {
    let mut w = BitWriter::default();
    match *instr {
        Instruction::Move { dst, src } => {
            w.put(5, OP_MOVE);
            put_dst(&mut w, dst);
            put_src(&mut w, src);
        }
        Instruction::Alu { op, dst, a, b } => {
            w.put(5, OP_ALU);
            let code = AluOp::ALL.iter().position(|&o| o == op).unwrap() as u64;
            w.put(5, code);
            put_dst(&mut w, dst);
            put_src(&mut w, a);
            put_src(&mut w, b);
        }
        Instruction::Alu1 { op, dst, src } => {
            w.put(5, OP_ALU1);
            let code = Alu1Op::ALL.iter().position(|&o| o == op).unwrap() as u64;
            w.put(2, code);
            put_dst(&mut w, dst);
            put_src(&mut w, src);
        }
        Instruction::Br { off } => {
            w.put(5, OP_BR);
            put_off(&mut w, off);
        }
        Instruction::Bc { cond, src, off } => {
            w.put(5, OP_BC);
            let code = Cond::ALL.iter().position(|&c| c == cond).unwrap() as u64;
            w.put(2, code);
            put_src(&mut w, src);
            put_off(&mut w, off);
        }
        Instruction::Jmp { target } => {
            w.put(5, OP_JMP);
            put_src(&mut w, target);
        }
        Instruction::Jal { link, off } => {
            w.put(5, OP_JAL);
            w.put(2, link.index() as u64);
            put_off(&mut w, off);
        }
        Instruction::Send {
            priority,
            a,
            b,
            end,
        } => {
            w.put(5, OP_SEND);
            w.put(1, priority.index() as u64);
            w.put(1, u64::from(end));
            w.put(1, u64::from(b.is_some()));
            put_src(&mut w, a);
            if let Some(b) = b {
                put_src(&mut w, b);
            }
        }
        Instruction::Suspend => w.put(5, OP_SUSPEND),
        Instruction::Resume => w.put(5, OP_RESUME),
        Instruction::Rtag { dst, src } => {
            w.put(5, OP_RTAG);
            put_dst(&mut w, dst);
            put_src(&mut w, src);
        }
        Instruction::Wtag { dst, src, tag } => {
            w.put(5, OP_WTAG);
            put_dst(&mut w, dst);
            put_src(&mut w, src);
            put_src(&mut w, tag);
        }
        Instruction::Check { dst, src, tag } => {
            w.put(5, OP_CHECK);
            put_dst(&mut w, dst);
            put_src(&mut w, src);
            w.put(4, tag.bits() as u64);
        }
        Instruction::Enter { key, value } => {
            w.put(5, OP_ENTER);
            put_src(&mut w, key);
            put_src(&mut w, value);
        }
        Instruction::Xlate { dst, key } => {
            w.put(5, OP_XLATE);
            put_dst(&mut w, dst);
            put_src(&mut w, key);
        }
        Instruction::Probe { dst, key } => {
            w.put(5, OP_PROBE);
            put_dst(&mut w, dst);
            put_src(&mut w, key);
        }
        Instruction::Mark { class } => {
            w.put(5, OP_MARK);
            w.put(3, class.index() as u64);
        }
        Instruction::Halt => w.put(5, OP_HALT),
        Instruction::Nop => w.put(5, OP_NOP),
    }
    Encoded {
        limbs: w.limbs,
        bits: w.len,
    }
}

/// Decodes a single instruction from its bit stream.
///
/// # Errors
///
/// Returns [`CodecError`] if the stream is truncated or contains an invalid
/// opcode or operand mode.
pub fn decode(encoded: &Encoded) -> Result<Instruction, CodecError> {
    let mut r = BitReader {
        limbs: &encoded.limbs,
        len: encoded.bits,
        pos: 0,
    };
    let instr = match r.take(5)? {
        OP_MOVE => Instruction::Move {
            dst: take_dst(&mut r)?,
            src: take_src(&mut r)?,
        },
        OP_ALU => {
            let code = r.take(5)? as usize;
            let op = *AluOp::ALL
                .get(code)
                .ok_or_else(|| CodecError::new(format!("bad alu op {code}")))?;
            Instruction::Alu {
                op,
                dst: take_dst(&mut r)?,
                a: take_src(&mut r)?,
                b: take_src(&mut r)?,
            }
        }
        OP_ALU1 => {
            let code = r.take(2)? as usize;
            let op = *Alu1Op::ALL
                .get(code)
                .ok_or_else(|| CodecError::new(format!("bad alu1 op {code}")))?;
            Instruction::Alu1 {
                op,
                dst: take_dst(&mut r)?,
                src: take_src(&mut r)?,
            }
        }
        OP_BR => Instruction::Br {
            off: take_off(&mut r)?,
        },
        OP_BC => {
            let code = r.take(2)? as usize;
            let cond = Cond::ALL[code];
            Instruction::Bc {
                cond,
                src: take_src(&mut r)?,
                off: take_off(&mut r)?,
            }
        }
        OP_JMP => Instruction::Jmp {
            target: take_src(&mut r)?,
        },
        OP_JAL => Instruction::Jal {
            link: DReg::from_index(r.take(2)? as usize),
            off: take_off(&mut r)?,
        },
        OP_SEND => {
            let priority = MsgPriority::ALL[r.take(1)? as usize];
            let end = r.take(1)? != 0;
            let has_b = r.take(1)? != 0;
            let a = take_src(&mut r)?;
            let b = if has_b { Some(take_src(&mut r)?) } else { None };
            Instruction::Send {
                priority,
                a,
                b,
                end,
            }
        }
        OP_SUSPEND => Instruction::Suspend,
        OP_RESUME => Instruction::Resume,
        OP_RTAG => Instruction::Rtag {
            dst: take_dst(&mut r)?,
            src: take_src(&mut r)?,
        },
        OP_WTAG => Instruction::Wtag {
            dst: take_dst(&mut r)?,
            src: take_src(&mut r)?,
            tag: take_src(&mut r)?,
        },
        OP_CHECK => Instruction::Check {
            dst: take_dst(&mut r)?,
            src: take_src(&mut r)?,
            tag: Tag::from_bits(r.take(4)? as u8),
        },
        OP_ENTER => Instruction::Enter {
            key: take_src(&mut r)?,
            value: take_src(&mut r)?,
        },
        OP_XLATE => Instruction::Xlate {
            dst: take_dst(&mut r)?,
            key: take_src(&mut r)?,
        },
        OP_PROBE => Instruction::Probe {
            dst: take_dst(&mut r)?,
            key: take_src(&mut r)?,
        },
        OP_MARK => Instruction::Mark {
            class: StatClass::ALL[r.take(3)? as usize],
        },
        OP_HALT => Instruction::Halt,
        OP_NOP => Instruction::Nop,
        other => return Err(CodecError::new(format!("bad opcode {other}"))),
    };
    Ok(instr)
}

/// Computes the code footprint of a program in 36-bit memory words
/// (two 17-bit slots per word).
pub fn footprint_words(program: &[Instruction]) -> u32 {
    let slots: usize = program.iter().map(|i| encode(i).slots()).sum();
    slots.div_ceil(2) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::MemRef;

    fn round_trip(i: Instruction) {
        let e = encode(&i);
        assert_eq!(decode(&e).unwrap(), i, "round trip failed for {i}");
        assert!(e.slots() >= 1);
        assert_eq!(e.slot_values().len(), e.slots());
        // Slot-value round trip (the replay log stores instructions this way).
        let rebuilt = Encoded::from_slots(&e.slot_values());
        assert_eq!(decode(&rebuilt).unwrap(), i, "slot round trip for {i}");
    }

    #[test]
    fn round_trips_representative_instructions() {
        use Instruction as I;
        let samples = vec![
            I::Move {
                dst: Dst::D(DReg::R0),
                src: Src::D(DReg::R1),
            },
            I::Move {
                dst: Dst::Mem(MemRef::disp(AReg::A2, 1000)),
                src: Src::Imm(Word::new(Tag::CFut, 0)),
            },
            I::Alu {
                op: AluOp::Add,
                dst: Dst::D(DReg::R0),
                a: Src::D(DReg::R0),
                b: Src::imm(1),
            },
            I::Alu {
                op: AluOp::Lsh,
                dst: Dst::D(DReg::R3),
                a: Src::Mem(MemRef::reg(AReg::A3, DReg::R2)),
                b: Src::imm(-4),
            },
            I::Alu1 {
                op: Alu1Op::Not,
                dst: Dst::D(DReg::R1),
                src: Src::D(DReg::R1),
            },
            I::Br { off: -3 },
            I::Br { off: 100_000 },
            I::Bc {
                cond: Cond::NonZero,
                src: Src::D(DReg::R2),
                off: 700,
            },
            I::Jmp {
                target: Src::D(DReg::R3),
            },
            I::Jal {
                link: DReg::R3,
                off: 42,
            },
            I::Send {
                priority: MsgPriority::P1,
                a: Src::Sp(Special::Nnr),
                b: Some(Src::Imm(Word::int(9999))),
                end: true,
            },
            I::Suspend,
            I::Resume,
            I::Rtag {
                dst: Dst::D(DReg::R0),
                src: Src::Mem(MemRef::disp(AReg::A3, 1)),
            },
            I::Wtag {
                dst: Dst::D(DReg::R0),
                src: Src::D(DReg::R1),
                tag: Src::imm(7),
            },
            I::Check {
                dst: Dst::D(DReg::R0),
                src: Src::Mem(MemRef::disp(AReg::A0, 2)),
                tag: Tag::CFut,
            },
            I::Enter {
                key: Src::D(DReg::R0),
                value: Src::A(AReg::A1),
            },
            I::Xlate {
                dst: Dst::A(AReg::A0),
                key: Src::D(DReg::R0),
            },
            I::Probe {
                dst: Dst::D(DReg::R1),
                key: Src::Sp(Special::Nid),
            },
            I::Mark {
                class: StatClass::NnrCalc,
            },
            I::Halt,
            I::Nop,
        ];
        for i in samples {
            round_trip(i);
        }
    }

    #[test]
    fn register_move_fits_one_slot() {
        let e = encode(&Instruction::Move {
            dst: Dst::D(DReg::R0),
            src: Src::D(DReg::R1),
        });
        assert_eq!(e.slots(), 1, "MOVE Rx,Ry must fit a 17-bit slot");
    }

    #[test]
    fn large_immediates_take_extension_slots() {
        let small = encode(&Instruction::Move {
            dst: Dst::D(DReg::R0),
            src: Src::imm(5),
        });
        let large = encode(&Instruction::Move {
            dst: Dst::D(DReg::R0),
            src: Src::imm(1_000_000),
        });
        assert!(large.slots() > small.slots());
    }

    #[test]
    fn footprint_counts_pairs() {
        let prog = vec![Instruction::Nop, Instruction::Nop, Instruction::Nop];
        // Three 1-slot instructions pack into two words.
        assert_eq!(footprint_words(&prog), 2);
    }

    #[test]
    fn decode_rejects_truncated_stream() {
        let e = encode(&Instruction::Alu {
            op: AluOp::Add,
            dst: Dst::D(DReg::R0),
            a: Src::D(DReg::R0),
            b: Src::imm(1),
        });
        let truncated = Encoded {
            limbs: e.limbs.clone(),
            bits: 6,
        };
        assert!(decode(&truncated).is_err());
    }
}
