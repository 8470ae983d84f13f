//! The decoded MDP instruction set.
//!
//! The simulator executes these decoded forms directly for speed; the
//! bit-level representation lives in [`crate::encode`]. The set covers the
//! MDP's published repertoire at the granularity the paper's evaluation
//! depends on: arithmetic/data movement/control, the `SEND` family,
//! tag manipulation (`RTAG`/`WTAG`/`CHECK`), name translation
//! (`ENTER`/`XLATE`/`PROBE`), and thread control (`SUSPEND`/`RESUME`).

use crate::operand::{Dst, Src};
use crate::tag::Tag;
use std::fmt;

/// Binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (truncating). Faults on divide-by-zero.
    Div,
    /// Integer remainder. Faults on divide-by-zero.
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift: positive counts shift left, negative shift right.
    Lsh,
    /// Arithmetic shift: positive counts shift left, negative shift right.
    Ash,
    /// Equality comparison, producing `bool`.
    Eq,
    /// Inequality comparison, producing `bool`.
    Ne,
    /// Signed less-than, producing `bool`.
    Lt,
    /// Signed less-or-equal, producing `bool`.
    Le,
    /// Signed greater-than, producing `bool`.
    Gt,
    /// Signed greater-or-equal, producing `bool`.
    Ge,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
}

impl AluOp {
    /// All binary ALU operations in encoding order.
    pub const ALL: [AluOp; 18] = [
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
        AluOp::Eq,
        AluOp::Ne,
        AluOp::Lt,
        AluOp::Le,
        AluOp::Gt,
        AluOp::Ge,
        AluOp::Min,
        AluOp::Max,
    ];

    /// Mnemonic used by the assembler and disassembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "ADD",
            AluOp::Sub => "SUB",
            AluOp::Mul => "MUL",
            AluOp::Div => "DIV",
            AluOp::Rem => "REM",
            AluOp::And => "AND",
            AluOp::Or => "OR",
            AluOp::Xor => "XOR",
            AluOp::Lsh => "LSH",
            AluOp::Ash => "ASH",
            AluOp::Eq => "EQ",
            AluOp::Ne => "NE",
            AluOp::Lt => "LT",
            AluOp::Le => "LE",
            AluOp::Gt => "GT",
            AluOp::Ge => "GE",
            AluOp::Min => "MIN",
            AluOp::Max => "MAX",
        }
    }
}

/// Unary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alu1Op {
    /// Integer negation.
    Neg,
    /// Boolean NOT.
    Not,
    /// Bitwise complement.
    Inv,
}

impl Alu1Op {
    /// All unary ALU operations in encoding order.
    pub const ALL: [Alu1Op; 3] = [Alu1Op::Neg, Alu1Op::Not, Alu1Op::Inv];

    /// Mnemonic used by the assembler and disassembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Alu1Op::Neg => "NEG",
            Alu1Op::Not => "NOT",
            Alu1Op::Inv => "INV",
        }
    }
}

/// Branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Branch if the operand is `bool` true.
    True,
    /// Branch if the operand is `bool` false.
    False,
    /// Branch if the operand is integer zero.
    Zero,
    /// Branch if the operand is integer non-zero.
    NonZero,
}

impl Cond {
    /// All conditions in encoding order.
    pub const ALL: [Cond; 4] = [Cond::True, Cond::False, Cond::Zero, Cond::NonZero];

    /// Mnemonic suffix (`BT`, `BF`, `BZ`, `BNZ`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::True => "BT",
            Cond::False => "BF",
            Cond::Zero => "BZ",
            Cond::NonZero => "BNZ",
        }
    }
}

/// Message priority for the `SEND` family.
///
/// Priority-1 messages receive preference during channel arbitration, are
/// buffered in a separate queue at the destination, and are dispatched before
/// pending priority-0 messages (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum MsgPriority {
    /// Priority 0 (normal traffic).
    #[default]
    P0,
    /// Priority 1 (preferred in arbitration; preempts P0 handlers).
    P1,
}

impl MsgPriority {
    /// Both priorities, low to high.
    pub const ALL: [MsgPriority; 2] = [MsgPriority::P0, MsgPriority::P1];

    /// Index (0 or 1) for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for MsgPriority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.index())
    }
}

/// Cycle-attribution classes used by the statistics machinery.
///
/// The paper's Figure 6 decomposes application time into computation,
/// communication, synchronization, `xlate`, NNR calculation, and idle. The
/// MDP had no statistics hardware (a lamented omission, §5); the paper
/// instrumented code with counters, which we mirror with the zero-cycle
/// [`Instruction::Mark`] pseudo-instruction that switches the attribution
/// class of subsequent cycles in the current thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum StatClass {
    /// Useful computation (the default attribution).
    #[default]
    Compute,
    /// Communication: send instructions, send-fault stalls, message-data
    /// copying marked by handlers.
    Comm,
    /// Synchronization: presence-tag faults, suspends, barrier waits.
    Sync,
    /// Name translation: `ENTER`/`XLATE`/`PROBE` and miss handlers.
    Xlate,
    /// Converting linear node indices to router addresses in software.
    NnrCalc,
    /// Hardware message dispatch (4 cycles per task creation).
    Dispatch,
    /// No runnable work: empty queues and a halted/suspended background.
    Idle,
}

impl StatClass {
    /// All classes, in reporting order.
    pub const ALL: [StatClass; 7] = [
        StatClass::Compute,
        StatClass::Comm,
        StatClass::Sync,
        StatClass::Xlate,
        StatClass::NnrCalc,
        StatClass::Dispatch,
        StatClass::Idle,
    ];

    /// Index for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Classes a program may select with [`Instruction::Mark`].
    ///
    /// Everything except [`StatClass::Dispatch`] (which only the hardware
    /// dispatcher accrues). `Idle` is markable so that spin-wait loops can
    /// be attributed as idle time, matching the paper's accounting.
    pub fn is_markable(self) -> bool {
        self != StatClass::Dispatch
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            StatClass::Compute => "comp",
            StatClass::Comm => "comm",
            StatClass::Sync => "sync",
            StatClass::Xlate => "xlate",
            StatClass::NnrCalc => "nnr",
            StatClass::Dispatch => "dispatch",
            StatClass::Idle => "idle",
        }
    }
}

impl fmt::Display for StatClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A decoded MDP instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Data movement. `MOVE` is also how tagged constants enter registers
    /// and how `fut` values may be relocated without faulting; a `cfut`
    /// source still faults (§3.2).
    Move {
        /// Destination.
        dst: Dst,
        /// Source.
        src: Src,
    },
    /// Binary ALU operation: `dst = a op b`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        dst: Dst,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
    },
    /// Unary ALU operation: `dst = op src`.
    Alu1 {
        /// Operation.
        op: Alu1Op,
        /// Destination.
        dst: Dst,
        /// Operand.
        src: Src,
    },
    /// Unconditional IP-relative branch.
    Br {
        /// Offset in instruction slots relative to the *next* instruction.
        off: i32,
    },
    /// Conditional IP-relative branch.
    Bc {
        /// Condition.
        cond: Cond,
        /// Tested operand.
        src: Src,
        /// Offset in instruction slots relative to the next instruction.
        off: i32,
    },
    /// Indirect jump to an `ip`-tagged word (or integer instruction index).
    Jmp {
        /// Jump target.
        target: Src,
    },
    /// Jump-and-link: store the return IP (as an `ip` word) in a data
    /// register and branch. The MDP has no hardware stack; calls are a
    /// software convention over `JAL`/`JMP`.
    Jal {
        /// Register receiving the return address.
        link: crate::reg::DReg,
        /// Offset in instruction slots relative to the next instruction.
        off: i32,
    },
    /// Message injection. Models the MDP `SEND`/`SEND2`/`SENDE`/`SEND2E`
    /// family: one or two operand words per cycle, with `end` marking
    /// message completion. The first word injected after an end (or at
    /// thread start) must be a `route` word naming the destination node.
    Send {
        /// Message priority (encoded in the opcode on the real MDP).
        priority: MsgPriority,
        /// First operand word.
        a: Src,
        /// Optional second operand word (the `SEND2` forms).
        b: Option<Src>,
        /// Whether this completes the message (the `SENDE` forms).
        end: bool,
    },
    /// Terminate the current thread. The processor dispatches the next
    /// pending message, or resumes the interrupted lower-priority thread.
    Suspend,
    /// Privileged: restore the register bank of the current priority from
    /// the architectural staging buffer and resume at the staged IP.
    /// Used by runtime handlers to restart threads suspended on a fault.
    Resume,
    /// Read a word's tag as an integer 0–15. Does **not** fault on futures
    /// (it is how handlers inspect them).
    Rtag {
        /// Destination for the tag value.
        dst: Dst,
        /// Inspected word.
        src: Src,
    },
    /// Write a word's tag: `dst = src` retagged with the low 4 bits of
    /// `tag`. Does not fault on futures.
    Wtag {
        /// Destination.
        dst: Dst,
        /// Source word providing the payload bits.
        src: Src,
        /// Operand providing the new tag number.
        tag: Src,
    },
    /// Tag check: `dst = bool(src.tag == tag)`. Does not fault on futures.
    Check {
        /// Destination for the boolean result.
        dst: Dst,
        /// Inspected word.
        src: Src,
        /// Tag compared against.
        tag: Tag,
    },
    /// Insert a key/value pair into the name-translation table (§2.1).
    Enter {
        /// Key word (full tagged comparison).
        key: Src,
        /// Value word.
        value: Src,
    },
    /// Translate a key through the name table; faults on miss. A successful
    /// `XLATE` takes three cycles (§2.1).
    Xlate {
        /// Destination for the translated value.
        dst: Dst,
        /// Key word.
        key: Src,
    },
    /// Like [`Instruction::Xlate`] but delivers `nil` instead of faulting on
    /// a miss.
    Probe {
        /// Destination for the translated value or `nil`.
        dst: Dst,
        /// Key word.
        key: Src,
    },
    /// Zero-cycle instrumentation: attribute subsequent cycles of this
    /// thread to a [`StatClass`]. Mirrors the paper's hand-placed counters.
    Mark {
        /// New attribution class.
        class: StatClass,
    },
    /// Stop this node's background thread permanently. The machine is
    /// quiescent when every node has halted or suspended and no messages
    /// remain in flight.
    Halt,
    /// No operation (one cycle).
    Nop,
}

impl Instruction {
    /// The number of memory operands this instruction references.
    ///
    /// The MDP permits at most one memory operand per instruction; the
    /// assembler enforces this, and [`validate`](Self::validate) re-checks.
    pub fn mem_operands(&self) -> usize {
        let src_mem = |s: &Src| usize::from(s.is_mem());
        let dst_mem = |d: &Dst| usize::from(d.is_mem());
        match self {
            Instruction::Move { dst, src } => dst_mem(dst) + src_mem(src),
            Instruction::Alu { dst, a, b, .. } => dst_mem(dst) + src_mem(a) + src_mem(b),
            Instruction::Alu1 { dst, src, .. } => dst_mem(dst) + src_mem(src),
            Instruction::Bc { src, .. } => src_mem(src),
            Instruction::Jmp { target } => src_mem(target),
            Instruction::Send { a, b, .. } => src_mem(a) + b.as_ref().map_or(0, src_mem),
            Instruction::Rtag { dst, src } => dst_mem(dst) + src_mem(src),
            Instruction::Wtag { dst, src, tag } => dst_mem(dst) + src_mem(src) + src_mem(tag),
            Instruction::Check { dst, src, .. } => dst_mem(dst) + src_mem(src),
            Instruction::Enter { key, value } => src_mem(key) + src_mem(value),
            Instruction::Xlate { dst, key } | Instruction::Probe { dst, key } => {
                dst_mem(dst) + src_mem(key)
            }
            _ => 0,
        }
    }

    /// Validates the static constraints the hardware imposes.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation: more than one memory operand,
    /// or a non-markable [`StatClass`] in a `MARK`.
    pub fn validate(&self) -> Result<(), String> {
        if self.mem_operands() > 1 {
            return Err(format!(
                "instruction has {} memory operands (max 1): {self}",
                self.mem_operands()
            ));
        }
        if let Instruction::Mark { class } = self {
            if !class.is_markable() {
                return Err(format!("MARK cannot select hardware class {class}"));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Move { dst, src } => write!(f, "MOVE {dst}, {src}"),
            Instruction::Alu { op, dst, a, b } => {
                write!(f, "{} {dst}, {a}, {b}", op.mnemonic())
            }
            Instruction::Alu1 { op, dst, src } => write!(f, "{} {dst}, {src}", op.mnemonic()),
            Instruction::Br { off } => write!(f, "BR {off:+}"),
            Instruction::Bc { cond, src, off } => {
                write!(f, "{} {src}, {off:+}", cond.mnemonic())
            }
            Instruction::Jmp { target } => write!(f, "JMP {target}"),
            Instruction::Jal { link, off } => write!(f, "JAL {link}, {off:+}"),
            Instruction::Send {
                priority,
                a,
                b,
                end,
            } => {
                let two = if b.is_some() { "2" } else { "" };
                let e = if *end { "E" } else { "" };
                write!(f, "SEND{two}{e}.{priority} {a}")?;
                if let Some(b) = b {
                    write!(f, ", {b}")?;
                }
                Ok(())
            }
            Instruction::Suspend => f.write_str("SUSPEND"),
            Instruction::Resume => f.write_str("RESUME"),
            Instruction::Rtag { dst, src } => write!(f, "RTAG {dst}, {src}"),
            Instruction::Wtag { dst, src, tag } => write!(f, "WTAG {dst}, {src}, {tag}"),
            Instruction::Check { dst, src, tag } => write!(f, "CHECK {dst}, {src}, {tag}"),
            Instruction::Enter { key, value } => write!(f, "ENTER {key}, {value}"),
            Instruction::Xlate { dst, key } => write!(f, "XLATE {dst}, {key}"),
            Instruction::Probe { dst, key } => write!(f, "PROBE {dst}, {key}"),
            Instruction::Mark { class } => write!(f, "MARK {class}"),
            Instruction::Halt => f.write_str("HALT"),
            Instruction::Nop => f.write_str("NOP"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::MemRef;
    use crate::reg::{AReg, DReg};

    #[test]
    fn mem_operand_counting() {
        let i = Instruction::Alu {
            op: AluOp::Add,
            dst: Dst::D(DReg::R0),
            a: Src::Mem(MemRef::disp(AReg::A0, 1)),
            b: Src::imm(2),
        };
        assert_eq!(i.mem_operands(), 1);
        assert!(i.validate().is_ok());

        let bad = Instruction::Move {
            dst: Dst::Mem(MemRef::disp(AReg::A0, 0)),
            src: Src::Mem(MemRef::disp(AReg::A1, 0)),
        };
        assert_eq!(bad.mem_operands(), 2);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn mark_rejects_hardware_classes() {
        assert!(Instruction::Mark {
            class: StatClass::Dispatch
        }
        .validate()
        .is_err());
        assert!(Instruction::Mark {
            class: StatClass::Idle
        }
        .validate()
        .is_ok());
        assert!(Instruction::Mark {
            class: StatClass::Comm
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn display_covers_send_variants() {
        let s = Instruction::Send {
            priority: MsgPriority::P1,
            a: Src::D(DReg::R0),
            b: Some(Src::D(DReg::R1)),
            end: true,
        };
        assert_eq!(s.to_string(), "SEND2E.1 R0, R1");
        let s = Instruction::Send {
            priority: MsgPriority::P0,
            a: Src::D(DReg::R2),
            b: None,
            end: false,
        };
        assert_eq!(s.to_string(), "SEND.0 R2");
    }

    #[test]
    fn stat_class_indices_dense() {
        for (i, c) in StatClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
