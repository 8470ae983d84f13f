//! Instruction operands: sources, destinations, memory references, and the
//! special-register file.

use crate::reg::{AReg, DReg};
use crate::word::Word;
use std::fmt;

/// A memory reference: base address register plus an index.
///
/// Every MDP memory access is relative to a segment descriptor held in an
/// address register; the hardware checks the index against the segment
/// length (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Address register holding the segment descriptor.
    pub base: AReg,
    /// Index within the segment.
    pub index: Index,
}

impl MemRef {
    /// `[base + disp]` with a constant displacement.
    pub fn disp(base: AReg, disp: u32) -> MemRef {
        MemRef {
            base,
            index: Index::Disp(disp),
        }
    }

    /// `[base + reg]` with a register index.
    pub fn reg(base: AReg, reg: DReg) -> MemRef {
        MemRef {
            base,
            index: Index::Reg(reg),
        }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Index::Disp(d) => write!(f, "[{}+{}]", self.base, d),
            Index::Reg(r) => write!(f, "[{}+{}]", self.base, r),
        }
    }
}

/// The index part of a [`MemRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Index {
    /// Constant displacement from the segment base.
    Disp(u32),
    /// Index taken from a data register (must hold an `int`).
    Reg(DReg),
}

/// Read-only special registers.
///
/// `Nnr`/`Nid`/`NNodes`/`Dims` describe the node's place in the machine.
/// `Fip`/`FVal`/`FAddr` expose fault state to runtime handlers. `Cycle` is a
/// free-running cycle counter — a simulator affordance the paper explicitly
/// wished the real hardware had ("The inclusion of a cycle counter, for
/// example, would have enabled the time-stamping of events", §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    /// This node's router address as a `route`-tagged word.
    Nnr,
    /// This node's linear index as an `int`.
    Nid,
    /// Total number of nodes in the machine.
    NNodes,
    /// Mesh dimensions packed like a routing word (x, y, z extents).
    Dims,
    /// Free-running cycle counter (low 32 bits).
    Cycle,
    /// IP of the most recent fault.
    Fip,
    /// Value word associated with the most recent fault.
    FVal,
    /// Address/index information for the most recent fault.
    FAddr,
}

impl Special {
    /// All special registers in encoding order.
    pub const ALL: [Special; 8] = [
        Special::Nnr,
        Special::Nid,
        Special::NNodes,
        Special::Dims,
        Special::Cycle,
        Special::Fip,
        Special::FVal,
        Special::FAddr,
    ];

    /// Encoding index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Decodes an encoding index.
    ///
    /// # Panics
    ///
    /// Panics if `index > 7`.
    #[inline]
    pub fn from_index(index: usize) -> Special {
        Self::ALL[index]
    }
}

impl fmt::Display for Special {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Special::Nnr => "NNR",
            Special::Nid => "NID",
            Special::NNodes => "NNODES",
            Special::Dims => "DIMS",
            Special::Cycle => "CYCLE",
            Special::Fip => "FIP",
            Special::FVal => "FVAL",
            Special::FAddr => "FADDR",
        };
        f.write_str(name)
    }
}

/// A source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// A data register.
    D(DReg),
    /// An address register (reads the descriptor word itself).
    A(AReg),
    /// A tagged immediate. The assembler materializes labels, message
    /// headers, routing words, and `cfut` markers as tagged immediates.
    Imm(Word),
    /// A memory operand. At most one operand of an instruction may be a
    /// memory reference (§2.1: "most operators \[may\] read one of the
    /// operands from memory").
    Mem(MemRef),
    /// A special register.
    Sp(Special),
}

impl Src {
    /// Integer immediate shorthand.
    pub fn imm(value: i32) -> Src {
        Src::Imm(Word::int(value))
    }

    /// Whether this operand references memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, Src::Mem(_))
    }
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src::D(r) => write!(f, "{r}"),
            Src::A(a) => write!(f, "{a}"),
            Src::Imm(w) => write!(f, "#{w:?}"),
            Src::Mem(m) => write!(f, "{m}"),
            Src::Sp(s) => write!(f, "{s}"),
        }
    }
}

impl From<DReg> for Src {
    fn from(reg: DReg) -> Src {
        Src::D(reg)
    }
}

impl From<AReg> for Src {
    fn from(reg: AReg) -> Src {
        Src::A(reg)
    }
}

impl From<Word> for Src {
    fn from(word: Word) -> Src {
        Src::Imm(word)
    }
}

impl From<i32> for Src {
    fn from(value: i32) -> Src {
        Src::imm(value)
    }
}

impl From<MemRef> for Src {
    fn from(mem: MemRef) -> Src {
        Src::Mem(mem)
    }
}

/// A destination operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dst {
    /// A data register.
    D(DReg),
    /// An address register (the written word should be `addr`-tagged; the
    /// hardware faults later uses otherwise).
    A(AReg),
    /// A memory destination.
    Mem(MemRef),
}

impl Dst {
    /// Whether this operand references memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, Dst::Mem(_))
    }
}

impl fmt::Display for Dst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dst::D(r) => write!(f, "{r}"),
            Dst::A(a) => write!(f, "{a}"),
            Dst::Mem(m) => write!(f, "{m}"),
        }
    }
}

impl From<DReg> for Dst {
    fn from(reg: DReg) -> Dst {
        Dst::D(reg)
    }
}

impl From<AReg> for Dst {
    fn from(reg: AReg) -> Dst {
        Dst::A(reg)
    }
}

impl From<MemRef> for Dst {
    fn from(mem: MemRef) -> Dst {
        Dst::Mem(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_classification() {
        assert!(Src::Mem(MemRef::disp(AReg::A0, 3)).is_mem());
        assert!(!Src::D(DReg::R0).is_mem());
        assert!(Dst::Mem(MemRef::reg(AReg::A1, DReg::R2)).is_mem());
        assert!(!Dst::D(DReg::R0).is_mem());
    }

    #[test]
    fn special_index_round_trip() {
        for s in Special::ALL {
            assert_eq!(Special::from_index(s.index()), s);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Src::D(DReg::R1).to_string(), "R1");
        assert_eq!(Src::Mem(MemRef::disp(AReg::A3, 2)).to_string(), "[A3+2]");
        assert_eq!(
            Src::Mem(MemRef::reg(AReg::A0, DReg::R3)).to_string(),
            "[A0+R3]"
        );
        assert_eq!(Src::imm(9).to_string(), "#9:int");
        assert_eq!(Src::Sp(Special::Nnr).to_string(), "NNR");
    }
}
