//! Register names, priority levels, and the triple-banked register file.

use crate::word::Word;
use std::fmt;
use std::ops::{Index, IndexMut};

/// One of the four general-purpose data registers, `R0`–`R3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DReg {
    /// Data register 0.
    R0,
    /// Data register 1.
    R1,
    /// Data register 2.
    R2,
    /// Data register 3 (conventionally the link register for `JAL`).
    R3,
}

impl DReg {
    /// All data registers in index order.
    pub const ALL: [DReg; 4] = [DReg::R0, DReg::R1, DReg::R2, DReg::R3];

    /// The register number, 0–3.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Decodes a register number.
    ///
    /// # Panics
    ///
    /// Panics if `index > 3`.
    #[inline]
    pub fn from_index(index: usize) -> DReg {
        Self::ALL[index]
    }
}

impl fmt::Display for DReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.index())
    }
}

/// One of the four address registers, `A0`–`A3`.
///
/// Address registers hold `addr`-tagged segment descriptors; every memory
/// reference goes through one. By convention established by the runtime:
/// `A3` is loaded by the hardware dispatch with a descriptor of the current
/// message, and `A2` points at the node's global data segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AReg {
    /// Address register 0.
    A0,
    /// Address register 1.
    A1,
    /// Address register 2 (convention: node globals segment).
    A2,
    /// Address register 3 (convention: current-message segment).
    A3,
}

impl AReg {
    /// All address registers in index order.
    pub const ALL: [AReg; 4] = [AReg::A0, AReg::A1, AReg::A2, AReg::A3];

    /// The register number, 0–3.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Decodes a register number.
    ///
    /// # Panics
    ///
    /// Panics if `index > 3`.
    #[inline]
    pub fn from_index(index: usize) -> AReg {
        Self::ALL[index]
    }
}

impl fmt::Display for AReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.index())
    }
}

/// Execution priority level.
///
/// The MDP provides three distinct register sets so that priority-1 message
/// handlers can interrupt priority-0 handlers, and background code can run
/// whenever both message queues are empty, all without save/restore cost
/// (§2.1: "Fast interrupt processing is achieved through the use of three
/// distinct register sets").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background execution: runs only when both message queues are empty.
    #[default]
    Background,
    /// Priority 0: normal message handlers.
    P0,
    /// Priority 1: high-priority handlers; may interrupt P0 threads.
    P1,
}

impl Priority {
    /// All priority levels from lowest to highest.
    pub const ALL: [Priority; 3] = [Priority::Background, Priority::P0, Priority::P1];

    /// Bank index used by [`RegFile`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Priority::Background => "bg",
            Priority::P0 => "p0",
            Priority::P1 => "p1",
        };
        f.write_str(name)
    }
}

/// The architectural registers of one priority level: four data registers,
/// four address registers, and the instruction pointer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegBank {
    /// Data registers `R0`–`R3`.
    pub r: [Word; 4],
    /// Address registers `A0`–`A3`.
    pub a: [Word; 4],
    /// Instruction pointer (an instruction index; see `jm-asm`).
    pub ip: u32,
}

impl Index<DReg> for RegBank {
    type Output = Word;
    fn index(&self, reg: DReg) -> &Word {
        &self.r[reg.index()]
    }
}

impl IndexMut<DReg> for RegBank {
    fn index_mut(&mut self, reg: DReg) -> &mut Word {
        &mut self.r[reg.index()]
    }
}

impl Index<AReg> for RegBank {
    type Output = Word;
    fn index(&self, reg: AReg) -> &Word {
        &self.a[reg.index()]
    }
}

impl IndexMut<AReg> for RegBank {
    fn index_mut(&mut self, reg: AReg) -> &mut Word {
        &mut self.a[reg.index()]
    }
}

/// The full triple-banked register file: one [`RegBank`] per [`Priority`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegFile {
    banks: [RegBank; 3],
}

impl RegFile {
    /// Creates a register file with all registers nil and IPs zero.
    pub fn new() -> RegFile {
        RegFile::default()
    }

    /// The bank for a priority level.
    #[inline]
    pub fn bank(&self, priority: Priority) -> &RegBank {
        &self.banks[priority.index()]
    }

    /// Mutable access to the bank for a priority level.
    #[inline]
    pub fn bank_mut(&mut self, priority: Priority) -> &mut RegBank {
        &mut self.banks[priority.index()]
    }
}

impl Index<Priority> for RegFile {
    type Output = RegBank;
    fn index(&self, priority: Priority) -> &RegBank {
        self.bank(priority)
    }
}

impl IndexMut<Priority> for RegFile {
    fn index_mut(&mut self, priority: Priority) -> &mut RegBank {
        self.bank_mut(priority)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_indices_round_trip() {
        for r in DReg::ALL {
            assert_eq!(DReg::from_index(r.index()), r);
        }
        for a in AReg::ALL {
            assert_eq!(AReg::from_index(a.index()), a);
        }
    }

    #[test]
    fn banks_are_independent() {
        let mut rf = RegFile::new();
        rf[Priority::P0][DReg::R0] = Word::int(7);
        rf[Priority::P1][DReg::R0] = Word::int(9);
        rf[Priority::Background][DReg::R0] = Word::int(11);
        assert_eq!(rf[Priority::P0][DReg::R0].as_i32(), 7);
        assert_eq!(rf[Priority::P1][DReg::R0].as_i32(), 9);
        assert_eq!(rf[Priority::Background][DReg::R0].as_i32(), 11);
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority::P1 > Priority::P0);
        assert!(Priority::P0 > Priority::Background);
    }

    #[test]
    fn address_and_data_regs_are_separate() {
        let mut bank = RegBank::default();
        bank[DReg::R1] = Word::int(1);
        bank[AReg::A1] = Word::int(2);
        assert_eq!(bank[DReg::R1].as_i32(), 1);
        assert_eq!(bank[AReg::A1].as_i32(), 2);
    }
}
