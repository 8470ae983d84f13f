//! The assembled program image.

use jm_isa::consts::{MEM_WORDS, VECTOR_COUNT};
use jm_isa::instr::Instruction;
use jm_isa::word::{SegDesc, Word};
use std::collections::HashMap;
use std::fmt;

/// The value bound to a symbol after assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolValue {
    /// A code label: an instruction index.
    Code(u32),
    /// A data block: its segment descriptor.
    Data(SegDesc),
    /// A named constant (`.equ`).
    Const(Word),
}

/// Symbol table mapping names to [`SymbolValue`]s.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    map: HashMap<String, SymbolValue>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Binds `name`, returning the previous binding if any.
    pub fn insert(&mut self, name: impl Into<String>, value: SymbolValue) -> Option<SymbolValue> {
        self.map.insert(name.into(), value)
    }

    /// Looks up a symbol.
    pub fn get(&self, name: &str) -> Option<SymbolValue> {
        self.map.get(name).copied()
    }

    /// The instruction index of a code label.
    pub fn code(&self, name: &str) -> Option<u32> {
        match self.get(name)? {
            SymbolValue::Code(ip) => Some(ip),
            _ => None,
        }
    }

    /// The segment descriptor of a data block.
    pub fn data(&self, name: &str) -> Option<SegDesc> {
        match self.get(name)? {
            SymbolValue::Data(seg) => Some(seg),
            _ => None,
        }
    }

    /// Iterates over all `(name, value)` bindings in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, SymbolValue)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A placed data block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataBlock {
    /// Symbolic name.
    pub name: String,
    /// Base word address on every node.
    pub base: u32,
    /// Length in words.
    pub len: u32,
    /// Initialization words (length ≤ `len`; the rest is nil-filled).
    pub init: Vec<Word>,
}

impl DataBlock {
    /// The segment descriptor naming this block. Blocks longer than a
    /// bounded descriptor can express are given unbounded (privileged)
    /// descriptors.
    pub fn seg(&self) -> SegDesc {
        if self.len <= SegDesc::MAX_LEN {
            SegDesc::new(self.base, self.len)
        } else {
            SegDesc::unbounded(self.base)
        }
    }
}

/// An assembled, fully resolved program image.
///
/// The same image is loaded onto every node of the machine; per-node
/// behaviour comes from the `NID`/`NNR` special registers and from which
/// messages each node receives.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Decoded instructions; an instruction pointer is an index here.
    pub code: Vec<Instruction>,
    /// Nominal word address where the encoded code image begins (after the
    /// fault vectors). Used for fetch-timing (internal vs. external code).
    pub code_base: u32,
    /// Number of memory words the encoded code occupies.
    pub code_words: u32,
    /// Placed data blocks.
    pub data: Vec<DataBlock>,
    /// Symbol table.
    pub symbols: SymbolTable,
    /// Background entry point (instruction index), if declared.
    pub entry: Option<u32>,
}

impl Program {
    /// The instruction index bound to a required code label.
    ///
    /// # Panics
    ///
    /// Panics if the label is missing — programs address their own handlers,
    /// so a missing label is a programming error.
    pub fn handler(&self, name: &str) -> u32 {
        self.symbols
            .code(name)
            .unwrap_or_else(|| panic!("program has no code label `{name}`"))
    }

    /// The segment descriptor of a required data block.
    ///
    /// # Panics
    ///
    /// Panics if the block is missing.
    pub fn segment(&self, name: &str) -> SegDesc {
        self.symbols
            .data(name)
            .unwrap_or_else(|| panic!("program has no data block `{name}`"))
    }

    /// Validates the image: instruction constraints, address ranges, and
    /// entry-point sanity.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        for (index, instr) in self.code.iter().enumerate() {
            instr
                .validate()
                .map_err(|e| format!("instruction {index}: {e}"))?;
        }
        if self.code_base < VECTOR_COUNT {
            return Err(format!(
                "code base {} overlaps the fault vectors",
                self.code_base
            ));
        }
        for block in &self.data {
            if block.base < VECTOR_COUNT {
                return Err(format!("data block `{}` overlaps the vectors", block.name));
            }
            // Checked: an image read from a file can hold any two numbers.
            if block
                .base
                .checked_add(block.len)
                .is_none_or(|end| end > MEM_WORDS)
            {
                return Err(format!(
                    "data block `{}` exceeds node memory ({} words)",
                    block.name, MEM_WORDS
                ));
            }
            if block.init.len() as u32 > block.len {
                return Err(format!(
                    "data block `{}` has more init words than its length",
                    block.name
                ));
            }
        }
        if let Some(entry) = self.entry {
            if entry as usize >= self.code.len() {
                return Err(format!("entry point {entry} outside code"));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "; {} instructions, {} data blocks",
            self.code.len(),
            self.data.len()
        )?;
        // Invert code symbols for labelled disassembly.
        let mut labels: HashMap<u32, Vec<&str>> = HashMap::new();
        for (name, value) in self.symbols.iter() {
            if let SymbolValue::Code(ip) = value {
                labels.entry(ip).or_default().push(name);
            }
        }
        for (index, instr) in self.code.iter().enumerate() {
            if let Some(names) = labels.get(&(index as u32)) {
                for name in names {
                    writeln!(f, "{name}:")?;
                }
            }
            writeln!(f, "    {instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_isa::operand::{Dst, Src};
    use jm_isa::reg::DReg;

    #[test]
    fn symbol_table_kinds() {
        let mut t = SymbolTable::new();
        t.insert("f", SymbolValue::Code(3));
        t.insert("d", SymbolValue::Data(SegDesc::new(100, 4)));
        t.insert("k", SymbolValue::Const(Word::int(9)));
        assert_eq!(t.code("f"), Some(3));
        assert_eq!(t.code("d"), None);
        assert_eq!(t.data("d"), Some(SegDesc::new(100, 4)));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn oversize_blocks_get_unbounded_descriptors() {
        let block = DataBlock {
            name: "big".into(),
            base: 5000,
            len: 10_000,
            init: vec![],
        };
        assert!(block.seg().is_unbounded());
    }

    #[test]
    fn validate_catches_entry_out_of_range() {
        let p = Program {
            code: vec![Instruction::Nop],
            code_base: 16,
            code_words: 1,
            entry: Some(5),
            ..Program::default()
        };
        assert!(p.validate().unwrap_err().contains("entry"));
    }

    #[test]
    fn display_shows_labels() {
        let mut p = Program {
            code: vec![
                Instruction::Move {
                    dst: Dst::D(DReg::R0),
                    src: Src::imm(1),
                },
                Instruction::Halt,
            ],
            code_base: 16,
            code_words: 2,
            ..Program::default()
        };
        p.symbols.insert("main", SymbolValue::Code(0));
        let text = p.to_string();
        assert!(text.contains("main:"));
        assert!(text.contains("HALT"));
    }
}
