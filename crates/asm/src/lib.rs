//! # jm-asm
//!
//! Assembler for the Message-Driven Processor.
//!
//! Programs for the J-Machine simulator are written through the
//! programmatic [`Builder`] API, which the runtime libraries and the four
//! macro-benchmark applications use (mirroring the paper's hand-tuned
//! assembly, §4.1).
//!
//! It produces a [`Program`]: a single code image plus initialized data
//! blocks, loaded identically onto every node (the J-Machine programming
//! systems are SPMD at the image level — handler addresses must be valid on
//! every node because message headers carry raw instruction pointers).
//!
//! # Example
//!
//! ```
//! use jm_asm::{Builder, Region};
//! use jm_isa::reg::{DReg::*, AReg::*};
//! use jm_isa::operand::MemRef;
//!
//! # fn main() -> Result<(), jm_asm::AsmError> {
//! let mut b = Builder::new();
//! b.reserve("counter", Region::Imem, 1);
//! b.label("main");
//! b.movi(R0, 41);
//! b.addi(R0, R0, 1);
//! b.load_seg(A0, "counter");
//! b.mov(MemRef::disp(A0, 0), R0);
//! b.halt();
//! b.entry("main");
//! let program = b.assemble()?;
//! assert_eq!(program.code.len(), 5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod builder;
mod error;
mod program;

pub use builder::{cst, hdr, lab, seg, seg_base, seg_len, Builder, PSrc, Region};
pub use error::AsmError;
pub use program::{DataBlock, Program, SymbolTable, SymbolValue};
