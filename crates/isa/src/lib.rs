//! # jm-isa
//!
//! Instruction-set architecture of the MIT Message-Driven Processor (MDP), the
//! processing node of the J-Machine multicomputer evaluated in:
//!
//! > Noakes, Wallach, Dally. *The J-Machine Multicomputer: An Architectural
//! > Evaluation.* ISCA 1993.
//!
//! The MDP is a 36-bit tagged-word machine: every word carries 32 bits of data
//! plus a 4-bit type tag. Tags implement dynamic typing, presence-based
//! synchronization (`cfut`/`fut`), and distinguish instruction pointers,
//! segment descriptors, message headers, and network routing words.
//!
//! This crate defines the architectural state types shared by the assembler
//! ([`jm-asm`]), the node microarchitecture model (`jm-mdp`), and the network
//! (`jm-net`):
//!
//! * [`Word`] and [`Tag`] — the 36-bit tagged word;
//! * [`reg`] — register names and the triple-banked register file;
//! * [`instr`] and [`operand`] — the decoded instruction set;
//! * [`encode`] — the dual-17-bit binary instruction encoding;
//! * [`node`] — node identifiers, mesh coordinates, and routing words;
//! * [`consts`] — the memory map and machine parameters from the paper.
//!
//! # Example
//!
//! ```
//! use jm_isa::{Word, Tag};
//!
//! let w = Word::int(42);
//! assert_eq!(w.tag(), Tag::Int);
//! assert_eq!(w.as_i32(), 42);
//!
//! // A `cfut` word marks a slot whose value has not been produced yet;
//! // reading it as an operand faults the processor.
//! let slot = Word::cfut();
//! assert!(slot.tag().is_future());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod consts;
pub mod encode;
pub mod instr;
pub mod node;
pub mod operand;
pub mod reg;
pub mod tag;
pub mod traceid;
pub mod word;

pub use consts::FaultKind;
pub use instr::{Alu1Op, AluOp, Cond, Instruction, MsgPriority, StatClass};
pub use node::{Coord, MeshDims, MeshDimsError, NodeId, RouteWord};
pub use operand::{Dst, MemRef, Special, Src};
pub use reg::{AReg, DReg, Priority, RegBank, RegFile};
pub use tag::Tag;
pub use traceid::TraceId;
pub use word::{MsgHeader, SegDesc, Word};
