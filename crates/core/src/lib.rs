//! # jm-machine
//!
//! The whole J-Machine: N Message-Driven Processor nodes (`jm-mdp`) on a
//! 3-D mesh (`jm-net`), stepped under one clock.
//!
//! A [`JMachine`] is built from an assembled [`jm_asm::Program`] (loaded
//! identically on every node, as on the real machine) and a
//! [`MachineConfig`]. The host interface mirrors what the prototype's
//! diagnostic host could do: deliver messages into node queues, peek and
//! poke node memory, install fault vectors, and read every statistic.
//!
//! # Example
//!
//! ```
//! use jm_machine::{JMachine, MachineConfig, StartPolicy};
//! use jm_asm::Builder;
//! use jm_isa::reg::DReg::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = Builder::new();
//! b.reserve("out", jm_asm::Region::Imem, 1);
//! b.label("main");
//! b.movi(R0, 42);
//! b.load_seg(jm_isa::reg::AReg::A0, "out");
//! b.mov(jm_isa::operand::MemRef::disp(jm_isa::reg::AReg::A0, 0), R0);
//! b.halt();
//! b.entry("main");
//! let program = b.assemble()?;
//!
//! let mut machine = JMachine::new(program, MachineConfig::new(8).start(StartPolicy::AllNodes));
//! machine.run_until_quiescent(10_000)?;
//! let out = machine.program().segment("out");
//! assert_eq!(machine.read_word(jm_isa::NodeId(3), out.base).as_i32(), 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod machine;
mod parallel;
mod replay;
mod stats;

pub use config::{Engine, MachineConfig, StartPolicy, TraceConfig};
pub use jm_fault::{FaultSpec, FaultStats, FaultWindow, FaultWindowKind};
pub use jm_trace::{MachineTrace, MsgTrace, SamplePoint};
pub use jm_traffic::{TrafficPattern, TrafficSpec, TrafficStats};
pub use machine::{JMachine, MachineError};
pub use replay::{
    bisect, capture_replay_from_env, verify, BisectReport, BoundaryMismatch, ComponentDiff,
    ComponentHash, Corruption, Divergence, MachineFactory, VerifyReport,
};
pub use stats::MachineStats;
