//! # jm-mdp
//!
//! Cycle-level model of the Message-Driven Processor: the 1.1M-transistor
//! VLSI node of the J-Machine (paper §2.1).
//!
//! One [`MdpNode`] models:
//!
//! * the triple-banked execution engine (background / priority-0 /
//!   priority-1) with per-instruction timing calibrated to the paper
//!   (1 cycle register-register, 2 cycles with an internal-memory operand,
//!   ~6 cycles external memory, 12.5 MHz clock);
//! * internal 4K-word SRAM and external 256K-word DRAM;
//! * the two hardware **message queues** with streaming arrival, 4-cycle
//!   task dispatch when a message header reaches the head, and stalls when
//!   a handler reads argument words that have not yet arrived;
//! * **presence-tag synchronization**: `cfut` reads and `fut` uses fault
//!   into runtime handlers through the vector table, with a hardware
//!   staging buffer exposing the faulted thread's registers;
//! * the **name-translation cache** behind `ENTER`/`XLATE`/`PROBE`
//!   (3-cycle hits, faulting misses);
//! * **send faults** when the network injection FIFO backpressures
//!   (§4.3.2), retried by the hardware while being counted;
//! * per-node statistics: cycles by class (compute / comm / sync / xlate /
//!   NNR-calc / dispatch / idle), per-handler thread counts and lengths
//!   (Table 4), fault and xlate counters (Table 5).
//!
//! A node runs its program lowered: [`Code`] decodes the assembler's
//! instructions once into a table of ops that every node running the
//! program shares.
//!
//! The node is network-agnostic: the machine crate (`jm-machine`) pumps
//! ejected words into [`MdpNode::deliver`] and passes a [`NetPort`] for
//! injection.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod exec;
mod hash;
mod lower;
mod memory;
mod node;
mod queue;
mod stats;
mod stretch;
mod xlate;

pub use config::{MdpConfig, TimingConfig, QUEUE_VBASE, STAGING_FRAME, STAGING_VBASE};
pub use lower::Code;
pub use memory::Memory;
pub use node::{InjectAck, MdpNode, NetPort, NodeError, TickOutcome};
pub use queue::MsgQueue;
pub use stats::{HandlerStats, NodeStats};
pub use stretch::StretchStats;
pub use xlate::XlateCache;
