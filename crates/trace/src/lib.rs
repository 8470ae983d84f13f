//! # jm-trace
//!
//! Zero-cost-when-disabled message-lifecycle tracing for the J-Machine
//! simulator.
//!
//! The paper's central claim is a latency decomposition: an end-to-end
//! message time `T = T_send + T_net + T_queue + T_dispatch`, each term owned
//! by a hardware mechanism. This crate makes that decomposition observable
//! in the simulator. Every message is stamped with a [`TraceId`] when the
//! network accepts it, and the network and node models emit lifecycle
//! [`Event`]s — inject, per-hop route, deliver, queue-enter, dispatch,
//! handler-complete — each with a cycle timestamp.
//!
//! Components buffer events locally in a [`Tracer`], one vector of
//! [`Event`]s in emission order (boxed behind an `Option` on each
//! component: the disabled path is one pointer test and zero
//! allocation). A node hands its events to its slab's buffer as the slab
//! visits it ([`Tracer::append`]), so each slab's buffer is one stream in
//! cycle order, and the machine drains those few streams into a
//! [`MachineTrace`] a batch at a time as the run goes, one cycle at a time
//! ([`MachineTrace::merge`]), so the trace is held once; the trace
//! reconstructs per-message [`MsgTrace`]
//! lifecycles, accumulates log-scaled [`Histogram`]s, and exports either
//! Chrome trace-event JSON ([`chrome_json`], for Perfetto) or a compact
//! machine-readable summary ([`summary_json`]) with a deterministic FNV-1a
//! trace [`hash`].
//!
//! This crate depends only on `jm-isa`; it knows nothing about the network
//! or node microarchitecture beyond what the events carry.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chrome;
pub mod event;
pub mod histogram;
pub mod summary;
pub mod trace;

pub use chrome::chrome_json;
pub use event::{Event, EventKind, FaultEvent, Tracer};
pub use histogram::{Histogram, BUCKETS};
pub use jm_isa::TraceId;
pub use summary::{hash, summary_json, Fnv1a};
pub use trace::{Breakdown, MachineTrace, MsgTrace, SamplePoint};
