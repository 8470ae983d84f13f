//! `jmbench`: the host-speed benchmark of the jmsim simulator.
//!
//! Six workloads, four end-to-end metrics each, and a separate layer pass
//! that says where the time went. `README.md` beside this crate defines
//! every name; `BENCHMARK.json` at the repository root is the contract the
//! driver runs it under.

pub mod child;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod probe;
pub mod programs;
pub mod run;
pub mod spans;
pub mod split;
pub mod workloads;
