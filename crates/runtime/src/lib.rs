//! # jm-runtime
//!
//! J-Machine system software, written in MDP assembly through the
//! [`jm_asm::Builder`] API — the level at which the paper's own benchmark
//! programs were written ("we perform modest hand-tuning of a few of the
//! critical code sequences", §4.1).
//!
//! Each module contributes handlers, routines, and state blocks to a
//! program under construction:
//!
//! * [`nnr`] — the software node-id → router-address conversion whose cost
//!   shows up as the "NNR Calc" slice of Figure 6;
//! * [`rpc`] — remote-read and ping handlers used by the latency and
//!   overhead micro-benchmarks (Figure 2, Table 1);
//! * [`barrier`] — the scan-style dissemination barrier of Table 3
//!   (`O(N log N)` messages in `log N` waves, a butterfly mapped onto the
//!   3-D mesh);
//! * [`futures`] — `cfut` fault handling: context save/restore through the
//!   hardware staging buffer, suspension, and producer-side restart
//!   (Table 2's save/restore costs);
//! * [`rand`] — a small LCG for synthetic traffic generation;
//! * [`reliable`] — sequence-numbered idempotent RPC with watchdog resend
//!   and exponential backoff, the guest-level recovery protocol for
//!   fault-injection runs (checksum-dropped messages are retried until
//!   acked, applying each operation exactly once).
//!
//! # Calling convention
//!
//! Routines are called with `JAL R3, label` and return with `JMP R3`.
//! Arguments and results use `R0`–`R2`; `A0`/`A1` are caller-saved scratch.
//! There is no stack: routines are leaves unless documented otherwise.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod barrier;
pub mod futures;
pub mod nnr;
pub mod rand;
pub mod reliable;
pub mod rpc;
