//! # jm-apps
//!
//! The four macro-benchmark applications of the paper's §4, written in MDP
//! assembly against the `jm-runtime` libraries, plus host-side reference
//! implementations used to validate every run:
//!
//! * [`lcs`] — Longest Common Subsequence, systolic, one message per
//!   character of the second string (assembly in the paper);
//! * [`radix`] — Radix Sort, 4 bits per pass, counts combined with a
//!   hypercube vector scan and values scattered with 3-word remote-write
//!   messages (Tuned J in the paper);
//! * [`nqueens`] — N-Queens with breadth-first task expansion followed by
//!   local depth-first search (Tuned J in the paper);
//! * [`tsp`] — Traveling Salesperson on a COSMOS-lite object runtime:
//!   xlate-mediated object access, bound broadcast, periodic suspension,
//!   and work-requesting (Concurrent Smalltalk in the paper).
//!
//! Every module exposes `program`/`setup`/`run` plus a host `reference`
//! function; `run` validates the machine's answer against the reference
//! before returning statistics, among them those of the thread types its
//! `THREADS` table names (the rows of the paper's Tables 4 and 5).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lcs;
pub mod nqueens;
pub mod radix;
pub mod tsp;

use jm_machine::{JMachine, MachineStats};
use jm_mdp::HandlerStats;

/// A run's statistics per thread type, in its module's `THREADS` order.
pub type Threads = Vec<(&'static str, HandlerStats)>;

/// Looks each `(thread name, entry label)` of `table` up in `stats`, the
/// statistics of `m`'s finished run.
fn threads(m: &JMachine, stats: &MachineStats, table: &[(&'static str, &str)]) -> Threads {
    let of = |label| stats.nodes.handlers.get(&m.program().handler(label));
    table
        .iter()
        .map(|&(name, label)| (name, of(label).copied().unwrap_or_default()))
        .collect()
}
