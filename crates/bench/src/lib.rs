//! # jm-bench
//!
//! The experiment harness behind the `jmsim` binary. Each experiment
//! declares the machines it measures as [`registry::Point`]s — a program
//! built with `jm-asm`/`jm-runtime`, a machine configuration, and a reader
//! that drives the machine and says what it measured as [`rows::Row`]s,
//! the same series the paper reports. One body, [`registry::Ctx::run`],
//! boots every point under the run's [`jm_machine::Engine`] and fails it
//! on any node error.
//! Every table printed is [`table::pivot`] over rows, the paper's own
//! numbers are rows of one table ([`baselines`]), and one comparator holds
//! the first against the second.
//!
//! | module | role |
//! |--------|------|
//! | [`cli`] | the `jmsim` dispatch table and the one argument parser |
//! | [`registry`] | the ten paper artifacts and two sweeps, declared once; `jmsim repro`; the point type and the one body that runs a point |
//! | [`micro::latency`] | Figure 2 — round-trip latency vs. distance |
//! | [`micro::overhead`] | Table 1 — one-way message overhead |
//! | [`micro::load`] | Figure 3 — latency vs. load, efficiency vs. grain |
//! | [`micro::bandwidth`] | Figure 4 — terminal bandwidth vs. message size |
//! | [`micro::sync`] | Table 2 — producer/consumer synchronization |
//! | [`micro::barrier`] | Table 3 — barrier synchronization |
//! | [`macrob`] | Figures 5 & 6, Tables 4 & 5 as rows of `jm_apps` runs |
//! | [`baselines`] | the one table of published values, and the comparator |
//! | [`rows`] | the one BENCH row schema: sole writer and reader |
//! | [`table`] | the one view: a pivot of rows |
//! | `perf` | `jmsim perf` and `mesh` — host throughput rows, each read off one timed race |
//! | [`harness`] | host-side helpers: a one-shot timer and the peak RSS |
//! | `gate` | `jmsim gate` — ratchet, floors and ceilings over rows |
//! | [`faultb`], [`traffic`] | the fault and traffic sweeps |
//! | `tools` | `traffic --mesh`, `chaos`, `trace`, `replay …` |
//! | [`workloads`], [`observe`] | canned programs shared with the test suites |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Writes to stdout through `write_out`, the one writer of every report
/// line; `outln!` adds a newline.
macro_rules! out {
    ($($arg:tt)*) => { $crate::write_out(format_args!($($arg)*)) };
}
macro_rules! outln {
    ($($arg:tt)*) => { out!("{}\n", format_args!($($arg)*)) };
}

pub mod baselines;
pub mod cli;
pub mod faultb;
mod gate;
pub mod harness;
pub mod macrob;
pub mod micro;
pub mod observe;
mod perf;
pub mod registry;
pub mod rows;
pub mod table;
mod tools;
pub mod traffic;
pub mod workloads;

/// Writes `args` to stdout. A reader that went away (`jmsim chaos | head
/// -1`) ends the process quietly, with the status a shell reports for a
/// process `SIGPIPE` stopped (141); any other write error is exit 1 with
/// one line.
fn write_out(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        eprintln!("jmsim: stdout: {e}");
        std::process::exit(1);
    }
}
