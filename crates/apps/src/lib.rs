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
//! Every module exposes `program` / `setup` / `result` (the machine's
//! answer), a host `reference`, the `THREADS` table of its named thread
//! types (the rows of the paper's Tables 4 and 5) and one `run`, which
//! builds the machine, checks its answer against the reference and
//! returns a [`Run`]. [`App`] names the four and runs any of them on a set
//! of [`Problems`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lcs;
pub mod nqueens;
pub mod radix;
pub mod tsp;

use jm_asm::Program;
use jm_isa::node::NodeId;
use jm_machine::{JMachine, MachineConfig, MachineError, MachineStats, StartPolicy};
use jm_mdp::HandlerStats;

/// The four applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum App {
    /// Longest Common Subsequence.
    Lcs,
    /// Radix Sort.
    Radix,
    /// N-Queens.
    NQueens,
    /// Traveling Salesperson.
    Tsp,
}

impl App {
    /// All applications, figure order.
    pub const ALL: [App; 4] = [App::Lcs, App::Radix, App::NQueens, App::Tsp];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            App::Lcs => "LCS",
            App::Radix => "RadixSort",
            App::NQueens => "NQueens",
            App::Tsp => "TSP",
        }
    }

    /// Runs the application on its problem of `problems`, on the machine
    /// `mcfg` describes (its size, engine and fault plan).
    ///
    /// # Errors
    ///
    /// Propagates machine failures (timeout, node errors).
    ///
    /// # Panics
    ///
    /// Panics if the machine's answer differs from the host reference.
    pub fn run(
        self,
        mcfg: MachineConfig,
        problems: &Problems,
        max_cycles: u64,
    ) -> Result<Run, MachineError> {
        match self {
            App::Lcs => lcs::run(mcfg, &problems.lcs, max_cycles),
            App::Radix => radix::run(mcfg, &problems.radix, max_cycles),
            App::NQueens => nqueens::run(mcfg, &problems.nqueens, max_cycles),
            App::Tsp => tsp::run(mcfg, &problems.tsp, max_cycles),
        }
    }
}

/// One problem configuration per application.
#[derive(Debug, Clone, Copy)]
pub struct Problems {
    /// LCS configuration.
    pub lcs: lcs::LcsConfig,
    /// Radix configuration.
    pub radix: radix::RadixConfig,
    /// N-Queens configuration.
    pub nqueens: nqueens::NqConfig,
    /// TSP configuration.
    pub tsp: tsp::TspConfig,
}

impl Problems {
    /// Each application's scaled problem: the paper's structure at
    /// simulator speed (`jmsim repro --quick`, `jmsim chaos`).
    pub fn scaled() -> Problems {
        Problems {
            lcs: lcs::LcsConfig::scaled(),
            radix: radix::RadixConfig::scaled(),
            nqueens: nqueens::NqConfig::scaled(),
            tsp: tsp::TspConfig::scaled(),
        }
    }

    /// The evaluation sizes used for the reported figures: large enough
    /// that a 64-node machine has real work per node (the scaled problems
    /// are sized for fast tests and leave 64 nodes mostly idle).
    pub fn evaluation() -> Problems {
        Problems {
            lcs: lcs::LcsConfig {
                a_len: 512,
                b_len: 2048,
                seed: 0x1c5,
                alphabet: 4,
            },
            radix: radix::RadixConfig {
                keys: 16_384,
                seed: 0xad1,
            },
            nqueens: nqueens::NqConfig {
                n: 10,
                // Depth 4 gives ~2600 tasks: enough slack for the law of
                // averages to balance 64 nodes (the paper's 15%-idle
                // regime rather than the few-large-tasks regime).
                expand_depth: Some(4),
            },
            tsp: tsp::TspConfig {
                cities: 10,
                seed: 0x75b,
                task_depth: None,
                yield_every: 64,
            },
        }
    }
}

/// One validated application run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Application.
    pub app: App,
    /// Machine size.
    pub nodes: u32,
    /// Cycles to quiescence.
    pub cycles: u64,
    /// Machine statistics.
    pub stats: MachineStats,
    /// Statistics of each of the application's `THREADS` (Tables 4, 5),
    /// in that order.
    pub threads: Vec<(&'static str, HandlerStats)>,
    /// The answer, already checked against the host reference: the LCS
    /// length, the number of keys sorted, the solution count or the best
    /// tour's cost.
    pub answer: u64,
}

impl Run {
    /// The answer as a progress line says it (`length 97`, `4096 keys
    /// sorted`, …).
    pub fn answer_line(&self) -> String {
        let answer = self.answer;
        match self.app {
            App::Lcs => format!("length {answer}"),
            App::Radix => format!("{answer} keys sorted"),
            App::NQueens => format!("{answer} solutions"),
            App::Tsp => format!("best tour {answer}"),
        }
    }
}

/// Boots `program` on the machine `mcfg` describes, every node starting at
/// the entry point (which every application requires).
fn boot(program: Program, mcfg: MachineConfig) -> JMachine {
    JMachine::new(program, mcfg.start(StartPolicy::AllNodes))
}

/// Word `index` of the data block `block` on `node`.
fn word(m: &JMachine, node: u32, block: &str, index: u32) -> i32 {
    let base = m.program().segment(block).base;
    m.read_word(NodeId(node), base + index).as_i32()
}

/// The [`Run`] of `app` on the finished machine `m`; `table` is its
/// `THREADS`.
fn finish(app: App, m: &JMachine, cycles: u64, answer: u64, table: &[(&'static str, &str)]) -> Run {
    let stats = m.stats();
    let of = |label| stats.nodes.handlers.get(&m.program().handler(label));
    let threads = table
        .iter()
        .map(|&(name, label)| (name, of(label).copied().unwrap_or_default()))
        .collect();
    Run {
        app,
        nodes: m.node_count(),
        cycles,
        stats,
        threads,
        answer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Problems {
        Problems {
            lcs: lcs::LcsConfig {
                a_len: 32,
                b_len: 64,
                seed: 1,
                alphabet: 3,
            },
            radix: radix::RadixConfig { keys: 64, seed: 2 },
            nqueens: nqueens::NqConfig {
                n: 6,
                expand_depth: None,
            },
            tsp: tsp::TspConfig {
                cities: 6,
                seed: 3,
                task_depth: None,
                yield_every: 16,
            },
        }
    }

    #[test]
    fn all_apps_run_and_report() {
        let problems = tiny();
        for app in App::ALL {
            let r = app
                .run(MachineConfig::new(4), &problems, 4_000_000_000)
                .unwrap();
            assert!(r.app == app && r.cycles > 0 && r.nodes == 4);
            assert!(r.answer > 0 && !r.threads.is_empty());
            assert!(r.stats.nodes.instructions > 0);
            // Every named thread type resolved to a handler that ran.
            assert!(r.threads.iter().any(|(_, h)| h.threads > 0), "{app:?}");
        }
    }
}
