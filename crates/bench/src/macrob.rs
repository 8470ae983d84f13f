//! Macro-benchmarks: Figures 5–6 and Tables 4–5 over the four
//! applications of `jm-apps`.

use crate::rows::Row;
use jm_apps::{lcs, nqueens, radix, tsp};
use jm_isa::instr::StatClass;
use jm_machine::{MachineConfig, MachineError, MachineStats};

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
}

/// One application run's harvest.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Application.
    pub app: App,
    /// Machine size.
    pub nodes: u32,
    /// Cycles to completion.
    pub cycles: u64,
    /// Machine statistics.
    pub stats: MachineStats,
    /// Statistics of the application's named thread types (Tables 4, 5).
    pub threads: jm_apps::Threads,
    /// The validated answer, for a progress line.
    pub answer: String,
}

/// Scaled default problem configurations (see `EXPERIMENTS.md` for the
/// paper-size originals).
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

impl Default for Problems {
    fn default() -> Problems {
        Problems {
            lcs: lcs::LcsConfig::scaled(),
            radix: radix::RadixConfig::scaled(),
            nqueens: nqueens::NqConfig::scaled(),
            tsp: tsp::TspConfig::scaled(),
        }
    }
}

impl Problems {
    /// The evaluation sizes used for the reported figures: large enough
    /// that a 64-node machine has real work per node (the scaled defaults
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

const MAX_CYCLES: u64 = 4_000_000_000;

/// Runs one application on the machine `mcfg` describes (its size, engine
/// and fault plan); the application checks its own answer against the host
/// reference.
///
/// # Errors
///
/// Propagates machine failures.
pub fn run_app(mcfg: MachineConfig, app: App, problems: &Problems) -> Result<AppRun, MachineError> {
    let (cycles, stats, threads, answer) = match app {
        App::Lcs => {
            let r = lcs::run_on(mcfg, &problems.lcs, MAX_CYCLES)?;
            (r.cycles, r.stats, r.threads, format!("length {}", r.length))
        }
        App::Radix => {
            let r = radix::run_on(mcfg, &problems.radix, MAX_CYCLES)?;
            let answer = format!("{} keys sorted", problems.radix.keys);
            (r.cycles, r.stats, r.threads, answer)
        }
        App::NQueens => {
            let r = nqueens::run_on(mcfg, &problems.nqueens, MAX_CYCLES)?;
            let answer = format!("{} solutions", r.solutions);
            (r.cycles, r.stats, r.threads, answer)
        }
        App::Tsp => {
            let r = tsp::run_on(mcfg, &problems.tsp, MAX_CYCLES)?;
            (
                r.cycles,
                r.stats,
                r.threads,
                format!("best tour {}", r.best),
            )
        }
    };
    Ok(AppRun {
        app,
        nodes: mcfg.nodes(),
        cycles,
        stats,
        threads,
        answer,
    })
}

/// Figure 5 as rows: `fig5/<app>` holds the speedup over the application's
/// own smallest run at each size, `fig5/cycles/<app>` the cycles behind it.
pub fn fig5_rows(runs: &[AppRun]) -> Vec<Row> {
    let mut rows = Vec::new();
    for r in runs {
        let base = runs.iter().find(|b| b.app == r.app).expect("itself");
        let (app, at) = (r.app.name(), format!("{}n", r.nodes));
        let speedup = base.cycles as f64 / r.cycles as f64;
        rows.push(Row::simulated(&format!("fig5/{app}"), &at, speedup, "x"));
        let cycles = r.cycles as f64;
        rows.push(Row::simulated(
            &format!("fig5/cycles/{app}"),
            &at,
            cycles,
            "cycles",
        ));
    }
    rows
}

/// Figure 6 as rows: `fig6/<app>` holds the share of cycles per class.
pub fn fig6_rows(runs: &[AppRun]) -> Vec<Row> {
    let mut rows = Vec::new();
    for r in runs {
        let line = format!("fig6/{}", r.app.name());
        for class in StatClass::ALL {
            let share = 100.0 * r.stats.class_fraction(class);
            rows.push(Row::simulated(&line, class.label(), share, "%"));
        }
    }
    rows
}

/// The four numbers Tables 4 and 5 report of a set of threads.
fn thread_numbers(h: &jm_mdp::HandlerStats) -> [(&'static str, f64, &'static str); 4] {
    [
        ("threads", h.threads as f64, "threads"),
        ("instructions", h.instructions as f64, "instrs"),
        ("instr per thread", h.instr_per_thread(), "instrs"),
        ("msg len", h.mean_msg_len(), "words"),
    ]
}

/// Table 4 as rows: `table4/<app>` holds the run time, `table4/<app>
/// <thread>` a thread type's statistics.
pub fn table4_rows(runs: &[AppRun]) -> Vec<Row> {
    let mut rows = Vec::new();
    for r in runs {
        let app = format!("table4/{}", r.app.name());
        rows.push(Row::simulated(&app, "run", r.stats.millis(), "ms"));
        for (thread, h) in &r.threads {
            let line = format!("{app} {thread}");
            let numbers = thread_numbers(h);
            rows.extend(numbers.map(|(metric, v, unit)| Row::simulated(&line, metric, v, unit)));
        }
    }
    rows
}

/// Table 5 as rows: `table5/<component>` holds TSP's cost split between
/// the application's threads (`user`) and the object runtime's (`os`).
pub fn table5_rows(run: &AppRun) -> Vec<Row> {
    assert_eq!(run.app, App::Tsp);
    let mut rows = vec![Row::simulated(
        "table5/run time",
        "user",
        run.stats.millis(),
        "ms",
    )];
    let (user, os) = run.threads.split_at(tsp::USER_THREADS);
    for (side, set) in [("user", user), ("os", os)] {
        let mut sum = jm_mdp::HandlerStats::default();
        for (_, h) in set {
            sum.threads += h.threads;
            sum.instructions += h.instructions;
            sum.msg_words += h.msg_words;
        }
        rows.extend(thread_numbers(&sum).map(|(component, v, unit)| {
            Row::simulated(&format!("table5/{component}"), side, v, unit)
        }));
    }
    let n = &run.stats.nodes;
    let xlates = [
        ("table5/xlates", n.xlates, "xlates"),
        ("table5/xlate faults", n.xlate_misses, "faults"),
    ];
    rows.extend(xlates.map(|(line, v, unit)| Row::simulated(line, "user", v as f64, unit)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_problems() -> Problems {
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
        let problems = tiny_problems();
        for app in App::ALL {
            let r = run_app(MachineConfig::new(4), app, &problems).unwrap();
            assert!(r.cycles > 0 && r.nodes == 4);
            assert!(!r.threads.is_empty() && !r.answer.is_empty());
            assert!(r.stats.nodes.instructions > 0);
            // Every named thread type resolved to a handler that ran.
            assert!(r.threads.iter().any(|(_, h)| h.threads > 0), "{app:?}");
        }
    }

    #[test]
    fn fig5_speedup_table_renders() {
        let problems = tiny_problems();
        let run = |app, nodes| run_app(MachineConfig::new(nodes), app, &problems).unwrap();
        let runs: Vec<AppRun> = [1, 4]
            .into_iter()
            .flat_map(|nodes| App::ALL.map(|app| run(app, nodes)))
            .collect();
        let rows = fig5_rows(&runs);
        assert_eq!(crate::rows::value(&rows, "fig5/LCS", "1n"), Some(1.0));
        let speedup = crate::rows::value(&rows, "fig5/TSP", "4n").unwrap();
        let cycles = |n| crate::rows::value(&rows, "fig5/cycles/TSP", n).unwrap();
        assert_eq!(speedup, cycles("1n") / cycles("4n"));
        let text = crate::table::pivot(&rows, "fig5", "app");
        assert!(text.starts_with("      app    1n    4n\n"), "{text}");
        assert_eq!(text.lines().count(), 2 + App::ALL.len(), "{text}");
    }
}
