//! Macro-benchmarks: Figures 5–6 and Tables 4–5 over the four
//! applications of `jm-apps`.

use crate::table::{fnum, TextTable};
use jm_apps::{lcs, nqueens, radix, tsp};
use jm_isa::instr::StatClass;
use jm_machine::{Engine, MachineConfig, MachineError, MachineStats};
use std::collections::BTreeMap;

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
    /// `(thread name, entry label stats)` for Table 4/5, resolved from
    /// handler entry points.
    pub threads: Vec<(String, jm_mdp::HandlerStats)>,
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

/// Runs one application on `nodes` nodes under `engine`.
///
/// # Errors
///
/// Propagates machine failures.
pub fn run_app(
    engine: Engine,
    app: App,
    nodes: u32,
    problems: &Problems,
) -> Result<AppRun, MachineError> {
    let mcfg = MachineConfig::new(nodes).engine(engine);
    // Per app: its program (for handler entry points), its run, and the
    // `(thread name, entry label)` pairs Tables 4 and 5 report.
    let (program, cycles, stats, threads): (_, _, _, &[(&str, &str)]) = match app {
        App::Lcs => {
            let r = lcs::run_on(mcfg, &problems.lcs, MAX_CYCLES)?;
            let threads = &[("NxtChar", "lcs_char"), ("StartUp", "main")];
            (
                lcs::program(&problems.lcs, nodes),
                r.cycles,
                r.stats,
                threads,
            )
        }
        App::Radix => {
            let r = radix::run_on(mcfg, &problems.radix, MAX_CYCLES)?;
            let threads = &[("Sort", "main"), ("Write", "rs_write"), ("Scan", "rs_scan")];
            let p = radix::program(&problems.radix, nodes);
            (p, r.cycles, r.stats, threads)
        }
        App::NQueens => {
            let r = nqueens::run_on(mcfg, &problems.nqueens, MAX_CYCLES)?;
            let threads = &[("NQueens", "nq_task"), ("NQDone", "nq_done")];
            let p = nqueens::program(&problems.nqueens, nodes);
            (p, r.cycles, r.stats, threads)
        }
        App::Tsp => {
            let r = tsp::run_on(mcfg, &problems.tsp, MAX_CYCLES)?;
            let threads = &[
                ("Task", "tsp_work"),
                ("Intake", "tsp_task"),
                ("Bound", "tsp_bound"),
                ("WorkReq", "tsp_req"),
                ("WorkNone", "tsp_none"),
                ("Done", "tsp_done"),
            ];
            (
                tsp::program(&problems.tsp, nodes),
                r.cycles,
                r.stats,
                threads,
            )
        }
    };
    let threads = threads
        .iter()
        .map(|(name, label)| {
            let handlers = &stats.nodes.handlers;
            let h = handlers.get(&program.handler(label)).copied();
            (name.to_string(), h.unwrap_or_default())
        })
        .collect();
    Ok(AppRun {
        app,
        nodes,
        cycles,
        stats,
        threads,
    })
}

/// Renders Figure 5 as a speedup table.
pub fn render_fig5(results: &BTreeMap<App, Vec<AppRun>>) -> String {
    let mut out = String::new();
    out.push_str("Figure 5: application speedup vs machine size\n");
    out.push_str("(base = the application's own 1-node run, problem size constant)\n\n");
    let sizes: Vec<u32> = results
        .values()
        .next()
        .map(|runs| runs.iter().map(|r| r.nodes).collect())
        .unwrap_or_default();
    let mut header = vec!["app".to_string()];
    for n in &sizes {
        header.push(format!("{n}n"));
    }
    let mut t = TextTable::new(header);
    for (app, runs) in results {
        let base = runs
            .iter()
            .find(|r| r.nodes == 1)
            .map_or(runs[0].cycles, |r| r.cycles);
        let mut row = vec![app.name().to_string()];
        for r in runs {
            row.push(format!("{:.2}", base as f64 / r.cycles as f64));
        }
        t.row(row);
    }
    out.push_str(&t.render());
    out.push_str("\npaper shape: TSP super-linear on small machines (pruning),\n");
    out.push_str("LCS and NQueens sub-linear, RadixSort limited by global bandwidth\n");
    out
}

/// Figure 6: per-class cycle breakdown at one machine size.
pub fn render_fig6(runs: &[AppRun]) -> String {
    let mut out = String::new();
    let nodes = runs.first().map_or(0, |r| r.nodes);
    out.push_str(&format!(
        "Figure 6: breakdown of time by function, {nodes}-node machine (% of cycles)\n\n"
    ));
    let mut header = vec!["class".to_string()];
    for r in runs {
        header.push(r.app.name().to_string());
    }
    let mut t = TextTable::new(header);
    for class in StatClass::ALL {
        let mut row = vec![class.to_string()];
        for r in runs {
            row.push(format!("{:.1}", 100.0 * r.stats.class_fraction(class)));
        }
        t.row(row);
    }
    out.push_str(&t.render());
    out.push_str("\npaper anchors at 64 nodes: NQueens idle 15%, TSP idle 3.8%,\n");
    out.push_str("TSP sync 16%, visible xlate slice only for TSP (CST)\n");
    out
}

/// Table 4: per-thread statistics for LCS / NQueens / RadixSort.
pub fn render_table4(runs: &[AppRun]) -> String {
    let mut out = String::new();
    let nodes = runs.first().map_or(0, |r| r.nodes);
    out.push_str(&format!(
        "Table 4: application statistics, {nodes}-node machine\n\n"
    ));
    let mut t = TextTable::new(vec![
        "app",
        "run(ms)",
        "thread",
        "#threads",
        "#K instr",
        "instr/thread",
        "msg len",
    ]);
    for r in runs {
        for (i, (name, h)) in r.threads.iter().enumerate() {
            t.row(vec![
                if i == 0 {
                    format!("{} ({:.0} ms)", r.app.name(), r.stats.millis())
                } else {
                    String::new()
                },
                if i == 0 {
                    format!("{:.1}", r.stats.millis())
                } else {
                    String::new()
                },
                name.clone(),
                h.threads.to_string(),
                (h.instructions / 1000).to_string(),
                fnum(h.instr_per_thread()),
                fnum(h.mean_msg_len()),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str("\npaper (64 nodes): LCS NxtChar 262k threads, 232 instr/thread, len 3;\n");
    out.push_str(
        "RadixSort Write threads of 4 instructions, len 3; NQueens ~300k-instr tasks, len 8\n",
    );
    out
}

/// Table 5: the major cost components of TSP.
pub fn render_table5(run: &AppRun) -> String {
    assert_eq!(run.app, App::Tsp);
    let mut out = String::new();
    out.push_str(&format!(
        "Table 5: major components of cost for TSP, {} nodes\n\n",
        run.nodes
    ));
    let user: Vec<&(String, jm_mdp::HandlerStats)> = run
        .threads
        .iter()
        .filter(|(n, _)| n == "Task" || n == "Intake")
        .collect();
    let os: Vec<&(String, jm_mdp::HandlerStats)> = run
        .threads
        .iter()
        .filter(|(n, _)| n == "Bound" || n == "Done" || n == "WorkReq" || n == "WorkNone")
        .collect();
    let sum = |set: &[&(String, jm_mdp::HandlerStats)]| {
        let threads: u64 = set.iter().map(|(_, h)| h.threads).sum();
        let instr: u64 = set.iter().map(|(_, h)| h.instructions).sum();
        let words: u64 = set.iter().map(|(_, h)| h.msg_words).sum();
        (threads, instr, words)
    };
    let (ut, ui, uw) = sum(&user);
    let (ot, oi, ow) = sum(&os);
    let mut t = TextTable::new(vec!["metric", "user", "os", "paper user", "paper os"]);
    t.row(vec![
        "run time (ms)".to_string(),
        format!("{:.1}", run.stats.millis()),
        String::new(),
        "26300".to_string(),
        String::new(),
    ]);
    t.row(vec![
        "# threads (msgs)".to_string(),
        ut.to_string(),
        ot.to_string(),
        "9.1e6".to_string(),
        "8.9e6".to_string(),
    ]);
    t.row(vec![
        "# instructions".to_string(),
        ui.to_string(),
        oi.to_string(),
        "2.8e9".to_string(),
        "5.4e8".to_string(),
    ]);
    t.row(vec![
        "# xlates".to_string(),
        run.stats.nodes.xlates.to_string(),
        String::new(),
        "5.1e8".to_string(),
        String::new(),
    ]);
    t.row(vec![
        "# xlate faults".to_string(),
        run.stats.nodes.xlate_misses.to_string(),
        String::new(),
        "1.6e4".to_string(),
        String::new(),
    ]);
    t.row(vec![
        "instr/thread (mean)".to_string(),
        fnum(if ut == 0 { 0.0 } else { ui as f64 / ut as f64 }),
        fnum(if ot == 0 { 0.0 } else { oi as f64 / ot as f64 }),
        "309".to_string(),
        "61".to_string(),
    ]);
    t.row(vec![
        "avg msg length".to_string(),
        fnum(if ut == 0 { 0.0 } else { uw as f64 / ut as f64 }),
        fnum(if ot == 0 { 0.0 } else { ow as f64 / ot as f64 }),
        "5.1".to_string(),
        "4".to_string(),
    ]);
    out.push_str(&t.render());
    out
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
            let r = run_app(Engine::Event, app, 4, &problems).unwrap();
            assert!(r.cycles > 0);
            assert!(!r.threads.is_empty());
            assert!(r.stats.nodes.instructions > 0);
        }
    }

    #[test]
    fn fig5_speedup_table_renders() {
        let problems = tiny_problems();
        let run = |app, nodes| run_app(Engine::Event, app, nodes, &problems).unwrap();
        let results = App::ALL.map(|app| (app, vec![run(app, 1), run(app, 4)]));
        let text = render_fig5(&BTreeMap::from(results));
        assert!(text.contains("LCS"));
        assert!(text.contains("TSP"));
    }
}
