//! Macro-benchmarks: Figures 5–6 and Tables 4–5 as rows of the four
//! applications' runs ([`jm_apps::Run`]).

use crate::rows::Row;
use jm_apps::{tsp, App, Run};
use jm_isa::instr::StatClass;

/// Figure 5 as rows: `fig5/<app>` holds the speedup over the application's
/// own smallest run at each size, `fig5/cycles/<app>` the cycles behind it.
pub fn fig5_rows(runs: &[Run]) -> Vec<Row> {
    let mut rows = Vec::new();
    for r in runs {
        let base = runs.iter().find(|b| b.app == r.app).expect("itself");
        let (app, at, cycles) = (r.app.name(), format!("{}n", r.nodes), r.cycles as f64);
        let speedup = base.cycles as f64 / cycles;
        rows.push(Row::simulated(&format!("fig5/{app}"), &at, speedup, "x"));
        let line = format!("fig5/cycles/{app}");
        rows.push(Row::simulated(&line, &at, cycles, "cycles"));
    }
    rows
}

/// Figure 6 as rows: `fig6/<app>` holds the share of cycles per class.
pub fn fig6_rows(runs: &[Run]) -> Vec<Row> {
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
pub fn table4_rows(runs: &[Run]) -> Vec<Row> {
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
pub fn table5_rows(run: &Run) -> Vec<Row> {
    assert_eq!(run.app, App::Tsp);
    let millis = run.stats.millis();
    let mut rows = vec![Row::simulated("table5/run time", "user", millis, "ms")];
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
    use jm_apps::{lcs, nqueens, radix, Problems};
    use jm_machine::MachineConfig;

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
    fn fig5_speedup_table_renders() {
        let problems = tiny_problems();
        let run = |app: App, nodes| {
            app.run(MachineConfig::new(nodes), &problems, 4_000_000_000)
                .unwrap()
        };
        let runs: Vec<Run> = [1, 4]
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
