//! The experiment registry: the paper's ten artifacts (Figs. 2–6,
//! Tables 1–5) and the fault and traffic sweeps, each declared once — name,
//! section title, machine sizes, the tables of its section, and the function
//! that measures it.
//!
//! A number is a row: an experiment's one output is `Vec<Row>`, and
//! everything else is a view of those rows. `jmsim fig3 [nodes]` indexes
//! the table and prints the section; `jmsim repro` iterates it and writes
//! the sections as `EXPERIMENTS.md`, the rows as `BENCH_paper.json` /
//! `BENCH_fault.json` / `BENCH_traffic.json` beside it, and one scorecard
//! holding every row the paper states a value for
//! (`baselines::compare`). An experiment's parameters (Figure 3's message
//! lengths and idle ladder, Figure 4's sizes, …) exist in exactly one
//! place, and a section of `EXPERIMENTS.md` is byte for byte what the
//! matching subcommand prints.
//!
//! Every machine an experiment measures is a [`Point`]: a value holding its
//! program, its configuration and the reader that drives it and says what
//! it measured. [`Ctx::run`] is the one body that boots a point under the
//! run's engine and fails it if any node error latched.

use crate::cli::{self, Args, CliError, Outcome};
use crate::gate::Verdict;
use crate::rows::{self, Row};
use crate::table::pivot;
use crate::{baselines, faultb, macrob, micro, observe, traffic};
use jm_apps::{App, Problems, Run};
use jm_asm::Program;
use jm_machine::{Engine, JMachine, MachineConfig, MachineError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Cycle budget of one application run, far past the longest.
pub(crate) const APP_CYCLES: u64 = 4_000_000_000;

/// Drives a booted machine and reads what it measured.
pub type Reader<T> = Box<dyn FnOnce(&mut JMachine) -> Result<T, MachineError> + Send>;

/// One machine an experiment measures, as a value: the program it boots,
/// its configuration with no engine set, and its reader. A point depends on
/// nothing but these, so points run in any order give the same results.
pub struct Point<T = Vec<Row>> {
    /// What every node boots.
    pub program: Program,
    /// The machine; [`Ctx::run`] sets the engine.
    pub config: MachineConfig,
    /// Drives the machine and reads it — most readers return rows.
    pub read: Reader<T>,
}

impl<T> Point<T> {
    /// A point of `program` on `config`, read by `read`.
    pub fn new(
        program: Program,
        config: MachineConfig,
        read: impl FnOnce(&mut JMachine) -> Result<T, MachineError> + Send + 'static,
    ) -> Point<T> {
        Point {
            program,
            config,
            read: Box::new(read),
        }
    }
}

/// What an experiment runs under — the engine, the sweep seed, the problem
/// scale — with the application runs shared between Figures 5–6 and Tables
/// 4–5 and the shape checks the sweeps contribute.
#[derive(Debug)]
pub struct Ctx {
    /// Engine every machine of the run uses.
    engine: Engine,
    /// Seed of the fault plans and the traffic injection process.
    pub(crate) seed: u64,
    problems: Problems,
    apps: BTreeMap<(App, u32), Run>,
    pub(crate) verdict: Verdict,
}

impl Ctx {
    /// A fresh context. `quick` selects the scaled application problems
    /// (sized for a smoke pass) over the evaluation ones.
    pub fn new(engine: Engine, quick: bool, seed: u64) -> Ctx {
        let problems = if quick {
            Problems::scaled()
        } else {
            Problems::evaluation()
        };
        Ctx {
            engine,
            seed,
            problems,
            apps: BTreeMap::new(),
            verdict: Verdict::default(),
        }
    }

    /// `config` under the run's engine: the one place a machine of the run,
    /// a point's or an application's, gets its engine.
    pub(crate) fn config(&self, config: MachineConfig) -> MachineConfig {
        config.engine(self.engine)
    }

    /// Runs one point: boots its machine under the run's engine and hands
    /// it to the reader.
    ///
    /// # Errors
    ///
    /// The reader's error, or [`MachineError::NodeErrors`] if any node
    /// error latched, whatever the reader returned — a fixed-length `run`
    /// reports none itself.
    pub fn run<T>(&self, point: Point<T>) -> Result<T, MachineError> {
        debug_assert_eq!(point.config.engine, Engine::default(), "the run sets it");
        let mut m = JMachine::new(point.program, self.config(point.config));
        let read = (point.read)(&mut m);
        let errors = m.node_errors();
        if errors.is_empty() {
            read
        } else {
            Err(MachineError::NodeErrors(errors))
        }
    }

    /// Runs `points` through [`Ctx::run`]: one result per point, in order.
    ///
    /// # Errors
    ///
    /// The first point's error.
    pub fn run_all<T>(&self, points: Vec<Point<T>>) -> Result<Vec<T>, MachineError> {
        points.into_iter().map(|p| self.run(p)).collect()
    }

    /// The run of each of `apps` on `nodes` nodes, simulated on first
    /// request: Figures 5–6 and Tables 4–5 read the same runs.
    fn apps(&mut self, apps: &[App], nodes: u32) -> Result<Vec<Run>, MachineError> {
        let mut runs = Vec::new();
        for &app in apps {
            if !self.apps.contains_key(&(app, nodes)) {
                let mcfg = self.config(MachineConfig::new(nodes));
                let run = app.run(mcfg, &self.problems, APP_CYCLES)?;
                self.apps.insert((app, nodes), run);
            }
            runs.push(self.apps[&(app, nodes)].clone());
        }
        Ok(runs)
    }
}

/// Exit code of a run whose checks all held, or did not: a `[FAIL]` is
/// exit 1, so a script or a CI step sees it without reading the output.
fn exit_code(verdict: &Verdict) -> ExitCode {
    if verdict.failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One experiment.
pub struct Experiment {
    /// Subcommand name, and the root of its row names.
    pub name: &'static str,
    /// Section title in `EXPERIMENTS.md`.
    pub title: &'static str,
    /// Machine sizes — `(full, --quick, smallest)` — when the experiment
    /// has a size parameter (for Table 3 and Figure 5 it is the largest
    /// size of the sweep). Below `smallest` a derived number (a slope, a
    /// bisection) does not exist.
    pub nodes: Option<(u32, u32, u32)>,
    /// Row file of its own; `None` for a paper artifact, whose rows and
    /// their `paper/…` twins go to `BENCH_paper.json`.
    pub file: Option<&'static str>,
    /// The tables of its section: `(caption, row-name prefix, corner)`.
    pub captions: &'static [(&'static str, &'static str, &'static str)],
    /// Measures on `nodes` nodes.
    pub run: fn(&mut Ctx, u32) -> Result<Vec<Row>, MachineError>,
}

impl Experiment {
    /// The machine size `repro` uses, and a bare `jmsim <name>`.
    pub fn default_nodes(&self, quick: bool) -> u32 {
        self.nodes
            .map_or(0, |(full, q, _)| if quick { q } else { full })
    }

    /// Everything the experiment says: its size, what it measured, and
    /// what the paper published about it.
    fn rows(&self, ctx: &mut Ctx, nodes: u32) -> Result<Vec<Row>, MachineError> {
        let mut rows = Vec::new();
        if self.nodes.is_some() {
            rows.push(Row::simulated(self.name, "nodes", nodes.into(), "nodes"));
        }
        rows.extend((self.run)(ctx, nodes)?);
        if self.file.is_none() {
            rows.extend(baselines::paper_rows(self.name));
        }
        Ok(rows)
    }

    /// The section: each caption over the table of its rows.
    fn body(&self, rows: &[Row]) -> String {
        let tables = self.captions.iter().map(|(caption, prefix, corner)| {
            format!("{caption}\n\n{}", pivot(rows, prefix, corner))
        });
        tables.collect::<Vec<_>>().join("\n")
    }
}

/// The ten artifacts in `EXPERIMENTS.md` order, then the two sweeps.
pub static EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        name: "fig2",
        title: "Figure 2 — round-trip latency vs distance",
        nodes: Some((512, 64, 4)),
        file: None,
        captions: &[
            ("round-trip cycles by distance", "fig2", "hops"),
            ("least-squares line, cycles", "fig2/fit", "transfer"),
        ],
        run: micro::latency::fig2,
    },
    Experiment {
        name: "table1",
        title: "Table 1 — one-way message overhead",
        nodes: None,
        file: None,
        captions: &[("overhead per message and per byte", "table1", "machine")],
        run: micro::overhead::table1,
    },
    Experiment {
        name: "fig3",
        title: "Figure 3 — latency vs load; efficiency vs grain",
        nodes: Some((512, 64, 2)),
        file: None,
        captions: &[
            ("bisection traffic, Mbit/s", "", "artifact"),
            ("cycles per message, published as 100-300", "fig3", "words"),
            ("2-word messages", "fig3/2", "idle"),
            ("4-word messages", "fig3/4", "idle"),
            ("8-word messages", "fig3/8", "idle"),
            ("16-word messages", "fig3/16", "idle"),
        ],
        run: micro::load::fig3,
    },
    Experiment {
        name: "fig4",
        title: "Figure 4 — terminal bandwidth",
        nodes: None,
        file: None,
        captions: &[("data words, Mbit/s, by message size", "fig4", "words")],
        run: micro::bandwidth::fig4,
    },
    Experiment {
        name: "table2",
        title: "Table 2 — producer-consumer synchronization",
        nodes: None,
        file: None,
        captions: &[
            ("cycles per event", "table2", "event"),
            ("published as 30-50 and 20-50", "table2/thread", "phase"),
        ],
        run: micro::sync::table2,
    },
    Experiment {
        name: "table3",
        title: "Table 3 — barrier synchronization",
        nodes: Some((512, 64, 2)),
        file: None,
        captions: &[("microseconds per software barrier", "table3", "nodes")],
        run: micro::barrier::table3,
    },
    Experiment {
        name: "fig5",
        title: "Figure 5 — application speedup",
        nodes: Some((64, 64, 1)),
        file: None,
        captions: &[
            ("speedup over its own 1-node run", "fig5", "app"),
            ("cycles to completion", "fig5/cycles", "app"),
        ],
        run: fig5,
    },
    Experiment {
        name: "fig6",
        title: "Figure 6 — breakdown of time by function",
        nodes: Some((64, 64, 1)),
        file: None,
        captions: &[MACHINE, ("% of cycles by class", "fig6", "app")],
        run: fig6,
    },
    Experiment {
        name: "table4",
        title: "Table 4 — application statistics",
        nodes: Some((64, 64, 1)),
        file: None,
        captions: &[MACHINE, ("run in ms; thread types", "table4", "app thread")],
        run: table4,
    },
    Experiment {
        name: "table5",
        title: "Table 5 — TSP cost components",
        nodes: Some((64, 64, 1)),
        file: None,
        captions: &[MACHINE, ("run time in ms", "table5", "component")],
        run: table5,
    },
    Experiment {
        name: "faults",
        title: "Robustness — fault-injection degradation",
        nodes: None,
        file: Some("BENCH_fault.json"),
        captions: &[
            ("jm-fault plans, DESIGN.md §4.7", "", "sweep"),
            ("goodput, 32 nodes saturated", "fault/goodput", "flaky ppm"),
            ("LCS completion, 8 nodes", "fault/lcs", "flaky ppm"),
            ("reliable RPC, 6 calls", "fault/rpc", "corrupt ppm"),
        ],
        run: faultb::faults,
    },
    Experiment {
        name: "traffic",
        title: "Traffic — saturation-throughput curves",
        nodes: None,
        file: Some("BENCH_traffic.json"),
        captions: &[
            ("jm-traffic injection, DESIGN.md §4.9", "", "sweep"),
            ("highest load accepted in full", "traffic", "pattern"),
            ("uniform_random", "traffic/uniform_random", "load ppm"),
            ("transpose", "traffic/transpose", "load ppm"),
            ("bit_reversal", "traffic/bit_reversal", "load ppm"),
            ("hotspot", "traffic/hotspot", "load ppm"),
            ("nearest_neighbor", "traffic/nearest_neighbor", "load ppm"),
        ],
        run: traffic::saturation,
    },
];

/// The size a macro artifact ran at: its header row.
const MACHINE: (&str, &str, &str) = ("machine", "", "artifact");

/// Looks an experiment up by subcommand name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Powers of two from `2^first` up to `max`.
pub(crate) fn sizes(first: u32, max: u32) -> Vec<u32> {
    (first..=max.ilog2()).map(|k| 1 << k).collect()
}

fn fig5(ctx: &mut Ctx, max_nodes: u32) -> Result<Vec<Row>, MachineError> {
    let mut runs = Vec::new();
    for n in sizes(0, max_nodes) {
        runs.extend(ctx.apps(&App::ALL, n)?);
    }
    Ok(macrob::fig5_rows(&runs))
}

fn fig6(ctx: &mut Ctx, nodes: u32) -> Result<Vec<Row>, MachineError> {
    Ok(macrob::fig6_rows(&ctx.apps(&App::ALL, nodes)?))
}

fn table4(ctx: &mut Ctx, nodes: u32) -> Result<Vec<Row>, MachineError> {
    let runs = ctx.apps(&[App::Lcs, App::Radix, App::NQueens], nodes)?;
    Ok(macrob::table4_rows(&runs))
}

fn table5(ctx: &mut Ctx, nodes: u32) -> Result<Vec<Row>, MachineError> {
    Ok(macrob::table5_rows(&ctx.apps(&[App::Tsp], nodes)?[0]))
}

/// `jmsim <experiment> [nodes] [--quick] [--engine E]`, and `jmsim faults`
/// / `jmsim traffic` with their `[--seed N] [--out PATH]`: prints one
/// section body, writes a sweep's row file, and holds the rows the way
/// `repro` does — a `[FAIL]` goes to stderr and is exit 1. What the paper
/// published is held against the default invocation only (a `--quick`,
/// sized or re-seeded run is measured, not judged); a sweep's shape is held
/// always.
pub(crate) fn run_one(args: &Args) -> Outcome {
    let e = find(args.command()).expect("dispatched from the registry");
    let quick = args.switch("--quick");
    let nodes = match (args.positional(), e.nodes) {
        (Some(n), Some((.., smallest))) => {
            let n = cli::machine_size("nodes", n)?;
            if n < smallest {
                let why = format!("nodes: {} needs at least {smallest} nodes", e.name);
                return Err(CliError::Input(why));
            }
            n
        }
        _ => e.default_nodes(quick),
    };
    let seed = args.count("--seed");
    let mut ctx = Ctx::new(args.engine().unwrap_or_default(), quick, seed.unwrap_or(7));
    let rows = e.rows(&mut ctx, nodes)?;
    print!("{}", e.body(&rows));
    if let Some(file) = e.file {
        let path = args.text("--out").unwrap_or(file);
        cli::write_file(path, rows::write(&rows))?;
        println!("\nwrote {path}");
    }
    let held = !quick && args.positional().is_none() && seed.is_none();
    baselines::compare(&mut ctx.verdict, baselines::under(e.name), &rows, held);
    for line in ctx.verdict.lines.iter().filter(|l| l.starts_with("[FAIL]")) {
        eprintln!("{line}");
    }
    Ok(exit_code(&ctx.verdict))
}

/// Appends one section to the report `md` under construction, echoing it
/// to stdout.
fn section(md: &mut String, title: &str, body: &str) {
    println!("==== {title} ====\n{body}");
    let _ = writeln!(md, "## {title}\n\n```text\n{body}```\n");
}

/// `jmsim repro [--quick] [--out PATH] [--engine E]`: runs every experiment
/// once and writes every committed simulated number — the report
/// (`EXPERIMENTS.md`) and, beside it, the rows it is a view of
/// (`BENCH_paper.json`, `BENCH_fault.json`, `BENCH_traffic.json`); exit 1
/// if the scorecard holds a `[FAIL]`.
///
/// `--quick` shrinks the big sweeps (64-node instead of 512-node network
/// experiments, scaled application problems) and holds nothing against the
/// paper. The files are a pure function of the code and `--quick` — no
/// wall-clock number, host name or date enters them, and every engine is
/// bit-exact — so they are their own determinism proof: CI writes them
/// twice in fresh processes and once under `--engine parallel4`, and
/// `diff`s the three directories against each other and against the
/// committed files. Host-time records live in `PERFLOG.md` and
/// `BENCH_engine.json`, which this command never touches.
pub(crate) fn repro(args: &Args) -> Outcome {
    let quick = args.switch("--quick");
    let out_path = args.text("--out").unwrap_or("EXPERIMENTS.md");
    let engine = args.engine().unwrap_or_default();
    if engine != Engine::default() {
        println!("running all experiments under {engine:?}");
    }
    let t0 = Instant::now();
    let mut md = format!(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Regenerated by `jmsim repro`{}, with the rows every table here is a\n\
         view of: `BENCH_paper.json`, `BENCH_fault.json`, `BENCH_traffic.json`.\n\n\
         Every J-Machine number below is **measured from the simulator**, at\n\
         scaled problem sizes; a `paper …` column is what the paper published\n\
         for the same line, and the scorecard at the end holds each published\n\
         value against its measured twin: `[ok]` inside the stated band, `[off]`\n\
         known to miss it, with the reason. *Shapes* — who wins, slopes,\n\
         crossovers, saturation points — are the reproduction target.\n\n",
        if quick { " (--quick)" } else { "" }
    );

    // The experiments in registry order at their default sizes.
    let mut ctx = Ctx::new(engine, quick, 7);
    let mut files: BTreeMap<&str, Vec<Row>> = BTreeMap::new();
    for e in &EXPERIMENTS {
        let rows = e.rows(&mut ctx, e.default_nodes(quick))?;
        section(&mut md, e.title, &e.body(&rows));
        let file = e.file.unwrap_or("BENCH_paper.json");
        files.entry(file).or_default().extend(rows);
    }
    // T = T_net + T_queue per message, from the lifecycle tracer.
    let trace = ctx.run(observe::gather(jm_isa::MeshDims::for_nodes(64), 16))?;
    let mut obs = trace.breakdown_table();
    let _ = writeln!(obs, "\ntrace hash: {:016x}", jm_trace::hash(&trace));
    section(
        &mut md,
        "Per-mechanism latency breakdown — traced 64-node gather",
        &obs,
    );
    let mut verdict = ctx.verdict;
    let measured: Vec<Row> = files.values().flatten().cloned().collect();
    baselines::compare(&mut verdict, baselines::under(""), &measured, !quick);
    section(&mut md, "Scorecard", &(verdict.lines.join("\n") + "\n"));

    cli::write_file(out_path, &md)?;
    let dir = Path::new(out_path).parent().unwrap_or(Path::new(""));
    for (file, rows) in &files {
        let path = dir.join(file);
        cli::write_file(&path.to_string_lossy(), rows::write(rows))?;
    }
    println!(
        "wrote {out_path} and {} row files beside it in {:.1}s",
        files.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(exit_code(&verdict))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_sized_sensibly() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(std::ptr::eq(find(e.name).unwrap(), e), "{}", e.name);
            assert!(EXPERIMENTS[..i].iter().all(|o| o.title != e.title));
            if let Some((full, quick, smallest)) = e.nodes {
                assert!(smallest <= quick && quick <= full, "{}", e.name);
                assert!([full, quick, smallest].iter().all(|n| n.is_power_of_two()));
            }
        }
        assert_eq!(sizes(1, 64), [2, 4, 8, 16, 32, 64]);
        assert_eq!(sizes(0, 4), [1, 2, 4]);
        assert_eq!(sizes(1, 1024).last(), Some(&1024));
        assert!(sizes(1, 1).is_empty());
    }

    #[test]
    fn report_sections_embed_the_body_verbatim() {
        let mut md = String::new();
        section(&mut md, "T1", "body one\n");
        section(&mut md, "T2", "body two\n");
        assert_eq!(
            md,
            "## T1\n\n```text\nbody one\n```\n\n## T2\n\n```text\nbody two\n```\n\n"
        );
        // A body is each caption over its pivot, a blank line between.
        let e = find("table2").unwrap();
        let rows = [
            Row::simulated("table2/Write", "tags", 5.0, "cycles"),
            Row::simulated("table2/thread/save", "cycles", 51.0, "cycles"),
        ];
        let body = e.body(&rows);
        let (first, second) = (e.captions[0].0, e.captions[1].0);
        let expected = format!(
            "{first}\n\nevent  tags\n-----------\nWrite     5\n\n\
             {second}\n\nphase  cycles\n-------------\n save      51\n"
        );
        assert_eq!(body, expected);
    }

    #[test]
    fn a_failed_check_is_exit_1() {
        // A held row outside its band…
        let held = |cycles: f64| {
            let rows = [Row::simulated("table2/Success", "tags", cycles, "cycles")];
            let table = baselines::under("table2/Success").filter(|p| p.1 == "tags");
            let mut v = Verdict::default();
            baselines::compare(&mut v, table, &rows, true);
            v
        };
        assert_eq!(exit_code(&held(2.0)), ExitCode::SUCCESS);
        let bad = held(9.0);
        assert!(bad.lines[0].starts_with("[FAIL] table2/Success tags"));
        assert_eq!(exit_code(&bad), ExitCode::FAILURE);
        // …and a misshapen sweep curve: the violations of a falling
        // traffic curve are `[FAIL]` lines of the same verdict.
        let point = |load_ppm, offered_msgs, accepted_msgs| traffic::TrafficPoint {
            load_ppm,
            offered_msgs,
            accepted_msgs,
            dropped_msgs: offered_msgs - accepted_msgs,
            delivered_msgs: accepted_msgs,
            measure_cycles: traffic::MEASURE,
            drain_cycles: 100,
            latency_mean: 20.0,
            latency_p50: 16,
            latency_p99: 64,
            latency_max: 80,
            latency_count: accepted_msgs,
        };
        let transpose = jm_machine::TrafficPattern::Transpose;
        let rising = [point(50_000, 1000, 1000), point(100_000, 2000, 1990)];
        let falling = [point(50_000, 1000, 1000), point(100_000, 2000, 600)];
        let mut v = Verdict::default();
        v.shape("traffic", traffic::check(&[(transpose, &rising)], 64));
        assert_eq!(v.lines, ["[ok] traffic curves keep their shape"]);
        assert_eq!(exit_code(&v), ExitCode::SUCCESS);
        v.shape("traffic", traffic::check(&[(transpose, &falling)], 64));
        assert!(
            v.lines[1].starts_with("[FAIL] traffic: transpose:"),
            "{:?}",
            v.lines
        );
        assert_eq!(exit_code(&v), ExitCode::FAILURE);
    }

    #[test]
    fn a_node_error_in_a_fixed_length_run_fails_the_point() {
        // A divide by zero with no vector installed stops the node; `run`
        // itself reports nothing, and the reader does not look.
        let mut b = jm_asm::Builder::new();
        b.label("main");
        b.alu(jm_isa::instr::AluOp::Div, jm_isa::reg::DReg::R0, 1, 0);
        b.halt();
        b.entry("main");
        let point = Point::new(b.assemble().unwrap(), MachineConfig::new(1), |m| {
            m.run(1_000);
            Ok(())
        });
        let got = Ctx::new(Engine::Event, true, 7).run(point);
        assert!(
            matches!(&got, Err(MachineError::NodeErrors(errors)) if errors.len() == 1),
            "{got:?}"
        );
    }

    #[test]
    fn points_are_independent_values() {
        // Figure 4 at two lengths, run in declared order and reversed.
        let ctx = Ctx::new(Engine::Event, true, 7);
        let points = || {
            let sinks = micro::bandwidth::Sink::ALL.into_iter();
            let at = |sink| [2, 8].map(|l| micro::bandwidth::point(l, sink, 500, 4_000));
            sinks.flat_map(at).collect::<Vec<_>>()
        };
        let declared = ctx.run_all(points()).unwrap();
        let mut reversed = ctx.run_all(points().into_iter().rev().collect()).unwrap();
        reversed.reverse();
        assert_eq!(declared.len(), 6);
        assert_eq!(declared, reversed);
    }
}
