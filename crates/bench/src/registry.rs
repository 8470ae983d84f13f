//! The experiment registry: the paper's ten artifacts (Figs. 2–6,
//! Tables 1–5), each declared once — name, section title, default machine
//! size, and the function that measures and renders it.
//!
//! `jmsim fig3 [nodes]` indexes the table and `jmsim repro` iterates it, so
//! an experiment's parameters (Figure 3's message lengths and idle ladder,
//! Figure 4's sizes, …) exist in exactly one place, and a section of
//! `EXPERIMENTS.md` is byte for byte what the matching subcommand prints.

use crate::cli::{self, Args, Outcome};
use crate::macrob::{self, App, AppRun, Problems};
use crate::{baselines, faultb, micro, observe, traffic};
use jm_machine::{Engine, MachineError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// What an experiment runs under: the engine, the problem scale, and the
/// application runs shared between Figures 5–6 and Tables 4–5.
#[derive(Debug)]
pub struct Ctx {
    /// Engine every machine of the run uses.
    engine: Engine,
    problems: Problems,
    apps: BTreeMap<(App, u32), AppRun>,
}

impl Ctx {
    /// A fresh context. `quick` selects the scaled application problems
    /// (sized for a smoke pass) over the evaluation ones.
    pub fn new(engine: Engine, quick: bool) -> Ctx {
        let problems = if quick {
            Problems::default()
        } else {
            Problems::evaluation()
        };
        Ctx {
            engine,
            problems,
            apps: BTreeMap::new(),
        }
    }

    /// The run of each of `apps` on `nodes` nodes, simulated on first
    /// request: Figures 5–6 and Tables 4–5 read the same runs.
    fn apps(&mut self, apps: &[App], nodes: u32) -> Result<Vec<AppRun>, MachineError> {
        let mut runs = Vec::new();
        for &app in apps {
            if !self.apps.contains_key(&(app, nodes)) {
                let run = macrob::run_app(self.engine, app, nodes, &self.problems)?;
                self.apps.insert((app, nodes), run);
            }
            runs.push(self.apps[&(app, nodes)].clone());
        }
        Ok(runs)
    }
}

/// One rendered experiment: the section body, and its line of the
/// report's qualitative checks if it contributes one.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// The text `jmsim <name>` prints and `EXPERIMENTS.md` embeds.
    pub body: String,
    /// A claim about the paper's shape, and whether the measurement bears
    /// it out.
    pub check: Option<(bool, String)>,
}

impl Section {
    fn plain(body: String) -> Section {
        Section { body, check: None }
    }

    fn checked(body: String, ok: bool, claim: String) -> Section {
        Section {
            body,
            check: Some((ok, claim)),
        }
    }

    /// The check as the report prints it: `[ok] …` / `[FAIL] …`.
    fn check_line(&self) -> Option<String> {
        let (ok, claim) = self.check.as_ref()?;
        Some(format!("[{}] {claim}", if *ok { "ok" } else { "FAIL" }))
    }

    /// False when the section's check printed `[FAIL]`.
    fn holds(&self) -> bool {
        self.check.as_ref().is_none_or(|(ok, _)| *ok)
    }
}

/// Exit code of a run whose checks all held, or did not: a `[FAIL]` is
/// exit 1, so a script or a CI step sees it without reading the output.
fn exit_code(checks_hold: bool) -> ExitCode {
    if checks_hold {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One paper artifact.
pub struct Experiment {
    /// Subcommand name.
    pub name: &'static str,
    /// Section title in `EXPERIMENTS.md`.
    pub title: &'static str,
    /// Default machine size — `(full, --quick)` — when the experiment has
    /// a size parameter (for Table 3 and Figure 5 it is the largest size of
    /// the sweep).
    pub nodes: Option<(u32, u32)>,
    /// Measures on `nodes` nodes and renders.
    pub run: fn(&mut Ctx, u32) -> Result<Section, MachineError>,
}

impl Experiment {
    /// The machine size `repro` uses, and a bare `jmsim <name>`.
    pub fn default_nodes(&self, quick: bool) -> u32 {
        self.nodes
            .map_or(0, |(full, q)| if quick { q } else { full })
    }
}

/// The ten artifacts, in `EXPERIMENTS.md` order.
pub static EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        name: "fig2",
        title: "Figure 2 — round-trip latency vs distance",
        nodes: Some((512, 64)),
        run: fig2,
    },
    Experiment {
        name: "table1",
        title: "Table 1 — one-way message overhead",
        nodes: None,
        run: table1,
    },
    Experiment {
        name: "fig3",
        title: "Figure 3 — latency vs load; efficiency vs grain",
        nodes: Some((512, 64)),
        run: fig3,
    },
    Experiment {
        name: "fig4",
        title: "Figure 4 — terminal bandwidth",
        nodes: None,
        run: fig4,
    },
    Experiment {
        name: "table2",
        title: "Table 2 — producer-consumer synchronization",
        nodes: None,
        run: table2,
    },
    Experiment {
        name: "table3",
        title: "Table 3 — barrier synchronization",
        nodes: Some((512, 64)),
        run: table3,
    },
    Experiment {
        name: "fig5",
        title: "Figure 5 — application speedup",
        nodes: Some((64, 64)),
        run: fig5,
    },
    Experiment {
        name: "fig6",
        title: "Figure 6 — breakdown of time by function",
        nodes: Some((64, 64)),
        run: fig6,
    },
    Experiment {
        name: "table4",
        title: "Table 4 — application statistics",
        nodes: Some((64, 64)),
        run: table4,
    },
    Experiment {
        name: "table5",
        title: "Table 5 — TSP cost components",
        nodes: Some((64, 64)),
        run: table5,
    },
];

/// Looks an experiment up by subcommand name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

fn fig2(ctx: &mut Ctx, nodes: u32) -> Result<Section, MachineError> {
    let curves = micro::latency::measure(ctx.engine, nodes)?;
    let slope = curves[0].slope();
    Ok(Section::checked(
        micro::latency::render(&curves),
        (slope - 2.0).abs() < 0.4,
        format!("fig2 slope ~2 cyc/hop (measured {slope:.2})"),
    ))
}

fn table1(ctx: &mut Ctx, _: u32) -> Result<Section, MachineError> {
    let overhead = micro::overhead::measure(ctx.engine)?;
    // CM-5 Active Messages, the best comparison machine, in cycles/msg.
    let best_base = 109.0;
    Ok(Section::checked(
        micro::overhead::render(&overhead),
        overhead.cycles_per_msg * 3.0 < best_base,
        format!(
            "table1 overhead ({:.1} cyc/msg) at least 3x below best baseline ({best_base})",
            overhead.cycles_per_msg
        ),
    ))
}

fn fig3(ctx: &mut Ctx, nodes: u32) -> Result<Section, MachineError> {
    let lengths = [2, 4, 8, 16];
    let idles = [0, 50, 150, 400, 1000, 3000];
    let points = micro::load::measure(ctx.engine, nodes, &lengths, &idles, 3_000, 20_000)?;
    let dims = jm_isa::MeshDims::for_nodes(nodes);
    let capacity = jm_net::NetConfig::new(dims).bisection_capacity_bits() / 1e6;
    let peak = points.iter().map(|p| p.bisection_mbits).fold(0.0, f64::max);
    Ok(Section::checked(
        micro::load::render(nodes, &points, capacity),
        peak / capacity > 0.30 && peak / capacity < 0.75,
        format!(
            "fig3 saturation between 30% and 75% of capacity (measured {:.0}%)",
            100.0 * peak / capacity
        ),
    ))
}

fn fig4(ctx: &mut Ctx, _: u32) -> Result<Section, MachineError> {
    let lengths = [1, 2, 3, 4, 6, 8, 12, 16];
    let points = micro::bandwidth::measure(ctx.engine, &lengths, 2_000, 20_000)?;
    Ok(Section::plain(micro::bandwidth::render(&points, &lengths)))
}

fn table2(ctx: &mut Ctx, _: u32) -> Result<Section, MachineError> {
    let sync = micro::sync::measure(ctx.engine)?;
    Ok(Section::checked(
        micro::sync::render(&sync),
        sync.success_tags < sync.success_notags && sync.write_tags < sync.write_notags,
        "table2 tags beat software flags".to_string(),
    ))
}

/// Powers of two from `2^first` up to `max`.
fn sizes(first: u32, max: u32) -> Vec<u32> {
    (first..=9).map(|k| 1 << k).filter(|&n| n <= max).collect()
}

fn table3(ctx: &mut Ctx, max_nodes: u32) -> Result<Section, MachineError> {
    let points = micro::barrier::measure(ctx.engine, &sizes(1, max_nodes), 8)?;
    let body = micro::barrier::render(&points);
    let models = baselines::table3_models();
    let j64 = points.iter().find(|p| p.nodes == 64);
    let (Some(j), Some(em4)) = (j64, models[0].at(64)) else {
        return Ok(Section::plain(body));
    };
    let ipsc = models[2].at(64).unwrap_or(847.0);
    Ok(Section::checked(
        body,
        j.us < ipsc / 5.0,
        format!(
            "table3 J-barrier ({:.1}us at 64) within EM4-like range ({em4}) and far below iPSC ({ipsc})",
            j.us
        ),
    ))
}

fn fig5(ctx: &mut Ctx, max_nodes: u32) -> Result<Section, MachineError> {
    let mut results = BTreeMap::new();
    for n in sizes(0, max_nodes) {
        for run in ctx.apps(&App::ALL, n)? {
            results.entry(run.app).or_insert_with(Vec::new).push(run);
        }
    }
    Ok(Section::plain(macrob::render_fig5(&results)))
}

fn fig6(ctx: &mut Ctx, nodes: u32) -> Result<Section, MachineError> {
    let runs = ctx.apps(&App::ALL, nodes)?;
    Ok(Section::plain(macrob::render_fig6(&runs)))
}

fn table4(ctx: &mut Ctx, nodes: u32) -> Result<Section, MachineError> {
    let runs = ctx.apps(&[App::Lcs, App::Radix, App::NQueens], nodes)?;
    Ok(Section::plain(macrob::render_table4(&runs)))
}

fn table5(ctx: &mut Ctx, nodes: u32) -> Result<Section, MachineError> {
    let run = ctx.apps(&[App::Tsp], nodes)?;
    Ok(Section::plain(macrob::render_table5(&run[0])))
}

/// `jmsim <artifact> [nodes] [--quick] [--engine E]`: prints one section
/// body; exit 1 (and the check on stderr) if its qualitative check fails.
pub(crate) fn run_one(args: &Args) -> Outcome {
    let e = find(args.command()).expect("dispatched from the registry");
    let quick = args.switch("--quick");
    let nodes = match args.positional() {
        Some(n) => cli::machine_size("nodes", n)?,
        None => e.default_nodes(quick),
    };
    let mut ctx = Ctx::new(args.engine().unwrap_or_default(), quick);
    let section = (e.run)(&mut ctx, nodes)?;
    print!("{}", section.body);
    if !section.holds() {
        eprintln!("{}", section.check_line().expect("a failed check"));
    }
    Ok(exit_code(section.holds()))
}

/// Appends one section to the report `md` under construction, echoing it
/// to stdout.
fn section(md: &mut String, title: &str, intro: &str, body: &str) {
    println!("==== {title} ====\n{body}");
    let _ = writeln!(md, "## {title}\n\n{intro}```text\n{body}```\n");
}

/// `jmsim repro [--quick] [--out PATH] [--engine E]`: runs every experiment
/// and regenerates `EXPERIMENTS.md`; exit 1 if a qualitative check fails.
///
/// `--quick` shrinks the big sweeps (64-node instead of 512-node network
/// experiments, scaled application problems). The file is a pure function
/// of the code and `--quick` — no wall-clock number, host name or date
/// enters it, and every engine is bit-exact — so the file is its own
/// determinism proof: CI writes it twice in fresh processes and
/// once under `--engine parallel4`, and `diff`s the three against each
/// other and against the committed `EXPERIMENTS.md`. Host-time records
/// live in `PERFLOG.md` and `BENCH_engine.json`, which this command never
/// touches.
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
         Regenerated by `jmsim repro`{}.\n\n\
         Every J-Machine number below is **measured from the simulator**; the\n\
         paper's numbers and the other machines' published constants are shown\n\
         for comparison. Problem sizes are the scaled defaults documented in\n\
         each section (the simulator is cycle-accurate, so paper-sized runs are\n\
         possible but slow); *shapes* — who wins, slopes, crossovers,\n\
         saturation points — are the reproduction target, per DESIGN.md.\n\n",
        if quick { " (--quick)" } else { "" }
    );

    // The ten artifacts in registry order at their default sizes, then the
    // checks they contributed.
    let mut ctx = Ctx::new(engine, quick);
    let (mut checks, mut checks_hold) = (String::new(), true);
    for e in &EXPERIMENTS {
        let artifact = (e.run)(&mut ctx, e.default_nodes(quick))?;
        section(&mut md, e.title, "", &artifact.body);
        if let Some(line) = artifact.check_line() {
            let _ = writeln!(checks, "{line}");
        }
        checks_hold &= artifact.holds();
    }
    // T = T_net + T_queue per message, from the lifecycle tracer.
    let demo = observe::gather_demo(engine, jm_isa::MeshDims::for_nodes(64), 16)?;
    let mut obs = demo.trace.breakdown_table();
    let _ = writeln!(obs, "\ntrace hash: {:016x}", jm_trace::hash(&demo.trace));
    section(
        &mut md,
        "Per-mechanism latency breakdown — traced 64-node gather",
        "",
        &obs,
    );
    section(&mut md, "Qualitative checks", "", &checks);
    section(
        &mut md,
        "Robustness — fault-injection degradation",
        "Seeded `jm-fault` plans (see DESIGN.md §4.7): flaky links are\n\
         lossless backpressure, so applications stay exact while\n\
         time-to-solution stretches; corrupted messages are dropped whole\n\
         at dispatch and recovered by the reliable-RPC retry layer. Also\n\
         emitted as `BENCH_fault.json` by `jmsim faults`.\n\n",
        &faultb::sweep(engine, 7, 20_000).render(),
    );
    section(
        &mut md,
        "Traffic — saturation-throughput curves",
        "Seeded `jm-traffic` Bernoulli injection (see DESIGN.md §4.9):\n\
         every pattern is swept over an offered-load ladder with a\n\
         warmup/measure/drain protocol; the knee is the highest load the\n\
         network accepts nearly in full. Also emitted as\n\
         `BENCH_traffic.json` by `jmsim traffic`.\n\n",
        &traffic::sweep(engine, 7).render(),
    );

    cli::write_file(out_path, &md)?;
    println!("wrote {out_path} in {:.1}s", t0.elapsed().as_secs_f64());
    Ok(exit_code(checks_hold))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_sized_sensibly() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(std::ptr::eq(find(e.name).unwrap(), e), "{}", e.name);
            assert!(EXPERIMENTS[..i].iter().all(|o| o.title != e.title));
            if let Some((full, quick)) = e.nodes {
                assert!(quick <= full && quick.is_power_of_two() && full.is_power_of_two());
            }
        }
        assert_eq!(sizes(1, 64), [2, 4, 8, 16, 32, 64]);
        assert_eq!(sizes(0, 4), [1, 2, 4]);
    }

    #[test]
    fn report_sections_embed_the_body_verbatim() {
        let mut md = String::new();
        section(&mut md, "T1", "", "body one\n");
        section(&mut md, "T2", "Intro.\n\n", "body two\n");
        assert_eq!(
            md,
            "## T1\n\n```text\nbody one\n```\n\n## T2\n\nIntro.\n\n```text\nbody two\n```\n\n"
        );
    }

    #[test]
    fn a_failed_check_is_exit_1() {
        let body = || "body\n".to_string();
        let ok = Section::checked(body(), true, "slope ~2".to_string());
        let bad = Section::checked(body(), false, "slope ~2".to_string());
        assert_eq!(ok.check_line().as_deref(), Some("[ok] slope ~2"));
        assert_eq!(bad.check_line().as_deref(), Some("[FAIL] slope ~2"));
        assert_eq!(Section::plain(body()).check_line(), None);
        for (section, code) in [
            (Section::plain(body()), ExitCode::SUCCESS),
            (ok, ExitCode::SUCCESS),
            (bad, ExitCode::FAILURE),
        ] {
            assert_eq!(exit_code(section.holds()), code, "{section:?}");
        }
    }
}
