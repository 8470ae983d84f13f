//! `jmsim perf` and `jmsim mesh`: host-side simulation throughput of the
//! engines *relative to each other*, as rows of ratios printed as their
//! [`pivot`] (absolute host time is jmbench's instrument, `benchmark/`).
//! `perf` writes them to `BENCH_engine.json`; `mesh` adds a big cube's
//! simulated counters and peak RSS. Both only measure — every floor and
//! ceiling on these numbers is an argument of `jmsim gate` in CI.
//!
//! Every ratio is read off one [`race`]: one program, built under each
//! side's configuration, runs [`REPS`] times per side, the sides
//! interleaved so a burst of host load lands on all of them, and each side
//! keeps its best time. Every run is held to side 0's final cycle,
//! statistics and state hash, a traced run to the first trace hash, and a
//! captured run to its log's end cycle; a run that disagrees is exit 1
//! naming its side, so the measurement is a differential test too.
//!
//! Two workloads bracket the design space. On the **ring** (idle-dominated:
//! one token, 63 of 64 nodes parked) the event engine should win big:
//! parked nodes and flitless routers cost nothing. On the **exchange**
//! (load-dominated: every node in the Figure-3 loop) the worklist is always
//! full, and the event engine wins only by visiting a node once per
//! stretch of private instructions where the naive one ticks it once per
//! instruction; each workload's instructions per visit and re-executed
//! share are rows too (host rows: they describe the simulator, and the
//! naive engine's would be 1 and 0), and so is the share of the
//! exchange's flit moves the bulk law made. The exchange also races replay
//! capture against the event engine, and on 512 nodes the parallel engine
//! at 2 and 4 workers (`threads/…`); `--trace` races the ring with
//! lifecycle tracing on too, and times taking its trace.
//! `--require-cpus N` makes a host with fewer CPUs a hard failure, so a
//! CI job that exists to gate the 4-worker row cannot go green where the
//! gate would skip it as oversubscribed.

use crate::cli::{self, write_file, Args, CliError, Outcome};
use crate::harness::{peak_rss_mib, time_once};
use crate::rows::{self, Row};
use crate::table::pivot;
use crate::tools::peak_rss_row;
use crate::workloads::{exchange_program, ring_program};
use jm_asm::Program;
use jm_isa::instr::StatClass;
use jm_machine::{Engine, JMachine, MachineConfig, MachineError, MachineStats, StartPolicy};
use jm_mdp::{MemoryStats, StretchStats};
use jm_net::BulkStats;
use std::process::ExitCode;

const NODES: u32 = 64;
/// The thread sweep's machine: 8×8×8 cuts into four two-plane slabs, so
/// `parallel-4` is four workers (4×4×4 has two slabs, and would run two).
const SWEEP_NODES: u32 = 512;
const RING_MAX_CYCLES: u64 = 500_000_000;
/// Runs of every side of a [`race`]. Most runs are millisecond-scale, so
/// one is mostly scheduler noise; the best of seven is the run the host
/// disturbed least.
const REPS: usize = 7;

fn config(engine: Engine) -> MachineConfig {
    MachineConfig::new(NODES)
        .start(StartPolicy::AllNodes)
        .engine(engine)
}

/// One side of a [`race`]: a label for rows and errors, the configuration
/// the race builds the program under, and whether each run records a
/// replay log.
#[derive(Clone)]
struct Side {
    label: String,
    config: MachineConfig,
    captured: bool,
}

fn side(label: &str, config: MachineConfig) -> Side {
    Side {
        label: label.to_string(),
        config,
        captured: false,
    }
}

/// What a [`race`] measured: each side's best wall seconds and, traced,
/// best `take_trace` seconds, in side order; the statistics every run
/// ended with; and side 0's host counters, which differ between engines
/// and so are not compared.
struct Race {
    walls: Vec<f64>,
    takes: Vec<Option<f64>>,
    stats: MachineStats,
    stretch: StretchStats,
    bulk: BulkStats,
    memory: MemoryStats,
    /// Injection FIFOs the network allocated ([`jm_net::Network::inject_fifos`]).
    inject_fifos: u64,
}

fn quiesce(m: &mut JMachine) -> Result<(), MachineError> {
    m.run_until_quiescent(RING_MAX_CYCLES).map(drop)
}

/// Refuses a `Parallel(t)` side that would not be `t` workers: one worker
/// is the event engine, and a mesh cut into fewer than `t` slabs runs one
/// worker a slab.
fn crew(engine: Engine, slabs: usize) -> Result<(), String> {
    match engine {
        Engine::Parallel(t) if t < 2 => Err("one worker is the event engine".to_string()),
        Engine::Parallel(t) if t as usize > slabs => Err(format!(
            "the mesh cuts into {slabs} slab(s), too few for {t} workers"
        )),
        _ => Ok(()),
    }
}

/// Races `program` under every side: [`REPS`] rounds, each building and
/// running every side once in order under `drive`, timing the drive and,
/// on a traced side, the `take_trace` after it.
///
/// # Errors
///
/// Each names its side: a `Parallel(t)` side that is not `t` workers
/// ([`crew`]), a failed run, a run whose cycle, statistics or state hash
/// differ from side 0's first run's, a captured run whose log ends on
/// another cycle, and a traced run whose trace hash differs from the first
/// traced run's.
fn race(
    name: &str,
    program: &Program,
    sides: &[Side],
    drive: impl Fn(&mut JMachine) -> Result<(), MachineError>,
) -> Result<Race, CliError> {
    let mut walls = vec![f64::INFINITY; sides.len()];
    let mut takes = vec![None; sides.len()];
    let (mut first, mut first_trace) = (None, None);
    for _ in 0..REPS {
        for (k, side) in sides.iter().enumerate() {
            let fail = |why: String| CliError::Failed(format!("{name} {}: {why}", side.label));
            let mut m = JMachine::new(program.clone(), side.config);
            crew(side.config.engine, m.network().shard_count()).map_err(fail)?;
            if side.captured {
                m.record_replay(jm_replay::DEFAULT_INTERVAL);
            }
            let (wall, ran) = time_once(|| drive(&mut m));
            ran.map_err(|e| fail(format!("simulation failed: {e}")))?;
            walls[k] = wall.as_secs_f64().min(walls[k]);
            let logged = side
                .captured
                .then(|| m.finish_replay().expect("capture was armed"));
            let (take, trace) = time_once(|| m.take_trace());
            let end = (m.cycle(), m.stats(), m.state_hash());
            let (reference, ..) = first.get_or_insert_with(|| {
                let memory = (m.memory_stats(), m.network().inject_fifos());
                let host = (m.stretch_stats(), m.bulk_stats(), memory);
                (end.clone(), host)
            });
            if *reference != end {
                let side0 = &sides[0].label;
                let why =
                    format!("its cycle, statistics or state hash differ from {side0}'s first run");
                return Err(fail(why));
            }
            if let Some(log) = logged.filter(|log| log.end_cycle() != end.0) {
                return Err(fail(format!("its log ends at cycle {}", log.end_cycle())));
            }
            if let Some(hash) = trace.map(|trace| jm_trace::hash(&trace)) {
                if *first_trace.get_or_insert(hash) != hash {
                    return Err(fail(format!(
                        "its trace hash {hash:016x} is not the first's"
                    )));
                }
                takes[k] = Some(take.as_secs_f64().min(takes[k].unwrap_or(f64::INFINITY)));
            }
        }
    }
    let ((_, stats, _), (stretch, bulk, (memory, inject_fifos))) = first.expect("a race runs");
    Ok(Race {
        walls,
        takes,
        stats,
        stretch,
        bulk,
        memory,
        inject_fifos,
    })
}

/// Races the exchange loop for `cycles` cycles under the event engine and
/// `Parallel(t)` for each `t`, on `nodes` nodes. Returns the race and its
/// `threads/<side>` rows: host time only as the ratio to the event engine,
/// and each row its thread count, so a reader decides "oversubscribed"
/// from the row itself (`threads` > `host_cpus`).
fn sweep(nodes: u32, cycles: u64, threads: &[u32]) -> Result<(Race, Vec<Row>), CliError> {
    let cpus = rows::host_cpus();
    let config = MachineConfig::new(nodes).start(StartPolicy::AllNodes);
    let mut sides = vec![side("event", config.engine(Engine::Event))];
    for &t in threads {
        sides.push(side(
            &format!("parallel-{t}"),
            config.engine(Engine::Parallel(t)),
        ));
    }
    let race = race("exchange", &exchange_program(), &sides, |m| {
        m.run(cycles);
        Ok(())
    })?;
    let mut out = Vec::new();
    for (side, wall) in sides.iter().zip(&race.walls) {
        let name = format!("threads/{}", side.label);
        let t = match side.config.engine {
            Engine::Parallel(t) => t,
            Engine::Naive | Engine::Event => 0,
        };
        out.extend(
            [
                ("threads", f64::from(t), "threads"),
                ("nodes", f64::from(nodes), "nodes"),
                ("cycles", cycles as f64, "cycles"),
                ("vs_event", race.walls[0] / wall.max(1e-9), "x"),
            ]
            .map(|(metric, value, unit)| Row::host(&name, metric, value, unit, cpus)),
        );
    }
    Ok((race, out))
}

/// How far side 0's nodes ran on past their visits (DESIGN.md §4.5,
/// "Stretches"): instructions retired per visit that retired any — its
/// own plus the stretch after it — and the share of all retired
/// instructions retired a second time after a rewind. Counts, not times,
/// but of the simulator: host rows.
fn stretch_rows(out: &mut Vec<Row>, cpus: usize, name: &str, race: &Race) {
    let (counts, instructions) = (race.stretch, race.stats.nodes.instructions);
    let per_visit = instructions as f64 / (instructions - counts.retired).max(1) as f64;
    let reexecuted = counts.reexecuted as f64 / instructions.max(1) as f64;
    out.push(Row::host(name, "instr_per_visit", per_visit, "instr", cpus));
    out.push(Row::host(name, "reexecuted", reexecuted, "ratio", cpus));
}

/// The share of side 0's flit moves — hops, and the ejection of two flits
/// a word, route word included — that the wormhole bulk law made
/// (DESIGN.md §4.5, "Where the bulk law substitutes"). A count of the
/// simulator: a host row, and one the ratchet holds, so a change that
/// stops the law engaging fails CI.
fn law_row(out: &mut Vec<Row>, cpus: usize, name: &str, race: &Race) {
    let net = &race.stats.net;
    let moves = net.flit_hops + 2 * (net.delivered_words + net.delivered_msgs);
    let share = race.bulk.moves as f64 / moves.max(1) as f64;
    out.push(Row::host(name, "law_share", share, "ratio", cpus));
}

/// `jmsim perf [--quick] [--trace] [--require-cpus N] [--out PATH]`.
pub(crate) fn run(args: &Args) -> Outcome {
    let quick = args.switch("--quick");
    let out_path = args.text("--out").unwrap_or("BENCH_engine.json");
    let cpus = rows::host_cpus();
    if let Some(need) = args.count("--require-cpus") {
        if (cpus as u64) < need {
            // On its own line so GitHub Actions renders it as an error
            // annotation; the nonzero exit fails the job either way.
            println!(
                "::error title=undersized bench runner::host has {cpus} CPU(s) but \
                 --require-cpus {need} was passed; the thread-scaling rows would be oversubscribed"
            );
            return Ok(ExitCode::FAILURE);
        }
    }
    let ring_rounds = if quick { 20 } else { 100 };
    let exch_cycles = if quick { 20_000 } else { 100_000 };
    let row = |name: &str, metric: &str, value: f64, unit: &str| {
        Row::host(name, metric, value, unit, cpus)
    };
    // The new side's speed as a multiple of the base side's: host time
    // enters the file only as such ratios.
    let speedup =
        |race: &Race, base: usize, new: usize| race.walls[base] / race.walls[new].max(1e-9);

    // Idle-dominated: one busy node, 63 parked.
    let event = side("event", config(Engine::Event));
    let naive = side("naive", config(Engine::Naive));
    let token_ring = ring_program(ring_rounds, false);
    let sides = [event.clone(), naive.clone()];
    let ring = race("ring64", &token_ring, &sides, quiesce)?;
    let name = "ring64_idle_dominated";
    let mut out = vec![
        row(name, "cycles", ring.stats.cycles as f64, "cycles"),
        row(name, "speedup", speedup(&ring, 1, 0), "x"),
    ];
    stretch_rows(&mut out, cpus, name, &ring);

    // Load-dominated: every node busy every cycle; and the same run with
    // replay capture armed, whose recording hook is a single pointer test
    // per host op plus one state hash per checkpoint interval.
    let mut captured = side("captured", config(Engine::Event));
    captured.captured = true;
    let sides = [event.clone(), naive, captured];
    let exchange = race("exchange64", &exchange_program(), &sides, |m| {
        m.run(exch_cycles);
        Ok(())
    })?;
    let name = "exchange64_load_dominated";
    out.push(row(name, "cycles", exch_cycles as f64, "cycles"));
    out.push(row(name, "speedup", speedup(&exchange, 1, 0), "x"));
    stretch_rows(&mut out, cpus, name, &exchange);
    law_row(&mut out, cpus, name, &exchange);
    let name = "exchange64_replay_capture";
    out.push(row(name, "cycles", exch_cycles as f64, "cycles"));
    out.push(row(name, "speedup", speedup(&exchange, 0, 2), "x"));

    if args.switch("--trace") {
        // A race of its own: with the naive ring's longer runs between
        // them, this millisecond-scale pair read 0.29-0.52 on a 2-CPU host
        // where it reads 0.24-0.39 alone (PERFLOG.md, "One timed race").
        let traced = side("traced", config(Engine::Event).traced());
        let ring = race("ring64", &token_ring, &[event, traced], quiesce)?;
        let (name, untraced) = ("ring64_traced", ring.walls[0].max(1e-9));
        let overhead = ring.walls[1] / untraced - 1.0;
        out.push(row(name, "overhead_vs_untraced", overhead, "ratio"));
        // The merge the take does is per event: one that cost per cycle
        // spanned would show here, on a trace whose events are sparse.
        let take = ring.takes[1].expect("the traced side took its trace") / untraced;
        out.push(row(name, "take_vs_untraced", take, "ratio"));
    }

    // An eighth of the cycles on eight times the nodes: the same work.
    out.extend(sweep(SWEEP_NODES, exch_cycles / 8, &[2, 4])?.1);

    println!("{}", pivot(&out, "", "workload"));
    let sweep_table = pivot(&out, "threads", "engine");
    print!("exchange loop, host CPUs: {cpus}\n\n{sweep_table}");
    write_file(out_path, rows::write(&out))?;
    println!("wrote {out_path}");
    Ok(ExitCode::SUCCESS)
}

/// `jmsim mesh`: the thread sweep on a big cube (default 16×16×16, 5 000
/// cycles, every node in the exchange loop) — `event` against
/// `parallel-T`, raced like every `perf` ratio, so a run that ends with
/// other statistics or state than the event engine's is exit 1. `--out`
/// writes the simulated counters, the sweep's `threads/…` rows, the event
/// run's storage counters and peak RSS (host rows) for a workflow to diff
/// day over day.
pub(crate) fn mesh(args: &Args) -> Outcome {
    let nodes = cli::machine_size("--nodes", args.count("--nodes").unwrap_or(4096))?;
    let cycles = args.count("--cycles").unwrap_or(5_000);
    let Engine::Parallel(threads) = args.engine().unwrap_or(Engine::Parallel(4)) else {
        let why = "--engine: the mesh smoke compares event against a parallelN engine";
        return Err(CliError::Input(why.to_string()));
    };
    let cpus = rows::host_cpus();
    let (race, sweep) = sweep(nodes, cycles, &[threads])?;
    let rss = peak_rss_mib();
    let mut out = vec![Row::simulated("mesh", "nodes", nodes.into(), "nodes")];
    out.extend(stats_rows("mesh", &race.stats));
    out.extend(sweep);
    let memory = race.memory;
    out.extend(
        [
            ("sram_pages", memory.sram_pages, "pages"),
            ("dram_pages", memory.dram_pages, "pages"),
            ("queue_words", memory.queue_words, "words"),
            ("inject_fifos", race.inject_fifos, "fifos"),
        ]
        .map(|(metric, value, unit)| Row::host("memory", metric, value as f64, unit, cpus)),
    );
    out.push(peak_rss_row(rss));
    let sweep_table = pivot(&out, "threads", "engine");
    println!("exchange loop, host CPUs: {cpus}\n\n{sweep_table}");
    println!("peak rss: {rss} MiB");
    if let Some(path) = args.text("--out") {
        write_file(path, rows::write(&out))?;
        println!("wrote {path}");
    }
    println!("mesh smoke passed: engines bit-identical at {nodes} nodes");
    Ok(ExitCode::SUCCESS)
}

/// A machine's simulated counters as rows named `name`.
fn stats_rows(name: &str, stats: &MachineStats) -> Vec<Row> {
    let (n, net) = (&stats.nodes, &stats.net);
    let mut out = vec![("cycles", stats.cycles, "cycles")];
    out.extend(StatClass::ALL.map(|class| (class.label(), n.class_cycles(class), "node-cycles")));
    out.extend([
        ("instructions", n.instructions, "instrs"),
        ("threads", n.threads, "threads"),
        ("sends", n.sends, "instrs"),
        ("send_faults", n.send_faults, "faults"),
        ("msgs_sent", n.msgs_sent, "msgs"),
        ("msgs_received", n.msgs_received, "msgs"),
        ("arrival_stalls", n.arrival_stalls, "cycles"),
        ("injected_msgs", net.injected_msgs, "msgs"),
        ("delivered_msgs", net.delivered_msgs, "msgs"),
        ("delivered_words", net.delivered_words, "words"),
        ("flit_hops", net.flit_hops, "flits"),
        ("bisection_flits", net.bisection_flits, "flits"),
        ("latency_sum", net.latency_sum, "cycles"),
        ("latency_max", net.latency_max, "cycles"),
    ]);
    out.into_iter()
        .map(|(metric, value, unit)| Row::simulated(name, metric, value as f64, unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_mdp::{MdpConfig, TimingConfig};
    use std::cell::Cell;

    /// A side named after its engine, on 2×2×4: a mesh the crew cuts into
    /// two slabs.
    fn small(engine: Engine) -> Side {
        let config = MachineConfig::new(16).start(StartPolicy::AllNodes);
        side(&format!("{engine:?}"), config.engine(engine))
    }

    fn failure(raced: Result<Race, CliError>) -> String {
        match raced {
            Err(CliError::Failed(why)) => why,
            Err(other) => panic!("{other:?}"),
            Ok(_) => panic!("the race passed"),
        }
    }

    #[test]
    fn a_side_that_ends_differently_is_named() {
        // A slower dispatch moves the ring's quiescence cycle.
        let timing = TimingConfig {
            dispatch: TimingConfig::default().dispatch + 5,
            ..TimingConfig::default()
        };
        let mut slow = small(Engine::Event);
        slow.label = "slow".to_string();
        slow.config = slow.config.mdp(MdpConfig {
            timing,
            ..MdpConfig::default()
        });
        let sides = [small(Engine::Naive), small(Engine::Event), slow];
        let why = failure(race("ring", &ring_program(1, false), &sides, quiesce));
        assert!(why.starts_with("ring slow: "), "{why}");
    }

    #[test]
    fn a_ring_race_keeps_one_best_time_per_side_and_holds_every_run() {
        let program = ring_program(1, false);
        let sides = [small(Engine::Naive), small(Engine::Event)];
        let raced = race("ring", &program, &sides, quiesce).expect("the engines agree");
        assert_eq!(raced.walls.len(), 2);
        assert!(raced.walls.iter().all(|w| w.is_finite() && *w > 0.0));
        assert_eq!(raced.takes, [None, None]);
        // The event side's last run stops one cycle short.
        let runs = Cell::new(0);
        let drive = |m: &mut JMachine| {
            runs.set(runs.get() + 1);
            m.run(raced.stats.cycles - u64::from(runs.get() == 2 * REPS));
            Ok(())
        };
        let why = failure(race("ring", &program, &sides, drive));
        assert!(why.starts_with("ring Event: "), "{why}");
        assert_eq!(runs.get(), 2 * REPS);
    }

    #[test]
    fn traced_and_captured_sides_agree_and_only_traced_ones_take() {
        let (mut traced, mut captured) = (small(Engine::Event), small(Engine::Event));
        traced.config = traced.config.traced();
        captured.captured = true;
        let sides = [small(Engine::Naive), traced, captured];
        let raced = race("ring", &ring_program(1, false), &sides, quiesce).expect("all agree");
        assert!(matches!(raced.takes[..], [None, Some(_), None]));
    }

    #[test]
    fn a_crew_that_is_not_t_workers_is_refused() {
        let program = ring_program(1, false);
        for (t, why) in [(1, "one worker"), (4, "2 slab(s)")] {
            let sides = [small(Engine::Event), small(Engine::Parallel(t))];
            let got = failure(race("ring", &program, &sides, quiesce));
            let named = got.starts_with(&format!("ring Parallel({t}): "));
            assert!(named && got.contains(why), "{got}");
        }
    }
}
