//! `jmsim perf`: host-side simulation throughput of the engines *relative
//! to each other*, written to `BENCH_engine.json` as ratios and printed as
//! the [`pivot`] of those rows (absolute host time is jmbench's
//! instrument, `benchmark/`).
//! It only measures — every floor and ceiling on these numbers is an
//! argument of `jmsim gate` in CI — but every pair of runs it times is also
//! asserted bit-identical, so the measurement doubles as a differential
//! test.
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
//! exchange's flit moves the bulk law made. The exchange is also run
//! with replay capture armed, and on 512 nodes under the parallel engine
//! at 2 and 4 workers (`threads/…`, [`threads::sweep`]); `--trace` adds
//! the ring with lifecycle tracing on, and what taking its trace costs.
//! `--require-cpus N` makes a host with fewer CPUs a hard failure, so a
//! CI job that exists to gate the 4-worker row cannot go green where the
//! gate would skip it as oversubscribed.

use crate::cli::{self, Args, CliError, Outcome};
use crate::harness::time_once;
use crate::rows::{self, Row};
use crate::table::pivot;
use crate::threads;
use crate::workloads::{exchange_program, ring_program};
use jm_machine::{Engine, JMachine, MachineConfig, StartPolicy};
use std::process::ExitCode;

const NODES: u32 = 64;
/// The thread sweep's machine: 8×8×8 cuts into four two-plane slabs, so
/// `parallel-4` is four workers (4×4×4 has two slabs, and would run two).
const SWEEP_NODES: u32 = 512;
const RING_MAX_CYCLES: u64 = 500_000_000;

fn config(engine: Engine) -> MachineConfig {
    MachineConfig::new(NODES)
        .start(StartPolicy::AllNodes)
        .engine(engine)
}

/// Runs the ring to quiescence under `config`: wall seconds, the
/// quiescence cycle and the machine.
fn run_ring(rounds: i32, config: MachineConfig) -> (f64, u64, JMachine) {
    let mut m = JMachine::new(ring_program(rounds, false), config);
    let (wall, cycles) = time_once(|| m.run_until_quiescent(RING_MAX_CYCLES));
    (wall.as_secs_f64(), cycles.expect("the ring quiesces"), m)
}

/// Takes a traced machine's trace: its hash, and the wall seconds the take
/// spent merging what the run left buffered.
fn take_trace(m: &mut JMachine) -> (u64, f64) {
    let (wall, trace) = time_once(|| m.take_trace().expect("tracing was enabled"));
    (jm_trace::hash(&trace), wall.as_secs_f64())
}

/// Steps the exchange loop for `cycles` cycles under `engine`, with replay
/// capture armed if `captured`; returns the wall seconds and the machine.
fn run_exchange(engine: Engine, cycles: u64, captured: bool) -> (f64, JMachine) {
    let mut m = JMachine::new(exchange_program(), config(engine));
    if captured {
        m.record_replay(jm_replay::DEFAULT_INTERVAL);
    }
    let (wall, ()) = time_once(|| m.run(cycles));
    if captured {
        let log = m.finish_replay().expect("recording was armed");
        assert_eq!(
            log.end_cycle(),
            cycles,
            "capture must not change the run length"
        );
    }
    (wall.as_secs_f64(), m)
}

/// How far `m`'s nodes ran on past their visits (DESIGN.md §4.5,
/// "Stretches"): instructions retired per visit that retired any — its
/// own plus the stretch after it — and the share of all retired
/// instructions retired a second time after a rewind. Counts, not times,
/// but of the simulator: host rows.
fn stretch_rows(out: &mut Vec<Row>, cpus: usize, name: &str, m: &JMachine) {
    let (counts, instructions) = (m.stretch_stats(), m.stats().nodes.instructions);
    let per_visit = instructions as f64 / (instructions - counts.retired).max(1) as f64;
    let reexecuted = counts.reexecuted as f64 / instructions.max(1) as f64;
    out.push(Row::host(name, "instr_per_visit", per_visit, "instr", cpus));
    out.push(Row::host(name, "reexecuted", reexecuted, "ratio", cpus));
}

/// The share of `m`'s flit moves — hops, and the ejection of two flits a
/// word, route word included — that the wormhole bulk law made (DESIGN.md
/// §4.5, "Where the bulk law substitutes"). A count of the simulator: a
/// host row, and one the ratchet holds, so a change that stops the law
/// engaging fails CI.
fn law_row(out: &mut Vec<Row>, cpus: usize, name: &str, m: &JMachine) {
    let net = m.stats().net;
    let moves = net.flit_hops + 2 * (net.delivered_words + net.delivered_msgs);
    let share = m.bulk_stats().moves as f64 / moves.max(1) as f64;
    out.push(Row::host(name, "law_share", share, "ratio", cpus));
}

/// The two rows of one workload: its length and the new side's speed as a
/// multiple of the base side's over those same cycles. Host time enters
/// the file only as that ratio: absolute host speed is jmbench's to
/// measure (`benchmark/`).
fn speedup_rows(
    out: &mut Vec<Row>,
    cpus: usize,
    name: &str,
    cycles: u64,
    base_secs: f64,
    new_secs: f64,
) {
    let speedup = base_secs / new_secs.max(1e-9);
    out.push(Row::host(name, "cycles", cycles as f64, "cycles", cpus));
    out.push(Row::host(name, "speedup", speedup, "x", cpus));
}

/// `jmsim perf [--quick] [--trace] [--require-cpus N] [--out PATH]`.
pub(crate) fn run(args: &Args) -> Outcome {
    let quick = args.switch("--quick");
    let out_path = args.text("--out").unwrap_or("BENCH_engine.json");
    let host_cpus = rows::host_cpus();
    if let Some(need) = args.count("--require-cpus") {
        if (host_cpus as u64) < need {
            // On its own line so GitHub Actions renders it as an error
            // annotation; the nonzero exit fails the job either way.
            println!(
                "::error title=undersized bench runner::host has {host_cpus} CPU(s) but \
                 --require-cpus {need} was passed; the thread-scaling rows would be oversubscribed"
            );
            return Ok(ExitCode::FAILURE);
        }
    }
    let ring_rounds = if quick { 20 } else { 100 };
    let exch_cycles = if quick { 20_000 } else { 100_000 };
    let mut out = Vec::new();

    // Idle-dominated: one busy node, 63 parked.
    let (ring_naive, ring_cycles, _) = run_ring(ring_rounds, config(Engine::Naive));
    let (ring_event, event_cycles, ring_machine) = run_ring(ring_rounds, config(Engine::Event));
    assert_eq!(
        ring_cycles, event_cycles,
        "engines must quiesce at the same cycle"
    );
    speedup_rows(
        &mut out,
        host_cpus,
        "ring64_idle_dominated",
        ring_cycles,
        ring_naive,
        ring_event,
    );
    stretch_rows(&mut out, host_cpus, "ring64_idle_dominated", &ring_machine);

    // Load-dominated: every node busy every cycle.
    let (exch_naive, _) = run_exchange(Engine::Naive, exch_cycles, false);
    let (exch_event, exch_machine) = run_exchange(Engine::Event, exch_cycles, false);
    speedup_rows(
        &mut out,
        host_cpus,
        "exchange64_load_dominated",
        exch_cycles,
        exch_naive,
        exch_event,
    );
    stretch_rows(
        &mut out,
        host_cpus,
        "exchange64_load_dominated",
        &exch_machine,
    );
    law_row(
        &mut out,
        host_cpus,
        "exchange64_load_dominated",
        &exch_machine,
    );

    // Same workload with replay capture armed: the recording hook is a
    // single pointer test per host op plus one state hash per checkpoint
    // interval.
    let (exch_captured, _) = run_exchange(Engine::Event, exch_cycles, true);
    speedup_rows(
        &mut out,
        host_cpus,
        "exchange64_replay_capture",
        exch_cycles,
        exch_event,
        exch_captured,
    );

    if args.switch("--trace") {
        // Both sides of each ratio are millisecond-scale, so one pair is
        // mostly scheduler noise: take the best of several, interleaved so
        // host drift hits both.
        let mut untraced = ring_event;
        let (mut traced, cycles, mut m) = run_ring(ring_rounds, config(Engine::Event).traced());
        let (hash, mut take) = take_trace(&mut m);
        assert_eq!(
            cycles, ring_cycles,
            "tracing must not change the quiescence cycle"
        );
        for _ in 0..6 {
            let (plain, _, _) = run_ring(ring_rounds, config(Engine::Event));
            untraced = untraced.min(plain);
            let (again, _, mut m) = run_ring(ring_rounds, config(Engine::Event).traced());
            let (again_hash, again_take) = take_trace(&mut m);
            assert_eq!(again_hash, hash, "trace hash must repeat");
            traced = traced.min(again);
            take = take.min(again_take);
        }
        let untraced = untraced.max(1e-9);
        let ring = "ring64_traced";
        let overhead = traced / untraced - 1.0;
        out.push(Row::host(
            ring,
            "overhead_vs_untraced",
            overhead,
            "ratio",
            host_cpus,
        ));
        // The merge the take does is per event: one that cost per cycle
        // spanned would show here, on a trace whose events are sparse.
        let take = take / untraced;
        out.push(Row::host(
            ring,
            "take_vs_untraced",
            take,
            "ratio",
            host_cpus,
        ));
    }

    // An eighth of the cycles on eight times the nodes: the same work.
    let sweep = threads::sweep(SWEEP_NODES, exch_cycles / 8, &[2, 4]).map_err(CliError::Failed)?;
    out.extend(threads::rows(&sweep));

    println!("{}", pivot(&out, "", "workload"));
    let sweep_table = pivot(&out, "threads", "engine");
    print!("exchange loop, host CPUs: {host_cpus}\n\n{sweep_table}");
    cli::write_file(out_path, rows::write(&out))?;
    println!("wrote {out_path}");
    Ok(ExitCode::SUCCESS)
}
