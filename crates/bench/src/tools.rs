//! The `jmsim` tools that are not registry experiments or timed races: the
//! one-point large-mesh traffic canary, the chaos application run, the
//! trace exporter, and the replay log recorder / verifier / bisector.
//!
//! Every tool that measures simulated counters writes them to `--out` as
//! [`rows`]: the row file holds each number exactly, so `diff` of two
//! files — a plain run against a threaded one, today's against
//! yesterday's, a fresh one against the committed one — is the one proof
//! that no simulated number moved.

use crate::cli::{self, write_file, Args, CliError, Outcome};
use crate::registry::{self, Ctx};
use crate::workloads::exchange_program;
use crate::{harness, observe, rows, traffic};
use jm_apps::{App, Problems};
use jm_isa::MeshDims;
use jm_machine::{
    Divergence, Engine, FaultSpec, FaultWindow, JMachine, MachineConfig, MachineFactory,
    StartPolicy,
};
use jm_replay::{ReplayLog, DEFAULT_INTERVAL};
use std::process::ExitCode;

/// `jmsim traffic`: the registry's traffic sweep ([`registry::run_one`]) —
/// the [`traffic`] load ladder for all five patterns under one injection
/// seed → curves with their knees on stdout, `BENCH_traffic.json`, and exit
/// code 1 on a misshapen curve. With `--mesh XxYxZ --pattern NAME --load
/// PPM` (the nightly large-mesh canary) it runs that one point instead and
/// writes its counters, plus the process's peak RSS as the one host row, to
/// `--out` if given.
pub(crate) fn traffic(args: &Args) -> Outcome {
    let Some(dims) = args.mesh() else {
        return registry::run_one(args);
    };
    let (Some(pattern), Some(load)) = (args.pattern(), args.count("--load")) else {
        let why = "`--mesh` needs `--pattern NAME` and `--load PPM`";
        return Err(CliError::Input(why.to_string()));
    };
    let load = u32::try_from(load)
        .map_err(|_| CliError::Input(format!("--load: {load} ppm is out of range")))?;
    let seed = args.count("--seed").unwrap_or(7);
    let ctx = Ctx::new(args.engine().unwrap_or_default(), false, seed);
    let p = ctx.run(traffic::point(seed, dims, pattern, load))?;
    let rss = harness::peak_rss_mib();
    let (name, mesh) = (pattern.label(), format!("{}x{}x{}", dims.x, dims.y, dims.z));
    println!(
        "{name} on {mesh} at {load} ppm: offered {} accepted {} dropped {} \
         ({:.4} flits/node/cycle, lat p99 {}, {} cycles to drain, peak rss {rss} MiB)",
        p.offered_msgs,
        p.accepted_msgs,
        p.dropped_msgs,
        p.accepted_throughput(dims.nodes()),
        p.latency_p99,
        p.drain_cycles,
    );
    if let Some(path) = args.text("--out") {
        let mut out = traffic::header_rows(seed, dims);
        out.extend(p.rows(&format!("traffic/{name}/{load}"), dims.nodes()));
        out.push(peak_rss_row(rss));
        write_file(path, rows::write(&out))?;
        println!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The process's peak RSS as a row: the one host-dependent number a
/// nightly row file carries, so the large-mesh footprint is tracked day
/// over day beside the counters.
pub(crate) fn peak_rss_row(mib: u64) -> rows::Row {
    rows::Row::host("host", "peak_rss", mib as f64, "MiB", rows::host_cpus())
}

/// `jmsim chaos`: the four applications on 16 nodes (2×2×4, the smallest
/// mesh a crew cuts in two) under a seeded delay-fault plan — flaky links,
/// link-down / router-stall / node-down windows on both slabs, checksum
/// trailers. Delay faults are lossless backpressure (loss recovery is the
/// reliable-RPC layer's job, `jmsim faults`), so every answer must stay
/// exact: each app's `run` checks it against the host reference and
/// panics on a mismatch. A plan that disturbed nothing fails too, so a
/// vacuous plan cannot pass.
pub(crate) fn chaos(args: &Args) -> Outcome {
    const NODES: u32 = 16;
    let seed = args.count("--seed").unwrap_or(3);
    let engine = args.engine().unwrap_or_default();
    let plan = FaultSpec::new(seed)
        .flaky(15_000)
        .checksums(true)
        .window(FaultWindow::link_down(0, 0, 2_000, 12_000))
        .window(FaultWindow::router_stall(11, 5_000, 9_000))
        .window(FaultWindow::node_down(5, 3_000, 4_000))
        .window(FaultWindow::link_down(6, 4, 20_000, 30_000));
    let mcfg = MachineConfig::new(NODES).engine(engine).fault(plan);
    // A machine that never runs, asked how the engine cuts the mesh; its
    // empty replay log is not kept.
    let mut probe = JMachine::new(exchange_program(), mcfg);
    probe.finish_replay();
    let slabs = probe.network().shard_count();
    println!("chaos: seed {seed}, engine {engine:?}, {NODES} nodes, {slabs} slab(s)");

    let mut disturbed = 0u64;
    for app in App::ALL {
        let r = app.run(mcfg, &Problems::scaled(), registry::APP_CYCLES)?;
        let blocked = r.stats.net.faults.blocked_moves;
        let (name, answer, cycles) = (app.name(), r.answer_line(), r.cycles);
        println!("  {name:<9} ok: {answer}, {cycles} cycles, {blocked} blocked moves");
        disturbed += blocked;
    }

    if disturbed == 0 {
        let why = "the chaos plan disturbed nothing — it is vacuous";
        return Err(CliError::Failed(why.to_string()));
    }
    println!("all four applications exact under chaos ({disturbed} blocked moves total)");
    Ok(ExitCode::SUCCESS)
}

/// `jmsim trace`: runs the traced gather, prints the per-mechanism latency
/// breakdown (`T = T_net + T_queue` per message, handler time, hops) and
/// writes a Chrome trace-event JSON (open in Perfetto) and a compact
/// summary (histograms plus the deterministic trace hash).
pub(crate) fn trace(args: &Args) -> Outcome {
    let nodes = cli::machine_size("--nodes", args.count("--nodes").unwrap_or(64))?;
    let sample_every = args.positive("--sample-every")?.unwrap_or(16);
    let chrome_path = args.text("--chrome").unwrap_or("trace_chrome.json");
    let summary_path = args.text("--summary").unwrap_or("trace_summary.json");

    let dims = MeshDims::for_nodes(nodes);
    let ctx = Ctx::new(Engine::default(), false, 7);
    let trace = &ctx.run(observe::gather(dims, sample_every))?;
    println!(
        "gather on {}x{}x{} ({} nodes): {} messages, {} events, {} samples\n",
        dims.x,
        dims.y,
        dims.z,
        trace.nodes,
        trace.messages().len(),
        trace.events.len(),
        trace.samples.len(),
    );
    println!("{}", trace.breakdown_table());
    write_file(chrome_path, jm_trace::chrome_json(trace))?;
    println!("wrote {chrome_path} (load in Perfetto or chrome://tracing)");
    write_file(summary_path, jm_trace::summary_json(trace))?;
    println!("wrote {summary_path}");
    Ok(ExitCode::SUCCESS)
}

/// The replay target: the configuration recorded in the log, with
/// `--engine` as the only override.
fn factory(args: &Args) -> MachineFactory {
    let recorded = MachineFactory::recorded();
    args.engine().map_or(recorded, |e| recorded.engine(e))
}

fn read_log(args: &Args) -> Result<ReplayLog, CliError> {
    let path = args.text("--log").expect("--log is a required flag");
    ReplayLog::read_file(path).map_err(|e| CliError::Input(format!("--log {path}: {e}")))
}

/// `jmsim replay record`: captures a canned 64-node workload — the exchange
/// loop, plain or (`chaos64`) under a delay-only fault plan sized to a
/// short run — into a `.jmrp` event log.
pub(crate) fn replay_record(args: &Args) -> Outcome {
    let workload = args.text("--workload").unwrap_or("exchange");
    let default_out = format!("{workload}.jmrp");
    let out = args.text("--out").unwrap_or(&default_out);
    let interval = args.positive("--interval")?.unwrap_or(DEFAULT_INTERVAL);
    let mut config = MachineConfig::new(64)
        .start(StartPolicy::AllNodes)
        .engine(args.engine().unwrap_or_default());
    if workload == "chaos64" {
        let plan = FaultSpec::new(args.count("--seed").unwrap_or(3))
            .flaky(15_000)
            .checksums(true)
            .window(FaultWindow::link_down(0, 0, 500, 3_000))
            .window(FaultWindow::router_stall(3, 1_000, 2_500))
            .window(FaultWindow::node_down(5, 800, 1_400));
        config = config.fault(plan);
    }
    let mut m = JMachine::new(exchange_program(), config);
    m.record_replay(interval);
    m.run(args.count("--cycles").unwrap_or(20_000));
    let log = m.finish_replay().expect("recording was armed");
    log.write_file(out).map_err(|e| CliError::io(out, e))?;
    println!(
        "recorded {workload}: {} cycles, {} checkpoints (interval {interval}) -> {out}",
        log.end_cycle(),
        log.checkpoints(),
    );
    Ok(ExitCode::SUCCESS)
}

/// `jmsim replay verify`: re-executes the log under its recorded
/// configuration, or `--engine`, and compares every checkpoint hash; exit
/// 1 on a mismatch.
pub(crate) fn replay_verify(args: &Args) -> Outcome {
    let log = read_log(args)?;
    let report = jm_machine::verify(&log, &factory(args));
    println!("verify: {report}");
    Ok(if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `jmsim replay bisect`: narrows a mismatch to its first diverging cycle
/// and components; exit 0 when clean, 2 on a genuine divergence, 3 when the
/// log itself is irreproducible.
pub(crate) fn replay_bisect(args: &Args) -> Outcome {
    let log = read_log(args)?;
    let report = jm_machine::bisect(&log, &MachineFactory::recorded(), &factory(args));
    println!("bisect ({} probes): {report}", report.probes);
    Ok(match report.divergence {
        Divergence::None => ExitCode::SUCCESS,
        Divergence::Diverged { .. } => ExitCode::from(2),
        Divergence::LogMismatch { .. } => ExitCode::from(3),
    })
}
