//! Record, verify, and bisect deterministic replay logs (DESIGN.md §4.11).
//!
//! Usage:
//!
//! ```text
//! replay record  --workload exchange|chaos64 [--out PATH] [--interval N]
//!                [--cycles N] [--engine E] [--seed S]
//! replay verify  --log PATH [--engine E]
//! replay bisect  --log PATH [--engine E] [--expect-log-mismatch CYCLE]
//! replay corrupt --log PATH --checkpoint N [--out PATH]
//! ```
//!
//! `record` captures a canned workload into a `.jmrp` event log. `verify`
//! re-executes the log under a (possibly different) engine configuration
//! and compares every checkpoint hash; exit 0 on a clean replay, 1 on a
//! mismatch. `bisect` narrows a mismatch to the first diverging cycle and
//! names the diverging components; exit 0 when clean, 2 on a genuine
//! divergence, 3 when the log itself is irreproducible (corrupt or
//! recorded nondeterministically). `corrupt` flips one checkpoint hash in
//! a log — the CI self-test fixture: the bisector must then name exactly
//! that checkpoint's cycle as a log mismatch, which `bisect
//! --expect-log-mismatch CYCLE` asserts (exit 0 iff it does).
//!
//! `--engine` defaults to the engine recorded in the log, so
//! `verify --log x.jmrp` with no overrides is a pure determinism check of
//! the recording environment itself.

use jm_machine::{
    Engine, FaultSpec, FaultWindow, JMachine, MachineConfig, MachineFactory, StartPolicy,
};
use jm_replay::{Divergence, ReplayLog, DEFAULT_INTERVAL};
use std::process::ExitCode;

fn parse_engine(s: &str) -> Engine {
    match s {
        "naive" => Engine::Naive,
        "event" => Engine::Event,
        _ => match s
            .strip_prefix("parallel")
            .and_then(|n| n.parse::<u32>().ok())
        {
            Some(n) if n > 0 => Engine::Parallel(n),
            _ => panic!("--engine takes naive, event, or parallelN, not {s:?}"),
        },
    }
}

/// A delay-only fault plan for the 64-node chaos workload: lossless
/// backpressure (flaky links, a link-down window, a router stall) plus
/// checksum trailers, mirroring the `chaos` binary's plan shape but
/// sized to a short recorded run.
fn chaos_plan(seed: u64) -> FaultSpec {
    FaultSpec::new(seed)
        .flaky(15_000)
        .checksums(true)
        .window(FaultWindow::link_down(0, 0, 500, 3_000))
        .window(FaultWindow::router_stall(3, 1_000, 2_500))
        .window(FaultWindow::node_down(5, 800, 1_400))
}

/// Builds the target factory from the CLI override; with no flag the
/// replay runs under the configuration recorded in the log.
fn factory(arg: &impl Fn(&str) -> Option<String>) -> MachineFactory {
    let f = MachineFactory::recorded();
    match arg("--engine") {
        Some(e) => f.engine(parse_engine(&e)),
        None => f,
    }
}

fn record(arg: &impl Fn(&str) -> Option<String>) -> ExitCode {
    let workload = arg("--workload").unwrap_or_else(|| "exchange".to_string());
    let out = arg("--out").unwrap_or_else(|| format!("{workload}.jmrp"));
    let interval: u64 = arg("--interval").map_or(DEFAULT_INTERVAL, |v| {
        v.parse().expect("--interval takes a number")
    });
    let cycles: u64 =
        arg("--cycles").map_or(20_000, |v| v.parse().expect("--cycles takes a number"));
    let seed: u64 = arg("--seed").map_or(3, |v| v.parse().expect("--seed takes a number"));
    let engine = parse_engine(&arg("--engine").unwrap_or_else(|| "event".to_string()));

    let mut config = MachineConfig::new(64)
        .start(StartPolicy::AllNodes)
        .engine(engine);
    match workload.as_str() {
        "exchange" => {}
        "chaos64" => config = config.fault(chaos_plan(seed)),
        other => panic!("--workload takes exchange or chaos64, not {other:?}"),
    }
    let mut m = JMachine::new(jm_bench::micro::load::debug_program(4, 20), config);
    m.record_replay(interval);
    m.run(cycles);
    let log = m.finish_replay().expect("recording was armed");
    log.write_file(&out).expect("write replay log");
    println!(
        "recorded {workload}: {} cycles, {} checkpoints (interval {interval}) -> {out}",
        log.end_cycle(),
        log.checkpoints(),
    );
    ExitCode::SUCCESS
}

fn verify(arg: &impl Fn(&str) -> Option<String>) -> ExitCode {
    let log = read_log(arg);
    let report = jm_replay::verify(&log, &factory(arg));
    println!("verify: {report}");
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn bisect(arg: &impl Fn(&str) -> Option<String>) -> ExitCode {
    let log = read_log(arg);
    let expect: Option<u64> = arg("--expect-log-mismatch")
        .map(|v| v.parse().expect("--expect-log-mismatch takes a cycle"));
    let report = jm_replay::bisect(&log, &MachineFactory::recorded(), &factory(arg));
    println!("bisect ({} probes): {report}", report.probes);
    if let Some(want) = expect {
        return match report.divergence {
            Divergence::LogMismatch { cycle, .. } if cycle == want => {
                println!("expected log mismatch at cycle {want}: confirmed");
                ExitCode::SUCCESS
            }
            other => {
                println!("expected log mismatch at cycle {want}, got: {other:?}");
                ExitCode::FAILURE
            }
        };
    }
    match report.divergence {
        Divergence::None => ExitCode::SUCCESS,
        Divergence::Diverged { .. } => ExitCode::from(2),
        Divergence::LogMismatch { .. } => ExitCode::from(3),
    }
}

fn corrupt(arg: &impl Fn(&str) -> Option<String>) -> ExitCode {
    let path = arg("--log").expect("corrupt needs --log PATH");
    let index: usize = arg("--checkpoint")
        .expect("corrupt needs --checkpoint N")
        .parse()
        .expect("--checkpoint takes an index");
    let out = arg("--out").unwrap_or_else(|| path.clone());
    let mut log = ReplayLog::read_file(&path).expect("read replay log");
    let cycle = log
        .corrupt_checkpoint(index)
        .expect("checkpoint index out of range");
    log.write_file(&out).expect("write corrupted log");
    println!("corrupted checkpoint {index} at cycle {cycle} -> {out}");
    ExitCode::SUCCESS
}

fn read_log(arg: &impl Fn(&str) -> Option<String>) -> ReplayLog {
    let path = arg("--log").expect("need --log PATH");
    ReplayLog::read_file(&path).expect("read replay log")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sub = args.first().map(String::as_str).unwrap_or("");
    let arg = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    match sub {
        "record" => record(&arg),
        "verify" => verify(&arg),
        "bisect" => bisect(&arg),
        "corrupt" => corrupt(&arg),
        _ => {
            eprintln!("usage: replay record|verify|bisect|corrupt [flags] (see --help in source)");
            ExitCode::FAILURE
        }
    }
}
