//! Measures host-side simulation throughput (simulated cycles per second of
//! wall clock) of the two machine engines on contrasting workloads, and
//! writes `BENCH_engine.json`.
//!
//! Usage: `engine_perf [--out PATH] [--quick] [--trace] [--threads]
//! [--require-cpus N]`
//!
//! `--require-cpus N` turns an undersized host into a hard failure: when
//! the host has fewer than `N` CPUs the binary emits a `::error::`
//! annotation and exits nonzero instead of quietly skipping the
//! thread-scaling floor. CI jobs that exist to enforce that floor pass
//! this flag so a mis-provisioned runner fails loudly rather than
//! green-washing the check.
//!
//! `--trace` additionally runs the ring workload on the event engine with
//! lifecycle tracing enabled and reports the tracing overhead (the
//! disabled path is a single pointer test, so the untraced numbers are
//! unaffected either way); the traced run's deterministic trace hash is
//! included in the JSON.
//!
//! `--threads` additionally sweeps the parallel engine over 1, 2, and 4
//! worker threads on the load-dominated exchange workload (the only one
//! where threads can help — the ring keeps one node busy), asserting the
//! results bit-identical to the event engine and recording the scaling in
//! a `"threads"` JSON section. On hosts with ≥ 4 CPUs the 4-thread run
//! must clear a 1.5x speedup floor; on smaller hosts (CI runners pinned
//! to one core) the floor is reported but not enforced, and `host_cpus`
//! is recorded so readers can tell which regime produced the numbers.
//!
//! Two workloads bracket the design space:
//!
//! * **ring (idle-dominated)** — one token circulates a 64-node ring, so at
//!   any instant one node works and 63 idle. This is the case the
//!   event-driven engine exists for: parked nodes and flitless routers cost
//!   nothing, and quiescence is an O(1) check. Expected speedup: large
//!   (the acceptance floor is 2x).
//! * **exchange (load-dominated)** — every node runs the Figure-3 exchange
//!   loop continuously. Here the worklist is always full, so the event
//!   engine can only match the naive engine, not beat it; the measurement
//!   guards against the bookkeeping becoming a regression.
//!
//! Both engines execute the identical workload in the same process run, so
//! the reported speedup is apples-to-apples.

use jm_asm::{hdr, Builder, Program};
use jm_bench::harness::time_once;
use jm_isa::instr::{AluOp, MsgPriority};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_machine::{Engine, JMachine, MachineConfig, StartPolicy};
use jm_runtime::nnr;
use std::fmt::Write as _;

/// One engine's measurement on one workload.
struct Measurement {
    wall_secs: f64,
    cycles: u64,
}

impl Measurement {
    fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_secs.max(1e-9)
    }
}

/// Token-ring program: `rounds` full circulations of a single message.
fn ring_program(rounds: i32) -> Program {
    let mut b = Builder::new();
    b.data("acc", jm_asm::Region::Imem, vec![jm_isa::Word::int(0)]);
    b.reserve("next_route", jm_asm::Region::Imem, 1);
    b.label("main");
    b.mov(R0, Special::Nid);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Rem, R0, R0, Special::NNodes);
    b.call(nnr::NID_TO_ROUTE);
    b.load_seg(A0, "next_route");
    b.mov(MemRef::disp(A0, 0), R0);
    b.mov(R0, Special::Nid);
    b.bnz(R0, "main_done");
    b.mov(R1, Special::NNodes);
    b.alu(AluOp::Mul, R1, R1, rounds);
    b.load_seg(A1, "next_route");
    b.send(MsgPriority::P0, MemRef::disp(A1, 0));
    b.send2e(MsgPriority::P0, hdr("token", 2), R1);
    b.label("main_done");
    b.suspend();
    b.label("token");
    b.mov(R1, MemRef::disp(A3, 1));
    b.load_seg(A0, "acc");
    b.mov(R2, MemRef::disp(A0, 0));
    b.addi(R2, R2, 1);
    b.mov(MemRef::disp(A0, 0), R2);
    b.subi(R1, R1, 1);
    b.bz(R1, "token_done");
    b.load_seg(A1, "next_route");
    b.send(MsgPriority::P0, MemRef::disp(A1, 0));
    b.send2e(MsgPriority::P0, hdr("token", 2), R1);
    b.label("token_done");
    b.suspend();
    b.entry("main");
    nnr::install(&mut b);
    b.assemble().unwrap()
}

/// Runs `program` to quiescence under `engine` and measures wall time.
fn run_to_quiescence(program: Program, nodes: u32, engine: Engine, max: u64) -> Measurement {
    let mut m = JMachine::new(
        program,
        MachineConfig::new(nodes)
            .start(StartPolicy::AllNodes)
            .engine(engine),
    );
    let (wall, cycles) = time_once(|| m.run_until_quiescent(max).expect("workload quiesces"));
    Measurement {
        wall_secs: wall.as_secs_f64(),
        cycles,
    }
}

/// Runs `program` to quiescence on the event engine with lifecycle
/// tracing enabled; returns the measurement and the trace hash.
fn run_traced(program: Program, nodes: u32, max: u64) -> (Measurement, u64) {
    let mut m = JMachine::new(
        program,
        MachineConfig::new(nodes)
            .start(StartPolicy::AllNodes)
            .engine(Engine::Event)
            .traced(),
    );
    let (wall, cycles) = time_once(|| m.run_until_quiescent(max).expect("workload quiesces"));
    let trace = m.take_trace().expect("tracing was enabled");
    (
        Measurement {
            wall_secs: wall.as_secs_f64(),
            cycles,
        },
        jm_trace::hash(&trace),
    )
}

/// Steps `program` for a fixed number of cycles under `engine`.
fn run_fixed(program: Program, nodes: u32, engine: Engine, cycles: u64) -> Measurement {
    let mut m = JMachine::new(
        program,
        MachineConfig::new(nodes)
            .start(StartPolicy::AllNodes)
            .engine(engine),
    );
    let (wall, ()) = time_once(|| m.run(cycles));
    Measurement {
        wall_secs: wall.as_secs_f64(),
        cycles,
    }
}

fn json_workload(out: &mut String, name: &str, naive: &Measurement, event: &Measurement) {
    let speedup = event.cycles_per_sec() / naive.cycles_per_sec();
    let _ = writeln!(
        out,
        "    {{\n      \"name\": \"{name}\",\n      \"cycles\": {},\n      \"naive\": {{ \"wall_secs\": {:.6}, \"cycles_per_sec\": {:.0} }},\n      \"event\": {{ \"wall_secs\": {:.6}, \"cycles_per_sec\": {:.0} }},\n      \"speedup\": {:.2}\n    }},",
        event.cycles,
        naive.wall_secs,
        naive.cycles_per_sec(),
        event.wall_secs,
        event.cycles_per_sec(),
        speedup,
    );
    println!(
        "{name:<24} naive {:>12.0} cyc/s   event {:>12.0} cyc/s   speedup {speedup:.2}x",
        naive.cycles_per_sec(),
        event.cycles_per_sec(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trace = args.iter().any(|a| a == "--trace");
    let threads = args.iter().any(|a| a == "--threads");
    let require_cpus: Option<usize> = args
        .iter()
        .position(|a| a == "--require-cpus")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--require-cpus takes a number"));
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());

    let ring_nodes = 64;
    let ring_rounds = if quick { 20 } else { 100 };
    let exch_nodes = 64;
    let exch_cycles = if quick { 20_000 } else { 100_000 };

    // Idle-dominated: one busy node, 63 parked.
    let ring_naive = run_to_quiescence(
        ring_program(ring_rounds),
        ring_nodes,
        Engine::Naive,
        500_000_000,
    );
    let ring_event = run_to_quiescence(
        ring_program(ring_rounds),
        ring_nodes,
        Engine::Event,
        500_000_000,
    );
    assert_eq!(
        ring_naive.cycles, ring_event.cycles,
        "engines must quiesce at the same cycle"
    );

    // Load-dominated: every node busy every cycle.
    let exch_program = jm_bench::micro::load::debug_program(4, 20);
    let exch_naive = run_fixed(exch_program.clone(), exch_nodes, Engine::Naive, exch_cycles);
    let exch_event = run_fixed(exch_program, exch_nodes, Engine::Event, exch_cycles);

    // Same workload with replay capture armed: the recording hook is a
    // single pointer test per host op plus one state hash per checkpoint
    // interval, so the captured run must stay within 10% of the
    // uncaptured event run (bench_gate enforces a 0.90 floor on the
    // "speedup" ratio below).
    let exch_captured = {
        let mut m = JMachine::new(
            jm_bench::micro::load::debug_program(4, 20),
            MachineConfig::new(exch_nodes)
                .start(StartPolicy::AllNodes)
                .engine(Engine::Event),
        );
        m.record_replay(jm_replay::DEFAULT_INTERVAL);
        let (wall, ()) = time_once(|| m.run(exch_cycles));
        let log = m.finish_replay().expect("recording was armed");
        assert_eq!(
            log.end_cycle(),
            exch_cycles,
            "capture must not change the run length"
        );
        Measurement {
            wall_secs: wall.as_secs_f64(),
            cycles: exch_cycles,
        }
    };

    // Recorded at the top level so artifact readers can tell a 1-CPU
    // runner's numbers from a real multi-core host without digging into
    // the threads section (which only exists under --threads).
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(need) = require_cpus {
        if host_cpus < need {
            // Printed on its own line so GitHub Actions renders it as an
            // error annotation; the nonzero exit fails the job either way.
            println!(
                "::error title=undersized bench runner::host has {host_cpus} CPU(s) but \
                 --require-cpus {need} was passed; the thread-scaling floor cannot be enforced here"
            );
            std::process::exit(1);
        }
    }
    let mut out = format!(
        "{{\n  \"bench\": \"engine\",\n  \"host_cpus\": {host_cpus},\n  \"workloads\": [\n"
    );
    json_workload(&mut out, "ring64_idle_dominated", &ring_naive, &ring_event);
    json_workload(
        &mut out,
        "exchange64_load_dominated",
        &exch_naive,
        &exch_event,
    );
    // The replay-capture row reuses the workload schema with
    // "uncaptured"/"captured" in place of "naive"/"event"; the gate's
    // parser keys on "name"/"cycles_per_sec"/"speedup" only, and the
    // "speedup" here is the capture-on/capture-off throughput ratio.
    let capture_ratio = exch_captured.cycles_per_sec() / exch_event.cycles_per_sec();
    let _ = writeln!(
        out,
        "    {{\n      \"name\": \"exchange64_replay_capture\",\n      \"cycles\": {},\n      \"uncaptured\": {{ \"wall_secs\": {:.6}, \"cycles_per_sec\": {:.0} }},\n      \"captured\": {{ \"wall_secs\": {:.6}, \"cycles_per_sec\": {:.0} }},\n      \"speedup\": {:.2}\n    }},",
        exch_captured.cycles,
        exch_event.wall_secs,
        exch_event.cycles_per_sec(),
        exch_captured.wall_secs,
        exch_captured.cycles_per_sec(),
        capture_ratio,
    );
    println!(
        "exchange64_replay_capture uncaptured {:>10.0} cyc/s   captured {:>10.0} cyc/s   ratio {capture_ratio:.2}x",
        exch_event.cycles_per_sec(),
        exch_captured.cycles_per_sec(),
    );
    // Strip the trailing comma to keep the JSON valid.
    let trimmed = out.trim_end_matches(",\n").to_string();
    let mut body = format!("{trimmed}\n  ]");
    if trace {
        // Both sides of the ratio are millisecond-scale runs, so one pair is
        // mostly scheduler noise (bench_gate holds the ratio to a ceiling):
        // take the best of several, interleaved so host drift hits both.
        let mut untraced = ring_event.cycles_per_sec();
        let (mut traced, trace_hash) =
            run_traced(ring_program(ring_rounds), ring_nodes, 500_000_000);
        for _ in 0..6 {
            let plain = run_to_quiescence(
                ring_program(ring_rounds),
                ring_nodes,
                Engine::Event,
                500_000_000,
            );
            untraced = untraced.max(plain.cycles_per_sec());
            let (again, hash) = run_traced(ring_program(ring_rounds), ring_nodes, 500_000_000);
            assert_eq!(hash, trace_hash, "trace hash must repeat");
            if again.cycles_per_sec() > traced.cycles_per_sec() {
                traced = again;
            }
        }
        assert_eq!(
            traced.cycles, ring_event.cycles,
            "tracing must not change the quiescence cycle"
        );
        let overhead = untraced / traced.cycles_per_sec() - 1.0;
        println!(
            "ring64_traced            event {:>12.0} cyc/s   tracing overhead {:.0}%   trace hash {trace_hash:016x}",
            traced.cycles_per_sec(),
            overhead * 100.0,
        );
        let _ = write!(
            body,
            ",\n  \"tracing\": {{ \"workload\": \"ring64_idle_dominated\", \"cycles_per_sec\": {:.0}, \"overhead_vs_untraced\": {:.3}, \"trace_hash\": \"{trace_hash:016x}\" }}",
            traced.cycles_per_sec(),
            overhead,
        );
    }
    if threads {
        let sweep = jm_bench::threads::sweep(exch_nodes, exch_cycles, &[1, 2, 4]);
        print!("{}", jm_bench::threads::render(&sweep));
        let _ = write!(
            body,
            ",\n  \"threads\": {}",
            jm_bench::threads::render_json(&sweep)
        );
        let four = sweep.speedup(4).expect("4-thread point");
        if sweep.host_cpus >= 4 {
            assert!(
                four >= 1.5,
                "4-thread speedup {four:.2}x below the 1.5x floor on a {}-CPU host",
                sweep.host_cpus
            );
        } else {
            // The `::warning::` line renders as a loud annotation on GitHub
            // Actions (and is a harmless log line anywhere else): skipping
            // the floor on an undersized host must never look like a pass.
            println!(
                "::warning title=thread-scaling floor skipped::host has {} CPU(s) (< 4); \
                 the 1.5x 4-thread floor is not enforced ({four:.2}x measured)",
                sweep.host_cpus
            );
            println!(
                "note: host has {} CPU(s); the 1.5x 4-thread floor ({four:.2}x measured) is not enforced",
                sweep.host_cpus
            );
        }
    }
    let body = format!("{body}\n}}\n");
    std::fs::write(&out_path, &body).expect("write BENCH_engine.json");
    println!("wrote {out_path}");

    let speedup = ring_event.cycles_per_sec() / ring_naive.cycles_per_sec();
    assert!(
        speedup >= 2.0,
        "idle-dominated speedup {speedup:.2}x below the 2x acceptance floor"
    );
}
