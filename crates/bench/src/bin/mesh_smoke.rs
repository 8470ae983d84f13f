//! Large-mesh scaling bench: a bounded load-dominated run on a big cube,
//! executed under the event engine and the parallel engine at several
//! quantum lengths, with a digest diff across every row.
//!
//! Usage: `mesh_smoke [--nodes N] [--cycles C] [--threads T] [--digest PATH]`
//!
//! Defaults: a 16×16×16 mesh (4096 nodes), 5 000 cycles, 4 worker threads.
//! Every node runs the Figure-3 exchange loop, so the whole mesh is busy
//! every cycle — the regime ROADMAP's scaling work targets. The run is
//! bounded by cycle count, not quiescence, so its cost is predictable on a
//! scheduled CI job.
//!
//! Three rows run: `event`, `parallel-T` at quantum 1 (a decide every
//! cycle — the old barrier engine's cadence, and the worst case for the
//! crew scheduler), and `parallel-T` at the auto quantum (the shipped
//! default). The binary is its own gate: every row's full machine
//! statistics are hashed (FNV-1a over the debug rendering, the same
//! fingerprint style as the determinism digests) and compared; any
//! divergence — a non-deterministic parallel tick, a sharding-dependent
//! network path, a quantum-boundary bug — exits nonzero. `--digest`
//! writes the digest line to a file so a workflow can additionally diff
//! across runs or days. Peak RSS is reported per process so the 16³
//! footprint stays visible run over run.

use jm_machine::{Engine, HostTuning, JMachine, MachineConfig, StartPolicy};
use std::process::ExitCode;

/// FNV-1a over a byte string (the workspace's standard tiny fingerprint).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nodes: u32 = arg(&args, "--nodes").map_or(4096, |v| v.parse().expect("--nodes"));
    let cycles: u64 = arg(&args, "--cycles").map_or(5_000, |v| v.parse().expect("--cycles"));
    let threads: u32 = arg(&args, "--threads").map_or(4, |v| v.parse().expect("--threads"));
    let digest_path = arg(&args, "--digest");

    // (label, engine, quantum): quantum 0 is the auto default.
    let rows = [
        ("event".to_string(), Engine::Event, 0u32),
        (
            format!("parallel-{threads}-q1"),
            Engine::Parallel(threads),
            1,
        ),
        (
            format!("parallel-{threads}-qauto"),
            Engine::Parallel(threads),
            0,
        ),
    ];
    let mut lines = Vec::new();
    for (label, engine, quantum) in rows {
        let mut m = JMachine::new(
            jm_bench::micro::load::debug_program(4, 20),
            MachineConfig::new(nodes)
                .start(StartPolicy::AllNodes)
                .engine(engine)
                .tuning(HostTuning {
                    quantum,
                    ..HostTuning::default()
                }),
        );
        let start = std::time::Instant::now();
        m.run(cycles);
        let wall = start.elapsed().as_secs_f64();
        let stats = m.stats();
        let digest = fnv1a(format!("{stats:?}").as_bytes());
        println!(
            "{label:<18} {nodes} nodes  {cycles} cycles  {:.2}s wall  {:.0} cyc/s  stats digest {digest:016x}",
            wall,
            cycles as f64 / wall.max(1e-9),
        );
        lines.push((label, digest));
    }
    println!("peak rss: {} MiB", jm_bench::harness::peak_rss_mib());

    // The cross-engine digest diff is the gate.
    let (ref base_label, base) = lines[0];
    let mut ok = true;
    for (label, digest) in &lines[1..] {
        if *digest != base {
            eprintln!(
                "[FAIL] {label} digest {digest:016x} != {base_label} digest {base:016x}: \
                 engines diverged on the large mesh"
            );
            ok = false;
        }
    }
    if let Some(path) = digest_path {
        let body = format!(
            "mesh_smoke nodes={nodes} cycles={cycles} digest={base:016x} peak_rss_mib={}\n",
            jm_bench::harness::peak_rss_mib()
        );
        std::fs::write(&path, body).expect("write digest file");
    }
    if !ok {
        return ExitCode::FAILURE;
    }
    println!("mesh smoke passed: engines bit-identical at {nodes} nodes");
    ExitCode::SUCCESS
}
