//! Degradation sweeps under deterministic fault injection.
//!
//! Three curves, all driven by seeded `jm-fault` plans so every point is
//! reproducible bit-for-bit on any engine:
//!
//! * **Goodput vs. flaky-link rate** — a 32-node machine of sink handlers
//!   under saturating uniform-random `jm-traffic`; goodput is delivered
//!   words per cycle and must fall (weakly) as the per-port-cycle block
//!   probability rises.
//! * **Completion-cycle inflation vs. flaky-link rate** — the LCS
//!   application end to end; delay faults are lossless backpressure, so
//!   the answer stays exact while time-to-solution stretches.
//! * **Retry cost vs. corruption rate** — the reliable-RPC demo from
//!   `jm_runtime::reliable`; corrupted messages are dropped whole at
//!   dispatch and the watchdog resends, so the counter stays exact while
//!   retries and dropped messages climb.
//!
//! `jmsim faults` (and `jmsim repro`) tabulate the rows, hold the curves
//! to weak monotonicity, and write `BENCH_fault.json` through
//! [`crate::rows`].

use crate::registry::{Ctx, Point, APP_CYCLES};
use crate::rows::{line, value, Row};
use crate::traffic::MSG_WORDS;
use crate::workloads::sink_program;
use jm_apps::lcs;
use jm_isa::consts::FaultKind;
use jm_isa::node::{MeshDims, NodeId};
use jm_machine::{FaultSpec, MachineConfig, MachineError, StartPolicy, TrafficSpec};
use jm_runtime::reliable;

/// Flaky-link rates swept (parts per million per port-cycle draw).
pub const FLAKY_PPM: [u32; 5] = [0, 20_000, 50_000, 100_000, 200_000];

/// Flaky-link rates for the LCS completion-time sweep. The systolic
/// pipeline hides link delay until the blocked link becomes the
/// throughput bottleneck, so this ladder reaches much higher than
/// [`FLAKY_PPM`] to show the knee of the curve.
pub const LCS_FLAKY_PPM: [u32; 5] = [0, 400_000, 600_000, 800_000, 900_000];

/// Payload-corruption rates swept (parts per million per ejected word).
pub const CORRUPT_PPM: [u32; 4] = [0, 10_000, 30_000, 60_000];

/// Relative slack for the weak-monotonicity gates: simulation noise from
/// routing perturbation may wiggle a point by a percent or two without
/// the curve being wrong.
pub const SLACK: f64 = 0.02;

/// Offered load of the goodput runs: one flit per node per cycle — the
/// injection port's full rate, about three times the uniform-random knee
/// (`BENCH_traffic.json`) — so delivered words per cycle measures what the
/// network can still carry under the fault plan.
const GOODPUT_LOAD_PPM: u32 = 1_000_000;

/// Cycles of one goodput run.
const GOODPUT_CYCLES: u64 = 20_000;

/// One goodput point, `fault/goodput/<ppm>`: a 32-node machine whose nodes
/// run the sink handler while `jm-traffic` offers `GOODPUT_LOAD_PPM` of
/// uniform-random traffic for `cycles` cycles, links flaky at `flaky_ppm`.
/// Goodput is delivered payload words per network cycle.
pub fn goodput(seed: u64, flaky_ppm: u32, cycles: u64) -> Point {
    let program = sink_program();
    let traffic = TrafficSpec::new(seed)
        .load(GOODPUT_LOAD_PPM)
        .msg_words(MSG_WORDS)
        .handler(program.handler("sink"));
    let config = MachineConfig::with_dims(MeshDims::new(4, 4, 2))
        .start(StartPolicy::None)
        .traffic(traffic)
        .fault(FaultSpec::new(seed).flaky(flaky_ppm));
    Point::new(program, config, move |m| {
        m.run(cycles);
        let net = m.stats().net;
        let words_per_cycle = net.delivered_words as f64 / cycles as f64;
        let numbers = [
            ("delivered_words", net.delivered_words as f64, "words"),
            ("delivered_msgs", net.delivered_msgs as f64, "msgs"),
            ("blocked_moves", net.faults.blocked_moves as f64, "moves"),
            ("cycles", cycles as f64, "cycles"),
            ("words_per_cycle", words_per_cycle, "words/cycle"),
        ];
        Ok(line(&format!("fault/goodput/{flaky_ppm}"), &numbers))
    })
}

/// One reliable-RPC point, `fault/rpc/<ppm>`: six calls under payload
/// corruption at `corrupt_ppm`, and what they cost in retries. Panics if
/// the replicated counter is not exact — that would mean lost or
/// double-applied increments.
fn rpc(seed: u64, corrupt_ppm: u32) -> Point {
    const CALLS: i32 = 6;
    let p = reliable::demo_program(CALLS, 7);
    let count = p.segment(reliable::COUNT);
    let retries = p.segment(reliable::RETRIES);
    let spec = FaultSpec::new(seed).corrupt(corrupt_ppm).checksums(true);
    Point::new(p, MachineConfig::new(8).fault(spec), move |m| {
        let cycles = m.run_until_quiescent(50_000_000)?;
        let got = m.read_word(NodeId(7), count.base).as_i32();
        assert_eq!(
            got, CALLS,
            "counter drifted at {corrupt_ppm} ppm corruption"
        );
        let stats = m.stats();
        let retries = m.read_word(NodeId(0), retries.base).as_i32();
        let dropped = stats.nodes.faults[FaultKind::CorruptMessage.vector() as usize];
        let corrupted = stats.net.faults.corrupted_words;
        let numbers = [
            ("cycles", cycles as f64, "cycles"),
            ("retries", f64::from(retries), "msgs"),
            ("dropped", dropped as f64, "msgs"),
            ("corrupted_words", corrupted as f64, "words"),
        ];
        Ok(line(&format!("fault/rpc/{corrupt_ppm}"), &numbers))
    })
}

/// The three curves under one seed as `BENCH_fault.json` rows — every
/// value is simulated state, so the file is the same on every host and
/// engine — with their shape held by `check`. LCS runs end to end for
/// each rate in [`LCS_FLAKY_PPM`] under a delay-only plan plus checksum
/// trailers (so the wire format matches the chaos runs); the app's own
/// assert guarantees the answer stayed exact, and `inflation` is its
/// time-to-solution over the fault-free run's.
///
/// # Errors
///
/// Propagates machine failures.
pub fn faults(ctx: &mut Ctx, _: u32) -> Result<Vec<Row>, MachineError> {
    let seed = ctx.seed;
    let mut rows = vec![Row::simulated("fault", "seed", seed as f64, "")];
    let goodput = FLAKY_PPM.map(|ppm| goodput(seed, ppm, GOODPUT_CYCLES));
    rows.extend(ctx.run_all(goodput.into())?.concat());
    // One character per node: the handler does almost no arithmetic, so
    // the systolic forwarding chain is latency-bound and link faults land
    // on the critical path instead of hiding behind compute.
    let cfg = lcs::LcsConfig {
        a_len: 8,
        b_len: 512,
        seed: 0x1c5,
        alphabet: 4,
    };
    let mut base = None;
    for ppm in LCS_FLAKY_PPM {
        let spec = FaultSpec::new(seed).flaky(ppm).checksums(true);
        let mcfg = ctx.config(MachineConfig::new(8).fault(spec));
        let run = lcs::run(mcfg, &cfg, APP_CYCLES)?;
        let base = *base.get_or_insert(run.cycles.max(1));
        let numbers = [
            ("cycles", run.cycles as f64, "cycles"),
            (
                "blocked_moves",
                run.stats.net.faults.blocked_moves as f64,
                "moves",
            ),
            ("inflation", run.cycles as f64 / base as f64, "x"),
        ];
        rows.extend(line(&format!("fault/lcs/{ppm}"), &numbers));
    }
    let rpc = CORRUPT_PPM.map(|ppm| rpc(seed, ppm));
    rows.extend(ctx.run_all(rpc.into())?.concat());
    ctx.verdict.shape("fault", check(&rows));
    Ok(rows)
}

/// Holds the degradation curves of `rows` to weak monotonicity (with
/// [`SLACK`] relative tolerance): goodput must not rise and LCS completion
/// time must not fall as the fault rate grows, and the heaviest corruption
/// point must actually have exercised the retry path. Returns every
/// violation found.
fn check(rows: &[Row]) -> Vec<String> {
    let at = |curve: &str, ppm: u32, metric| {
        value(rows, &format!("fault/{curve}/{ppm}"), metric).expect("a point of the sweep")
    };
    let mut bad = Vec::new();
    for pair in FLAKY_PPM.windows(2) {
        let [lo, hi] = [pair[0], pair[1]].map(|ppm| at("goodput", ppm, "words_per_cycle"));
        if hi > lo * (1.0 + SLACK) {
            bad.push(format!(
                "goodput rose with fault rate: {hi:.4} w/cyc at {} ppm vs {lo:.4} at {} ppm",
                pair[1], pair[0]
            ));
        }
    }
    for pair in LCS_FLAKY_PPM.windows(2) {
        let [lo, hi] = [pair[0], pair[1]].map(|ppm| at("lcs", ppm, "cycles"));
        if hi < lo * (1.0 - SLACK) {
            bad.push(format!(
                "LCS sped up with fault rate: {hi} cycles at {} ppm vs {lo} at {} ppm",
                pair[1], pair[0]
            ));
        }
    }
    let last = CORRUPT_PPM[CORRUPT_PPM.len() - 1];
    let dropped = at("rpc", last, "dropped");
    if at("rpc", last, "retries") == 0.0 || dropped == 0.0 {
        bad.push(format!(
            "corruption at {last} ppm exercised no retries ({dropped} drops)"
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::metric;
    use jm_machine::Engine;

    /// One goodput point's rows on `engine`.
    fn point(engine: Engine, seed: u64, flaky_ppm: u32, cycles: u64) -> Vec<Row> {
        let ctx = Ctx::new(engine, false, seed);
        ctx.run(goodput(seed, flaky_ppm, cycles)).unwrap()
    }

    #[test]
    fn goodput_degrades_with_fault_rate() {
        let clean = point(Engine::Event, 42, 0, 2_000);
        let faulty = point(Engine::Event, 42, 200_000, 2_000);
        assert!(metric(&clean, "delivered_words") > 0.0);
        assert_eq!(metric(&clean, "blocked_moves"), 0.0);
        assert!(metric(&faulty, "blocked_moves") > 0.0);
        let (clean, faulty) = (
            metric(&clean, "words_per_cycle"),
            metric(&faulty, "words_per_cycle"),
        );
        assert!(
            faulty <= clean * (1.0 + SLACK),
            "goodput did not degrade: clean {clean:.4}, faulty {faulty:.4}"
        );
    }

    #[test]
    fn goodput_point_is_deterministic() {
        let a = point(Engine::Event, 7, 50_000, 1_000);
        let b = point(Engine::Parallel(2), 7, 50_000, 1_000);
        assert_eq!(a, b);
    }
}
