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

use crate::rows::Row;
use crate::traffic::MSG_WORDS;
use crate::workloads::sink_program;
use jm_apps::lcs;
use jm_isa::consts::FaultKind;
use jm_isa::node::{MeshDims, NodeId};
use jm_machine::{Engine, FaultSpec, JMachine, MachineConfig, StartPolicy, TrafficSpec};
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

/// One point of the goodput curve.
#[derive(Debug, Clone, Copy)]
pub struct GoodputPoint {
    /// Flaky-link block probability, parts per million.
    pub flaky_ppm: u32,
    /// Payload words delivered within the cycle budget.
    pub delivered_words: u64,
    /// Whole messages delivered within the cycle budget.
    pub delivered_msgs: u64,
    /// Channel moves suppressed by the fault plan.
    pub blocked_moves: u64,
    /// The fixed cycle budget.
    pub cycles: u64,
}

impl GoodputPoint {
    /// Goodput: delivered payload words per network cycle.
    pub fn words_per_cycle(&self) -> f64 {
        self.delivered_words as f64 / self.cycles as f64
    }
}

/// One point of the LCS completion-time curve.
#[derive(Debug, Clone, Copy)]
pub struct InflationPoint {
    /// Flaky-link block probability, parts per million.
    pub flaky_ppm: u32,
    /// Cycles to quiescence (answer validated against the host).
    pub cycles: u64,
    /// Channel moves suppressed by the fault plan.
    pub blocked_moves: u64,
}

/// One point of the reliable-RPC retry curve.
#[derive(Debug, Clone, Copy)]
pub struct RpcPoint {
    /// Payload-corruption probability, parts per million.
    pub corrupt_ppm: u32,
    /// Cycles to quiescence (counter validated exact).
    pub cycles: u64,
    /// Watchdog-triggered resends observed at the client.
    pub retries: i64,
    /// Messages dropped whole by checksum validation.
    pub dropped: u64,
    /// Words the fault plan corrupted at ejection.
    pub corrupted_words: u64,
}

/// The three curves of one sweep, plus the seed that produced them.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Fault-plan seed all three curves share.
    pub seed: u64,
    /// Goodput curve.
    pub goodput: Vec<GoodputPoint>,
    /// LCS completion-time curve.
    pub lcs: Vec<InflationPoint>,
    /// Reliable-RPC retry curve.
    pub rpc: Vec<RpcPoint>,
}

/// Offered load of the goodput runs: one flit per node per cycle — the
/// injection port's full rate, about three times the uniform-random knee
/// (`BENCH_traffic.json`) — so delivered words per cycle measures what the
/// network can still carry under the fault plan.
const GOODPUT_LOAD_PPM: u32 = 1_000_000;

/// Measures goodput under saturating uniform-random traffic for each rate
/// in [`FLAKY_PPM`]: a 32-node machine under `engine` whose nodes run the
/// sink handler while `jm-traffic` offers [`GOODPUT_LOAD_PPM`] for `cycles`
/// cycles.
pub fn goodput_sweep(engine: Engine, seed: u64, cycles: u64) -> Vec<GoodputPoint> {
    FLAKY_PPM
        .iter()
        .map(|&ppm| goodput_point(engine, seed, ppm, cycles))
        .collect()
}

fn goodput_point(engine: Engine, seed: u64, flaky_ppm: u32, cycles: u64) -> GoodputPoint {
    let program = sink_program();
    let traffic = TrafficSpec::new(seed)
        .load(GOODPUT_LOAD_PPM)
        .msg_words(MSG_WORDS)
        .handler(program.handler("sink"));
    let config = MachineConfig::with_dims(MeshDims::new(4, 4, 2))
        .start(StartPolicy::None)
        .engine(engine)
        .traffic(traffic)
        .fault(FaultSpec::new(seed).flaky(flaky_ppm));
    let mut m = JMachine::new(program, config);
    m.run(cycles);
    let net = m.stats().net;
    GoodputPoint {
        flaky_ppm,
        delivered_words: net.delivered_words,
        delivered_msgs: net.delivered_msgs,
        blocked_moves: net.faults.blocked_moves,
        cycles,
    }
}

/// Runs LCS end to end for each rate in [`LCS_FLAKY_PPM`] and records
/// time-to-solution. The plan is delay-only plus checksum trailers (so
/// the wire format matches the chaos runs); the app's internal assert
/// guarantees the answer stayed exact at every point.
pub fn lcs_sweep(engine: Engine, seed: u64) -> Vec<InflationPoint> {
    // One character per node: the handler does almost no arithmetic, so
    // the systolic forwarding chain is latency-bound and link faults land
    // on the critical path instead of hiding behind compute.
    let cfg = lcs::LcsConfig {
        a_len: 8,
        b_len: 512,
        seed: 0x1c5,
        alphabet: 4,
    };
    LCS_FLAKY_PPM
        .iter()
        .map(|&ppm| {
            let spec = FaultSpec::new(seed).flaky(ppm).checksums(true);
            let mcfg = MachineConfig::new(8).engine(engine).fault(spec);
            let run =
                lcs::run(mcfg, &cfg, 4_000_000_000).expect("LCS completes under delay faults");
            InflationPoint {
                flaky_ppm: ppm,
                cycles: run.cycles,
                blocked_moves: run.stats.net.faults.blocked_moves,
            }
        })
        .collect()
}

/// Runs the reliable-RPC demo for each rate in [`CORRUPT_PPM`] and
/// records the retry cost. Panics if the replicated counter is not exact
/// — that would mean lost or double-applied increments.
pub fn rpc_sweep(engine: Engine, seed: u64) -> Vec<RpcPoint> {
    const CALLS: i32 = 6;
    CORRUPT_PPM
        .iter()
        .map(|&ppm| {
            let p = reliable::demo_program(CALLS, 7);
            let count = p.segment(reliable::COUNT);
            let retries = p.segment(reliable::RETRIES);
            let spec = FaultSpec::new(seed).corrupt(ppm).checksums(true);
            let mut m = JMachine::new(p, MachineConfig::new(8).engine(engine).fault(spec));
            let cycles = m
                .run_until_quiescent(50_000_000)
                .expect("reliable RPC completes under corruption");
            let got = m.read_word(NodeId(7), count.base).as_i32();
            assert_eq!(got, CALLS, "counter drifted at {ppm} ppm corruption");
            let stats = m.stats();
            RpcPoint {
                corrupt_ppm: ppm,
                cycles,
                retries: i64::from(m.read_word(NodeId(0), retries.base).as_i32()),
                dropped: stats.nodes.faults[FaultKind::CorruptMessage.vector() as usize],
                corrupted_words: stats.net.faults.corrupted_words,
            }
        })
        .collect()
}

/// Runs all three sweeps with one seed, every machine under `engine`.
pub fn sweep(engine: Engine, seed: u64, goodput_cycles: u64) -> FaultReport {
    FaultReport {
        seed,
        goodput: goodput_sweep(engine, seed, goodput_cycles),
        lcs: lcs_sweep(engine, seed),
        rpc: rpc_sweep(engine, seed),
    }
}

impl FaultReport {
    /// Checks the degradation curves for weak monotonicity (with
    /// [`SLACK`] relative tolerance): goodput must not rise and LCS
    /// completion time must not fall as the fault rate grows, and the
    /// heaviest corruption point must actually have exercised the retry
    /// path. Returns every violation found.
    pub fn check_monotone(&self) -> Result<(), Vec<String>> {
        let mut bad = Vec::new();
        for pair in self.goodput.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            if hi.words_per_cycle() > lo.words_per_cycle() * (1.0 + SLACK) {
                bad.push(format!(
                    "goodput rose with fault rate: {:.4} w/cyc at {} ppm vs {:.4} at {} ppm",
                    hi.words_per_cycle(),
                    hi.flaky_ppm,
                    lo.words_per_cycle(),
                    lo.flaky_ppm
                ));
            }
        }
        for pair in self.lcs.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            if (hi.cycles as f64) < lo.cycles as f64 * (1.0 - SLACK) {
                bad.push(format!(
                    "LCS sped up with fault rate: {} cycles at {} ppm vs {} at {} ppm",
                    hi.cycles, hi.flaky_ppm, lo.cycles, lo.flaky_ppm
                ));
            }
        }
        if let Some(last) = self.rpc.last() {
            if last.retries == 0 || last.dropped == 0 {
                bad.push(format!(
                    "corruption at {} ppm exercised no retries ({} drops)",
                    last.corrupt_ppm, last.dropped
                ));
            }
        }
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
        }
    }

    /// The report as `BENCH_fault.json` rows: every value is simulated
    /// state, so the file is the same on every host and engine.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = vec![Row::simulated("fault", "seed", self.seed as f64, "")];
        let mut push = |name: &str, metric: &str, value: f64, unit: &str| {
            rows.push(Row::simulated(name, metric, value, unit));
        };
        for p in &self.goodput {
            let name = format!("fault/goodput/{}", p.flaky_ppm);
            push(&name, "delivered_words", p.delivered_words as f64, "words");
            push(&name, "delivered_msgs", p.delivered_msgs as f64, "msgs");
            push(&name, "blocked_moves", p.blocked_moves as f64, "moves");
            push(&name, "cycles", p.cycles as f64, "cycles");
            push(&name, "words_per_cycle", p.words_per_cycle(), "words/cycle");
        }
        let base = self.lcs.first().map_or(1, |p| p.cycles).max(1);
        for p in &self.lcs {
            let name = format!("fault/lcs/{}", p.flaky_ppm);
            push(&name, "cycles", p.cycles as f64, "cycles");
            push(&name, "blocked_moves", p.blocked_moves as f64, "moves");
            push(&name, "inflation", p.cycles as f64 / base as f64, "x");
        }
        for p in &self.rpc {
            let name = format!("fault/rpc/{}", p.corrupt_ppm);
            push(&name, "cycles", p.cycles as f64, "cycles");
            push(&name, "retries", p.retries as f64, "msgs");
            push(&name, "dropped", p.dropped as f64, "msgs");
            push(&name, "corrupted_words", p.corrupted_words as f64, "words");
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_degrades_with_fault_rate() {
        let clean = goodput_point(Engine::Event, 42, 0, 2_000);
        let faulty = goodput_point(Engine::Event, 42, 200_000, 2_000);
        assert!(clean.delivered_words > 0);
        assert_eq!(clean.blocked_moves, 0);
        assert!(faulty.blocked_moves > 0);
        assert!(
            faulty.words_per_cycle() <= clean.words_per_cycle() * (1.0 + SLACK),
            "goodput did not degrade: clean {:.4}, faulty {:.4}",
            clean.words_per_cycle(),
            faulty.words_per_cycle()
        );
    }

    #[test]
    fn goodput_point_is_deterministic() {
        let a = goodput_point(Engine::Event, 7, 50_000, 1_000);
        let b = goodput_point(Engine::Parallel(2), 7, 50_000, 1_000);
        assert_eq!(a.delivered_words, b.delivered_words);
        assert_eq!(a.blocked_moves, b.blocked_moves);
    }
}
