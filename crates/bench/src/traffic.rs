//! Saturation-throughput curves for the synthetic traffic patterns.
//!
//! For each destination pattern of `jm-traffic`, a ladder of offered loads
//! (flits per node per cycle, in parts per million) is run through a
//! **warmup / measure / drain** protocol on a 4×4×4 mesh:
//!
//! * **warmup** — the first [`WARMUP`] cycles are simulated but excluded
//!   from measurement, so FIFO and queue occupancies reach steady state;
//! * **measure** — counters over the next [`MEASURE`] cycles (a
//!   [`jm_machine::MachineStats`] delta) give offered/accepted/dropped
//!   message counts and the accepted throughput;
//! * **drain** — the traffic window closes and the run continues to
//!   quiescence, so every accepted message is delivered and end-to-end
//!   latencies are complete, not censored at a cutoff.
//!
//! Each point is one traced run: counters and latencies come from the same
//! machine, the latencies from its lifecycle trace windowed to messages
//! *injected* during the measure phase via
//! [`jm_trace::MachineTrace::breakdown_window`].
//!
//! The **saturation knee** of a curve is the highest offered load the
//! network still accepts nearly in full (acceptance ratio at least
//! [`KNEE_ACCEPT_RATIO`]), scanning the ladder in order and stopping at
//! the first violation. `jmsim traffic` (and `jmsim repro`) tabulate the
//! rows, hold the curves to their shape and the knees to their floors
//! ([`crate::baselines`]), and write `BENCH_traffic.json` through
//! [`crate::rows`].

use crate::registry::{Ctx, Point};
use crate::rows::{line, Row};
use crate::workloads::sink_program;
use jm_isa::node::MeshDims;
use jm_machine::{
    MachineConfig, MachineError, StartPolicy, TraceConfig, TrafficPattern, TrafficSpec,
};

/// Offered-load ladder, flits per node per cycle in parts per million.
pub const LOAD_PPM: [u32; 8] = [
    50_000, 100_000, 150_000, 200_000, 300_000, 450_000, 650_000, 900_000,
];

/// The five destination patterns, in report order.
pub const PATTERNS: [TrafficPattern; 5] = [
    TrafficPattern::UniformRandom,
    TrafficPattern::Transpose,
    TrafficPattern::BitReversal,
    TrafficPattern::Hotspot {
        weight_ppm: 300_000,
    },
    TrafficPattern::NearestNeighbor,
];

/// Cycles excluded from measurement while occupancies reach steady state.
pub const WARMUP: u64 = 1_000;

/// Cycles of the measurement window.
pub const MEASURE: u64 = 4_000;

/// Cycle budget for draining to quiescence after the window closes.
pub const DRAIN_LIMIT: u64 = 4_000_000;

/// Payload words per generated message (wire length `2*(words+1)` flits).
pub const MSG_WORDS: u32 = 3;

/// Minimum acceptance ratio for a load point to count as below the knee.
pub const KNEE_ACCEPT_RATIO: f64 = 0.95;

/// Relative slack for the weak-monotonicity gate below saturation, where
/// accepted throughput must track offered load almost exactly.
pub const SLACK: f64 = 0.05;

/// Relative slack between adjacent points past saturation. Accepted
/// throughput may *degrade* once a pattern saturates — hotspot tree
/// saturation is the textbook case — but only gently per ladder step.
pub const POST_SAT_SLACK: f64 = 0.15;

/// Collapse floor: no post-saturation point may fall below this fraction
/// of the curve's peak accepted throughput.
pub const COLLAPSE_FLOOR: f64 = 0.70;

/// Flits on the wire per generated message.
pub fn flits_per_msg() -> u64 {
    2 * (u64::from(MSG_WORDS) + 1)
}

/// One measured point of a saturation curve.
#[derive(Debug, Clone, Copy)]
pub struct TrafficPoint {
    /// Offered load, flits per node per cycle in parts per million.
    pub load_ppm: u32,
    /// Messages the Bernoulli process offered during the measure window.
    pub offered_msgs: u64,
    /// Offered messages accepted into injection FIFOs.
    pub accepted_msgs: u64,
    /// Offered messages refused (FIFO backpressure) and dropped.
    pub dropped_msgs: u64,
    /// Messages delivered during the measure window (includes warmup
    /// stragglers; a steady-state boundary effect, not double counting).
    pub delivered_msgs: u64,
    /// Length of the measure window in cycles.
    pub measure_cycles: u64,
    /// Cycles from the end of the measure window to quiescence.
    pub drain_cycles: u64,
    /// Mean end-to-end latency (inject → dispatch) of messages injected
    /// during the measure window.
    pub latency_mean: f64,
    /// Median end-to-end latency (log₂-bucket upper bound).
    pub latency_p50: u64,
    /// 99th-percentile end-to-end latency (log₂-bucket upper bound).
    pub latency_p99: u64,
    /// Worst end-to-end latency.
    pub latency_max: u64,
    /// Messages the latency histogram covers.
    pub latency_count: u64,
}

impl TrafficPoint {
    /// Accepted throughput: flits per node per cycle actually injected.
    pub fn accepted_throughput(&self, nodes: u32) -> f64 {
        self.accepted_msgs as f64 * flits_per_msg() as f64
            / (f64::from(nodes) * self.measure_cycles as f64)
    }

    /// Fraction of offered messages accepted (1.0 when nothing was
    /// offered — a vacuously unsaturated point).
    pub fn accept_ratio(&self) -> f64 {
        if self.offered_msgs == 0 {
            1.0
        } else {
            self.accepted_msgs as f64 / self.offered_msgs as f64
        }
    }

    /// The point's counters as rows named `name`, on a `nodes`-node mesh.
    pub fn rows(&self, name: &str, nodes: u32) -> Vec<Row> {
        let thru = self.accepted_throughput(nodes);
        let numbers = [
            ("offered_msgs", self.offered_msgs as f64, "msgs"),
            ("accepted_msgs", self.accepted_msgs as f64, "msgs"),
            ("dropped_msgs", self.dropped_msgs as f64, "msgs"),
            ("delivered_msgs", self.delivered_msgs as f64, "msgs"),
            ("throughput", thru, "flits/node/cycle"),
            ("latency_mean", self.latency_mean, "cycles"),
            ("latency_p50", self.latency_p50 as f64, "cycles"),
            ("latency_p99", self.latency_p99 as f64, "cycles"),
            ("latency_max", self.latency_max as f64, "cycles"),
            ("latency_count", self.latency_count as f64, "msgs"),
            ("drain_cycles", self.drain_cycles as f64, "cycles"),
        ];
        line(name, &numbers)
    }
}

/// The saturation knee of a curve (one point per ladder entry, in
/// [`LOAD_PPM`] order): the highest offered load (ppm) whose acceptance
/// ratio — and that of every lighter load — is at least
/// [`KNEE_ACCEPT_RATIO`], and its accepted throughput (flits/node/cycle).
/// Zero if even the lightest load saturates.
pub fn knee(points: &[TrafficPoint], nodes: u32) -> (u32, f64) {
    let below = points
        .iter()
        .take_while(|p| p.accept_ratio() >= KNEE_ACCEPT_RATIO);
    below
        .last()
        .map_or((0, 0.0), |p| (p.load_ppm, p.accepted_throughput(nodes)))
}

/// One load point on a `dims` mesh of sink handlers: one traced run,
/// warmup, measure, drain.
pub fn point(
    seed: u64,
    dims: MeshDims,
    pattern: TrafficPattern,
    load_ppm: u32,
) -> Point<TrafficPoint> {
    let program = sink_program();
    let spec = TrafficSpec::new(seed)
        .pattern(pattern)
        .load(load_ppm)
        .msg_words(MSG_WORDS)
        .window(0, WARMUP + MEASURE)
        .handler(program.handler("sink"));
    let config = MachineConfig::with_dims(dims)
        .start(StartPolicy::None)
        .traffic(spec)
        .trace(TraceConfig::on().sample_every(1 << 20));
    Point::new(program, config, move |m| {
        m.run(WARMUP);
        let warm = m.stats();
        m.run(MEASURE);
        let window = m.stats().net.since(&warm.net);
        let drain_cycles = m.run_until_quiescent(DRAIN_LIMIT)?;
        let trace = m.take_trace().expect("tracing was enabled");
        let lat = trace.breakdown_window(WARMUP, WARMUP + MEASURE).end_to_end;
        Ok(TrafficPoint {
            load_ppm,
            offered_msgs: window.traffic.offered_msgs,
            accepted_msgs: window.traffic.accepted_msgs,
            dropped_msgs: window.traffic.dropped_msgs,
            delivered_msgs: window.delivered_msgs,
            measure_cycles: MEASURE,
            drain_cycles,
            latency_mean: lat.mean(),
            latency_p50: lat.quantile(0.50),
            latency_p99: lat.quantile(0.99),
            latency_max: lat.max(),
            latency_count: lat.count(),
        })
    })
}

/// The full ladder for every pattern under one seed on a 4×4×4 mesh, as
/// `BENCH_traffic.json` rows — every value is simulated state, so the file
/// is the same on every host and engine — with the curves' shape held by
/// [`check`].
///
/// # Errors
///
/// Propagates machine failures.
pub fn saturation(ctx: &mut Ctx, _: u32) -> Result<Vec<Row>, MachineError> {
    let (seed, dims) = (ctx.seed, MeshDims::new(4, 4, 4));
    let points = PATTERNS.map(|pattern| LOAD_PPM.map(|load| point(seed, dims, pattern, load)));
    let measured = ctx.run_all(points.into_iter().flatten().collect())?;
    let curves: Vec<_> = PATTERNS
        .into_iter()
        .zip(measured.chunks(LOAD_PPM.len()))
        .collect();
    ctx.verdict.shape("traffic", check(&curves, dims.nodes()));
    let mut rows = header_rows(seed, dims);
    for (pattern, points) in curves {
        let name = format!("traffic/{}", pattern.label());
        let (knee_ppm, knee_throughput) = knee(points, dims.nodes());
        let unit = "flits/node/cycle";
        let knees = [
            ("knee_ppm", knee_ppm.into(), "ppm"),
            ("knee_throughput", knee_throughput, unit),
        ];
        rows.extend(line(&name, &knees));
        for p in points {
            rows.extend(p.rows(&format!("{name}/{}", p.load_ppm), dims.nodes()));
        }
    }
    Ok(rows)
}

/// Checks one curve's shape: below saturation accepted throughput must
/// track offered load (weak monotonicity with [`SLACK`]); past saturation
/// it may degrade — hotspot tree saturation does — but only gently per
/// step ([`POST_SAT_SLACK`]) and never below [`COLLAPSE_FLOOR`] of the
/// curve's running peak. Every point must conserve messages (offered =
/// accepted + dropped) and offered counts must grow with the ladder.
/// Returns every violation found.
pub fn check_curve(label: &str, points: &[TrafficPoint], nodes: u32) -> Vec<String> {
    let mut bad = Vec::new();
    if points.is_empty() {
        bad.push(format!("{label}: curve has no points"));
    }
    for p in points {
        if p.offered_msgs != p.accepted_msgs + p.dropped_msgs {
            bad.push(format!(
                "{label}: offered {} != accepted {} + dropped {} at {} ppm",
                p.offered_msgs, p.accepted_msgs, p.dropped_msgs, p.load_ppm
            ));
        }
    }
    for pair in points.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        if hi.offered_msgs < lo.offered_msgs {
            bad.push(format!(
                "{label}: offered load fell with the ladder: {} msgs at {} ppm vs {} at {} ppm",
                hi.offered_msgs, hi.load_ppm, lo.offered_msgs, lo.load_ppm
            ));
        }
        let slack = if lo.accept_ratio() >= KNEE_ACCEPT_RATIO {
            SLACK
        } else {
            POST_SAT_SLACK
        };
        let (lo_thru, hi_thru) = (lo.accepted_throughput(nodes), hi.accepted_throughput(nodes));
        if hi_thru < lo_thru * (1.0 - slack) {
            bad.push(format!(
                "{label}: accepted throughput fell with offered load: \
                 {hi_thru:.4} f/n/c at {} ppm vs {lo_thru:.4} at {} ppm",
                hi.load_ppm, lo.load_ppm
            ));
        }
    }
    // Collapse check against the *running* peak: a point may sit below a
    // later, higher plateau (the curve still rising), but not far below
    // what lighter loads already achieved.
    let mut peak = 0.0_f64;
    for p in points {
        let thru = p.accepted_throughput(nodes);
        if p.accept_ratio() < KNEE_ACCEPT_RATIO && thru < peak * COLLAPSE_FLOOR {
            bad.push(format!(
                "{label}: post-saturation throughput collapsed: {thru:.4} f/n/c at {} ppm \
                 vs earlier peak {peak:.4}",
                p.load_ppm
            ));
        }
        peak = peak.max(thru);
    }
    bad
}

/// The rows that say what a traffic row file was measured under: the
/// injection seed, the mesh and the warmup / measure protocol.
pub fn header_rows(seed: u64, dims: MeshDims) -> Vec<Row> {
    let numbers = [
        ("seed", seed as f64, ""),
        ("mesh_x", f64::from(dims.x), "nodes"),
        ("mesh_y", f64::from(dims.y), "nodes"),
        ("mesh_z", f64::from(dims.z), "nodes"),
        ("warmup_cycles", WARMUP as f64, "cycles"),
        ("measure_cycles", MEASURE as f64, "cycles"),
    ];
    line("traffic", &numbers)
}

/// Checks every curve with [`check_curve`], and that the heaviest hotspot
/// load actually backpressured. Returns every violation found.
pub fn check(curves: &[(TrafficPattern, &[TrafficPoint])], nodes: u32) -> Vec<String> {
    let mut bad = Vec::new();
    for (pattern, points) in curves {
        bad.extend(check_curve(pattern.label(), points, nodes));
        let hotspot = matches!(pattern, TrafficPattern::Hotspot { .. });
        if hotspot && points.last().is_some_and(|p| p.dropped_msgs == 0) {
            bad.push("hotspot: heaviest load never backpressured".to_string());
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_machine::Engine;

    fn point(load_ppm: u32, offered: u64, accepted: u64) -> TrafficPoint {
        TrafficPoint {
            load_ppm,
            offered_msgs: offered,
            accepted_msgs: accepted,
            dropped_msgs: offered - accepted,
            delivered_msgs: accepted,
            measure_cycles: MEASURE,
            drain_cycles: 100,
            latency_mean: 20.0,
            latency_p50: 16,
            latency_p99: 64,
            latency_max: 80,
            latency_count: accepted,
        }
    }

    #[test]
    fn knee_is_the_last_load_before_acceptance_collapses() {
        let points = [
            point(50_000, 1000, 1000),
            point(100_000, 2000, 1995), // 99.75% — above the knee ratio
            point(150_000, 3000, 2400), // 80% — saturated
            point(200_000, 4000, 3990), // recovery past the knee is ignored
        ];
        assert_eq!(knee(&points, 64).0, 100_000);
    }

    #[test]
    fn knee_is_zero_when_even_the_lightest_load_saturates() {
        assert_eq!(knee(&[point(50_000, 1000, 100)], 64), (0, 0.0));
    }

    #[test]
    fn monotonicity_gate_flags_a_falling_curve() {
        let hotspot = TrafficPattern::Hotspot {
            weight_ppm: 300_000,
        };
        let good = [point(50_000, 1000, 1000), point(100_000, 2000, 1800)];
        assert!(check(&[(hotspot, &good)], 64).is_empty());

        let falling = [point(50_000, 1000, 1000), point(100_000, 2000, 600)];
        let violations = check(&[(hotspot, &falling)], 64);
        assert!(
            violations.iter().any(|v| v.contains("throughput fell")),
            "{violations:?}"
        );
    }

    #[test]
    fn traffic_shape_check_flags_violations() {
        let falling = [
            point(50_000, 1000, 1000),
            TrafficPoint {
                dropped_msgs: 1000, // 900 + 1000 != 2000: conservation too
                ..point(100_000, 2000, 900)
            },
        ];
        let bad = check_curve("transpose", &falling, 64);
        assert!(bad.iter().any(|v| v.contains("throughput fell")), "{bad:?}");
        assert!(bad.iter().any(|v| v.contains("offered")), "{bad:?}");
    }

    /// One load point on a 4×4×4 mesh under the event engine.
    fn measure(seed: u64, pattern: TrafficPattern, load_ppm: u32) -> TrafficPoint {
        let ctx = Ctx::new(Engine::Event, false, seed);
        let dims = MeshDims::new(4, 4, 4);
        ctx.run(super::point(seed, dims, pattern, load_ppm))
            .unwrap()
    }

    #[test]
    fn low_load_uniform_point_accepts_everything() {
        let p = measure(7, TrafficPattern::UniformRandom, 50_000);
        assert!(p.offered_msgs > 0);
        assert_eq!(p.dropped_msgs, 0, "50k ppm must be far below saturation");
        assert_eq!(p.offered_msgs, p.accepted_msgs);
        assert_eq!(
            p.latency_count, p.accepted_msgs,
            "every measured message got a latency"
        );
        assert!(p.latency_mean > 0.0);
    }

    #[test]
    fn measure_point_is_deterministic() {
        let a = measure(9, TrafficPattern::Transpose, 200_000);
        let b = measure(9, TrafficPattern::Transpose, 200_000);
        assert_eq!(a.offered_msgs, b.offered_msgs);
        assert_eq!(a.accepted_msgs, b.accepted_msgs);
        assert_eq!(a.drain_cycles, b.drain_cycles);
        assert_eq!(a.latency_p99, b.latency_p99);
    }
}
