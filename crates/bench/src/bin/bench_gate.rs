//! Benchmark regression gate: compares a fresh `engine_perf` run against
//! the committed baseline.
//!
//! Usage: `bench_gate --baseline PATH --current PATH [--tolerance FRAC]
//! [--floor NAME=MIN]... [--floor-margin FRAC] [--ceiling tracing=MAX]`
//!
//! Both inputs are `BENCH_engine.json` documents. For every workload the
//! gate compares the *speedup* (event engine over naive engine) rather
//! than raw cycles/sec: absolute throughput varies with the host CI
//! machine, but the engines run in the same process on the same host, so
//! their ratio is stable. The gate fails when a workload's speedup drops
//! more than `tolerance` (default 0.30 = 30%) below the baseline, or when
//! a baseline workload disappears.
//!
//! `--floor NAME=MIN` (repeatable) additionally pins an *absolute* speedup
//! wall for one workload, independent of the committed baseline — a
//! ratchet cannot slide below it by re-blessing the baseline. Short CI
//! runs on shared runners jitter by a few percent, so the enforced wall is
//! `MIN * (1 - floor-margin)` (margin default 0.10); the nominal floor is
//! what the log reports against.
//!
//! `--ceiling tracing=MAX` is the same wall for a cost: the current run's
//! `tracing.overhead_vs_untraced` (written by `engine_perf --trace`) must
//! not exceed `MAX`, and a run without a tracing section fails — so the
//! cost of leaving lifecycle tracing on is held the way the engine
//! speedups are.
//!
//! `--traffic PATH [--traffic-baseline PATH]` extends the gate to
//! `BENCH_traffic.json`: every saturation curve is re-checked for shape
//! (message conservation, weak monotonicity below the knee, bounded
//! degradation past it — the same rules `traffic_sweep` enforces at
//! generation time, so a hand-edited baseline cannot sneak past CI), and
//! with a baseline each pattern's knee throughput is ratcheted. Floors
//! named `traffic:<pattern>` pin absolute knee-throughput walls
//! (flits/node/cycle) through the same `--floor` machinery.

use std::process::ExitCode;

/// One workload's numbers pulled from a `BENCH_engine.json` document.
#[derive(Debug, Clone, PartialEq)]
struct Workload {
    name: String,
    naive_cps: f64,
    event_cps: f64,
    speedup: f64,
}

/// Extracts the string value following `"key":` at/after `from`.
fn string_field(doc: &str, key: &str, from: usize) -> Option<(String, usize)> {
    let pat = format!("\"{key}\"");
    let k = doc[from..].find(&pat)? + from + pat.len();
    let open = doc[k..].find('"')? + k + 1;
    let close = doc[open..].find('"')? + open;
    Some((doc[open..close].to_string(), close))
}

/// Extracts the numeric value following `"key":` at/after `from`.
fn number_field(doc: &str, key: &str, from: usize) -> Option<(f64, usize)> {
    let pat = format!("\"{key}\"");
    let k = doc[from..].find(&pat)? + from + pat.len();
    let colon = doc[k..].find(':')? + k + 1;
    let rest = &doc[colon..];
    let start = colon + rest.len() - rest.trim_start().len();
    let end = doc[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))?
        + start;
    doc[start..end].parse().ok().map(|v| (v, end))
}

/// Parses every workload entry out of a `BENCH_engine.json` document.
/// Hand-rolled to match the hand-rolled writer in `engine_perf` — the
/// workspace deliberately has no JSON dependency.
fn parse(doc: &str) -> Vec<Workload> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some((name, next)) = string_field(doc, "name", at) {
        at = next;
        let Some((naive_cps, next)) = number_field(doc, "cycles_per_sec", at) else {
            break;
        };
        at = next;
        let Some((event_cps, next)) = number_field(doc, "cycles_per_sec", at) else {
            break;
        };
        at = next;
        let Some((speedup, next)) = number_field(doc, "speedup", at) else {
            break;
        };
        at = next;
        out.push(Workload {
            name,
            naive_cps,
            event_cps,
            speedup,
        });
    }
    out
}

/// One thread-sweep run pulled from a document's `"threads"` section.
#[derive(Debug, Clone, PartialEq)]
struct ThreadRow {
    label: String,
    vs_event: f64,
    oversubscribed: bool,
}

/// Extracts the boolean value following `"key":` at/after `from`, returning
/// the key's position so callers can bound it to the current record.
fn bool_field(doc: &str, key: &str, from: usize) -> Option<(bool, usize)> {
    let pat = format!("\"{key}\"");
    let k = doc[from..].find(&pat)? + from;
    let colon = doc[k + pat.len()..].find(':')? + k + pat.len() + 1;
    let rest = doc[colon..].trim_start();
    if rest.starts_with("true") {
        Some((true, k))
    } else if rest.starts_with("false") {
        Some((false, k))
    } else {
        None
    }
}

/// Parses the thread-sweep rows (`"label"`-keyed, so the workload parser
/// above never sees them). Rows predating the `oversubscribed` stamp are
/// treated as oversubscribed — unratchetable — rather than guessed at:
/// exactly the bug this stamp exists to fix was unmarked rows from a
/// 1-CPU host reading as real scaling data.
fn parse_threads(doc: &str) -> Vec<ThreadRow> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some((label, next)) = string_field(doc, "label", at) {
        at = next;
        let Some((vs_event, next)) = number_field(doc, "vs_event", at) else {
            break;
        };
        at = next;
        let next_label = doc[at..].find("\"label\"").map_or(doc.len(), |p| p + at);
        let oversubscribed = match bool_field(doc, "oversubscribed", at) {
            Some((v, pos)) if pos < next_label => v,
            _ => true,
        };
        out.push(ThreadRow {
            label,
            vs_event,
            oversubscribed,
        });
    }
    out
}

/// One load point pulled from a `BENCH_traffic.json` curve.
#[derive(Debug, Clone, PartialEq)]
struct TrafficRow {
    load_ppm: f64,
    offered: f64,
    accepted: f64,
    dropped: f64,
    throughput: f64,
}

impl TrafficRow {
    fn accept_ratio(&self) -> f64 {
        if self.offered == 0.0 {
            1.0
        } else {
            self.accepted / self.offered
        }
    }
}

/// One pattern's saturation curve pulled from `BENCH_traffic.json`.
#[derive(Debug, Clone, PartialEq)]
struct TrafficCurve {
    pattern: String,
    knee_ppm: f64,
    knee_throughput: f64,
    points: Vec<TrafficRow>,
}

/// Parses the `"pattern"`-keyed curves of a `BENCH_traffic.json` document
/// (a key the workload and thread parsers never look for, and vice versa).
fn parse_traffic(doc: &str) -> Vec<TrafficCurve> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some((pattern, next)) = string_field(doc, "pattern", at) {
        at = next;
        let Some((knee_ppm, next)) = number_field(doc, "knee_ppm", at) else {
            break;
        };
        at = next;
        let Some((knee_throughput, next)) = number_field(doc, "knee_throughput", at) else {
            break;
        };
        at = next;
        // Points belong to this curve only up to the next "pattern" key.
        let section_end = doc[at..].find("\"pattern\"").map_or(doc.len(), |p| p + at);
        let section = &doc[at..section_end];
        let mut points = Vec::new();
        let mut sat = 0;
        while let Some((load_ppm, next)) = number_field(section, "load_ppm", sat) {
            sat = next;
            let fields = (
                number_field(section, "offered_msgs", sat),
                number_field(section, "accepted_msgs", sat),
                number_field(section, "dropped_msgs", sat),
                number_field(section, "throughput", sat),
            );
            let (
                Some((offered, _)),
                Some((accepted, _)),
                Some((dropped, _)),
                Some((throughput, t)),
            ) = fields
            else {
                break;
            };
            sat = t;
            points.push(TrafficRow {
                load_ppm,
                offered,
                accepted,
                dropped,
                throughput,
            });
        }
        out.push(TrafficCurve {
            pattern,
            knee_ppm,
            knee_throughput,
            points,
        });
    }
    out
}

/// Re-checks one curve's shape with the generation-time rules of
/// `jm_bench::traffic`. Returns every violation found.
fn check_traffic_curve(curve: &TrafficCurve) -> Vec<String> {
    use jm_bench::traffic::{COLLAPSE_FLOOR, KNEE_ACCEPT_RATIO, POST_SAT_SLACK, SLACK};
    let label = &curve.pattern;
    let mut bad = Vec::new();
    if curve.points.is_empty() {
        bad.push(format!("{label}: curve has no points"));
    }
    for p in &curve.points {
        if p.offered != p.accepted + p.dropped {
            bad.push(format!(
                "{label}: offered {} != accepted {} + dropped {} at {} ppm",
                p.offered, p.accepted, p.dropped, p.load_ppm
            ));
        }
    }
    let mut peak = 0.0_f64;
    for pair in curve.points.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        if hi.offered < lo.offered {
            bad.push(format!(
                "{label}: offered load fell with the ladder at {} ppm",
                hi.load_ppm
            ));
        }
        let slack = if lo.accept_ratio() >= KNEE_ACCEPT_RATIO {
            SLACK
        } else {
            POST_SAT_SLACK
        };
        if hi.throughput < lo.throughput * (1.0 - slack) {
            bad.push(format!(
                "{label}: accepted throughput fell: {:.4} f/n/c at {} ppm vs {:.4} at {} ppm",
                hi.throughput, hi.load_ppm, lo.throughput, lo.load_ppm
            ));
        }
    }
    for p in &curve.points {
        if p.accept_ratio() < KNEE_ACCEPT_RATIO && p.throughput < peak * COLLAPSE_FLOOR {
            bad.push(format!(
                "{label}: post-saturation throughput collapsed: {:.4} f/n/c at {} ppm vs peak {peak:.4}",
                p.throughput, p.load_ppm
            ));
        }
        peak = peak.max(p.throughput);
    }
    bad
}

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Collects every `FLAG NAME=BOUND` pair from the command line.
fn bounds(args: &[String], flag: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            let spec = args
                .get(i + 1)
                .and_then(|spec| spec.split_once('='))
                .unwrap_or_else(|| panic!("{flag} takes NAME=BOUND"));
            let bound = spec.1.parse();
            out.push((
                spec.0.to_string(),
                bound.unwrap_or_else(|_| panic!("{flag} bound must be a number")),
            ));
        }
    }
    out
}

/// Checks a `--ceiling tracing=MAX` against the run's recorded tracing
/// overhead; `Err` carries the failure line.
fn check_tracing_ceiling(current_doc: &str, max: f64) -> Result<String, String> {
    let section = current_doc
        .find("\"tracing\"")
        .ok_or("tracing: ceiling set but the run has no tracing section")?;
    let (overhead, _) = number_field(current_doc, "overhead_vs_untraced", section)
        .ok_or("tracing: section has no overhead_vs_untraced")?;
    let line = format!(
        "tracing overhead {:.1}% vs ceiling {:.1}%",
        overhead * 100.0,
        max * 100.0
    );
    if overhead <= max {
        Ok(line)
    } else {
        Err(line)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = arg(&args, "--baseline").unwrap_or_else(|| "BENCH_engine.json".into());
    let current_path = arg(&args, "--current").expect("--current PATH is required");
    let tolerance: f64 = arg(&args, "--tolerance")
        .map(|v| v.parse().expect("--tolerance takes a fraction"))
        .unwrap_or(0.30);
    let floor_margin: f64 = arg(&args, "--floor-margin")
        .map(|v| v.parse().expect("--floor-margin takes a fraction"))
        .unwrap_or(0.10);

    let baseline_doc = std::fs::read_to_string(&baseline_path).expect("read baseline");
    let current_doc = std::fs::read_to_string(&current_path).expect("read current");
    let baseline = parse(&baseline_doc);
    let current = parse(&current_doc);
    assert!(!baseline.is_empty(), "no workloads in {baseline_path}");

    let mut failed = false;
    for base in &baseline {
        let Some(cur) = current.iter().find(|w| w.name == base.name) else {
            eprintln!("[FAIL] {}: missing from {current_path}", base.name);
            failed = true;
            continue;
        };
        let floor = base.speedup * (1.0 - tolerance);
        let ok = cur.speedup >= floor;
        println!(
            "[{}] {:<28} speedup {:.2}x (baseline {:.2}x, floor {:.2}x)  \
             naive {:.0} cyc/s  event {:.0} cyc/s",
            if ok { "ok" } else { "FAIL" },
            cur.name,
            cur.speedup,
            base.speedup,
            floor,
            cur.naive_cps,
            cur.event_cps,
        );
        failed |= !ok;
    }
    // Thread-scaling ratchet: compare `vs_event` per engine label, but only
    // between runs where the thread count fit the host — an oversubscribed
    // row (stamped, or predating the stamp) measures scheduler pressure,
    // not scaling, on either side of the comparison.
    for base in &parse_threads(&baseline_doc) {
        if base.oversubscribed {
            println!(
                "[skip] threads/{:<20} baseline row is oversubscribed (not scaling data)",
                base.label
            );
            continue;
        }
        let cur_rows = parse_threads(&current_doc);
        let Some(cur) = cur_rows.iter().find(|r| r.label == base.label) else {
            eprintln!("[FAIL] threads/{}: missing from {current_path}", base.label);
            failed = true;
            continue;
        };
        if cur.oversubscribed {
            println!(
                "[skip] threads/{:<20} current row is oversubscribed (host too small to compare)",
                cur.label
            );
            continue;
        }
        let floor = base.vs_event * (1.0 - tolerance);
        let ok = cur.vs_event >= floor;
        println!(
            "[{}] threads/{:<20} vs_event {:.2}x (baseline {:.2}x, floor {:.2}x)",
            if ok { "ok" } else { "FAIL" },
            cur.label,
            cur.vs_event,
            base.vs_event,
            floor,
        );
        failed |= !ok;
    }
    for (name, min) in bounds(&args, "--floor")
        .iter()
        .filter(|(n, _)| !n.starts_with("traffic:"))
    {
        let Some(cur) = current.iter().find(|w| &w.name == name) else {
            eprintln!("[FAIL] {name}: floor named a workload missing from {current_path}");
            failed = true;
            continue;
        };
        let wall = min * (1.0 - floor_margin);
        let ok = cur.speedup >= wall;
        println!(
            "[{}] {:<28} speedup {:.2}x vs absolute floor {:.2}x (enforced at {:.2}x)",
            if ok { "ok" } else { "FAIL" },
            cur.name,
            cur.speedup,
            min,
            wall,
        );
        failed |= !ok;
    }
    for (name, max) in bounds(&args, "--ceiling") {
        assert_eq!(name, "tracing", "--ceiling knows only `tracing`");
        match check_tracing_ceiling(&current_doc, max) {
            Ok(line) => println!("[ok] {line}"),
            Err(line) => {
                eprintln!("[FAIL] {line}");
                failed = true;
            }
        }
    }
    // Traffic saturation-curve gate: shape re-check, optional knee
    // ratchet against a committed baseline, and absolute knee floors.
    if let Some(traffic_path) = arg(&args, "--traffic") {
        let traffic_doc = std::fs::read_to_string(&traffic_path).expect("read traffic current");
        let curves = parse_traffic(&traffic_doc);
        assert!(!curves.is_empty(), "no curves in {traffic_path}");
        for curve in &curves {
            let bad = check_traffic_curve(curve);
            println!(
                "[{}] traffic/{:<20} shape (knee {} ppm, {:.4} f/n/c)",
                if bad.is_empty() { "ok" } else { "FAIL" },
                curve.pattern,
                curve.knee_ppm,
                curve.knee_throughput,
            );
            for v in &bad {
                eprintln!("       {v}");
            }
            failed |= !bad.is_empty();
        }
        if let Some(base_path) = arg(&args, "--traffic-baseline") {
            let base_doc = std::fs::read_to_string(&base_path).expect("read traffic baseline");
            for base in &parse_traffic(&base_doc) {
                let Some(cur) = curves.iter().find(|c| c.pattern == base.pattern) else {
                    eprintln!(
                        "[FAIL] traffic/{}: missing from {traffic_path}",
                        base.pattern
                    );
                    failed = true;
                    continue;
                };
                let floor = base.knee_throughput * (1.0 - tolerance);
                let ok = cur.knee_throughput >= floor;
                println!(
                    "[{}] traffic/{:<20} knee {:.4} f/n/c (baseline {:.4}, floor {:.4})",
                    if ok { "ok" } else { "FAIL" },
                    cur.pattern,
                    cur.knee_throughput,
                    base.knee_throughput,
                    floor,
                );
                failed |= !ok;
            }
        }
        for (name, min) in bounds(&args, "--floor")
            .iter()
            .filter(|(n, _)| n.starts_with("traffic:"))
        {
            let pattern = &name["traffic:".len()..];
            let Some(cur) = curves.iter().find(|c| c.pattern == pattern) else {
                eprintln!("[FAIL] {name}: floor named a pattern missing from {traffic_path}");
                failed = true;
                continue;
            };
            let wall = min * (1.0 - floor_margin);
            let ok = cur.knee_throughput >= wall;
            println!(
                "[{}] traffic/{:<20} knee {:.4} f/n/c vs absolute floor {:.4} (enforced at {:.4})",
                if ok { "ok" } else { "FAIL" },
                cur.pattern,
                cur.knee_throughput,
                min,
                wall,
            );
            failed |= !ok;
        }
    }
    if failed {
        eprintln!(
            "benchmark regression gate FAILED (tolerance {:.0}%)",
            tolerance * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("benchmark gate passed ({} workloads)", baseline.len());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "bench": "engine",
  "workloads": [
    {
      "name": "ring64_idle_dominated",
      "cycles": 100,
      "naive": { "wall_secs": 1.0, "cycles_per_sec": 100 },
      "event": { "wall_secs": 0.1, "cycles_per_sec": 1000 },
      "speedup": 10.00
    },
    {
      "name": "exchange64_load_dominated",
      "cycles": 100,
      "naive": { "wall_secs": 1.0, "cycles_per_sec": 500 },
      "event": { "wall_secs": 1.0, "cycles_per_sec": 450 },
      "speedup": 0.90
    }
  ]
}
"#;

    #[test]
    fn parses_both_workloads() {
        let ws = parse(DOC);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].name, "ring64_idle_dominated");
        assert_eq!(ws[0].naive_cps, 100.0);
        assert_eq!(ws[0].event_cps, 1000.0);
        assert_eq!(ws[0].speedup, 10.0);
        assert_eq!(ws[1].name, "exchange64_load_dominated");
        assert_eq!(ws[1].speedup, 0.90);
    }

    const THREADS_DOC: &str = r#"{
  "threads": {
    "workload": "exchange64_load_dominated",
    "host_cpus": 4,
    "runs": [
      { "label": "event", "threads": 0, "wall_secs": 1.0, "cyc_per_sec": 1000, "vs_event": 1.00, "oversubscribed": false },
      { "label": "parallel-4", "threads": 4, "wall_secs": 0.4, "cyc_per_sec": 2500, "vs_event": 2.50, "oversubscribed": false },
      { "label": "parallel-8", "threads": 8, "wall_secs": 0.5, "cyc_per_sec": 2000, "vs_event": 2.00, "oversubscribed": true }
    ]
  }
}
"#;

    #[test]
    fn parses_thread_rows_with_oversubscription_stamp() {
        let rows = parse_threads(THREADS_DOC);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].label, "event");
        assert!(!rows[0].oversubscribed);
        assert_eq!(rows[1].vs_event, 2.50);
        assert!(!rows[1].oversubscribed);
        assert!(rows[2].oversubscribed);
        // Workload parser must not trip over the threads section.
        assert!(parse(THREADS_DOC).is_empty());
    }

    #[test]
    fn unstamped_thread_rows_are_treated_as_oversubscribed() {
        // A pre-stamp document (like the committed 1-CPU baseline rows the
        // issue calls out) must not ratchet as if it were scaling data.
        let doc = r#"{ "runs": [
          { "label": "parallel-4", "wall_secs": 1.0, "cyc_per_sec": 270, "vs_event": 0.27 }
        ] }"#;
        let rows = parse_threads(doc);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].oversubscribed);
    }

    const TRAFFIC_DOC: &str = r#"{
  "seed": 7,
  "curves": [
    {"pattern": "uniform_random",
     "knee_ppm": 300000,
     "knee_throughput": 0.302200,
     "points": [
       {"load_ppm": 50000, "offered_msgs": 1579, "accepted_msgs": 1579, "dropped_msgs": 0, "delivered_msgs": 1579, "throughput": 0.049300, "latency_mean": 10.8, "latency_p50": 15, "latency_p99": 31, "latency_max": 35, "latency_count": 1579},
       {"load_ppm": 900000, "offered_msgs": 28894, "accepted_msgs": 14442, "dropped_msgs": 14452, "delivered_msgs": 14442, "throughput": 0.451300, "latency_mean": 148.0, "latency_p50": 127, "latency_p99": 511, "latency_max": 790, "latency_count": 14442}
     ]},
    {"pattern": "hotspot",
     "knee_ppm": 50000,
     "knee_throughput": 0.049200,
     "points": [
       {"load_ppm": 50000, "offered_msgs": 1579, "accepted_msgs": 1575, "dropped_msgs": 4, "delivered_msgs": 1575, "throughput": 0.049200, "latency_mean": 502.4, "latency_p50": 255, "latency_p99": 4095, "latency_max": 4582, "latency_count": 1575}
     ]}
  ]
}
"#;

    #[test]
    fn parses_traffic_curves_with_points_bounded_per_curve() {
        let curves = parse_traffic(TRAFFIC_DOC);
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].pattern, "uniform_random");
        assert_eq!(curves[0].knee_ppm, 300_000.0);
        assert_eq!(curves[0].points.len(), 2);
        assert_eq!(curves[0].points[1].dropped, 14_452.0);
        assert_eq!(curves[1].pattern, "hotspot");
        assert_eq!(curves[1].points.len(), 1);
        // The other parsers must not trip over the traffic document.
        assert!(parse(TRAFFIC_DOC).is_empty());
        assert!(parse_threads(TRAFFIC_DOC).is_empty());
        // Shape rules hold on the real-sweep excerpt.
        for curve in &curves {
            assert!(check_traffic_curve(curve).is_empty(), "{curve:?}");
        }
    }

    #[test]
    fn traffic_shape_check_flags_violations() {
        let falling = TrafficCurve {
            pattern: "transpose".into(),
            knee_ppm: 100_000.0,
            knee_throughput: 0.1,
            points: vec![
                TrafficRow {
                    load_ppm: 50_000.0,
                    offered: 1000.0,
                    accepted: 1000.0,
                    dropped: 0.0,
                    throughput: 0.10,
                },
                TrafficRow {
                    load_ppm: 100_000.0,
                    offered: 2000.0,
                    accepted: 900.0,
                    dropped: 1000.0, // 900 + 1000 != 2000: conservation too
                    throughput: 0.05,
                },
            ],
        };
        let bad = check_traffic_curve(&falling);
        assert!(bad.iter().any(|v| v.contains("throughput fell")), "{bad:?}");
        assert!(bad.iter().any(|v| v.contains("offered")), "{bad:?}");
    }

    #[test]
    fn tracing_ceiling_reads_the_recorded_overhead() {
        let doc = format!(
            "{}{}",
            DOC.trim_end().trim_end_matches('}'),
            r#",
  "tracing": { "workload": "ring64_idle_dominated", "cycles_per_sec": 9, "overhead_vs_untraced": 0.195, "trace_hash": "00" }
}"#
        );
        assert!(check_tracing_ceiling(&doc, 0.20).is_ok());
        assert!(check_tracing_ceiling(&doc, 0.195).is_ok());
        let over = check_tracing_ceiling(&doc, 0.10).unwrap_err();
        assert!(over.contains("19.5%"), "{over}");
        // A ceiling with nothing to check is a failure, not a pass.
        assert!(check_tracing_ceiling(DOC, 0.20).is_err());
        let args: Vec<String> = ["--ceiling", "tracing=0.25"].map(String::from).to_vec();
        assert_eq!(bounds(&args, "--ceiling"), [("tracing".to_string(), 0.25)]);
    }

    #[test]
    fn parses_repeated_floor_flags() {
        let args: Vec<String> = [
            "--floor",
            "exchange64_load_dominated=1.0",
            "--tolerance",
            "0.30",
            "--floor",
            "ring64_idle_dominated=2.5",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let fs = bounds(&args, "--floor");
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0], ("exchange64_load_dominated".to_string(), 1.0));
        assert_eq!(fs[1], ("ring64_idle_dominated".to_string(), 2.5));
    }
}
