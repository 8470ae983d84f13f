//! `jmsim gate`: a generic ratchet, floor and ceiling over BENCH rows
//! (the rules are stated once, in DESIGN.md §5).
//!
//! `--current` (a fresh `jmsim perf` file) is compared with `--baseline`
//! (default: the committed `BENCH_engine.json`). A file that is not a
//! well-formed row array is an input error (exit 2) — never a shorter list
//! of rows to gate. Simulated rows need no gate: CI `diff`s a fresh
//! `BENCH_fault.json` / `BENCH_traffic.json` against the committed one.

use crate::cli::{Args, Bound, CliError, Outcome};
use crate::rows::{self, Row};
use std::process::ExitCode;

/// The metrics the ratchet holds: higher-is-better ratios that do not
/// depend on the host's absolute speed — the engines' relative speeds, and
/// the share of the flit moves the bulk law carried.
pub const RATCHETED: [&str; 3] = ["speedup", "vs_event", "law_share"];

/// How far below its baseline a ratcheted row may fall.
const TOLERANCE: f64 = 0.30;

/// How far below its nominal value a floor is enforced: short CI runs
/// jitter.
const FLOOR_MARGIN: f64 = 0.10;

fn load(path: &str) -> Result<Vec<Row>, CliError> {
    let doc = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
    rows::read(&doc).map_err(|e| CliError::Input(format!("{path}: malformed BENCH file: {e}")))
}

/// Whether `row` belongs to a threaded run that asked for more workers
/// than the measuring host had CPUs.
fn oversubscribed(doc: &[Row], row: &Row) -> bool {
    rows::value(doc, &row.name, "threads").is_some_and(|t| t > row.host_cpus as f64)
}

/// The verdict lines of one run of checks; `failed` is the exit code.
#[derive(Debug, Default)]
pub(crate) struct Verdict {
    pub(crate) lines: Vec<String>,
    pub(crate) failed: bool,
}

impl Verdict {
    pub(crate) fn check(&mut self, ok: bool, line: String) {
        self.lines
            .push(format!("[{}] {line}", if ok { "ok" } else { "FAIL" }));
        self.failed |= !ok;
    }

    pub(crate) fn skip(&mut self, line: String) {
        self.lines.push(format!("[skip] {line}"));
    }

    /// A number known to miss what it is held against, and why.
    pub(crate) fn off(&mut self, line: String) {
        self.lines.push(format!("[off] {line}"));
    }

    /// A sweep's shape check: one `[ok]` when there are no `violations`,
    /// or a `[FAIL]` per violation.
    pub(crate) fn shape(&mut self, what: &str, violations: Vec<String>) {
        if violations.is_empty() {
            self.check(true, format!("{what} curves keep their shape"));
        }
        for v in violations {
            self.check(false, format!("{what}: {v}"));
        }
    }
}

fn ratchet(v: &mut Verdict, baseline: &[Row], current: &[Row]) {
    for base in baseline {
        if !RATCHETED.contains(&base.metric.as_str()) {
            continue;
        }
        let label = format!("{}:{}", base.name, base.metric);
        if oversubscribed(baseline, base) {
            v.skip(format!(
                "{label} baseline is oversubscribed (not scaling data)"
            ));
            continue;
        }
        let Some(cur) = rows::find(current, &base.name, &base.metric) else {
            v.check(false, format!("{label} missing from the current run"));
            continue;
        };
        if oversubscribed(current, cur) {
            v.skip(format!(
                "{label} current run is oversubscribed (host too small)"
            ));
            continue;
        }
        let floor = base.value * (1.0 - TOLERANCE);
        v.check(
            cur.value >= floor,
            format!(
                "{label:<44} {:.4} {} (baseline {:.4}, floor {floor:.4})",
                cur.value, cur.unit, base.value
            ),
        );
    }
}

/// Absolute walls a re-blessed baseline cannot slide under. A floor is
/// enforced at `MIN × (1 − FLOOR_MARGIN)`, a ceiling as given. A wall
/// naming a missing row fails, and so does a floor on an oversubscribed
/// row: a wall with nothing to check is not a pass.
fn walls(v: &mut Verdict, current: &[Row], walls: &[Bound], floor: bool) {
    let kind = if floor { "floor" } else { "ceiling" };
    for w in walls {
        let label = format!("{}:{}", w.name, w.metric);
        let Some(cur) = rows::find(current, &w.name, &w.metric) else {
            v.check(
                false,
                format!("{label} {kind} names a row missing from the run"),
            );
            continue;
        };
        if !floor {
            let line = format!(
                "{label:<44} {:.4} {} vs ceiling {:.4}",
                cur.value, cur.unit, w.value
            );
            v.check(cur.value <= w.value, line);
            continue;
        }
        if oversubscribed(current, cur) {
            let line = format!("{label} floor: the run is oversubscribed (host too small)");
            v.check(false, line);
            continue;
        }
        let wall = w.value * (1.0 - FLOOR_MARGIN);
        v.check(
            cur.value >= wall,
            format!(
                "{label:<44} {:.4} {} vs absolute floor {:.4} (enforced at {wall:.4})",
                cur.value, cur.unit, w.value
            ),
        );
    }
}

/// `jmsim gate` (see the module documentation).
pub(crate) fn run(args: &Args) -> Outcome {
    let baseline_path = args.text("--baseline").unwrap_or("BENCH_engine.json");
    let baseline = load(baseline_path)?;
    let current = load(args.text("--current").expect("--current is required"))?;

    let mut v = Verdict::default();
    ratchet(&mut v, &baseline, &current);
    walls(&mut v, &current, &args.bounds("--floor"), true);
    walls(&mut v, &current, &args.bounds("--ceiling"), false);

    for line in &v.lines {
        outln!("{line}");
    }
    if v.failed {
        eprintln!(
            "benchmark regression gate FAILED (tolerance {:.0}%)",
            TOLERANCE * 100.0
        );
        return Ok(ExitCode::FAILURE);
    }
    outln!("benchmark gate passed ({} checks)", v.lines.len());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_doc(ring: f64, exch: f64) -> Vec<Row> {
        vec![
            Row::host("ring64_idle_dominated", "cycles", 100.0, "cycles", 2),
            Row::host("ring64_idle_dominated", "speedup", ring, "x", 2),
            Row::host("exchange64_load_dominated", "speedup", exch, "x", 2),
        ]
    }

    fn thread_doc(host_cpus: usize) -> Vec<Row> {
        let mut rows = Vec::new();
        for (label, threads, vs) in [
            ("event", 0.0, 1.0),
            ("parallel-4", 4.0, 2.5),
            ("parallel-8", 8.0, 2.0),
        ] {
            let name = format!("threads/{label}");
            rows.push(Row::host(&name, "threads", threads, "threads", host_cpus));
            rows.push(Row::host(&name, "vs_event", vs, "x", host_cpus));
        }
        rows
    }

    fn bound(name: &str, metric: &str, value: f64) -> Bound {
        Bound {
            name: name.to_string(),
            metric: metric.to_string(),
            value,
        }
    }

    #[test]
    fn parses_both_workloads() {
        // The ratchet reads ratio rows only, holds each to its own
        // baseline, and fails on a baseline row the run lost.
        let mut v = Verdict::default();
        ratchet(&mut v, &engine_doc(10.0, 0.9), &engine_doc(7.1, 0.9));
        assert!(!v.failed, "{:?}", v.lines);
        assert_eq!(v.lines.len(), 2, "the cycles row is not ratcheted");

        let mut v = Verdict::default();
        ratchet(&mut v, &engine_doc(10.0, 0.9), &engine_doc(6.9, 0.9));
        assert!(v.failed);
        assert!(v.lines[0].starts_with("[FAIL] ring64_idle_dominated:speedup"));
        assert!(v.lines[1].starts_with("[ok] exchange64_load_dominated:speedup"));

        let mut v = Verdict::default();
        ratchet(&mut v, &engine_doc(10.0, 0.9), &engine_doc(10.0, 0.9)[..2]);
        assert!(v.failed);
        assert!(v.lines[1].contains("exchange64_load_dominated:speedup missing"));
    }

    #[test]
    fn a_law_that_stops_engaging_fails_the_ratchet() {
        let doc = |share| {
            let name = "exchange64_load_dominated";
            vec![Row::host(name, "law_share", share, "ratio", 2)]
        };
        let mut v = Verdict::default();
        ratchet(&mut v, &doc(0.3), &doc(0.25));
        assert!(!v.failed, "{:?}", v.lines);
        let mut v = Verdict::default();
        ratchet(&mut v, &doc(0.3), &doc(0.0));
        assert!(v.failed);
    }

    #[test]
    fn parses_thread_rows_with_oversubscription_stamp() {
        // "Oversubscribed" is threads > host_cpus, read off the rows.
        let doc = thread_doc(4);
        let over: Vec<bool> = doc
            .iter()
            .filter(|r| r.metric == "vs_event")
            .map(|r| oversubscribed(&doc, r))
            .collect();
        assert_eq!(over, [false, false, true]);
        // A row with no `threads` sibling is not a threaded run.
        assert!(!oversubscribed(
            &engine_doc(1.0, 1.0),
            &engine_doc(1.0, 1.0)[1]
        ));

        let mut v = Verdict::default();
        ratchet(&mut v, &doc, &doc);
        assert!(!v.failed);
        assert!(v.lines[2].starts_with("[skip] threads/parallel-8:vs_event baseline"));
    }

    #[test]
    fn unstamped_thread_rows_are_treated_as_oversubscribed() {
        // A 4-CPU baseline against a 1-CPU run: the 4-thread row cannot be
        // compared, and must neither pass nor fail.
        let mut v = Verdict::default();
        ratchet(&mut v, &thread_doc(4), &thread_doc(1));
        assert!(!v.failed);
        assert!(v.lines[1].starts_with("[skip] threads/parallel-4:vs_event current"));
        // An absolute floor on that row names a wall the host cannot
        // check: that fails, like a floor on a missing row…
        let floor = [bound("threads/parallel-4", "vs_event", 9.0)];
        let mut v = Verdict::default();
        walls(&mut v, &thread_doc(1), &floor, true);
        assert!(
            v.failed && v.lines[0].starts_with("[FAIL]") && v.lines[0].contains("oversubscribed"),
            "{:?}",
            v.lines
        );
        // …and is enforced where the host is big enough.
        let mut v = Verdict::default();
        walls(&mut v, &thread_doc(4), &floor, true);
        assert!(v.failed);
    }

    #[test]
    fn parses_repeated_floor_flags() {
        let nominal = [
            bound("exchange64_load_dominated", "speedup", 1.0),
            bound("ring64_idle_dominated", "speedup", 2.5),
            bound("no_such_workload", "speedup", 1.0),
        ];
        // 0.91 clears a nominal 1.0 floor through the 10% margin; 0.89 not.
        let mut v = Verdict::default();
        walls(&mut v, &engine_doc(3.0, 0.91), &nominal[..2], true);
        assert!(!v.failed, "{:?}", v.lines);
        let mut v = Verdict::default();
        walls(&mut v, &engine_doc(3.0, 0.89), &nominal, true);
        assert!(v.lines[0].starts_with("[FAIL]") && v.lines[1].starts_with("[ok]"));
        assert!(v.lines[2].contains("missing"), "{:?}", v.lines);
    }

    #[test]
    fn tracing_ceiling_reads_the_recorded_overhead() {
        let doc = [Row::host(
            "ring64_traced",
            "overhead_vs_untraced",
            0.195,
            "ratio",
            2,
        )];
        let at = |max: f64| {
            let mut v = Verdict::default();
            let c = [bound("ring64_traced", "overhead_vs_untraced", max)];
            walls(&mut v, &doc, &c, false);
            v
        };
        assert!(!at(0.20).failed);
        assert!(!at(0.195).failed);
        let over = at(0.10);
        assert!(
            over.failed && over.lines[0].contains("0.1950"),
            "{:?}",
            over.lines
        );
        // A ceiling with nothing to check is a failure, not a pass.
        let mut v = Verdict::default();
        let c = [bound("ring64_traced", "overhead_vs_untraced", 0.2)];
        walls(&mut v, &engine_doc(1.0, 1.0), &c, false);
        assert!(v.failed);
    }
}
