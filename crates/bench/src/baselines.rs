//! Every number the harness holds a measurement against, once: what the
//! paper states about its six micro and four macro artifacts, the
//! comparison machines of Tables 1 and 3 (its references [6], [7], [14],
//! [17]; those machines cannot be rebuilt here, so per `DESIGN.md` §3 they
//! are their published constants and nothing is held against them), and
//! the floors under the five traffic knees — and the one comparator that
//! does the holding.
//!
//! A published value becomes the row `paper/<line>`, which [`pivot`] shows
//! beside its measured twin `<line>`; the J-Machine side of every
//! comparison is measured from the simulator, never taken from here.
//!
//! [`pivot`]: crate::table::pivot

use crate::gate::Verdict;
use crate::rows::{self, Row};
use crate::table::cell;

/// How a published value binds its measured twin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Hold {
    /// The twin must lie in `lo..=hi`.
    Band(f64, f64),
    /// Comparison data: nothing is held.
    Shown,
    /// The twin is known to miss `lo..=hi`, for the stated reason — one of
    /// `model` (ours does less or other than the paper's; to fix),
    /// `problem size` (goes away at the paper's size) or `substitution
    /// (DESIGN §n)` (documented and kept). A twin found back inside the
    /// band fails: the verdict has gone stale.
    Off(f64, f64, &'static str),
}

/// One published value: the name and metric of the measured row it is
/// held against, the value as published, its unit, and how it binds.
pub type Published = (&'static str, &'static str, f64, &'static str, Hold);

/// Held within 25 % of the published value: the stated tolerance.
const fn near(value: f64) -> Hold {
    Hold::Band(0.75 * value, 1.25 * value)
}

/// Known to miss that tolerance, and why.
const fn off(value: f64, why: &'static str) -> Hold {
    Hold::Off(0.75 * value, 1.25 * value, why)
}

const PER_BYTE: &str = "model: the measured slope is the sender's one-cycle SEND per extra word; \
     the receiver is charged nothing per byte";
const BARRIER: &str = "substitution (DESIGN §6.5 note 10): the barrier library pays a local \
     dispatch and a continuation dispatch the paper's routine avoided";
const TSP_SIZE: &str = "problem size: 10 cities; TspConfig::paper() is 14";
const TSP_MSGS: &str =
    "model: COSMOS-lite work self-posts are one word and tasks four; CST passed argument lists";

/// The table. Order within an artifact is the order of its `paper …`
/// columns.
#[rustfmt::skip]
pub static TABLE: &[Published] = {
    use Hold::{Band, Shown};
    &[
    // Figure 2: slope 2 cycles/hop on every curve; ping-self 43 cycles,
    // neighbour read 60, opposite-corner read 98.
    ("fig2/fit/Ping", "slope", 2.0, "cycles/hop", Band(1.6, 2.4)),
    ("fig2/fit/Read 1 (Imem)", "slope", 2.0, "cycles/hop", Band(1.6, 2.4)),
    ("fig2/fit/Read 1 (Emem)", "slope", 2.0, "cycles/hop", Band(1.6, 2.4)),
    ("fig2/fit/Read 6 (Imem)", "slope", 2.0, "cycles/hop", Band(1.6, 2.4)),
    ("fig2/fit/Read 6 (Emem)", "slope", 2.0, "cycles/hop", Band(1.6, 2.4)),
    ("fig2/0", "Ping", 43.0, "cycles", near(43.0)),
    ("fig2/1", "Read 1 (Imem)", 60.0, "cycles", near(60.0)),
    ("fig2/21", "Read 1 (Imem)", 98.0, "cycles", near(98.0)),
    // Table 1: cycles are microseconds at the machine's clock (20, 33, 40
    // and the J-Machine's 12.5 MHz).
    ("table1/J-Machine", "us/msg", 0.9, "us", near(0.9)),
    ("table1/J-Machine", "us/byte", 0.04, "us", off(0.04, PER_BYTE)),
    ("table1/J-Machine", "cycles/msg", 11.0, "cycles", near(11.0)),
    ("table1/J-Machine", "cycles/byte", 0.5, "cycles", off(0.5, PER_BYTE)),
    ("table1/nCUBE-2 (Vendor)", "us/msg", 160.0, "us", Shown),
    ("table1/nCUBE-2 (Vendor)", "us/byte", 0.45, "us", Shown),
    ("table1/nCUBE-2 (Vendor)", "cycles/msg", 3200.0, "cycles", Shown),
    ("table1/nCUBE-2 (Vendor)", "cycles/byte", 9.0, "cycles", Shown),
    ("table1/CM-5 (Vendor)", "us/msg", 86.0, "us", Shown),
    ("table1/CM-5 (Vendor)", "us/byte", 0.12, "us", Shown),
    ("table1/CM-5 (Vendor)", "cycles/msg", 2838.0, "cycles", Shown),
    ("table1/CM-5 (Vendor)", "cycles/byte", 3.96, "cycles", Shown),
    ("table1/DELTA (Vendor)", "us/msg", 72.0, "us", Shown),
    ("table1/DELTA (Vendor)", "us/byte", 0.08, "us", Shown),
    ("table1/DELTA (Vendor)", "cycles/msg", 2880.0, "cycles", Shown),
    ("table1/DELTA (Vendor)", "cycles/byte", 3.2, "cycles", Shown),
    ("table1/nCUBE-2 (Active)", "us/msg", 23.0, "us", Shown),
    ("table1/nCUBE-2 (Active)", "us/byte", 0.45, "us", Shown),
    ("table1/nCUBE-2 (Active)", "cycles/msg", 460.0, "cycles", Shown),
    ("table1/nCUBE-2 (Active)", "cycles/byte", 9.0, "cycles", Shown),
    ("table1/CM-5 (Active)", "us/msg", 3.3, "us", Shown),
    ("table1/CM-5 (Active)", "us/byte", 0.12, "us", Shown),
    ("table1/CM-5 (Active)", "cycles/msg", 108.9, "cycles", Shown),
    ("table1/CM-5 (Active)", "cycles/byte", 3.96, "cycles", Shown),
    // Figure 3: 14.4 Gbit/s of bisection, random traffic saturating near
    // 6 — held between 30 % and 75 % of capacity; 50 % efficiency at
    // 100-300 cycles of computation per message.
    ("fig3", "capacity", 14400.0, "Mbit/s", Band(14400.0, 14400.0)),
    ("fig3", "saturation", 6000.0, "Mbit/s", Band(4320.0, 10800.0)),
    ("fig3/2", "half-efficiency grain", 200.0, "cycles", Band(75.0, 375.0)),
    ("fig3/4", "half-efficiency grain", 200.0, "cycles", Band(75.0, 375.0)),
    ("fig3/8", "half-efficiency grain", 200.0, "cycles", Band(75.0, 375.0)),
    ("fig3/16", "half-efficiency grain", 200.0, "cycles", Band(75.0, 375.0)),
    // Figure 4: peak 200 Mbit/s, 90 % of it by 8-word messages, 2-word
    // messages already past half.
    ("fig4/2", "Discard Data", 100.0, "Mbit/s", Band(100.0, 200.0)),
    ("fig4/8", "Discard Data", 180.0, "Mbit/s", near(180.0)),
    ("fig4/16", "Discard Data", 200.0, "Mbit/s", Band(150.0, 200.0)),
    // Table 2; save 30-50 and restore 20-50 cycles, at their midpoints.
    ("table2/Success", "tags", 2.0, "cycles", near(2.0)),
    ("table2/Failure", "tags", 6.0, "cycles", near(6.0)),
    ("table2/Write", "tags", 4.0, "cycles", near(4.0)),
    ("table2/Restart", "tags", 0.0, "cycles", Shown),
    ("table2/Success", "no tags", 5.0, "cycles", near(5.0)),
    ("table2/Failure", "no tags", 7.0, "cycles", off(7.0,
        "model: the software-flag failure path is one flag test and a taken branch")),
    ("table2/Write", "no tags", 6.0, "cycles", near(6.0)),
    ("table2/Restart", "no tags", 0.0, "cycles", Shown),
    ("table2/thread/save", "cycles", 40.0, "cycles", Band(22.5, 62.5)),
    ("table2/thread/restore", "cycles", 35.0, "cycles", Band(15.0, 62.5)),
    // Table 3, microseconds per barrier.
    ("table3/2", "J-Machine", 4.4, "us", off(4.4, BARRIER)),
    ("table3/4", "J-Machine", 6.5, "us", off(6.5, BARRIER)),
    ("table3/8", "J-Machine", 8.7, "us", off(8.7, BARRIER)),
    ("table3/16", "J-Machine", 11.7, "us", off(11.7, BARRIER)),
    ("table3/32", "J-Machine", 14.4, "us", off(14.4, BARRIER)),
    ("table3/64", "J-Machine", 16.5, "us", off(16.5, BARRIER)),
    ("table3/128", "J-Machine", 20.7, "us", off(20.7, BARRIER)),
    ("table3/256", "J-Machine", 24.4, "us", off(24.4, BARRIER)),
    ("table3/512", "J-Machine", 27.4, "us", off(27.4, BARRIER)),
    ("table3/2", "EM4", 2.7, "us", Shown),
    ("table3/4", "EM4", 3.6, "us", Shown),
    ("table3/8", "EM4", 4.7, "us", Shown),
    ("table3/16", "EM4", 5.4, "us", Shown),
    ("table3/64", "EM4", 7.4, "us", Shown),
    ("table3/2", "KSR", 60.0, "us", Shown),
    ("table3/4", "KSR", 90.0, "us", Shown),
    ("table3/8", "KSR", 180.0, "us", Shown),
    ("table3/16", "KSR", 260.0, "us", Shown),
    ("table3/32", "KSR", 525.0, "us", Shown),
    ("table3/2", "iPSC/860", 111.0, "us", Shown),
    ("table3/4", "iPSC/860", 234.0, "us", Shown),
    ("table3/8", "iPSC/860", 381.0, "us", Shown),
    ("table3/16", "iPSC/860", 546.0, "us", Shown),
    ("table3/32", "iPSC/860", 692.0, "us", Shown),
    ("table3/64", "iPSC/860", 847.0, "us", Shown),
    ("table3/2", "Delta", 109.0, "us", Shown),
    ("table3/4", "Delta", 248.0, "us", Shown),
    ("table3/8", "Delta", 473.0, "us", Shown),
    ("table3/16", "Delta", 923.0, "us", Shown),
    ("table3/32", "Delta", 1816.0, "us", Shown),
    ("table3/64", "Delta", 3587.0, "us", Shown),
    // The claim Table 3 carries: at 64 nodes the J-Machine's barrier is
    // 847 / 16.5 = 51 times faster than the iPSC/860's. Held at "an order
    // of magnitude", which the doubled absolute cost still clears.
    ("table3/64", "iPSC/860 over J", 51.3, "x", Band(10.0, 100.0)),
    // Figure 6 at 64 nodes, % of cycles.
    ("fig6/NQueens", "idle", 15.0, "%", off(15.0,
        "problem size: 1 400 ten-queens tasks of 14 k instructions spread evenly; \
         the paper's 13-queens tasks are ~300 k")),
    ("fig6/TSP", "idle", 3.8, "%", off(3.8,
        "problem size: a 23 ms ten-city search is mostly start-up and termination tail; \
         the paper's 14 cities run 26 s")),
    ("fig6/TSP", "sync", 16.0, "%", off(16.0,
        "model: COSMOS-lite (jm-apps::tsp) never blocks on a future; \
         CST's synchronizing sends are absent")),
    // Table 4 at 64 nodes.
    ("table4/LCS NxtChar", "threads", 262_000.0, "threads", off(262_000.0,
        "problem size: 2 048 characters through 64 nodes; LcsConfig::paper() streams 4 096")),
    ("table4/LCS NxtChar", "instr per thread", 232.0, "instrs", off(232.0,
        "problem size: 8 characters of A per node; LcsConfig::paper() holds 16")),
    ("table4/LCS NxtChar", "msg len", 3.0, "words", off(3.0,
        "model: NxtChar is four words here (header, character, left, diagonal)")),
    ("table4/RadixSort Write", "instr per thread", 4.0, "instrs", off(4.0,
        "model: rs_write also picks the double buffer and counts arrivals for the pass's end")),
    ("table4/RadixSort Write", "msg len", 3.0, "words", near(3.0)),
    ("table4/NQueens NQueens", "instr per thread", 300_000.0, "instrs", off(300_000.0,
        "problem size: a ten-queens subtree below depth 4; the paper's is 13-queens")),
    ("table4/NQueens NQueens", "msg len", 8.0, "words", near(8.0)),
    // Table 5 at 64 nodes.
    ("table5/run time", "user", 26_300.0, "ms", off(26_300.0, TSP_SIZE)),
    ("table5/threads", "user", 9.1e6, "threads", off(9.1e6, TSP_SIZE)),
    ("table5/instructions", "user", 2.8e9, "instrs", off(2.8e9, TSP_SIZE)),
    ("table5/xlates", "user", 5.1e8, "xlates", off(5.1e8, TSP_SIZE)),
    ("table5/xlate faults", "user", 1.6e4, "faults", off(1.6e4,
        "model: the 1 024-entry name cache never misses on this object set")),
    ("table5/instr per thread", "user", 309.0, "instrs", near(309.0)),
    ("table5/msg len", "user", 5.1, "words", off(5.1, TSP_MSGS)),
    ("table5/threads", "os", 8.9e6, "threads", off(8.9e6, TSP_SIZE)),
    ("table5/instructions", "os", 5.4e8, "instrs", off(5.4e8, TSP_SIZE)),
    ("table5/instr per thread", "os", 61.0, "instrs", off(61.0,
        "model: COSMOS-lite's runtime threads (bound, work request, termination) are a few \
         instructions each; CST's were method dispatches")),
    ("table5/msg len", "os", 4.0, "words", off(4.0, TSP_MSGS)),
    // Not the paper's: absolute floors a regenerated traffic sweep cannot
    // slide under (an injection port's full rate is 1 flit per cycle).
    ("traffic/uniform_random", "knee_throughput", 0.30, "flits/node/cycle", Band(0.30, 1.0)),
    ("traffic/transpose", "knee_throughput", 0.19, "flits/node/cycle", Band(0.19, 1.0)),
    ("traffic/bit_reversal", "knee_throughput", 0.20, "flits/node/cycle", Band(0.20, 1.0)),
    ("traffic/hotspot", "knee_throughput", 0.045, "flits/node/cycle", Band(0.045, 1.0)),
    ("traffic/nearest_neighbor", "knee_throughput", 0.85, "flits/node/cycle", Band(0.85, 1.0)),
]};

/// The entries of one artifact (`fig2`, `traffic`): those whose line is
/// `artifact` or below it. The empty name is every artifact.
pub fn under(artifact: &str) -> impl Iterator<Item = &'static Published> + '_ {
    TABLE.iter().filter(move |(line, ..)| {
        let below = line.strip_prefix(artifact);
        artifact.is_empty() || below.is_some_and(|l| l.is_empty() || l.starts_with('/'))
    })
}

/// The published value of `(line, metric)`, if the table has one.
pub fn published(line: &str, metric: &str) -> Option<f64> {
    let found = TABLE.iter().find(|p| (p.0, p.1) == (line, metric));
    found.map(|p| p.2)
}

/// An artifact's published values as the `paper/…` twins of its rows.
pub fn paper_rows(artifact: &str) -> Vec<Row> {
    let twin = |&(line, metric, value, unit, _): &Published| {
        Row::simulated(&format!("paper/{line}"), metric, value, unit)
    };
    under(artifact).map(twin).collect()
}

/// The one comparator: holds each entry of `table` against its twin in
/// `rows`. A [`Hold::Band`] twin outside its band fails; a [`Hold::Off`]
/// twin is reported with its reason, and fails if it is back inside; an
/// entry without a twin fails. The holds are stated for the default full
/// size: with `held` false they are skipped, in one line.
pub(crate) fn compare<'a>(
    v: &mut Verdict,
    table: impl Iterator<Item = &'a Published>,
    rows: &[Row],
    held: bool,
) {
    let table = table.filter(|p| p.4 != Hold::Shown);
    if !held {
        let n = table.count();
        if n > 0 {
            v.skip(format!("{n} holds: stated for the default full size"));
        }
        return;
    }
    for &(line, metric, value, unit, hold) in table {
        let label = format!("{line} {metric}");
        let Some(got) = rows::value(rows, line, metric) else {
            v.check(false, format!("{label}: no measured twin"));
            continue;
        };
        let (lo, hi, off) = match hold {
            Hold::Band(lo, hi) => (lo, hi, None),
            Hold::Off(lo, hi, why) => (lo, hi, Some(why)),
            Hold::Shown => unreachable!("filtered above"),
        };
        let n = |x| cell(x, unit);
        let text = format!("{label:<40} {} vs {}", n(got), n(value));
        let band = format!("{}..{}", n(lo), n(hi));
        match (off, (lo..=hi).contains(&got)) {
            (None, inside) => v.check(inside, format!("{text} (held in {band})")),
            (Some(why), false) => v.off(format!("{text} (outside {band}) — {why}")),
            (Some(why), true) => v.check(
                false,
                format!("{text} is back inside {band}: stale verdict — {why}"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_cycles_match_table1() {
        // A comparison machine's cycle columns are its microsecond columns
        // at its clock.
        for (machine, mhz) in [
            ("nCUBE-2 (Vendor)", 20.0),
            ("CM-5 (Vendor)", 33.0),
            ("DELTA (Vendor)", 40.0),
            ("nCUBE-2 (Active)", 20.0),
            ("CM-5 (Active)", 33.0),
            ("J-Machine", 12.5),
        ] {
            let line = format!("table1/{machine}");
            for (us, cycles, slack) in [
                ("us/msg", "cycles/msg", 0.5),
                ("us/byte", "cycles/byte", 0.01),
            ] {
                let expect = published(&line, us).unwrap() * mhz;
                let got = published(&line, cycles).unwrap();
                assert!((got - expect).abs() <= slack, "{line} {cycles}: {got}");
            }
        }
    }

    #[test]
    fn barrier_lookup() {
        assert_eq!(published("table3/8", "EM4"), Some(4.7));
        assert_eq!(published("table3/128", "EM4"), None);
        assert!(under("table3").all(|p| p.0.starts_with("table3/")));
        assert_eq!(under("table3").count(), 9 + 5 + 5 + 6 + 6 + 1);
        assert_eq!(under("").count(), TABLE.len());
        // An artifact's twins carry its published values under `paper/`.
        let twins = paper_rows("table3");
        assert_eq!(rows::value(&twins, "paper/table3/64", "KSR"), None);
        assert_eq!(
            rows::value(&twins, "paper/table3/64", "iPSC/860"),
            Some(847.0)
        );
        // No line is listed twice.
        for (i, p) in TABLE.iter().enumerate() {
            let twice = TABLE[..i].iter().any(|q| (q.0, q.1) == (p.0, p.1));
            assert!(!twice, "{} {} is listed twice", p.0, p.1);
        }
    }

    const SYNTHETIC: [Published; 4] = [
        ("a/x", "cycles", 100.0, "cycles", near(100.0)),
        ("a/y", "cycles", 100.0, "cycles", off(100.0, "model: test")),
        ("a/z", "cycles", 1.0, "cycles", Hold::Shown),
        ("a/w", "cycles", 8.0, "cycles", near(8.0)),
    ];

    fn verdict(rows: &[(&str, f64)], held: bool) -> Verdict {
        let rows: Vec<Row> = rows
            .iter()
            .map(|(name, value)| Row::simulated(name, "cycles", *value, "cycles"))
            .collect();
        let mut v = Verdict::default();
        compare(&mut v, SYNTHETIC.iter(), &rows, held);
        v
    }

    #[test]
    fn the_comparator_holds_bands_reports_offs_and_rejects_stale_verdicts() {
        // In band (the edge included), known off: nothing fails, and the
        // `Shown` entry is not held at all.
        let v = verdict(&[("a/x", 110.0), ("a/y", 200.0), ("a/w", 6.0)], true);
        assert!(!v.failed, "{:?}", v.lines);
        assert_eq!(v.lines.len(), 3);
        assert!(v.lines[0].starts_with("[ok] a/x cycles"), "{:?}", v.lines);
        assert!(v.lines[0].contains("110 vs 100 (held in 75..125)"));
        assert!(v.lines[1].starts_with("[off] a/y cycles"), "{:?}", v.lines);
        assert!(v.lines[1].ends_with("model: test"), "{:?}", v.lines);
        // Out of band fails.
        let v = verdict(&[("a/x", 126.0), ("a/y", 200.0), ("a/w", 8.0)], true);
        assert!(
            v.failed && v.lines[0].starts_with("[FAIL] a/x"),
            "{:?}",
            v.lines
        );
        // An `Off` row back inside the band fails: the verdict is stale.
        let v = verdict(&[("a/x", 100.0), ("a/y", 101.0), ("a/w", 8.0)], true);
        assert!(
            v.failed && v.lines[1].starts_with("[FAIL] a/y"),
            "{:?}",
            v.lines
        );
        assert!(v.lines[1].contains("stale"), "{:?}", v.lines);
        // A held entry without a measured twin fails.
        let v = verdict(&[("a/x", 100.0), ("a/y", 200.0)], true);
        assert!(
            v.failed && v.lines[2].contains("no measured twin"),
            "{:?}",
            v.lines
        );
        // Off the default size nothing is held, whatever the rows say.
        let v = verdict(&[("a/x", 1e9)], false);
        assert!(!v.failed);
        assert_eq!(
            v.lines,
            ["[skip] 3 holds: stated for the default full size"]
        );
    }

    #[test]
    fn every_held_value_has_a_committed_twin_and_every_off_a_verdict() {
        let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
        let read = |f: &str| std::fs::read_to_string(format!("{root}/{f}")).expect(f);
        let mut committed = rows::read(&read("BENCH_paper.json")).unwrap();
        committed.extend(rows::read(&read("BENCH_traffic.json")).unwrap());
        let design = read("DESIGN.md");
        let mut v = Verdict::default();
        compare(&mut v, TABLE.iter(), &committed, true);
        assert!(!v.failed, "{:#?}", v.lines);
        for &(line, metric, .., hold) in TABLE {
            let Hold::Off(_, _, why) = hold else {
                continue;
            };
            // `model…`, `problem size…` or `substitution (DESIGN §n …)`
            // with a section DESIGN.md has.
            let cited = why.split_once("DESIGN §").map(|(_, rest)| {
                let n: String = rest.chars().take_while(|c| !" )".contains(*c)).collect();
                design.lines().any(|l| l.starts_with(&format!("## {n}")))
            });
            let named = ["model: ", "problem size: ", "substitution (DESIGN §"]
                .iter()
                .any(|verdict| why.starts_with(verdict));
            assert!(named && cited != Some(false), "{line} {metric}: {why}");
        }
    }
}
