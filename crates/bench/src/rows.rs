//! The one schema behind every `BENCH_*.json`: a JSON array of flat
//! `{name, metric, value, unit, host_cpus}` rows, one row per line, and the
//! only code that writes or reads one.
//!
//! `name` says what was measured (`ring64_idle_dominated`,
//! `threads/parallel4`, `traffic/hotspot/200000`), `metric` which number of
//! it, `unit` what the number counts. `host_cpus` is the logical CPU count
//! of the host that produced a wall-clock value, and 0 on a simulated
//! (host-independent) one — which is what lets CI `diff` a fault or traffic
//! file generated on any machine against the committed one. Values are
//! written with at most six decimals, so equal measurements give equal
//! bytes.
//!
//! The reader is strict: anything it does not recognise as exactly this
//! format is an error, never a shorter list — a gate that silently stopped
//! at a damaged row would un-gate everything after it.

use std::fmt::{self, Write as _};

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// What was measured.
    pub name: String,
    /// Which number of it.
    pub metric: String,
    /// The number.
    pub value: f64,
    /// What the number counts.
    pub unit: String,
    /// Logical CPUs of the measuring host; 0 for a simulated value.
    pub host_cpus: usize,
}

impl Row {
    /// A simulated value: the same on every host.
    pub fn simulated(name: &str, metric: &str, value: f64, unit: &str) -> Row {
        Row::host(name, metric, value, unit, 0)
    }

    /// A wall-clock value measured on a host with `host_cpus` logical CPUs.
    pub fn host(name: &str, metric: &str, value: f64, unit: &str, host_cpus: usize) -> Row {
        Row {
            name: name.to_string(),
            metric: metric.to_string(),
            value,
            unit: unit.to_string(),
            host_cpus,
        }
    }
}

/// Why a document is not a row file.
#[derive(Debug, Clone, PartialEq)]
pub struct RowsError {
    /// 1-based line the reader stopped at; 0 when the document as a whole
    /// is not a `[` … `]` array (a truncated file has no closing bracket).
    pub line: usize,
    /// What is wrong there.
    pub why: String,
}

impl fmt::Display for RowsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            0 => write!(f, "{}", self.why),
            line => write!(f, "line {line}: {}", self.why),
        }
    }
}

impl std::error::Error for RowsError {}

/// Formats a value with at most six decimals and no trailing zeros.
fn number(v: f64) -> String {
    let s = format!("{v:.6}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Renders `rows` as a row file.
///
/// # Panics
///
/// Panics on a non-finite value or a quote or backslash in a string: the
/// writer's inputs are this crate's own measurements and labels, and the
/// reader would reject the result.
pub fn write(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        assert!(r.value.is_finite(), "{}:{} is not finite", r.name, r.metric);
        for s in [&r.name, &r.metric, &r.unit] {
            assert!(!s.contains(['"', '\\']), "{s:?} needs escaping");
        }
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"metric\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"host_cpus\": {}}}{}",
            r.name,
            r.metric,
            number(r.value),
            r.unit,
            r.host_cpus,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    out.push_str("]\n");
    out
}

/// Reads one row line (without its trailing comma). Strings hold no
/// quotes, so the separators between the five keys cannot occur inside one.
fn row(line: &str) -> Option<Row> {
    let rest = line.strip_prefix("{\"name\": \"")?;
    let (name, rest) = rest.split_once("\", \"metric\": \"")?;
    let (metric, rest) = rest.split_once("\", \"value\": ")?;
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    let (unit, rest) = rest.split_once("\", \"host_cpus\": ")?;
    let host_cpus = rest.strip_suffix('}')?.parse().ok()?;
    let value = value.parse().ok().filter(|v: &f64| v.is_finite())?;
    Some(Row::host(name, metric, value, unit, host_cpus))
}

/// Parses a row file.
///
/// # Errors
///
/// Any departure from the format [`write()`] produces: a missing bracket, a
/// row missing a key, a duplicate `(name, metric)`, a non-finite value.
pub fn read(doc: &str) -> Result<Vec<Row>, RowsError> {
    let fail = |line: usize, why: &str| RowsError {
        line,
        why: why.to_string(),
    };
    let lines: Vec<&str> = doc.lines().collect();
    let [first, body @ .., last] = &lines[..] else {
        return Err(fail(0, "not a `[` … `]` row array"));
    };
    if *first != "[" || *last != "]" || !doc.ends_with('\n') {
        return Err(fail(0, "not a complete `[` … `]` row array (truncated?)"));
    }
    let mut rows: Vec<Row> = Vec::with_capacity(body.len());
    for (i, text) in body.iter().enumerate() {
        // Every row but the last ends in a comma.
        let text = match text.strip_suffix(',') {
            Some(text) if i + 1 < body.len() => text,
            None if i + 1 == body.len() => text,
            _ => return Err(fail(i + 2, "misplaced `,` between rows")),
        };
        let r = row(text).ok_or_else(|| {
            fail(
                i + 2,
                "not a {name, metric, value, unit, host_cpus} row with a finite value",
            )
        })?;
        if find(&rows, &r.name, &r.metric).is_some() {
            return Err(fail(i + 2, "duplicate (name, metric)"));
        }
        rows.push(r);
    }
    Ok(rows)
}

/// The value of row `(name, metric)`, if present.
pub fn value(rows: &[Row], name: &str, metric: &str) -> Option<f64> {
    find(rows, name, metric).map(|r| r.value)
}

/// Simulated rows of one line: `name` holding each `(metric, value, unit)`.
pub fn line(name: &str, numbers: &[(&str, f64, &str)]) -> Vec<Row> {
    let row =
        |&(metric, value, unit): &(&str, f64, &str)| Row::simulated(name, metric, value, unit);
    numbers.iter().map(row).collect()
}

/// The value of `metric` among one point's rows, which share a name.
///
/// # Panics
///
/// If no row is `metric`: a point's reader writes every metric it has.
pub fn metric(rows: &[Row], metric: &str) -> f64 {
    let row = rows.iter().find(|r| r.metric == metric);
    row.unwrap_or_else(|| panic!("no {metric} row")).value
}

/// Row `(name, metric)`, if present.
pub fn find<'a>(rows: &'a [Row], name: &str, metric: &str) -> Option<&'a Row> {
    rows.iter().find(|r| r.name == name && r.metric == metric)
}

/// Logical CPUs of this host, for [`Row::host`].
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Vec<(&'static str, String)> {
        [
            "BENCH_engine.json",
            "BENCH_fault.json",
            "BENCH_paper.json",
            "BENCH_traffic.json",
        ]
        .into_iter()
        .map(|f| {
            let path = format!("{}/../../{f}", env!("CARGO_MANIFEST_DIR"));
            (
                f,
                std::fs::read_to_string(path).expect("committed BENCH file"),
            )
        })
        .collect()
    }

    #[test]
    fn write_then_read_is_the_identity() {
        let rows = vec![
            Row::host("ring64", "speedup", 22.95, "x", 2),
            Row::host("ring64", "wall_secs", 0.007765, "s", 2),
            Row::simulated("traffic/hotspot/50000", "offered_msgs", 1579.0, "msgs"),
            Row::simulated("fault", "seed", 7.0, ""),
            Row::simulated("neg", "delta", -0.5, "ratio"),
        ];
        let text = write(&rows);
        assert_eq!(read(&text).unwrap(), rows);
        assert!(text.contains("\"value\": 1579, "), "{text}");
        assert!(text.contains("\"value\": 0.007765, "), "{text}");
        assert_eq!(read("[\n]\n").unwrap(), vec![]);
    }

    #[test]
    fn committed_files_round_trip_byte_for_byte() {
        for (file, doc) in committed() {
            let rows = read(&doc).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(!rows.is_empty(), "{file}");
            assert_eq!(write(&rows), doc, "{file}");
        }
    }

    #[test]
    fn committed_files_cut_at_every_line_boundary_are_errors() {
        for (file, doc) in committed() {
            let lines: Vec<&str> = doc.split_inclusive('\n').collect();
            for keep in 0..lines.len() {
                let cut: String = lines[..keep].concat();
                assert!(read(&cut).is_err(), "{file} cut to {keep} lines parsed");
                // Closing the bracket by hand leaves a trailing comma.
                if keep > 1 && keep + 1 < lines.len() {
                    assert!(read(&format!("{cut}]\n")).is_err(), "{file}/{keep}");
                }
            }
        }
    }

    #[test]
    fn damaged_rows_are_typed_errors() {
        let good = r#"{"name": "a", "metric": "m", "value": 1, "unit": "x", "host_cpus": 2}"#;
        let doc = |rows: &[&str]| format!("[\n{}\n]\n", rows.join(",\n"));
        assert!(read(&doc(&[good])).is_ok());
        let dup = read(&doc(&[good, good])).unwrap_err();
        assert!(dup.line == 3 && dup.why.contains("duplicate"), "{dup}");
        for bad in [
            r#"{"name": "a", "metric": "m", "value": 1, "unit": "x"}"#,
            r#"{"name": "a", "value": 1, "unit": "x", "host_cpus": 2}"#,
            r#"{"name": "a", "metric": "m", "value": NaN, "unit": "x", "host_cpus": 2}"#,
            r#"{"name": "a", "metric": "m", "value": inf, "unit": "x", "host_cpus": 2}"#,
            r#"{"name": "a", "metric": "m", "value": 1e999, "unit": "x", "host_cpus": 2}"#,
            r#"{"name": "a", "metric": "m", "value": "1", "unit": "x", "host_cpus": 2}"#,
            r#"{"name": "a", "metric": "m", "value": 1, "unit": "x", "host_cpus": -1}"#,
            r#"{"name": "a", "metric": "m", "value": 1, "unit": "x", "host_cpus": 2} "#,
            r#""name": "a""#,
        ] {
            let err = read(&doc(&[good, bad])).unwrap_err();
            assert_eq!(err.line, 3, "{bad}: {err}");
        }
        for unclosed in [
            String::new(),
            format!("[\n{good}\n"),
            format!("[\n{good}\n]"),
        ] {
            assert_eq!(read(&unclosed).unwrap_err().line, 0, "{unclosed}");
        }
    }
}
