//! The one view of measured numbers: [`pivot`] renders the rows under a
//! name prefix as an aligned text table.

use crate::rows::Row;

/// Renders a header and its rows right-aligned in columns, a rule between.
fn aligned(header: &[String], rows: &[Vec<String>]) -> String {
    let width = |i: usize| {
        let cells = rows.iter().map(|row| row[i].len());
        cells.chain([header[i].len()]).max().expect("the header")
    };
    let widths: Vec<usize> = (0..header.len()).map(width).collect();
    let line = |cells: &[String]| {
        let padded = cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}"));
        padded.collect::<Vec<_>>().join("  ") + "\n"
    };
    let rule = "-".repeat(line(header).len() - 1) + "\n";
    let body: String = rows.iter().map(|row| line(row)).collect();
    line(header) + &rule + &body
}

/// Formats one number: ratios to two decimals and per-cycle rates to four
/// whatever their size; anything else by magnitude, whole numbers and
/// hundreds without decimals, the rest with one (three below 1).
pub fn cell(value: f64, unit: &str) -> String {
    let decimals = match unit {
        "x" | "ratio" => 2,
        _ if unit.ends_with("/cycle") => 4,
        _ if value.fract() == 0.0 || value.abs() >= 100.0 => 0,
        _ if value.abs() >= 1.0 => 1,
        _ => 3,
    };
    format!("{value:.decimals$}")
}

/// The slot of `key` in `seen`, appended if new: first-seen order.
fn slot(seen: &mut Vec<String>, key: &str) -> usize {
    let found = seen.iter().position(|k| k == key);
    found.unwrap_or_else(|| {
        seen.push(key.to_string());
        seen.len() - 1
    })
}

/// The table of the rows named `prefix/<line>` (with an empty `prefix`,
/// those whose name has no `/`): a line per distinct `<line>`, a column per
/// metric, both in first-seen order, `-` where a line lacks a metric. A row
/// named `paper/prefix/<line>` fills column `paper <metric>` of the same
/// line. `corner` heads the line names.
pub fn pivot(rows: &[Row], prefix: &str, corner: &str) -> String {
    let (mut lines, mut columns, mut cells) = (Vec::new(), vec![corner.to_string()], Vec::new());
    for r in rows {
        let (paper, name) = match r.name.strip_prefix("paper/") {
            Some(name) => ("paper ", name),
            None => ("", r.name.as_str()),
        };
        let line = match prefix {
            "" => Some(name),
            _ => name.strip_prefix(prefix).and_then(|l| l.strip_prefix('/')),
        };
        let Some(line) = line.filter(|l| !l.contains('/')) else {
            continue;
        };
        let column = slot(&mut columns, &format!("{paper}{}", r.metric));
        cells.push((slot(&mut lines, line), column, cell(r.value, &r.unit)));
    }
    let mut grid: Vec<Vec<String>> = Vec::new();
    for line in lines {
        let mut row = vec!["-".to_string(); columns.len()];
        row[0] = line;
        grid.push(row);
    }
    for (line, column, text) in cells {
        grid[line][column] = text;
    }
    aligned(&columns, &grid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let cells = |row: [&str; 2]| row.map(String::from).to_vec();
        let s = aligned(
            &cells(["a", "bb"]),
            &[cells(["1", "2"]), cells(["333", "4"])],
        );
        assert_eq!(s, "  a  bb\n-------\n  1   2\n333   4\n");
    }

    #[test]
    fn number_formatting() {
        assert_eq!(cell(0.0, "cycles"), "0");
        assert_eq!(cell(1234.6, "Mbit/s"), "1235");
        assert_eq!(cell(12.34, "us"), "12.3");
        assert_eq!(cell(15.0, "us"), "15");
        assert_eq!(cell(0.1234, "us"), "0.123");
        assert_eq!(cell(50.709, "x"), "50.71");
        assert_eq!(cell(0.3, "ratio"), "0.30");
        assert_eq!(cell(0.30221, "flits/node/cycle"), "0.3022");
    }

    #[test]
    fn pivot_lines_columns_gaps_and_paper_twins() {
        let row = |name: &str, metric: &str, value: f64| Row::simulated(name, metric, value, "us");
        let rows = [
            row("table3", "nodes", 4.0),
            row("table3/4", "J", 15.04),
            row("table3/2", "J", 9.8),
            row("table3/2", "gap", 11.0),
            row("table3/fit/2", "J", 1.0),
            row("table30/2", "J", 7.0),
            row("paper/table3/2", "J", 4.4),
            row("paper/table3/8", "EM4", 4.7),
            row("paper/table30/2", "J", 8.0),
        ];
        // Lines and columns in first-seen order; the paper's row lands on
        // its twin's line; a line the paper alone has still shows; neither
        // `table30` nor the grandchild `table3/fit/2` is `table3`'s.
        let expected = "\
nodes     J  gap  paper J  paper EM4
------------------------------------
    4  15.0    -        -          -
    2   9.8   11      4.4          -
    8     -    -        -        4.7
";
        assert_eq!(pivot(&rows, "table3", "nodes"), expected);
        assert_eq!(pivot(&rows, "table3/fit", "n"), "n  J\n----\n2  1\n");
        // The empty prefix is the root: names without a `/`.
        assert_eq!(
            pivot(&rows, "", "artifact"),
            "artifact  nodes\n---------------\n  table3      4\n"
        );
    }
}
