//! Table formatting and CSV output for `run_all`.

use std::fmt::Write as _;
use std::path::PathBuf;

/// A simple column-oriented table: one row per density step (or dataset),
/// one column per measured series.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table identifier, e.g. `fig12_sn_page_reads`.
    pub name: String,
    /// Human title, e.g. the paper's caption.
    pub title: String,
    /// Column headers (first column is the key/axis).
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// File stem of the committed `BENCH_*.json` record this table
    /// regenerates, if any: [`Table::emit`] then also writes it as JSON.
    pub record: Option<&'static str>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: &str, title: &str, columns: &[&str]) -> Table {
        Table {
            name: name.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            record: None,
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity doesn't match the header.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity {} != column count {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Renders an aligned text table (what `run_all` prints).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.name, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Renders RFC-4180-ish CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Renders the table as a JSON document: `name`, `title`, `columns`,
    /// and `rows` as an array of column-keyed objects. Cells that are
    /// plain finite numbers are emitted as JSON numbers, everything else
    /// as strings. Hand-rolled — the workspace takes no serialization
    /// dependency.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"name\": {},", json_string(&self.name));
        let _ = writeln!(out, "  \"title\": {},", json_string(&self.title));
        let cols: Vec<String> = self.columns.iter().map(|c| json_string(c)).collect();
        let _ = writeln!(out, "  \"columns\": [{}],", cols.join(", "));
        let _ = writeln!(out, "  \"rows\": [");
        for (r, row) in self.rows.iter().enumerate() {
            let fields: Vec<String> = self
                .columns
                .iter()
                .zip(row.iter())
                .map(|(c, cell)| format!("{}: {}", json_string(c), json_value(cell)))
                .collect();
            let comma = if r + 1 == self.rows.len() { "" } else { "," };
            let _ = writeln!(out, "    {{{}}}{comma}", fields.join(", "));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON rendering into the results directory as
    /// `<file_stem>.json`, returning the path.
    pub fn save_json(&self, file_stem: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{file_stem}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Writes the CSV into the results directory (`FLAT_RESULTS_DIR`,
    /// default `experiments-results/`), returning the path.
    pub fn save_csv(&self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// Prints the table and saves the CSV, plus the JSON [`Table::record`]
    /// if the table has one.
    pub fn emit(&self) {
        print!("{}", self.render());
        let json = self.record.map(|stem| self.save_json(stem));
        for saved in std::iter::once(self.save_csv()).chain(json) {
            match saved {
                Ok(path) => println!("[saved {}]", path.display()),
                Err(e) => println!("[not saved: {e}]"),
            }
        }
        println!();
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A cell as a JSON value: finite numbers pass through as numbers
/// (re-rendered canonically, so `"0.50"` becomes `0.5`), everything else
/// becomes a string.
fn json_value(cell: &str) -> String {
    match cell.parse::<f64>() {
        Ok(v) if v.is_finite() => {
            if v == v.trunc() && v.abs() < 1e15 {
                format!("{}", v as i64)
            } else {
                format!("{v}")
            }
        }
        _ => json_string(cell),
    }
}

/// The directory CSVs are saved into.
pub fn results_dir() -> PathBuf {
    std::env::var("FLAT_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("experiments-results"))
}

/// Formats a float with sensible precision for tables.
pub fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Formats a byte count as MB with two decimals.
pub fn fmt_mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

/// Formats a duration in seconds.
pub fn fmt_secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("test_table", "A test", &["density", "a", "b"]);
        t.push_row(vec!["50k".into(), "1.0".into(), "2.0".into()]);
        t.push_row(vec!["100k".into(), "10.5".into(), "20.25".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let text = sample().render();
        assert!(text.contains("test_table"));
        assert!(text.contains("density"));
        let lines: Vec<&str> = text.lines().collect();
        // Header, separator and rows all have equal width.
        assert_eq!(lines[1].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("x", "t", &["k", "v"]);
        t.push_row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = sample();
        t.push_row(vec!["oops".into()]);
    }

    #[test]
    fn float_formatting_scales_precision() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.1234567), "0.1235");
        assert_eq!(fmt_f64(12.345), "12.35");
        assert_eq!(fmt_f64(1234.6), "1235");
    }

    #[test]
    fn json_renders_numbers_and_escapes_strings() {
        let mut t = Table::new("bench_x", "quote \"me\"", &["k", "qps", "note"]);
        t.push_row(vec!["4".into(), "1250.50".into(), "2.1x".into()]);
        let json = t.to_json();
        assert!(json.contains("\"name\": \"bench_x\""));
        assert!(json.contains("\"quote \\\"me\\\"\""));
        // Numeric cells become numbers, suffixed ones stay strings.
        assert!(json.contains("\"k\": 4,"));
        assert!(json.contains("\"qps\": 1250.5,"));
        assert!(json.contains("\"note\": \"2.1x\""));
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn csv_roundtrips_through_fs() {
        let dir = std::env::temp_dir().join("flat-bench-report-test");
        std::env::set_var("FLAT_RESULTS_DIR", &dir);
        let path = sample().save_csv().unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("density,a,b"));
        std::fs::remove_dir_all(&dir).ok();
        std::env::remove_var("FLAT_RESULTS_DIR");
    }
}
