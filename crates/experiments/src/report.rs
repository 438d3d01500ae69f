//! Plain-text table formatting and CSV export shared by the experiment
//! binaries.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let mut cells: Vec<String> = row.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, width)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}");
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a number in the compact scientific style the paper's tables use
/// (e.g. `2.62e4`, `0.087`).
pub fn format_sci(value: f64) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    let magnitude = value.abs();
    if (0.01..10_000.0).contains(&magnitude) {
        if magnitude >= 100.0 {
            format!("{value:.1}")
        } else {
            format!("{value:.3}")
        }
    } else {
        format!("{value:.2e}")
    }
}

/// Directory under which experiment binaries drop their CSV output.
pub fn output_dir() -> PathBuf {
    std::env::var_os("ALIC_OUTPUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target").join("experiments"))
}

/// Writes `contents` to `<output dir>/<name>`, creating the directory if
/// needed, and returns the path written.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_output(name: &str, contents: &str) -> io::Result<PathBuf> {
    write_output_to(&output_dir(), name, contents)
}

/// Writes `contents` to `<dir>/<name>`, creating the directory if needed,
/// and returns the path written (the environment-independent core of
/// [`write_output`]).
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_output_to(dir: &Path, name: &str, contents: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    Ok(path)
}

/// Writes a table both to stdout and, as CSV, under the output directory.
/// I/O failures are reported to stderr but do not abort the experiment.
pub fn emit(title: &str, table: &TextTable, csv_name: &str) {
    println!("{title}");
    println!("{table}");
    match write_output(csv_name, &table.to_csv()) {
        Ok(path) => println!("[csv written to {}]\n", path.display()),
        Err(e) => eprintln!("[warning] could not write {csv_name}: {e}"),
    }
}

/// Convenience wrapper for writing an arbitrary text artefact (for example a
/// gnuplot-ready series) next to the CSV outputs.
pub fn emit_text(name: &str, contents: &str) -> Option<PathBuf> {
    match write_output(name, contents) {
        Ok(path) => Some(path),
        Err(e) => {
            eprintln!("[warning] could not write {name}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = TextTable::new(vec!["benchmark", "speed-up"]);
        table.push_row(vec!["adi", "0.29"]);
        table.push_row(vec!["gemver", "26.00"]);
        let rendered = table.render();
        assert!(rendered.contains("benchmark"));
        assert!(rendered.lines().count() >= 4);
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut table = TextTable::new(vec!["a", "b", "c"]);
        table.push_row(vec!["1"]);
        assert!(table.render().lines().count() == 3);
        assert_eq!(table.to_csv().lines().nth(1).unwrap(), "1,,");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut table = TextTable::new(vec!["name", "value"]);
        table.push_row(vec!["a,b", "say \"hi\""]);
        let csv = table.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn scientific_formatting_matches_paper_style() {
        assert_eq!(format_sci(0.0), "0");
        assert_eq!(format_sci(0.087), "0.087");
        assert_eq!(format_sci(26_200.0), "2.62e4");
        assert_eq!(format_sci(3.78e14), "3.78e14");
        assert_eq!(format_sci(57.46), "57.460");
        assert_eq!(format_sci(1.95e-7), "1.95e-7");
    }

    #[test]
    fn write_output_creates_the_file() {
        std::env::set_var(
            "ALIC_OUTPUT_DIR",
            std::env::temp_dir().join("alic-report-test"),
        );
        let path = write_output("unit-test.csv", "a,b\n1,2\n").unwrap();
        assert!(path.exists());
        std::fs::remove_file(path).ok();
        std::env::remove_var("ALIC_OUTPUT_DIR");
    }
}
