//! Tiny shared harness: flag parsing, table rendering, CSV output.
//!
//! The experiment binaries take `--key value` flags (documented per
//! binary with `--help`), print a human-readable table mirroring the
//! paper's rows/series, and optionally write `--csv <path>`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parsed command-line flags: `--key value` pairs plus `--help`.
#[derive(Debug, Default, Clone)]
pub struct Args {
    flags: BTreeMap<String, String>,
    help: bool,
}

impl Args {
    /// Parse from `std::env::args()`.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (tests).
    fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut flags = BTreeMap::new();
        let mut help = false;
        let mut it = iter.into_iter().peekable();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                help = true;
                continue;
            }
            if let Some(key) = arg.strip_prefix("--") {
                if let Some(eq) = key.find('=') {
                    flags.insert(key[..eq].to_string(), key[eq + 1..].to_string());
                } else if it.peek().map(|n| !n.starts_with("--")).unwrap_or(false) {
                    flags.insert(key.to_string(), it.next().unwrap());
                } else {
                    flags.insert(key.to_string(), String::from("true"));
                }
            } else {
                eprintln!("warning: ignoring positional argument {arg:?}");
            }
        }
        Self { flags, help }
    }

    /// Whether `--help` was requested.
    pub fn wants_help(&self) -> bool {
        self.help
    }

    /// A u64 flag with default.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.flags
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// A usize flag with default.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.u64(key, default as u64) as usize
    }

    /// An f64 flag with default.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.flags
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects a number, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// A boolean flag (present, `=true`, or `=false`).
    pub fn bool(&self, key: &str, default: bool) -> bool {
        self.flags
            .get(key)
            .map(|v| v == "true" || v == "1" || v.is_empty())
            .unwrap_or(default)
    }

    /// A string flag.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Comma-separated u64 list flag with default.
    pub fn u64_list(&self, key: &str, default: &[u64]) -> Vec<u64> {
        match self.flags.get(key) {
            None => default.to_vec(),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--{key} expects integers, got {s:?}"))
                })
                .collect(),
        }
    }
}

/// One row of an output table: label plus cell values.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row cells, formatted.
    pub cells: Vec<String>,
}

/// A printable/exportable results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Row>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of already-formatted cells.
    pub fn push(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(Row { cells });
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(&row.cells) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.columns, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(&row.cells, &widths));
        }
        out
    }

    /// Render as CSV.
    fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.cells.join(","));
        }
        out
    }

    /// Print to stdout and, if `csv_path` is set, write the CSV file.
    pub fn emit(&self, csv_path: Option<&str>) {
        print!("{}", self.render());
        if let Some(path) = csv_path {
            std::fs::write(path, self.to_csv()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("(csv written to {path})");
        }
    }
}

/// Write a bench report document to `path` and say so on stdout. The
/// error names the path, so a bin's `main` can pass it up with `?`.
pub fn write_report(path: &str, doc: &str) -> std::io::Result<()> {
    std::fs::write(path, doc)
        .map_err(|e| std::io::Error::new(e.kind(), format!("writing {path}: {e}")))?;
    println!("wrote {path}");
    Ok(())
}

/// Format seconds for display (ms below 1 s).
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else {
        format!("{:.3}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::from_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_flags() {
        let a = args("--n 1000 --k=12.5 --csv out.csv --verbose");
        assert_eq!(a.u64("n", 0), 1000);
        assert!((a.f64("k", 0.0) - 12.5).abs() < 1e-12);
        assert_eq!(a.str("csv"), Some("out.csv"));
        assert!(a.bool("verbose", false));
        assert!(!a.wants_help());
    }

    #[test]
    fn defaults_apply() {
        let a = args("");
        assert_eq!(a.u64("n", 7), 7);
        assert!(!a.bool("x", false));
        assert!(a.bool("x", true));
        assert_eq!(a.u64_list("ps", &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn list_flag() {
        let a = args("--ps 1,4,16,64");
        assert_eq!(a.u64_list("ps", &[]), vec![1, 4, 16, 64]);
    }

    #[test]
    fn help_flag() {
        assert!(args("--help").wants_help());
        assert!(args("-h").wants_help());
    }

    #[test]
    fn table_render_and_csv() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.push(vec!["1".into(), "2".into()]);
        t.push(vec!["333".into(), "4".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("333"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next().unwrap(), "a,bb");
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn fmt_secs_scales() {
        assert_eq!(fmt_secs(2.5), "2.500s");
        assert_eq!(fmt_secs(0.0025), "2.500ms");
    }
}
