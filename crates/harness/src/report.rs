//! Minimal markdown table reporting for the experiment runners.

use std::fmt::Display;

/// A markdown table under construction.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringifying each cell).
    pub fn row<D: Display>(&mut self, cells: &[D]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Renders the table as markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = format!("\n### {}\n\n", self.title);
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the markdown rendering to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }

    /// Renders the table as JSON lines (`{"table": …, "col": value, …}`).
    pub fn to_json_lines(&self) -> String {
        fn escape(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::new();
        for row in &self.rows {
            let mut fields = vec![format!("\"table\":\"{}\"", escape(&self.title))];
            for (col, cell) in self.header.iter().zip(row) {
                // Emit numbers unquoted when they parse as such.
                if cell.parse::<f64>().is_ok() {
                    fields.push(format!("\"{}\":{}", escape(col), cell));
                } else {
                    fields.push(format!("\"{}\":\"{}\"", escape(col), escape(cell)));
                }
            }
            out.push_str(&format!("{{{}}}\n", fields.join(",")));
        }
        out
    }

    /// The collected rows (for tests).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

/// Writes one experiment's tables plus the process-global telemetry
/// snapshot to `BENCH_<exp>.json` (JSON lines: one object per table row,
/// then a final `{"telemetry": …}` object with counters, histograms, and
/// latency percentiles). The target directory is `LFTRIE_BENCH_DIR` when
/// set, else the current directory. Returns the path written.
pub fn write_bench_json(exp: &str, tables: &[Table]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("LFTRIE_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{exp}.json"));
    let mut out = String::new();
    for t in tables {
        out.push_str(&t.to_json_lines());
    }
    out.push_str(&format!(
        "{{\"telemetry\":{}}}\n",
        lftrie_telemetry::snapshot().to_json()
    ));
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Prints the environment banner every experiment report starts with
/// (numbers are only interpretable with the core count).
pub fn print_environment() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "environment: {} hardware thread(s); step counting: {}",
        cores,
        if crate::steps_enabled() { "ON" } else { "off" },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("demo", &["structure", "mops"]);
        t.row(&["lockfree-trie".to_string(), "12.5".to_string()]);
        t.row(&["mutex".to_string(), "3".to_string()]);
        let md = t.to_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("| lockfree-trie | 12.5 |"));
        assert!(md.contains("| mutex         | 3    |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        Table::new("t", &["a", "b"]).row(&["only-one"]);
    }

    #[test]
    fn json_lines_quote_strings_and_not_numbers() {
        let mut t = Table::new("demo", &["structure", "mops"]);
        t.row(&["lockfree-trie".to_string(), "12.5".to_string()]);
        let json = t.to_json_lines();
        assert_eq!(
            json,
            "{\"table\":\"demo\",\"structure\":\"lockfree-trie\",\"mops\":12.5}\n"
        );
    }
}
