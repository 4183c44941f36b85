//! Lightweight plain-text table reporting used by every experiment binary.

/// A simple column-aligned table with a title.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    /// Table title (printed as a header line).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted as strings).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header count"
        );
        self.rows.push(row);
    }

    /// Convenience: appends a row of displayable values.
    pub fn push<I, T>(&mut self, row: I)
    where
        I: IntoIterator<Item = T>,
        T: std::fmt::Display,
    {
        self.add_row(row.into_iter().map(|v| v.to_string()).collect());
    }

    /// Renders the table as column-aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Serialises the table as a JSON object
    /// (`{"title": …, "headers": […], "rows": [[…], …]}`) — the machine-
    /// readable artifact format the CI bench-smoke job uploads per PR.
    pub fn to_json(&self) -> String {
        let row_json = |cells: &[String]| {
            format!(
                "[{}]",
                cells
                    .iter()
                    .map(|c| json_string(c))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        format!(
            "{{\"title\":{},\"headers\":{},\"rows\":[{}]}}",
            json_string(&self.title),
            row_json(&self.headers),
            self.rows
                .iter()
                .map(|r| row_json(r))
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

/// Escapes `s` as a JSON string literal (shared with the `sofa-harness`
/// results writer).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serialises several tables as one JSON array.
pub fn tables_to_json(tables: &[Table]) -> String {
    format!(
        "[{}]",
        tables
            .iter()
            .map(|t| t.to_json())
            .collect::<Vec<_>>()
            .join(",")
    )
}

/// Parses a binary's command line, which may hold only `--flag <path>` pairs
/// for the flags in `flags`, each at most once. Returns one optional path per
/// flag, in `flags`' order. Binaries call this before running anything, so a
/// bad command line costs nothing and writes nothing.
///
/// # Errors
///
/// An unknown argument, a flag without a path, or a repeated flag, described
/// in one line.
pub fn parse_path_flags<const N: usize>(
    args: &[String],
    flags: [&str; N],
) -> Result<[Option<std::path::PathBuf>; N], String> {
    let mut paths = std::array::from_fn(|_| None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(slot) = flags.iter().position(|f| f == arg) else {
            return Err(format!(
                "unknown argument {arg:?} (expected {})",
                flags.join(" / ")
            ));
        };
        let path = it
            .next()
            .ok_or_else(|| format!("{arg} requires an output path"))?;
        if paths[slot].replace(path.into()).is_some() {
            return Err(format!("{arg} given twice"));
        }
    }
    Ok(paths)
}

/// Reports a bad command line as one `<bin>: <message>` line on stderr and
/// exits with code 2, the usage-error code of the harness exit contract.
pub fn usage_error(bin: &str, message: &str) -> ! {
    eprintln!("{bin}: {message}");
    std::process::exit(2)
}

/// Writes `text` to `path`, creating parent directories, and echoes the
/// path on stderr — the artifact convention of every experiment binary
/// (the `--json` tables and the `serve_trace` trace and metrics files).
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_text_artifact(path: &std::path::Path, text: &str) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create artifact directory");
        }
    }
    std::fs::write(path, text).expect("write artifact");
    eprintln!("wrote {}", path.display());
}

/// The tail every experiment binary shares: prints `tables` to stdout
/// (blank-line separated) and, given a `--json` path, also writes them there
/// as one JSON array ([`tables_to_json`], [`write_text_artifact`]).
///
/// # Panics
///
/// Panics if the artifact cannot be written.
pub fn print_and_write(tables: &[Table], json: Option<&std::path::Path>) {
    for t in tables {
        t.print();
        println!();
    }
    if let Some(path) = json {
        write_text_artifact(path, &tables_to_json(tables));
    }
}

/// Formats a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a speed-up factor.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns_and_includes_title() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push(["alpha", "1"]);
        t.push(["b", "123456"]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("alpha"));
        assert!(s.contains("123456"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.add_row(vec!["only one".to_string()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(times(9.5), "9.50x");
    }

    #[test]
    fn json_round_trips_structure_and_escapes() {
        let mut t = Table::new("Latency \"p99\"", &["a", "b"]);
        t.push(["x\n", "1"]);
        let j = t.to_json();
        assert_eq!(
            j,
            "{\"title\":\"Latency \\\"p99\\\"\",\"headers\":[\"a\",\"b\"],\
             \"rows\":[[\"x\\n\",\"1\"]]}"
        );
        let arr = tables_to_json(&[t.clone(), t]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert_eq!(arr.matches("\"headers\"").count(), 2);
    }
}
