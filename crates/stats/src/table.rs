//! Plain-text result tables for the bench harness.
//!
//! Each figure/table binary assembles a [`Table`] whose rows mirror the
//! series the paper plots, then prints it (and optionally CSV for plotting).

use std::fmt;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use nocstar_stats::table::Table;
/// let mut t = Table::new(["workload", "speedup"]);
/// t.row(["gups", "1.25"]);
/// let text = t.to_string();
/// assert!(text.contains("workload"));
/// assert!(text.contains("1.25"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Builds a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "a table needs at least one column");
        Self {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Appends a row of a label followed by formatted numbers.
    pub fn row_values<S: Into<String>>(&mut self, label: S, values: &[f64]) -> &mut Self {
        let mut cells = Vec::with_capacity(values.len() + 1);
        cells.push(label.into());
        cells.extend(values.iter().map(|v| format!("{v:.3}")));
        self.row(cells)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders as comma-separated values (one header line + one line per
    /// row); cells containing commas are quoted.
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
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

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<w$}", w = *w)?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]).row(["longer", "2"]);
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert_eq!(lines.len(), 4);
        // "value" column starts at the same offset in every row.
        let col = lines[0].find("value").unwrap();
        assert_eq!(&lines[3][col..col + 1], "2");
    }

    #[test]
    fn row_values_formats_numbers() {
        let mut t = Table::new(["w", "a", "b"]);
        t.row_values("gups", &[1.0, 2.5]);
        assert_eq!(t.rows()[0], vec!["gups", "1.000", "2.500"]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        Table::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(["k", "v"]);
        t.row(["a,b", "say \"hi\""]);
        let csv = t.to_csv();
        assert_eq!(csv, "k,v\n\"a,b\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(["x"]);
        assert!(t.is_empty());
        t.row(["1"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
