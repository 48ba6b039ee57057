//! Aligned text-table rendering for the figure/table reproduction harness.
//!
//! Every experiment in `rpu-core` returns its rows through [`Table`] so
//! the `repro` binary emits the same series the paper plots. Rows hold
//! typed [`Cell`]s (strings, integers, fixed-precision floats) and each
//! column may carry a unit, so one structured table renders to aligned
//! text (diff-friendly, byte-stable), CSV or JSON without the
//! experiments knowing about output formats.

use std::fmt;

/// One typed table cell.
///
/// The text rendering of a [`Cell::Num`] is exactly [`num`]`(value,
/// digits)`, so converting a table from pre-rendered strings to typed
/// cells never changes its bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free-form text (labels, annotated values).
    Str(String),
    /// An integer count (batch sizes, CU counts, replica counts).
    Int(i64),
    /// A float rendered with a fixed number of decimals.
    Num {
        /// The value.
        value: f64,
        /// Decimals in the text/CSV rendering.
        digits: usize,
    },
}

impl Cell {
    /// A text cell.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Self {
        Self::Str(s.into())
    }

    /// An integer cell.
    #[must_use]
    pub fn int(v: impl Into<i64>) -> Self {
        Self::Int(v.into())
    }

    /// A fixed-precision float cell (rendered via [`num`]).
    #[must_use]
    pub fn num(value: f64, digits: usize) -> Self {
        Self::Num { value, digits }
    }

    /// The text/CSV rendering of the cell.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Self::Str(s) => s.clone(),
            Self::Int(v) => v.to_string(),
            Self::Num { value, digits } => num(*value, *digits),
        }
    }

    /// The JSON rendering of the cell: strings are quoted and escaped,
    /// integers and finite floats are emitted as JSON numbers (floats at
    /// their table precision, so JSON and text agree), non-finite floats
    /// become `null`.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            Self::Str(s) => json_string(s),
            Self::Int(v) => v.to_string(),
            Self::Num { value, digits } => {
                if value.is_finite() {
                    num(*value, *digits)
                } else {
                    "null".to_owned()
                }
            }
        }
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Self::Str(s)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Self::Str(s.to_owned())
    }
}

/// Escapes a string as a quoted JSON string literal — shared by
/// [`Table::to_json`] and any caller assembling JSON envelopes around
/// tables.
#[must_use]
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

/// A simple aligned table with a title, a header row, optional
/// per-column units and typed data rows.
///
/// # Examples
///
/// ```
/// use rpu_util::table::{Cell, Table};
///
/// let mut t = Table::new("Demo", &["x", "y"]).with_units(&["", "ms"]);
/// t.push_row(vec![Cell::int(1), Cell::num(2.5, 1)]);
/// let s = t.to_string();
/// assert!(s.contains("Demo"));
/// assert!(s.contains("2.5"));
/// assert!(t.to_json().contains("\"unit\":\"ms\""));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    units: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    #[must_use]
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            units: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Attaches per-column units (builder style). Units are metadata for
    /// the structured (JSON) rendering; the text layout is unchanged —
    /// headers that want visible units keep spelling them, e.g.
    /// `"TTFT p99 (ms)"`. Missing trailing entries default to unitless.
    #[must_use]
    pub fn with_units(mut self, units: &[&str]) -> Self {
        self.units = units.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// Appends a typed data row. Rows shorter than the header are padded
    /// with empty cells; longer rows are allowed and extend the layout.
    pub fn push_row(&mut self, cells: Vec<Cell>) {
        self.rows.push(cells);
    }

    /// Appends a data row of plain text cells.
    pub fn row(&mut self, cells: &[String]) {
        self.rows
            .push(cells.iter().map(|c| Cell::Str(c.clone())).collect());
    }

    /// Number of data rows currently in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders the table as CSV (header + rows), for machine consumption.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Cell::render).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table as one JSON object:
    /// `{"title": ..., "columns": [{"name", "unit"?}], "rows": [[...]]}`.
    /// Cells keep their types — see [`Cell::to_json`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"title\":");
        out.push_str(&json_string(&self.title));
        out.push_str(",\"columns\":[");
        for (i, h) in self.header.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            out.push_str(&json_string(h));
            if let Some(u) = self.units.get(i).filter(|u| !u.is_empty()) {
                out.push_str(",\"unit\":");
                out.push_str(&json_string(u));
            }
            out.push('}');
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, c) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&c.to_json());
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    fn widths(&self) -> Vec<usize> {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.render().chars().count());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1);
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |row: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<w$}"));
                if i + 1 != widths.len() {
                    line.push_str("   ");
                }
            }
            line.trim_end().to_owned()
        };
        writeln!(f, "{}", fmt_row(&self.header))?;
        writeln!(f, "{}", "-".repeat(total.max(4)))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Cell::render).collect();
            writeln!(f, "{}", fmt_row(&cells))?;
        }
        Ok(())
    }
}

/// Formats a float with `digits` significant decimals, trimming noise.
#[must_use]
pub fn num(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_header_rows() {
        let mut t = Table::new("T", &["a", "bb"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["333".into(), "4".into()]);
        let s = t.to_string();
        assert!(s.starts_with("== T =="));
        assert!(s.contains("a     bb"));
        assert!(s.contains("333"));
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("T", &["a", "b", "c"]);
        t.row(&["1".into()]);
        let s = t.to_string();
        assert!(s.contains('1'));
    }

    #[test]
    fn len_and_is_empty() {
        let mut t = Table::new("T", &["a"]);
        assert!(t.is_empty());
        t.row(&["42".into()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn typed_cells_render_like_their_string_twins() {
        // The byte-stability contract: a typed row renders exactly like
        // the pre-rendered strings it replaces.
        let mut typed = Table::new("T", &["s", "i", "f"]);
        typed.push_row(vec![Cell::str("x"), Cell::int(42), Cell::num(1.25, 2)]);
        let mut strings = Table::new("T", &["s", "i", "f"]);
        strings.row(&["x".into(), "42".into(), num(1.25, 2)]);
        assert_eq!(typed.to_string(), strings.to_string());
        assert_eq!(typed.to_csv(), strings.to_csv());
    }

    #[test]
    fn json_has_typed_cells_and_units() {
        let mut t = Table::new("T", &["label", "ms"]).with_units(&["", "ms"]);
        t.push_row(vec![Cell::str("a\"b"), Cell::num(0.5, 3)]);
        t.push_row(vec![
            Cell::int(-7),
            Cell::Num {
                value: f64::NAN,
                digits: 1,
            },
        ]);
        let j = t.to_json();
        assert_eq!(
            j,
            "{\"title\":\"T\",\"columns\":[{\"name\":\"label\"},\
             {\"name\":\"ms\",\"unit\":\"ms\"}],\
             \"rows\":[[\"a\\\"b\",0.500],[-7,null]]}"
        );
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(json_string("a\nb\t\u{1}"), "\"a\\nb\\t\\u0001\"");
    }
}
