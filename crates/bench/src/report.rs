//! Plain-text table/series formatting for the repro binary.

use std::fmt::Write as _;

/// Renders a fixed-width table.
///
/// # Example
///
/// ```
/// let t = vpps_bench::report::render_table(
///     "Demo",
///     &["a", "b"],
///     &[vec!["1".into(), "2".into()]],
/// );
/// assert!(t.contains("Demo"));
/// assert!(t.contains("| 1"));
/// ```
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "=== {title} ===");
    let line = |out: &mut String| {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        let _ = writeln!(out, "{s}");
    };
    line(&mut out);
    let mut hdr = String::from("|");
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(hdr, " {h:<w$} |");
    }
    let _ = writeln!(out, "{hdr}");
    line(&mut out);
    for row in rows {
        let mut r = String::from("|");
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(r, " {cell:<w$} |");
        }
        let _ = writeln!(out, "{r}");
    }
    line(&mut out);
    out
}

/// A table column: its header and how to format an item's cell under it.
pub type Column<'a, T> = (&'a str, &'a dyn Fn(&T) -> String);

/// Renders one row per item, each column defined once as `(header, cell)`.
pub fn render_columns<T>(title: &str, items: &[T], columns: &[Column<'_, T>]) -> String {
    let headers: Vec<&str> = columns.iter().map(|c| c.0).collect();
    let cells = |item| columns.iter().map(|c| (c.1)(item)).collect();
    let rows: Vec<Vec<String>> = items.iter().map(cells).collect();
    render_table(title, &headers, &rows)
}

/// Formats a recorded self-check flag (`NO` stands out in a column of `yes`).
pub fn fmt_flag(v: bool) -> String {
    if v { "yes" } else { "NO" }.to_owned()
}

/// Formats a throughput value (inputs / simulated second).
pub fn fmt_tput(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats a megabyte quantity the way Table I prints it (k suffix above
/// 1000 MB).
pub fn fmt_mb(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.2}k", v / 1000.0)
    } else {
        format!("{v:.2}")
    }
}

/// Formats a ratio as `N.NNx`.
pub fn fmt_ratio(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            "T",
            &["name", "v"],
            &[
                vec!["a".into(), "1000".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let header_line = t.lines().nth(2).unwrap();
        let row1 = t.lines().nth(4).unwrap();
        assert_eq!(header_line.len(), row1.len());
    }

    #[test]
    fn tput_formatting_scales() {
        assert_eq!(fmt_tput(1234.4), "1234");
        assert_eq!(fmt_tput(123.45), "123.5");
        assert_eq!(fmt_tput(12.345), "12.35");
    }

    #[test]
    fn mb_formatting_uses_k_suffix() {
        assert_eq!(fmt_mb(352.62), "352.62");
        assert_eq!(fmt_mb(2820.0), "2.82k");
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(6.08), "6.08x");
    }
}
