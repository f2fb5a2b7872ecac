//! Experiment result records and CSV export.

use std::fmt::Write as _;

/// One measured row of an experiment: a named experiment id, the swept
/// parameter, and the measured columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Experiment id (e.g. `"F8"` for Figure 8).
    pub experiment: &'static str,
    /// Swept parameter name (e.g. `"n"`).
    pub param: &'static str,
    /// Swept parameter value.
    pub value: f64,
    /// Measured columns as `(name, value)` pairs.
    pub columns: Vec<(&'static str, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(experiment: &'static str, param: &'static str, value: f64) -> Self {
        Row {
            experiment,
            param,
            value,
            columns: Vec::new(),
        }
    }

    /// Appends a measured column (builder style).
    #[must_use]
    pub fn col(mut self, name: &'static str, value: f64) -> Self {
        self.columns.push((name, value));
        self
    }

    /// Fetches a column by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.columns
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Renders rows as an aligned text table (one table per experiment id,
/// rows assumed homogeneous).
pub fn render_table(rows: &[Row]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    let head = &rows[0];
    let _ = write!(out, "{:>12}", head.param);
    for (name, _) in &head.columns {
        let _ = write!(out, " {name:>14}");
    }
    let _ = writeln!(out);
    for row in rows {
        let _ = write!(out, "{:>12.4}", row.value);
        for &(_, v) in &row.columns {
            let _ = write!(out, " {v:>14.4}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders rows as CSV (`experiment,param,value,col1,col2,…` with a
/// header derived from the first row).
pub fn to_csv(rows: &[Row]) -> String {
    let mut out = String::new();
    if let Some(head) = rows.first() {
        let _ = write!(out, "experiment,{}", head.param);
        for (name, _) in &head.columns {
            let _ = write!(out, ",{name}");
        }
        let _ = writeln!(out);
    }
    for row in rows {
        let _ = write!(out, "{},{}", row.experiment, row.value);
        for &(_, v) in &row.columns {
            let _ = write!(out, ",{v}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_builder_and_lookup() {
        let r = Row::new("F8", "n", 64.0).col("a_exp", 11.0).col("sqrt_n", 8.0);
        assert_eq!(r.get("a_exp"), Some(11.0));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn table_rendering_contains_all_columns() {
        let rows = vec![
            Row::new("X", "n", 1.0).col("y", 2.0),
            Row::new("X", "n", 2.0).col("y", 4.0),
        ];
        let s = render_table(&rows);
        assert!(s.contains('y'));
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let rows = vec![Row::new("X", "n", 1.0).col("y", 2.0), Row::new("X", "n", 0.5).col("y", -0.0)];
        assert_eq!(to_csv(&rows), "experiment,n,y\nX,1,2\nX,0.5,-0\n");
        assert_eq!(to_csv(&[]), "");
    }
}
