//! The mobility claim, as the M1 experiment computes it: under
//! random-waypoint motion the MST's interference stays in a tight band
//! while the maximum degree drifts and the tree itself churns.
//! EXPERIMENTS.md reads this off `results/m1.csv`; here it is asserted as
//! a shape rather than as the pinned numbers.

use rim_bench::experiments::EXPERIMENTS;
use rim_bench::record::Row;

/// `(I, delta, churn)` of every snapshot, in step order.
fn columns(rows: &[Row]) -> Result<Vec<(f64, f64, f64)>, String> {
    rows.iter()
        .map(|r| {
            let get = |col| r.get(col).ok_or(format!("step {}: no {col}", r.value));
            Ok((get("I")?, get("delta")?, get("churn")?))
        })
        .collect()
}

/// The largest value minus the smallest.
fn spread(values: impl Iterator<Item = f64> + Clone) -> f64 {
    let max = values.clone().fold(f64::NEG_INFINITY, f64::max);
    max - values.fold(f64::INFINITY, f64::min)
}

/// The three claims, or the first one that fails.
fn check_shape(rows: &[Row]) -> Result<(), String> {
    let cols = columns(rows)?;
    if cols.len() < 2 {
        return Err(format!("{} snapshots", cols.len()));
    }
    // Interference stays in [4, 8] on every snapshot.
    let outside = |c: &&(f64, f64, f64)| !(4.0..=8.0).contains(&c.0);
    if let Some((step, (i, _, _))) = cols.iter().enumerate().find(|(_, c)| outside(c)) {
        return Err(format!("I = {i} at step {step} leaves [4, 8]"));
    }
    // Its range is at most a quarter of the maximum degree's.
    let i_spread = spread(cols.iter().map(|c| c.0));
    let delta_spread = spread(cols.iter().map(|c| c.1));
    if 4.0 * i_spread > delta_spread {
        return Err(format!("I spreads by {i_spread}, over a quarter of delta's {delta_spread}"));
    }
    // Every step after the first changes at least a third of the tree.
    if let Some((step, (_, _, churn))) =
        cols.iter().enumerate().skip(1).find(|(_, c)| 3.0 * c.2 < 1.0)
    {
        return Err(format!("churn {churn} at step {step} is under a third"));
    }
    Ok(())
}

fn m1_rows() -> Vec<Row> {
    let m1 = EXPERIMENTS.iter().find(|ex| ex.id == "M1").expect("M1 is registered");
    (m1.run)()
}

#[test]
fn interference_stays_banded_while_degree_drifts_and_the_tree_churns() {
    let rows = m1_rows();
    assert_eq!(rows.len(), 40);
    assert_eq!(check_shape(&rows), Ok(()));
}

#[test]
fn perturbed_rows_break_each_clause() {
    let rows = m1_rows();
    let perturbed = |col: &str, f: &dyn Fn(usize, f64) -> f64| {
        let mut rows = rows.clone();
        for (step, row) in rows.iter_mut().enumerate() {
            let cell = row.columns.iter_mut().find(|(name, _)| *name == col).expect("column");
            cell.1 = f(step, cell.1);
        }
        rows
    };
    let cases = [
        (perturbed("I", &|step, i| if step == 17 { 9.0 } else { i }), "leaves [4, 8]"),
        (perturbed("I", &|step, i| if step == 3 { 3.0 } else { i }), "leaves [4, 8]"),
        (perturbed("delta", &|_, _| 60.0), "over a quarter"),
        (perturbed("churn", &|step, c| if step == 5 { 0.3 } else { c }), "under a third"),
    ];
    for (rows, clause) in cases {
        let err = check_shape(&rows).expect_err(clause);
        assert!(err.contains(clause), "{clause}: {err}");
    }
}
