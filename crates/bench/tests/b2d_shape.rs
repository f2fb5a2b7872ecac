//! Section 4's comparison on a 2-D field, as the B2D experiment computes
//! it: the ordering of the baselines' receiver- and sender-centric
//! interference that EXPERIMENTS.md reads off `results/b2d.csv`, asserted
//! as a shape rather than as the pinned numbers.

use rim_bench::experiments::EXPERIMENTS;
use rim_bench::record::Row;
use rim_topology_control::Baseline;

/// `(I_recv, I_send)` of `b`'s row (a row's value is the baseline's
/// index in [`Baseline::ALL`]).
fn measures(rows: &[Row], b: Baseline) -> Result<(f64, f64), String> {
    let row = rows
        .iter()
        .find(|r| r.value == b as usize as f64)
        .ok_or(format!("no {} row", b.name()))?;
    let get = |col| row.get(col).ok_or(format!("{}: no {col}", b.name()));
    Ok((get("I_recv")?, get("I_send")?))
}

/// The three claims, or the first one that fails.
fn check_shape(rows: &[Row]) -> Result<(), String> {
    let (rng_recv, rng_send) = measures(rows, Baseline::Rng)?;
    // Every tree baseline interferes at most as much as RNG at the receivers.
    for tree in [Baseline::Nnf, Baseline::Emst, Baseline::Lmst, Baseline::Life] {
        let (recv, _) = measures(rows, tree)?;
        if recv > rng_recv {
            return Err(format!("{} I_recv {recv} > RNG's {rng_recv}", tree.name()));
        }
    }
    // XTC with distance ranking is RNG, row for row.
    let rng = rows.iter().find(|r| r.value == Baseline::Rng as usize as f64);
    let xtc = rows.iter().find(|r| r.value == Baseline::Xtc as usize as f64);
    if rng.map(|r| &r.columns) != xtc.map(|r| &r.columns) {
        return Err(format!("the RNG and XTC rows differ: {rng:?} / {xtc:?}"));
    }
    // RNG sits strictly below every spanner on both measures.
    for spanner in [Baseline::Gabriel, Baseline::Rdg, Baseline::Yao6, Baseline::Cbtc] {
        let (recv, send) = measures(rows, spanner)?;
        if !(rng_recv < recv && rng_send < send) {
            return Err(format!(
                "RNG ({rng_recv}, {rng_send}) is not below {} ({recv}, {send})",
                spanner.name()
            ));
        }
    }
    Ok(())
}

fn b2d_rows() -> Vec<Row> {
    let b2d = EXPERIMENTS.iter().find(|ex| ex.id == "B2D").expect("B2D is registered");
    (b2d.run)()
}

#[test]
fn trees_stay_at_or_below_rng_and_rng_below_every_spanner() {
    let rows = b2d_rows();
    assert_eq!(rows.len(), Baseline::ALL.len());
    assert_eq!(check_shape(&rows), Ok(()));
}

#[test]
fn one_perturbed_row_breaks_the_shape() {
    let rows = b2d_rows();
    let perturbed = |b: Baseline, col: &str, by: f64| {
        let mut rows = rows.clone();
        let row = rows.iter_mut().find(|r| r.value == b as usize as f64).expect("row");
        let cell = row.columns.iter_mut().find(|(name, _)| *name == col).expect("column");
        cell.1 += by;
        rows
    };
    for (b, col, by) in [
        (Baseline::Life, "I_recv", 2.0),
        (Baseline::Xtc, "I_send", 1.0),
        (Baseline::Xtc, "edges", -1.0),
        (Baseline::Rng, "I_recv", 4.0),
        (Baseline::Gabriel, "I_send", -6.0),
    ] {
        assert!(check_shape(&perturbed(b, col, by)).is_err(), "{} {col} {by:+}", b.name());
    }
}
