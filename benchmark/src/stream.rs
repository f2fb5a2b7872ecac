//! `stream`: `rim analyze --generate uniform:N`, the file-free streaming
//! path. One operation is one run: generate N uniform nodes, give each
//! its nearest-neighbour distance as radius, and scatter the disks
//! through the SoA kernel. Nearest-neighbour radius assignment does most
//! of the work and the working set is far beyond the cache; nothing of
//! the file pipeline or the churn engine runs.

use crate::env::Env;
use crate::layers::{self, Rep};
use crate::proc::{field, ChildRun};
use crate::report::{self, Measure, Report, Tally};
use crate::tracer::Tracer;
use rim_core::StreamInstance;
use rim_geom::{SoaGrid, SoaPoints};
use std::time::Instant;

/// Instance size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Uniform nodes at unit density (side `√n`).
    pub n: usize,
}

/// The size the benchmark runs.
pub const FULL: Size = Size { n: 2_000_000 };

/// Set-ups per run, each one warm-up run.
const SETUPS: usize = 5;

fn run_once(env: &Env, size: Size, seed: u64) -> Result<ChildRun, String> {
    let spec = format!("uniform:{}", size.n);
    env.run_rim(&["analyze", "--generate", &spec, "--seed", &seed.to_string()])
}

/// Checks a run's report: it covers `n` nodes, max I lies within the
/// √ln n envelope, and the mean is exactly 1, because with
/// nearest-neighbour radii each disk holds exactly its nearest
/// neighbour. Returns the printed max I.
pub fn check_output(out: &str, n: usize) -> Result<u32, String> {
    let nodes = field(out, "nodes:").and_then(|s| s.split_whitespace().next());
    if nodes != Some(&n.to_string()) {
        return Err(format!("report covers {nodes:?} nodes, expected {n}"));
    }
    if field(out, "mean node interference:") != Some("1.000") {
        return Err(format!(
            "mean interference is {:?}, expected 1.000",
            field(out, "mean node interference:")
        ));
    }
    if !field(out, "sqrt(log n) envelope:").is_some_and(|s| s.ends_with("-> within")) {
        return Err("max interference is outside the sqrt(log n) envelope".into());
    }
    field(out, "receiver interference I:")
        .and_then(|s| s.parse().ok())
        .ok_or("no receiver interference line".into())
}

/// Measures runs for `seconds` after [`SETUPS`] warm-up runs.
pub fn run(env: &Env, size: Size, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setup = Vec::new();
    for _ in 0..SETUPS {
        setup.push(run_once(env, size, seed)?.wall.as_secs_f64());
    }
    let (mut m, mut tally) = (Measure::default(), Tally::default());
    let start = Instant::now();
    while m.hist.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let r = run_once(env, size, seed)?;
        m.op(r.wall);
        m.peak_kb = m.peak_kb.max(r.peak_kb);
        tally.check(
            "stream run",
            1,
            r.stdout_if_ok("rim analyze")
                .and_then(|o| check_output(&o, size.n).map(drop)),
        );
    }
    Ok(Report {
        workload: "stream",
        tally,
        metrics: report::end_to_end(&m, &setup)?,
    })
}

/// The grid cell `StreamInstance::try_with_nn_radii` asks for: about
/// one point per cell.
fn nn_cell_hint(points: &SoaPoints) -> f64 {
    let bbox = points.bbox();
    if bbox.is_empty() {
        return 1.0;
    }
    let area = (bbox.width() * bbox.height()).max(f64::MIN_POSITIVE);
    let h = (area / points.len().max(1) as f64).sqrt();
    if h > 0.0 && h.is_finite() {
        h
    } else {
        1.0
    }
}

/// `commands::analyze_generated`, call for call. Returns (max I, Σ I).
fn replay(tr: &mut Tracer, size: Size, seed: u64, threads: usize) -> Result<(u32, u64), String> {
    tr.group("run", |tr| {
        let side = (size.n.max(1) as f64).sqrt();
        let soa = tr.layer("workloads.uniform_soa", || {
            rim_workloads::uniform_soa(size.n, side, seed)
        });
        let inst = tr
            .layer("core.build_nn", || StreamInstance::try_with_nn_radii(soa))
            .map_err(|e| e.to_string())?;
        let counts = tr.layer("core.count", || inst.interference_counts_sharded(threads));
        let max = counts.iter().copied().max().unwrap_or(0);
        Ok((max, counts.iter().map(|&c| u64::from(c)).sum()))
    })
}

/// Bytes the count kernel moves, from its array sizes: the sender sweep
/// reads two coordinate columns and the radius column (8 bytes each);
/// each worker writes a private `u32` buffer that is read back, and with
/// more than one worker the merge writes and re-reads one more; the
/// un-permute reads the `u32` id column and writes the `u32` output.
pub fn count_bytes(n: usize, threads: usize) -> u64 {
    let workers = threads.min(n / 1024).max(1) as u64;
    let n = n as u64;
    let merge = if workers > 1 { n * 8 } else { 0 };
    n * 3 * 8 + workers * n * 8 + merge + n * 8
}

/// Traces in-process runs for `seconds`, after untraced subprocess and
/// in-process runs as references.
pub fn trace(env: &Env, size: Size, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut tally = Tally::default();
    run_once(env, size, seed)?;
    let (sub_s, printed) = layers::median_of(|| {
        let r = run_once(env, size, seed)?;
        let printed = r
            .stdout_if_ok("rim analyze")
            .and_then(|o| check_output(&o, size.n));
        tally.check("stream run", 1, printed.clone().map(drop));
        Ok((r.wall.as_secs_f64(), printed))
    })?;
    let agrees = |max: u32, total: u64| match &printed {
        Ok(p) if *p == max && total == size.n as u64 => Ok(()),
        Ok(p) => Err(format!(
            "in-process I = {max}, Σ I = {total}; rim printed I = {p}"
        )),
        Err(e) => Err(e.clone()),
    };
    let (inproc, ()) = layers::median_of(|| {
        let t = Instant::now();
        let (max, total) = replay(&mut Tracer::disabled(), size, seed, env.threads)?;
        let wall = t.elapsed().as_secs_f64();
        tally.check("in-process run", 1, agrees(max, total));
        Ok((wall, ()))
    })?;
    // The grid build on its own, as `try_with_nn_radii` runs it, so the
    // radius assignment can be told apart from the index build.
    let (soa_build, ()) = layers::median_of(|| {
        let soa = rim_workloads::uniform_soa(size.n, (size.n.max(1) as f64).sqrt(), seed);
        let t = Instant::now();
        std::hint::black_box(
            SoaGrid::try_build(&soa, nn_cell_hint(&soa)).map_err(|e| e.to_string())?,
        );
        Ok((t.elapsed().as_secs_f64(), ()))
    })?;

    rim_obs::install_recorder();
    let (rep, reps) = layers::median_rep(seconds, &mut tally, || {
        let before = layers::obs_totals();
        let mut tr = Tracer::new();
        let (max, total) = replay(&mut tr, size, seed, env.threads)?;
        let mut counts = layers::obs_delta(&before, &layers::obs_totals());
        counts.insert("core.count_hits".into(), total as f64);
        counts.insert(
            "core.count_bytes".into(),
            count_bytes(size.n, env.threads) as f64,
        );
        Ok(Rep {
            spans: tr.into_spans(),
            counts,
            ok: agrees(max, total),
        })
    })?;
    layers::write_spans(env, &rep)?;
    let mut values = layers::breakdown(&rep);
    values.insert("geom.soa_build_s".into(), soa_build);
    values.insert(
        "core.nn_radii_s".into(),
        values["core.build_nn_s"] - soa_build,
    );
    values.insert("process_s".into(), sub_s - inproc);
    values.insert(
        "tracing_overhead_s".into(),
        values["traced_wall_s"] - inproc,
    );
    Ok(Report {
        workload: "stream",
        tally,
        metrics: report::per_layer(&values, reps)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "nodes:                    5000 (generated uniform, seed 1, side 70.7)\n\
                        interference engine:      streaming (nearest-neighbor radii)\n\
                        receiver interference I:  4\n\
                        mean node interference:   1.000\n\
                        sqrt(log n) envelope:     [2.34, 17.52] -> within\n";

    #[test]
    fn a_corrupted_report_counts_as_failed() {
        assert_eq!(check_output(GOOD, 5000), Ok(4));
        let mut tally = Tally::default();
        for bad in [
            GOOD.replace("5000 (", "4999 ("),
            GOOD.replace("1.000", "1.001"),
            GOOD.replace("-> within", "-> OUTSIDE"),
            GOOD.replace("I:  4", "I:  x"),
        ] {
            tally.check("stream run", 1, check_output(&bad, 5000).map(drop));
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 4
            }
        );
    }

    #[test]
    fn count_bytes_scales_with_workers() {
        assert_eq!(count_bytes(2048, 1), 2048 * (24 + 8 + 8));
        assert_eq!(count_bytes(2048, 2), 2048 * (24 + 16 + 8 + 8));
        // Fewer than 1024 nodes per worker collapse to one worker.
        assert_eq!(count_bytes(1000, 8), count_bytes(1000, 1));
    }
}
