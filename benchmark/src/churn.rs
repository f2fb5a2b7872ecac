//! `churn-uniform` and `churn-expchain`: the incremental engine under a
//! seeded arrival/departure/move/relink trace.
//!
//! One operation is one `ChurnSim::step()`, timed in-process with one
//! `Instant` pair as `rim churn` times it: per-edit latency is only
//! visible in-process. The live grid's relinking, `DynamicInterference`
//! edits and the periodic compaction do the work. After the timed loop
//! the final state is snapshotted and restored through `rim churn
//! --resume`, which exercises the snapshot codec. The uniform family has
//! even density; the exp-chain family packs positions log-uniformly over
//! 24 octaves of a line, which overloads grid cells, so an index change
//! tuned to uniform density shows its cost there.

use crate::env::{self, Env};
use crate::layers::{self, Rep};
use crate::proc;
use crate::report::{self, Measure, Report, Tally};
use crate::stats::{self, LatencyHist};
use crate::tracer::Tracer;
use rim_churn::{
    decode_snapshot, encode_snapshot, ChurnConfig, ChurnOp, ChurnSim, ChurnTrace, Family,
};
use std::time::Instant;

/// Scenario of a churn workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Instance family.
    pub family: Family,
    /// Target live population, reached by an `n0`-arrival bootstrap.
    pub n0: usize,
    /// Edits in one traced operation.
    pub trace_edits: u64,
}

/// `churn-uniform`.
pub const UNIFORM: Size = Size {
    family: Family::Uniform,
    n0: 4096,
    trace_edits: 50_000,
};

/// `churn-expchain`: edits cost about six times more here.
pub const EXPCHAIN: Size = Size {
    family: Family::ExpChain,
    n0: 4096,
    trace_edits: 20_000,
};

/// Set-ups per run: `ChurnSim::new` plus the bootstrap.
const SETUPS: usize = 9;

/// The timed loop extends the budget and checks the clock every this
/// many edits, so the final state has no budget left to resume with.
const CHUNK: u64 = 1024;

/// `rim churn --resume` runs per check.
const RESTORES: usize = 20;

fn config(size: Size, seed: u64) -> ChurnConfig {
    ChurnConfig {
        family: size.family,
        n0: size.n0,
        seed,
    }
}

/// A bootstrapped sim with its whole budget spent.
fn bootstrap(size: Size, seed: u64) -> ChurnSim {
    let mut sim = ChurnSim::new(config(size, seed), size.n0 as u64);
    sim.run_to_end();
    sim
}

/// The maintained counts equal the naive oracle on the live topology.
pub fn check_state(sim: &ChurnSim) -> Result<(), String> {
    let (t, slots) = sim.engine().live_topology();
    let want = rim_core::receiver::interference_vector_naive(&t);
    let got: Vec<usize> = slots
        .iter()
        .map(|&v| sim.engine().interference_at(v))
        .collect();
    if got != want {
        return Err(format!(
            "maintained counts diverged from the naive oracle at edit {}",
            sim.counts().edits
        ));
    }
    Ok(())
}

/// A resumed run prints the in-process checkpoint record first.
pub fn check_resume(out: &str, want: &str) -> Result<(), String> {
    match out.lines().next() {
        Some(first) if first == want => Ok(()),
        first => Err(format!("resumed run printed {first:?}, expected {want:?}")),
    }
}

/// Snapshots `sim` and restores it [`RESTORES`] times through `rim
/// churn --resume … --edits 0`. Returns the wall times and the snapshot
/// size.
fn restores(env: &Env, sim: &ChurnSim, tally: &mut Tally) -> Result<(Vec<f64>, usize), String> {
    let bytes = encode_snapshot(sim);
    let path = env.file("churn.snap");
    env::write(&path, &bytes)?;
    let path = path.to_str().ok_or("non-UTF-8 scratch path")?;
    let want = sim.checkpoint_record();
    let mut walls = Vec::new();
    for _ in 0..RESTORES {
        let r = env.run_rim(&["churn", "--resume", path, "--edits", "0"])?;
        walls.push(r.wall.as_secs_f64());
        tally.check(
            "restore",
            1,
            r.stdout_if_ok("rim churn")
                .and_then(|o| check_resume(&o, &want)),
        );
    }
    Ok((walls, bytes.len()))
}

/// Measures edits for `seconds` after [`SETUPS`] set-ups, then checks
/// the final state and restores it.
pub fn run(
    env: &Env,
    workload: &'static str,
    size: Size,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let mut setup = Vec::new();
    let mut sim = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = bootstrap(size, seed);
        setup.push(t.elapsed().as_secs_f64());
        sim = Some(s);
    }
    let mut sim = sim.ok_or("no set-up ran")?;
    let mut m = Measure::default();
    // The peak is the sim's and the driver's; the latency histogram has
    // a fixed size, so it does not grow with the number of edits.
    proc::reset_own_peak()?;
    let start = Instant::now();
    loop {
        sim.extend_budget(CHUNK);
        for _ in 0..CHUNK {
            let t = Instant::now();
            sim.step().expect("the budget was just extended");
            m.hist.record(t.elapsed().as_nanos() as u64);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    m.timed = start.elapsed();
    m.peak_kb = proc::own_peak_kb()?;
    let mut tally = Tally::default();
    // A wrong final state cannot be pinned on one edit: all of them fail.
    tally.check("churn edits", m.hist.len(), check_state(&sim));
    restores(env, &sim, &mut tally)?;
    Ok(Report {
        workload,
        tally,
        metrics: report::end_to_end(&m, &setup)?,
    })
}

fn kind(op: &ChurnOp) -> &'static str {
    match op {
        ChurnOp::Arrival { .. } => "churn.arrival",
        ChurnOp::Departure { .. } => "churn.departure",
        ChurnOp::Move { .. } => "churn.move",
        ChurnOp::Relink { .. } => "churn.relink",
    }
}

/// Traces `trace_edits` edits from the bootstrapped state, drawing each
/// op from the trace and applying it as two spans. An edit during which
/// a compaction ran is a `churn.compact` span whatever its kind.
fn traced_edits(size: Size, seed: u64, base: &ChurnSim) -> (ChurnSim, Tracer, u64) {
    let mut sim = base.clone();
    let mut trace = ChurnTrace::new(config(size, seed), size.n0 as u64 + size.trace_edits);
    // Skip the bootstrap arrivals `base` has applied.
    trace.by_ref().take(size.n0).for_each(drop);
    let mut tr = Tracer::new();
    let mut compactions = 0;
    tr.group("edits", |tr| {
        for _ in 0..size.trace_edits {
            let open = tr.start();
            let op = trace.next();
            tr.end(open, "churn.trace", true);
            let Some(op) = op else { break };
            let before = sim.counts().compactions;
            let open = tr.start();
            sim.apply_edit(op);
            let compacted = sim.counts().compactions > before;
            compactions += u64::from(compacted);
            tr.end(
                open,
                if compacted {
                    "churn.compact"
                } else {
                    kind(&op)
                },
                true,
            );
        }
    });
    (sim, tr, compactions)
}

/// Traces churn for `seconds`, after the untraced references: the same
/// edits through `step`, the restores, and in-process snapshot decodes.
pub fn trace(
    env: &Env,
    workload: &'static str,
    size: Size,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let base = bootstrap(size, seed);
    let mut tally = Tally::default();
    let (untraced, reference) = layers::median_of(|| {
        let mut sim = base.clone();
        sim.extend_budget(size.trace_edits);
        // Timed per edit as `run` times it, so the tracing overhead
        // compares like with like.
        let mut hist = LatencyHist::new();
        let t = Instant::now();
        loop {
            let e = Instant::now();
            if sim.step().is_none() {
                break;
            }
            hist.record(e.elapsed().as_nanos() as u64);
        }
        let wall = t.elapsed().as_secs_f64();
        tally.check("churn edits", hist.len(), check_state(&sim));
        Ok((wall, sim))
    })?;
    let (restore, snapshot_bytes) = restores(env, &reference, &mut tally)?;
    let bytes = encode_snapshot(&reference);
    let mut decode = Vec::new();
    for _ in 0..RESTORES {
        let t = Instant::now();
        let sim = decode_snapshot(&bytes)?;
        decode.push(t.elapsed().as_secs_f64());
        std::hint::black_box(sim);
    }

    rim_obs::install_recorder();
    let want = (reference.live_interference(), *reference.counts());
    let (rep, reps) = layers::median_rep(seconds, &mut tally, || {
        let obs = layers::obs_totals();
        let (sim, tr, compactions) = traced_edits(size, seed, &base);
        let mut counts = layers::obs_delta(&obs, &layers::obs_totals());
        let (c, b) = (sim.counts(), base.counts());
        let d = |now: u64, then: u64| (now - then) as f64;
        counts.insert("churn.arrivals".into(), d(c.arrivals, b.arrivals));
        counts.insert("churn.departures".into(), d(c.departures, b.departures));
        counts.insert("churn.moves".into(), d(c.moves, b.moves));
        counts.insert("churn.relinks".into(), d(c.relinks, b.relinks));
        counts.insert("churn.compactions".into(), compactions as f64);
        let toggled = d(
            c.links_added + c.links_removed,
            b.links_added + b.links_removed,
        );
        let relinks = d(c.relinks, b.relinks);
        counts.insert(
            "churn.relink_toggle_ratio".into(),
            if relinks > 0.0 {
                toggled / relinks
            } else {
                0.0
            },
        );
        let ok = if (sim.live_interference(), *sim.counts()) == want {
            Ok(())
        } else {
            Err("traced edits ended in another state than the untraced ones".into())
        };
        Ok(Rep {
            spans: tr.into_spans(),
            counts,
            ok,
        })
    })?;
    layers::write_spans(env, &rep)?;
    let mut values = layers::breakdown(&rep);
    let (decode, restore) = (stats::median(&decode), stats::median(&restore));
    values.insert("churn.decode_s".into(), decode);
    values.insert("churn.restore_s".into(), restore);
    values.insert("churn.snapshot_bytes".into(), snapshot_bytes as f64);
    values.insert("process_s".into(), restore - decode);
    values.insert(
        "tracing_overhead_s".into(),
        values["traced_wall_s"] - untraced,
    );
    Ok(Report {
        workload,
        tally,
        metrics: report::per_layer(&values, reps)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: Size = Size {
        family: Family::Uniform,
        n0: 48,
        trace_edits: 600,
    };

    #[test]
    fn traced_edits_replay_step_exactly() {
        let base = bootstrap(TOY, 3);
        let mut stepped = base.clone();
        stepped.extend_budget(TOY.trace_edits);
        stepped.run_to_end();
        let (traced, tr, _) = traced_edits(TOY, 3, &base);
        assert_eq!(traced.live_interference(), stepped.live_interference());
        assert_eq!(traced.counts(), stepped.counts());
        check_state(&traced).unwrap();
        // One root span plus a trace span and an apply span per edit.
        assert_eq!(tr.into_spans().len() as u64, 1 + 2 * TOY.trace_edits);
    }

    #[test]
    fn a_wrong_resume_counts_as_failed() {
        let sim = bootstrap(TOY, 3);
        let want = sim.checkpoint_record();
        check_resume(
            &format!("{want}\n{{\"record\":\"churn_summary\"}}\n"),
            &want,
        )
        .unwrap();
        let mut tally = Tally::default();
        tally.check(
            "restore",
            1,
            check_resume(&want.replace("\"live\":48", "\"live\":47"), &want),
        );
        tally.check("restore", 1, check_resume("", &want));
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 2
            }
        );
    }
}
