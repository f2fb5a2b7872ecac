//! `pipeline`: topology control and analyze through the `rim` binary.
//!
//! One operation is a pass over a single uniform instance: `rim control
//! --algo A` for each of six baselines, then `rim analyze` on each
//! output, as twelve sequential subprocesses. This is the paper's core
//! use, comparing the interference of topology-control baselines; UDG
//! I/O, the spatial indexes, topology control and the batch receiver
//! engine do the work, and the streaming kernel and churn engine are
//! not reached.

use crate::env::{self, Env};
use crate::layers::{self, Rep};
use crate::proc::field;
use crate::report::{self, Measure, Report, Tally};
use crate::tracer::Tracer;
use rim_core::analysis::InterferenceSummary;
use rim_core::receiver::Engine;
use rim_core::sender::sender_graph_interference;
use rim_core::StreamInstance;
use rim_topology_control::Baseline;
use rim_udg::udg::unit_disk_graph;
use rim_udg::{io, NodeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Instance size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Uniform nodes on a square of side `√n / 2`: about 12.5 UDG
    /// neighbours each, whatever `n`.
    pub n: usize,
}

/// The size the benchmark runs.
pub const FULL: Size = Size { n: 20_000 };

/// Set-ups per run: write the instance, then one warm-up pass.
const SETUPS: usize = 5;

/// The baselines of one pass: `--algo` name, baseline, layer span.
const ALGOS: [(&str, Baseline, &str); 6] = [
    ("gg", Baseline::Gabriel, "tc.gg"),
    ("rng", Baseline::Rng, "tc.rng"),
    ("lmst", Baseline::Lmst, "tc.lmst"),
    ("xtc", Baseline::Xtc, "tc.xtc"),
    ("yao6", Baseline::Yao6, "tc.yao6"),
    ("mst", Baseline::Emst, "tc.mst"),
];

/// splitmix64: the benchmark's own generator, so the instance depends
/// only on the seed and not on any `rim` crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The nodes file of the instance for `seed`.
pub fn nodes_text(size: Size, seed: u64) -> String {
    let side = (size.n as f64).sqrt() / 2.0;
    let mut state = seed;
    let mut unit = || (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
    let mut out = String::with_capacity(size.n * 40);
    for _ in 0..size.n {
        let (x, y) = (unit() * side, unit() * side);
        out.push_str(&format!("{x} {y}\n"));
    }
    out
}

/// One subprocess pass.
struct Pass {
    /// Sum of the twelve commands' wall times.
    wall: Duration,
    /// Highest child `VmHWM`, kB.
    peak_kb: u64,
    /// Per algorithm: analyze's stdout, or why a command failed.
    outputs: Vec<Result<String, String>>,
}

fn topology_file(env: &Env, algo: &str) -> std::path::PathBuf {
    env.file(&format!("{algo}.txt"))
}

/// Runs one pass; `Err` only when a command cannot be started.
fn run_pass(env: &Env, nodes: &Path) -> Result<Pass, String> {
    let nodes = nodes.to_str().ok_or("non-UTF-8 scratch path")?;
    let mut pass = Pass {
        wall: Duration::ZERO,
        peak_kb: 0,
        outputs: Vec::new(),
    };
    for (algo, _, _) in ALGOS {
        let topo = topology_file(env, algo);
        let topo = topo.to_str().ok_or("non-UTF-8 scratch path")?;
        let control = env.run_rim(&["control", "--algo", algo, "--nodes", nodes, "--out", topo])?;
        let analyze = env.run_rim(&["analyze", "--nodes", nodes, "--topology", topo])?;
        for c in [&control, &analyze] {
            pass.wall += c.wall;
            pass.peak_kb = pass.peak_kb.max(c.peak_kb);
        }
        let out = control
            .stdout_if_ok("rim control")
            .and_then(|_| analyze.stdout_if_ok("rim analyze"));
        pass.outputs.push(out);
    }
    Ok(pass)
}

fn expect_field(out: &str, label: &str, want: &str) -> Result<(), String> {
    match field(out, label) {
        Some(got) if got == want => Ok(()),
        got => Err(format!("`{label}` printed {got:?}, expected {want:?}")),
    }
}

/// Checks one algorithm's outputs: `rim control`'s footer reports
/// preserved connectivity and the edge count of the file, and `rim
/// analyze`'s I and mean equal an in-process recompute with the
/// streaming engine (a different engine from the one `analyze` picks).
pub fn check_algo(
    algo: &str,
    nodes: &NodeSet,
    topology_text: &str,
    analyze_out: &str,
    threads: usize,
) -> Result<(), String> {
    let footer = topology_text
        .lines()
        .rev()
        .find(|l| l.starts_with("# algo"))
        .ok_or(format!("{algo}: no footer"))?;
    let (edges, connected) = footer
        .strip_prefix(&format!("# algo = {algo}, edges = "))
        .and_then(|rest| rest.split_once(", preserves connectivity = "))
        .ok_or(format!("{algo}: malformed footer {footer:?}"))?;
    if connected != "true" {
        return Err(format!("{algo}: footer says connectivity is not preserved"));
    }
    let t = io::parse_topology(topology_text, nodes).map_err(|e| format!("{algo}: {e}"))?;
    if edges != t.num_edges().to_string() {
        return Err(format!(
            "{algo}: footer says {edges} edges, file has {}",
            t.num_edges()
        ));
    }
    let counts = StreamInstance::from_topology(&t).interference_counts_sharded(threads);
    let max = counts.iter().copied().max().unwrap_or(0);
    let mean =
        counts.iter().map(|&c| u64::from(c)).sum::<u64>() as f64 / counts.len().max(1) as f64;
    let check = |label, want: String| {
        expect_field(analyze_out, label, &want).map_err(|e| format!("{algo}: {e}"))
    };
    check("topology edges:", t.num_edges().to_string())?;
    check("preserves connectivity:", "true".into())?;
    check("receiver interference I:", max.to_string())?;
    check("mean node interference:", format!("{mean:.3}"))
}

fn check_pass(env: &Env, nodes: &NodeSet, pass: &Pass) -> Result<(), String> {
    for ((algo, _, _), out) in ALGOS.iter().zip(&pass.outputs) {
        let out = out.as_ref().map_err(Clone::clone)?;
        check_algo(
            algo,
            nodes,
            &env::read(&topology_file(env, algo))?,
            out,
            env.threads,
        )?;
    }
    Ok(())
}

/// Measures passes for `seconds` after [`SETUPS`] set-ups.
pub fn run(env: &Env, size: Size, seed: u64, seconds: f64) -> Result<Report, String> {
    let nodes_path = env.file("nodes.txt");
    let mut setup = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        env::write(&nodes_path, nodes_text(size, seed))?;
        run_pass(env, &nodes_path)?;
        setup.push(t.elapsed().as_secs_f64());
    }
    let nodes = io::parse_nodes(&env::read(&nodes_path)?).map_err(|e| e.to_string())?;
    let (mut m, mut tally) = (Measure::default(), Tally::default());
    let start = Instant::now();
    while m.hist.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let pass = run_pass(env, &nodes_path)?;
        m.op(pass.wall);
        m.peak_kb = m.peak_kb.max(pass.peak_kb);
        tally.check("pipeline pass", 1, check_pass(env, &nodes, &pass));
    }
    Ok(Report {
        workload: "pipeline",
        tally,
        metrics: report::end_to_end(&m, &setup)?,
    })
}

/// What the in-process `analyze` replay computed, for comparison.
struct Summary {
    max: usize,
    mean: String,
}

/// `commands::control`, call for call, with a span around each call
/// into a layer.
fn replay_control(
    tr: &mut Tracer,
    (algo, baseline, span): (&str, Baseline, &'static str),
    nodes_path: &Path,
    out: &Path,
) -> Result<(), String> {
    let text = env::read(nodes_path)?;
    let nodes = tr
        .layer("udg.parse", || io::parse_nodes(&text))
        .map_err(|e| e.to_string())?;
    let udg = tr.layer("udg.build", || unit_disk_graph(&nodes));
    let t = tr.layer(span, || baseline.build_with(&nodes, &udg, Engine::Auto));
    let mut content = tr.layer("udg.format", || io::format_topology(&t));
    let connected = tr.layer("udg.connectivity", || t.preserves_connectivity_of(&udg));
    content.push_str(&format!(
        "# algo = {algo}, edges = {}, preserves connectivity = {connected}\n",
        t.num_edges()
    ));
    env::write(out, content)
}

/// `commands::analyze` (engine auto, no physical model), call for call.
/// Returns the summary and the UDG's edge count.
fn replay_analyze(
    tr: &mut Tracer,
    nodes_path: &Path,
    topo: &Path,
) -> Result<(Summary, usize), String> {
    let text = env::read(nodes_path)?;
    let nodes = tr
        .layer("udg.parse", || io::parse_nodes(&text))
        .map_err(|e| e.to_string())?;
    let text = env::read(topo)?;
    let t = tr
        .layer("udg.parse", || io::parse_topology(&text, &nodes))
        .map_err(|e| e.to_string())?;
    let udg = tr.layer("udg.build", || unit_disk_graph(&nodes));
    let summary = tr.layer("core.interference", || {
        let s = InterferenceSummary::with_engine(&t, Engine::Auto);
        let argmax = s.argmax();
        (s, argmax)
    });
    let shape = tr.layer("udg.summary", || {
        (
            udg.num_edges(),
            udg.max_degree(),
            t.num_edges(),
            t.is_forest(),
        )
    });
    let connected = tr.layer("udg.connectivity", || t.preserves_connectivity_of(&udg));
    let sender = tr.layer("core.sender", || sender_graph_interference(&t));
    let energy = tr.layer("udg.summary", || t.energy(2.0));
    std::hint::black_box((&shape, connected, sender, energy, summary.1));
    let s = &summary.0;
    Ok((
        Summary {
            max: s.max,
            mean: format!("{:.3}", s.mean),
        },
        shape.0,
    ))
}

/// One in-process pass: returns each algorithm's summary and the UDG
/// edge count.
fn replay_pass(tr: &mut Tracer, env: &Env, nodes: &Path) -> Result<(Vec<Summary>, usize), String> {
    tr.group("pass", |tr| {
        let mut out = Vec::new();
        let mut udg_edges = 0;
        for algo in ALGOS {
            let topo = env.file(&format!("replay-{}.txt", algo.0));
            tr.group("control", |tr| replay_control(tr, algo, nodes, &topo))?;
            let (s, e) = tr.group("analyze", |tr| replay_analyze(tr, nodes, &topo))?;
            out.push(s);
            udg_edges = e;
        }
        Ok((out, udg_edges))
    })
}

/// The in-process summaries agree with what the subprocesses printed.
fn same_as_subprocess(summaries: &[Summary], pass: &Pass) -> Result<(), String> {
    for (s, out) in summaries.iter().zip(&pass.outputs) {
        let out = out.as_ref().map_err(Clone::clone)?;
        expect_field(out, "receiver interference I:", &s.max.to_string())?;
        expect_field(out, "mean node interference:", &s.mean)?;
    }
    Ok(())
}

/// Traces in-process passes for `seconds`, after untraced subprocess
/// and in-process passes as references.
pub fn trace(env: &Env, size: Size, seed: u64, seconds: f64) -> Result<Report, String> {
    let nodes_path = env.file("nodes.txt");
    env::write(&nodes_path, nodes_text(size, seed))?;
    let nodes = io::parse_nodes(&env::read(&nodes_path)?).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    // The untraced references run first: once installed, the recorder
    // stays for the life of the process.
    run_pass(env, &nodes_path)?;
    let (sub_s, sub) = layers::median_of(|| {
        let pass = run_pass(env, &nodes_path)?;
        tally.check("pipeline pass", 1, check_pass(env, &nodes, &pass));
        Ok((pass.wall.as_secs_f64(), pass))
    })?;
    replay_pass(&mut Tracer::disabled(), env, &nodes_path)?;
    let (inproc, ()) = layers::median_of(|| {
        let t = Instant::now();
        let (summaries, _) = replay_pass(&mut Tracer::disabled(), env, &nodes_path)?;
        let wall = t.elapsed().as_secs_f64();
        tally.check("in-process pass", 1, same_as_subprocess(&summaries, &sub));
        Ok((wall, ()))
    })?;

    rim_obs::install_recorder();
    let (rep, reps) = layers::median_rep(seconds, &mut tally, || {
        let before = layers::obs_totals();
        let mut tr = Tracer::new();
        let (summaries, udg_edges) = replay_pass(&mut tr, env, &nodes_path)?;
        let mut counts = layers::obs_delta(&before, &layers::obs_totals());
        counts.insert("udg.edges".into(), udg_edges as f64);
        let ok = same_as_subprocess(&summaries, &sub);
        Ok(Rep {
            spans: tr.into_spans(),
            counts,
            ok,
        })
    })?;
    layers::write_spans(env, &rep)?;
    let mut values = layers::breakdown(&rep);
    values.insert("process_s".into(), sub_s - inproc);
    values.insert(
        "tracing_overhead_s".into(),
        values["traced_wall_s"] - inproc,
    );
    Ok(Report {
        workload: "pipeline",
        tally,
        metrics: report::per_layer(&values, reps)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_udg::Topology;

    #[test]
    fn instance_depends_only_on_the_seed() {
        let s = Size { n: 50 };
        assert_eq!(nodes_text(s, 7), nodes_text(s, 7));
        assert_ne!(nodes_text(s, 7), nodes_text(s, 8));
        let nodes = io::parse_nodes(&nodes_text(s, 7)).unwrap();
        assert_eq!(nodes.len(), 50);
        let side = (50f64).sqrt() / 2.0;
        assert!(nodes
            .points()
            .iter()
            .all(|p| (0.0..side).contains(&p.x) && (0.0..side).contains(&p.y)));
    }

    /// A correct control file and analyze report for a 3-node path, as
    /// the CLI prints them.
    fn path_outputs() -> (NodeSet, String, String) {
        let nodes = NodeSet::on_line(&[0.0, 0.4, 0.8]);
        let t = Topology::from_pairs(nodes.clone(), &[(0, 1), (1, 2)]);
        let topo = format!(
            "{}# algo = mst, edges = 2, preserves connectivity = true\n",
            io::format_topology(&t)
        );
        let analyze = "topology edges:           2\n\
                       preserves connectivity:   true\n\
                       receiver interference I:  2\n\
                       mean node interference:   1.333\n"
            .to_string();
        (nodes, topo, analyze)
    }

    #[test]
    fn correct_outputs_pass_the_check() {
        let (nodes, topo, analyze) = path_outputs();
        check_algo("mst", &nodes, &topo, &analyze, 2).unwrap();
    }

    #[test]
    fn a_corrupted_output_counts_as_failed() {
        let (nodes, topo, analyze) = path_outputs();
        let corrupted = [
            (
                topo.replace("connectivity = true", "connectivity = false"),
                analyze.clone(),
            ),
            (topo.replace("edges = 2", "edges = 3"), analyze.clone()),
            (topo.replace("1 2\n", ""), analyze.clone()),
            (topo.clone(), analyze.replace("I:  2", "I:  3")),
            (topo.clone(), analyze.replace("1.333", "1.334")),
            (topo.clone(), analyze.replace("receiver", "sender")),
        ];
        let mut tally = Tally::default();
        for (t, a) in &corrupted {
            tally.check("pass", 1, check_algo("mst", &nodes, t, a, 2));
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 6,
                failed: 6
            }
        );
    }
}
