//! The CLI subcommands.

use crate::args::{Args, UsageError};
use rim_churn::{decode_snapshot, encode_snapshot, ChurnConfig, ChurnSim};
use rim_core::analysis::InterferenceSummary;
use rim_core::optimal::{min_interference_topology, SolverLimits};
use rim_core::receiver::{graph_interference, Engine};
use rim_core::sender::sender_graph_interference;
use rim_graph::traversal::{components, same_partition};
use rim_highway::HighwayInstance;
use rim_phys::{
    dbm_to_mw, mw_to_dbm, physical_interference_vector, sinr_interference_indexed, PhysModel,
    PhysParams,
};
use rim_sim::{MacConfig, SimConfig, Simulator, TrafficConfig};
use rim_topology_control::Baseline;
use rim_udg::io;
use rim_udg::udg::{udg_census, unit_disk_graph};
use rim_udg::{NodeSet, Topology};
use std::borrow::Cow;
use std::num::NonZeroU64;
use std::str::FromStr;

/// Full usage text for `rim help`.
pub const HELP: &str = "\
rim — receiver-centric interference model toolkit

commands:
  generate  --kind uniform-square|uniform-highway|clusters|grid|exp-chain|fig1
            [--n N] [--side S] [--span S] [--seed K] [--out FILE]
  control   --algo nnf|mst|gg|rng|yao6|xtc|life|lmst|cbtc|kneigh9|rdg|
                   linear|a-exp|a-gen|a-apx|a-gen2
            --nodes FILE [--out FILE]
            [--engine naive|auto]   (construction pipeline)
            [--obs human|jsonl]   (spans/counters/histograms on stderr)
  analyze   --nodes FILE --topology FILE
            [--engine naive|auto]
            [--generate uniform:N]   (skip the files: stream N uniform nodes
              with nearest-neighbor radii through the SoA kernel;
              takes [--seed K] [--side S], no edge list is ever built)
            [--phy off|disk|logdist]   (append a SINR physical-model section;
              disk = disk-equivalent instantiation, logdist takes
              [--alpha A] [--power-dbm P] [--theta-dbm T] [--noise-dbm N]
              [--beta-db B] [--sigma-db S] [--phy-seed K])
            [--obs human|jsonl]
  optimal   --nodes FILE [--max-steps N]   (exact solver; n <= 12)
  simulate  --nodes FILE --topology FILE [--slots N] [--mac csma|aloha]
            [--flows N] [--period N] [--seed K] [--obs human|jsonl]
  churn     --trace FAMILY:N --edits M [--seed K]
            (FAMILY = uniform|clustered|exp-chain|collinear|duplicate;
             seeded churn trace through the incremental engine, checkpoint
             JSONL records plus a timing summary on stdout)
            [--checkpoint-every E]   (default: a tenth of the edit budget)
            [--out FILE]             (JSONL destination, - = stdout)
            [--snapshot FILE]        (freeze the final state to a binary snapshot)
            [--resume FILE]          (continue from a snapshot, which carries
             the trace/seed; --edits then EXTENDS the budget by M more ops)
            [--verify true]          (cross-check every checkpoint against the
             naive from-scratch oracle; O(live^2) per checkpoint)
            [--obs human|jsonl]
  schedule  --nodes FILE --topology FILE   (conflict-free TDMA frame)
  render    --nodes FILE --topology FILE [--out FILE.svg]
            [--disks true|false] [--labels true|false] [--arcs true|false]
  help

files: nodes = `x y` per line; topology = `u v` node-index pairs.";

fn read(path: &str) -> Result<String, UsageError> {
    std::fs::read_to_string(path).map_err(|e| UsageError(format!("cannot read {path}: {e}")))
}

fn write_out(out: &str, content: &str) -> Result<(), UsageError> {
    if out == "-" {
        print!("{content}");
        Ok(())
    } else {
        std::fs::write(out, content).map_err(|e| UsageError(format!("cannot write {out}: {e}")))
    }
}

fn load_nodes(args: &Args) -> Result<NodeSet, UsageError> {
    let path = args.required("nodes")?;
    io::parse_nodes(&read(&path)?).map_err(|e| UsageError(format!("{path}: {e}")))
}

fn load_topology(args: &Args, nodes: &NodeSet) -> Result<Topology, UsageError> {
    let path = args.required("topology")?;
    io::parse_topology(&read(&path)?, nodes).map_err(|e| UsageError(format!("{path}: {e}")))
}

/// Observability report mode, shared by `control`, `analyze`, `simulate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ObsMode {
    Off,
    Human,
    Jsonl,
}

fn obs_mode(args: &Args) -> Result<ObsMode, UsageError> {
    match args.opt("obs", "off").as_str() {
        "off" => Ok(ObsMode::Off),
        "human" => Ok(ObsMode::Human),
        "jsonl" => Ok(ObsMode::Jsonl),
        other => Err(UsageError(format!(
            "unknown --obs mode {other} (expected off, human or jsonl)"
        ))),
    }
}

/// Installs the process-wide recorder when observability is requested.
/// The CLI is one of the two binaries allowed to construct an enabled
/// sink (the `obs-no-op-default` lint audit enforces this).
fn obs_install(mode: ObsMode) -> Option<&'static rim_obs::Recorder> {
    match mode {
        ObsMode::Off => None,
        ObsMode::Human | ObsMode::Jsonl => Some(rim_obs::install_recorder()),
    }
}

/// Emits the collected snapshot on stderr, keeping stdout machine-readable.
fn emit_obs(mode: ObsMode, rec: Option<&rim_obs::Recorder>) {
    let Some(rec) = rec else { return };
    let snap = rec.snapshot();
    match mode {
        ObsMode::Off => {}
        ObsMode::Human => eprint!("{}", snap.render_human()),
        ObsMode::Jsonl => eprint!("{}", snap.to_jsonl()),
    }
}

/// `rim generate` — workload generators to a nodes file.
pub fn generate(args: &Args) -> Result<(), UsageError> {
    let kind = args.required("kind")?;
    let n: usize = args.opt_parse("n", 100)?;
    let seed: u64 = args.opt_parse("seed", 0)?;
    // Each generator asserts on its inputs, so the flags are checked
    // first; `scale` names the flag that sets the instance's extent.
    let (nodes, scale) = match kind.as_str() {
        "uniform-square" => {
            let side = positive_length("side", args.opt_parse("side", 2.0)?)?;
            (rim_workloads::uniform_square(n, side, seed), "side")
        }
        "uniform-highway" => {
            let span = positive_length("span", args.opt_parse("span", 4.0)?)?;
            let highway = rim_workloads::uniform_highway(n, span, seed);
            (highway.node_set(), "span")
        }
        "clusters" => {
            let side = positive_length("side", args.opt_parse("side", 3.0)?)?;
            let k = (n / 25).max(1);
            let clusters = rim_workloads::gaussian_clusters(k, n / k, side, 0.2, seed);
            (clusters, "side")
        }
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            let grid = rim_workloads::grid_lattice(side, side, 0.5, 0.05, seed);
            (grid, "n")
        }
        "exp-chain" => {
            if !(1..=rim_highway::MAX_CHAIN_NODES).contains(&n) {
                return Err(UsageError(format!(
                    "--n must be between 1 and {} for an exponential chain, got {n}",
                    rim_highway::MAX_CHAIN_NODES
                )));
            }
            (rim_highway::exponential_chain(n).node_set(), "n")
        }
        "fig1" => (rim_workloads::fig1_instance(n.max(3), 0.1, seed).1, "n"),
        other => return Err(UsageError(format!("unknown --kind {other}"))),
    };
    check_generated(&nodes, scale)?;
    let out = args.opt("out", "-");
    args.finish()?;
    write_out(&out, &io::format_nodes(&nodes))
}

/// Checks a length flag of a generator, which asserts on it: it must be
/// finite and positive.
fn positive_length(key: &str, value: f64) -> Result<f64, UsageError> {
    if value > 0.0 && value.is_finite() {
        Ok(value)
    } else {
        Err(UsageError(format!(
            "--{key} must be positive and finite, got {value}"
        )))
    }
}

/// Checks every generated coordinate with the predicate
/// [`io::parse_nodes`] applies, so `rim generate` never writes a nodes
/// file `rim` refuses; `scale` is the flag to blame.
fn check_generated(nodes: &NodeSet, scale: &str) -> Result<(), UsageError> {
    for (i, p) in nodes.points().iter().enumerate() {
        if !(io::coordinate_in_range(p.x) && io::coordinate_in_range(p.y)) {
            return Err(UsageError(format!(
                "--{scale}: generated node {i} at ({:e}, {:e}) is outside the coordinate \
                 range node files accept",
                p.x, p.y
            )));
        }
    }
    Ok(())
}

/// `rim control` — run a topology-control algorithm.
pub fn control(args: &Args) -> Result<(), UsageError> {
    let algo = args.required("algo")?;
    let engine: Engine = args.opt_parse("engine", Engine::Auto)?;
    let mode = obs_mode(args)?;
    let out = args.opt("out", "-");
    args.required("nodes")?; // consumed again by load_nodes below
    args.finish()?;
    let rec = obs_install(mode);
    let result = (|| {
        let _root = rim_obs::span("control");
        let nodes = {
            let _s = rim_obs::span("load");
            load_nodes(args)?
        };
        let udg = {
            let _s = rim_obs::span("udg");
            unit_disk_graph(&nodes)
        };
        let highway = || -> Result<HighwayInstance, UsageError> {
            if !nodes.is_highway() {
                return Err(UsageError(format!(
                    "--algo {algo} requires a highway (1-D) instance"
                )));
            }
            Ok(HighwayInstance::new(
                nodes.points().iter().map(|p| p.x).collect(),
            ))
        };
        let topology = {
            let _s = rim_obs::span("construct");
            match algo.as_str() {
                "nnf" => Baseline::Nnf.build_with(&nodes, &udg, engine),
                "mst" => Baseline::Emst.build_with(&nodes, &udg, engine),
                "gg" => Baseline::Gabriel.build_with(&nodes, &udg, engine),
                "rng" => Baseline::Rng.build_with(&nodes, &udg, engine),
                "yao6" => Baseline::Yao6.build_with(&nodes, &udg, engine),
                "xtc" => Baseline::Xtc.build_with(&nodes, &udg, engine),
                "life" => Baseline::Life.build_with(&nodes, &udg, engine),
                "lmst" => Baseline::Lmst.build_with(&nodes, &udg, engine),
                "cbtc" => Baseline::Cbtc.build_with(&nodes, &udg, engine),
                "kneigh9" => Baseline::Kneigh9.build_with(&nodes, &udg, engine),
                "rdg" => Baseline::Rdg.build_with(&nodes, &udg, engine),
                "linear" => highway()?.linear_topology(),
                "a-exp" => rim_highway::a_exp(&highway()?).topology,
                "a-gen" => rim_highway::a_gen(&highway()?).topology,
                "a-apx" => rim_highway::a_apx(&highway()?).topology,
                "a-gen2" => rim_highway::plane::a_gen_2d(&nodes).topology,
                other => return Err(UsageError(format!("unknown --algo {other}"))),
            }
        };
        // Note on the generated file whether the mandatory requirement holds.
        let connected = {
            let _s = rim_obs::span("control/connectivity");
            topology.preserves_connectivity_of(&udg)
        };
        let content = {
            let _s = rim_obs::span("format");
            let mut content = io::format_topology(&topology);
            content.push_str(&format!(
                "# algo = {algo}, edges = {}, preserves connectivity = {connected}\n",
                topology.num_edges(),
            ));
            content
        };
        let written = {
            let _s = rim_obs::span("write");
            write_out(&out, &content)
        };
        // Freeing the graphs' per-node lists is part of the run's time.
        let _s = rim_obs::span("free");
        drop((content, topology, udg, nodes));
        written
    })();
    // The report goes to stderr so `--out -` topology output stays
    // machine-readable on stdout.
    emit_obs(mode, rec);
    result
}

/// Smallest `--side` of `analyze --generate`, `2^-405`.
const MIN_GENERATED_SIDE: f64 = f64::from_bits((1023 - 405) << 52);
/// Largest `--side` of `analyze --generate`, `2^511`.
const MAX_GENERATED_SIDE: f64 = f64::from_bits((1023 + 511) << 52);

/// Whether every squared distance between two distinct points that
/// `uniform_soa` draws in a `side × side` square is a finite, normal f64,
/// so that the nearest-neighbour radii and the interference counts are
/// the scaled instance's: true for `side` in `[2^-405, 2^511]`.
///
/// * Upper bound: `|dx|, |dy| <= side <= 2^511`, so
///   `dx² + dy² <= 2^1023` stays finite.
/// * Lower bound: coordinates are `fl(k·2^-53·side)`, so distinct ones
///   differ by at least `side·2^-106 >= 2^-511`, whose square is a
///   normal number.
fn side_keeps_distances_in_range(side: f64) -> bool {
    (MIN_GENERATED_SIDE..=MAX_GENERATED_SIDE).contains(&side)
}

/// `rim analyze --generate uniform:N` — the file-free streaming path:
/// generate N uniform nodes, assign nearest-neighbor radii, and run the
/// SoA streaming kernel. No node file, no topology file, no edge list.
fn analyze_generated(spec: &str, args: &Args) -> Result<(), UsageError> {
    let n = parse_generate_spec(spec)?;
    let seed: u64 = args.opt_parse("seed", 0)?;
    // Unit density by default: an n-node instance on a √n × √n square,
    // the regime of the Θ(√(log n)) interference statistics.
    let side: f64 = args.opt_parse("side", (n.max(1) as f64).sqrt())?;
    let mode = obs_mode(args)?;
    args.finish()?;
    positive_length("side", side)?;
    if !side_keeps_distances_in_range(side) {
        return Err(UsageError(format!(
            "--side {side:e} is outside [2^-405, 2^511]: squared distances between \
             generated nodes would leave the f64 range"
        )));
    }
    let rec = obs_install(mode);
    let (max, total) = {
        let _root = rim_obs::span("analyze_generated");
        // Every point-sized buffer is reserved fallibly, so a count that
        // does not fit in memory is an error naming the bytes, not an
        // abort.
        let cannot_hold =
            |e: rim_geom::GridCapacityError| UsageError(format!("--generate {spec}: {e}"));
        let soa = {
            let _s = rim_obs::span("generate");
            rim_workloads::try_uniform_soa(n, side, seed).map_err(cannot_hold)?
        };
        let inst = rim_core::StreamInstance::try_with_nn_radii(soa).map_err(cannot_hold)?;
        inst.interference_max_sum(rim_core::parallel::num_threads()).map_err(cannot_hold)?
    };
    emit_obs(mode, rec);
    // `total as f64` is exact below 2^53; nearest-neighbour radii give
    // a total of about n.
    let mean = if n == 0 { 0.0 } else { total as f64 / n as f64 };
    let (lo, hi) = rim_core::sqrt_log_envelope(n);
    println!("nodes:                    {n} (generated uniform, seed {seed}, side {side})");
    println!("interference engine:      streaming (nearest-neighbor radii)");
    println!("receiver interference I:  {max}");
    println!("mean node interference:   {mean:.3}");
    println!(
        "sqrt(log n) envelope:     [{lo:.2}, {hi:.2}] -> {}",
        if (f64::from(max) >= lo && f64::from(max) <= hi) || n < 10_000 {
            "within"
        } else {
            "OUTSIDE"
        }
    );
    Ok(())
}

/// `rim analyze` — interference report for a topology.
pub fn analyze(args: &Args) -> Result<(), UsageError> {
    let generate = args.opt("generate", "");
    if !generate.is_empty() {
        return analyze_generated(&generate, args);
    }
    let engine: Engine = args.opt_parse("engine", Engine::Auto)?;
    let mode = obs_mode(args)?;
    let rec = obs_install(mode);
    let root = rim_obs::span("analyze");
    let (nodes, topology) = {
        let _s = rim_obs::span("load");
        let nodes = load_nodes(args)?;
        let topology = load_topology(args, &nodes)?;
        (nodes, topology)
    };
    let phy = args.opt("phy", "off");
    let phys = match phy.as_str() {
        "off" => None,
        "disk" => Some(PhysModel::disk_equivalent(&topology)),
        "logdist" => {
            let alpha: f64 = args.opt_parse("alpha", 3.0)?;
            let power_dbm: f64 = args.opt_parse("power-dbm", 0.0)?;
            let theta_dbm: f64 = args.opt_parse("theta-dbm", -85.0)?;
            let noise_dbm: f64 = args.opt_parse("noise-dbm", -100.0)?;
            let beta_db: f64 = args.opt_parse("beta-db", 10.0)?;
            let sigma_db: f64 = args.opt_parse("sigma-db", 0.0)?;
            let phy_seed: u64 = args.opt_parse("phy-seed", 0)?;
            let params = PhysParams::from_link_budget(
                alpha, power_dbm, theta_dbm, noise_dbm, beta_db, sigma_db, phy_seed,
            )
            .map_err(|e| UsageError(format!("bad value for --{}: {}", e.figure, e.reason)))?;
            let power_mw = vec![dbm_to_mw(power_dbm); topology.num_nodes()];
            Some(PhysModel::with_params(&topology, params, &power_mw))
        }
        other => {
            return Err(UsageError(format!(
                "unknown --phy mode {other} (expected off, disk or logdist)"
            )))
        }
    };
    args.finish()?;
    let labels = {
        let _s = rim_obs::span("analyze/connectivity");
        components(topology.graph())
    };
    // Only counts and components of the UDG are reported, so its
    // adjacency is never built. A topology within range 1 is a subgraph
    // of the UDG, so its components seed the census; a longer link could
    // join two UDG components, so then every node starts alone.
    let udg = {
        let _s = rim_obs::span("udg");
        let seed: Cow<[usize]> = if topology.respects_range(1.0) {
            Cow::Borrowed(&labels)
        } else {
            Cow::Owned((0..nodes.len()).collect())
        };
        udg_census(&nodes, 1.0, &seed)
    };
    let summary = InterferenceSummary::with_engine(&topology, engine);
    // Physical section computed inside the root span so its kernels show
    // up in the --obs report.
    let phys_report = phys.as_ref().map(|m| {
        let cov = physical_interference_vector(m);
        let sinr_mw = sinr_interference_indexed(m);
        let worst_cov = cov.iter().copied().max().unwrap_or(0);
        let worst_mw = sinr_mw.iter().copied().fold(0.0f64, f64::max);
        (worst_cov, worst_mw)
    });
    let (forest, connected) = {
        let _s = rim_obs::span("analyze/connectivity");
        // A graph is a forest iff it has one edge fewer than nodes per
        // component.
        let parts = labels.iter().max().map_or(0, |&m| m + 1);
        (topology.num_edges() + parts == nodes.len(), same_partition(&udg.labels, &labels))
    };
    let sender = {
        let _s = rim_obs::span("analyze/sender");
        sender_graph_interference(&topology)
    };
    let energy = topology.energy(2.0);
    drop(root);
    emit_obs(mode, rec);
    println!("nodes:                    {}", nodes.len());
    println!("interference engine:      {}", engine.name());
    println!("udg edges / max degree:   {} / {}", udg.edges, udg.max_degree);
    println!("topology edges:           {}", topology.num_edges());
    println!("is forest:                {forest}");
    println!("preserves connectivity:   {connected}");
    println!("receiver interference I:  {}", summary.max);
    println!("mean node interference:   {:.3}", summary.mean);
    println!("sender-centric measure:   {sender}");
    println!("energy (alpha = 2):       {energy:.4}");
    if let Some(v) = summary.argmax() {
        println!("worst node:               {v} (I = {})", summary.per_node[v]);
    }
    if let (Some(m), Some((worst_cov, worst_mw))) = (&phys, phys_report) {
        let p = m.params();
        println!("physical model:           {phy} (alpha = {}, beta = {:.2})", p.alpha, p.beta);
        println!("physical interference I:  {worst_cov}");
        if worst_mw > 0.0 {
            println!(
                "worst SINR interference:  {:.3} dBm ({:.3e} mW)",
                mw_to_dbm(worst_mw),
                worst_mw
            );
        } else {
            println!("worst SINR interference:  none (no concurrent transmitter in range)");
        }
    }
    Ok(())
}

/// `rim optimal` — exact minimum-interference topology.
pub fn optimal(args: &Args) -> Result<(), UsageError> {
    let nodes = load_nodes(args)?;
    let max_steps: u64 = args.opt_parse("max-steps", SolverLimits::default().max_steps)?;
    args.finish()?;
    if nodes.len() > 12 {
        return Err(UsageError(format!(
            "exact solver handles at most 12 nodes, got {}",
            nodes.len()
        )));
    }
    let result = min_interference_topology(
        &nodes,
        1.0,
        SolverLimits {
            max_nodes: 12,
            max_steps,
        },
    );
    println!(
        "optimum I = {} ({}, {} search steps)",
        result.interference,
        if result.optimal { "proved optimal" } else { "budget exhausted — best found" },
        result.steps
    );
    print!("{}", io::format_topology(&result.topology));
    Ok(())
}

/// `rim simulate` — MAC simulation over a topology.
pub fn simulate(args: &Args) -> Result<(), UsageError> {
    let nodes = load_nodes(args)?;
    let topology = load_topology(args, &nodes)?;
    let slots: u64 = args.opt_parse("slots", 20_000)?;
    let flows: usize = args.opt_parse("flows", 8)?;
    let period = NonZeroU64::new(args.opt_parse("period", 40)?)
        .ok_or_else(|| UsageError("--period must be at least 1 slot".into()))?;
    let seed: u64 = args.opt_parse("seed", 0)?;
    let mac = match args.opt("mac", "csma").as_str() {
        "csma" => MacConfig::csma(),
        "aloha" => MacConfig::aloha(),
        other => return Err(UsageError(format!("unknown --mac {other}"))),
    };
    let mode = obs_mode(args)?;
    args.finish()?;
    let rec = obs_install(mode);
    let cfg = SimConfig {
        slots,
        mac,
        traffic: TrafficConfig::Cbr { flows, period },
        alpha: 2.0,
        seed,
    };
    let m = {
        let _root = rim_obs::span("simulate");
        Simulator::new(topology, cfg).run()
    };
    emit_obs(mode, rec);
    println!("generated:              {}", m.generated);
    println!("delivered:              {}", m.delivered);
    println!("delivery ratio:         {:.4}", m.delivery_ratio());
    println!("collision rate:         {:.4}", m.collision_rate());
    println!("tx per delivered pkt:   {:.2}", m.transmissions_per_delivery());
    println!("energy per delivered:   {:.5}", m.energy_per_delivery());
    println!("mean delay (slots):     {:.1}", m.mean_delay());
    println!("drops (no route/retry): {} / {}", m.dropped_no_route, m.dropped_retries);
    Ok(())
}

/// Parses a `uniform:N` `--generate` spec into the node count `N`.
///
/// Both spec parsers read the count with `usize::from_str`: the lint's
/// untyped call graph would bind a `.parse()` method call to
/// `Args::parse`, and through its `.next()` calls to the churn-trace
/// iterators, pulling their slice indexing into these panic-freedom
/// roots.
fn parse_generate_spec(spec: &str) -> Result<usize, UsageError> {
    let n = match spec.split_once(':') {
        Some(("uniform", count)) => usize::from_str(count)
            .map_err(|e| UsageError(format!("bad node count in --generate {spec}: {e}")))?,
        _ => {
            return Err(UsageError(format!(
                "unknown --generate spec {spec} (expected uniform:N)"
            )))
        }
    };
    // Reject counts past the grid's u32 ids before allocating coordinates.
    if !rim_geom::fits_u32_index(n) {
        let max = rim_geom::MAX_INDEXED_POINTS;
        return Err(UsageError(format!("--generate {spec}: the grid indexes at most {max} nodes")));
    }
    Ok(n)
}

/// Parses a `family:N` churn trace spec.
fn parse_trace_spec(spec: &str) -> Result<(rim_churn::Family, usize), UsageError> {
    let err = || {
        UsageError(format!(
            "bad --trace spec {spec} (expected FAMILY:N, FAMILY one of \
             uniform, clustered, exp-chain, collinear, duplicate)"
        ))
    };
    let (tag, count) = spec.split_once(':').ok_or_else(err)?;
    let family = rim_churn::Family::parse(tag).ok_or_else(err)?;
    let n0 = usize::from_str(count)
        .map_err(|e| UsageError(format!("bad node count in --trace {spec}: {e}")))?;
    if n0 == 0 {
        return Err(UsageError("--trace population must be >= 1".into()));
    }
    Ok((family, n0))
}

/// `rim churn` — long-horizon churn workload: drive a seeded trace
/// through the incremental interference engine, emitting deterministic
/// checkpoint JSONL records plus one (wall-clock) timing summary.
pub fn churn(args: &Args) -> Result<(), UsageError> {
    let resume = args.opt("resume", "");
    let out = args.opt("out", "-");
    let snapshot = args.opt("snapshot", "");
    let verify: bool = args.opt_parse("verify", false)?;
    let every: u64 = args.opt_parse("checkpoint-every", 0)?;
    let mode = obs_mode(args)?;
    let mut sim = if resume.is_empty() {
        let spec = args.required("trace")?;
        let edits: u64 = args.opt_parse("edits", 10_000)?;
        let seed: u64 = args.opt_parse("seed", 0)?;
        args.finish()?;
        let (family, n0) = parse_trace_spec(&spec)?;
        ChurnSim::new(ChurnConfig { family, n0, seed }, edits)
    } else {
        // The snapshot carries the config, trace position, and counters;
        // --trace/--seed are rejected alongside it (unconsumed). --edits
        // changes meaning: it EXTENDS the budget by that many ops (the
        // op stream is budget-independent, so the extended run replays
        // exactly the suffix an uninterrupted longer run would produce).
        let extra: u64 = args.opt_parse("edits", 0)?;
        args.finish()?;
        let bytes = std::fs::read(&resume)
            .map_err(|e| UsageError(format!("cannot read {resume}: {e}")))?;
        let mut sim =
            decode_snapshot(&bytes).map_err(|e| UsageError(format!("{resume}: {e}")))?;
        sim.extend_budget(extra);
        sim
    };
    let budget = sim.remaining();
    let every = if every > 0 { every } else { (budget / 10).max(1) };
    let rec = obs_install(mode);

    let oracle_check = |sim: &ChurnSim| -> Result<(), UsageError> {
        let (t, slots) = sim.engine().live_topology();
        let want = rim_core::receiver::interference_vector_naive(&t);
        let got: Vec<usize> = slots
            .iter()
            .map(|&v| sim.engine().interference_at(v))
            .collect();
        if got != want {
            return Err(UsageError(format!(
                "maintained counts diverged from the naive oracle at edit {}",
                sim.counts().edits
            )));
        }
        Ok(())
    };

    // One record up front (the resumed/initial state), one per cadence
    // tick, then the timing summary. Checkpoint records are a pure
    // function of (config, edit index); only the summary carries wall
    // clock.
    let mut records = vec![sim.checkpoint_record()];
    let mut recorded_at = sim.counts().edits;
    let mut edit_ns: Vec<u64> = Vec::with_capacity(budget.min(2_000_000) as usize);
    let t0 = std::time::Instant::now();
    {
        let _root = rim_obs::span("churn");
        loop {
            let t = std::time::Instant::now();
            if sim.step().is_none() {
                break;
            }
            edit_ns.push(t.elapsed().as_nanos() as u64);
            if sim.counts().edits % every == 0 {
                if verify {
                    oracle_check(&sim)?;
                }
                records.push(sim.checkpoint_record());
                recorded_at = sim.counts().edits;
            }
        }
    }
    let wall = t0.elapsed();
    if verify {
        oracle_check(&sim)?;
    }
    // The final state is always recorded, even when the cadence does not
    // land on the last edit (resumed budgets rarely divide evenly), but a
    // state already recorded is not repeated.
    if sim.counts().edits != recorded_at {
        records.push(sim.checkpoint_record());
    }
    emit_obs(mode, rec);

    edit_ns.sort_unstable();
    let pct = |q: f64| -> u64 {
        match edit_ns.len() {
            0 => 0,
            len => edit_ns[((q * (len - 1) as f64).round() as usize).min(len - 1)],
        }
    };
    let done = edit_ns.len() as u64;
    let mut summary = format!(
        "{{\"record\":\"churn_summary\",\"family\":\"{}\",\"n0\":{},\"seed\":{},\
         \"edits\":{},\"live\":{},\"max_interference\":{},\"wall_ms\":{},\
         \"edits_per_sec\":{:.0},\"p50_edit_ns\":{},\"p95_edit_ns\":{}",
        sim.config().family,
        sim.config().n0,
        sim.config().seed,
        done,
        sim.live_count(),
        sim.graph_interference(),
        wall.as_millis(),
        done as f64 / wall.as_secs_f64().max(1e-9),
        pct(0.50),
        pct(0.95),
    );
    if let Some(kb) = rim_obs::peak_rss_kb() {
        summary.push_str(&format!(",\"peak_rss_kb\":{kb}"));
    }
    summary.push('}');
    records.push(summary);

    let mut body = records.join("\n");
    body.push('\n');
    write_out(&out, &body)?;
    if !snapshot.is_empty() {
        std::fs::write(&snapshot, encode_snapshot(&sim))
            .map_err(|e| UsageError(format!("cannot write {snapshot}: {e}")))?;
    }
    Ok(())
}

/// `rim schedule` — conflict-free TDMA frame for a topology.
pub fn schedule(args: &Args) -> Result<(), UsageError> {
    let nodes = load_nodes(args)?;
    let topology = load_topology(args, &nodes)?;
    args.finish()?;
    let s = rim_sim::tdma_schedule(&topology);
    assert_eq!(s.verify(&topology), None, "internal error: invalid schedule");
    println!(
        "I = {}, directed links = {}, frame length = {} slots",
        graph_interference(&topology),
        s.num_links(),
        s.frame_length()
    );
    for (i, slot) in s.slots.iter().enumerate() {
        let links: Vec<String> = slot.iter().map(|(u, v)| format!("{u}->{v}")).collect();
        println!("slot {i:>3}: {}", links.join(" "));
    }
    Ok(())
}

/// `rim render` — SVG picture of a topology.
pub fn render(args: &Args) -> Result<(), UsageError> {
    let nodes = load_nodes(args)?;
    let topology = load_topology(args, &nodes)?;
    let disks: bool = args.opt_parse("disks", false)?;
    let labels: bool = args.opt_parse("labels", true)?;
    let arcs: bool = args.opt_parse("arcs", false)?;
    let out = args.opt("out", "-");
    args.finish()?;
    let svg = if arcs {
        if !nodes.is_highway() {
            return Err(UsageError("--arcs true requires a highway instance".into()));
        }
        let h = HighwayInstance::new(nodes.points().iter().map(|p| p.x).collect());
        rim_viz::render_highway_arcs(&h, &topology, true)
    } else {
        rim_viz::render_topology(
            &topology,
            rim_viz::RenderOptions {
                show_disks: disks,
                show_interference: labels,
                ..rim_viz::RenderOptions::default()
            },
        )
    };
    write_out(&out, &svg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_rng::{prop_ensure_eq, SmallRng};

    #[test]
    fn generated_sides_are_accepted_exactly_on_their_range() {
        assert_eq!(MIN_GENERATED_SIDE, 2f64.powi(-405));
        assert_eq!(MAX_GENERATED_SIDE, 2f64.powi(511));
        for side in [MIN_GENERATED_SIDE, 1.0, 1414.2, MAX_GENERATED_SIDE] {
            assert!(side_keeps_distances_in_range(side), "{side:e}");
        }
        for side in [
            MIN_GENERATED_SIDE.next_down(),
            MAX_GENERATED_SIDE.next_up(),
            0.0,
            -1.0,
            1e-170,
            1e160,
            f64::NAN,
            f64::INFINITY,
        ] {
            assert!(!side_keeps_distances_in_range(side), "{side:e}");
        }
    }

    /// Counts that sit on the parsers' edges: zero, the largest and the
    /// first count past the grid's u32 ids, and the first past u64.
    const EDGE_COUNTS: [&str; 4] = ["0", "4294967295", "4294967296", "18446744073709551616"];

    /// Digits that `usize::from_str` does not read: Arabic-Indic,
    /// fullwidth, Devanagari and a superscript.
    const NON_ASCII_DIGITS: [char; 4] = ['\u{663}', '\u{ff13}', '\u{967}', '\u{b9}'];

    /// A uniformly drawn char boundary of `s`, its end included.
    fn boundary(s: &str, rng: &mut SmallRng) -> usize {
        let bounds: Vec<usize> = s.char_indices().map(|(i, _)| i).chain([s.len()]).collect();
        bounds[rng.gen_range(0..bounds.len())]
    }

    /// One damage: a flipped bit, a truncation, a doubled or missing
    /// colon, a case change, a space, a sign, an edge count or a
    /// non-ASCII digit.
    fn damage(spec: &str, rng: &mut SmallRng) -> String {
        let mut s = spec.to_string();
        match rng.gen_range(0u32..9) {
            0 => {
                // XOR one of the low seven bits of an ASCII byte, so the
                // spec stays valid UTF-8.
                let ascii: Vec<usize> = (0..s.len())
                    .filter(|&i| s.as_bytes()[i].is_ascii())
                    .collect();
                if !ascii.is_empty() {
                    let i = ascii[rng.gen_range(0..ascii.len())];
                    let mut bytes = s.into_bytes();
                    bytes[i] ^= 1 << rng.gen_range(0u32..7);
                    s = String::from_utf8(bytes).expect("an ASCII byte stays ASCII");
                }
            }
            1 => s.truncate(boundary(&s, rng)),
            2 => s = s.replacen(':', "::", 1),
            3 => s = s.replacen(':', "", 1),
            4 => {
                s = match rng.gen_range(0u32..3) {
                    0 => s.to_uppercase(),
                    1 => s.to_lowercase(),
                    _ => {
                        let mut cs = s.chars();
                        cs.next()
                            .map(|c| c.to_uppercase().chain(cs).collect())
                            .unwrap_or_default()
                    }
                }
            }
            5 => {
                let at = [0, boundary(&s, rng), s.len()][rng.gen_range(0usize..3)];
                s.insert(at, ' ');
            }
            6 => {
                let at = s.find(':').map_or(0, |c| c + 1);
                s.insert(at, ['+', '-'][rng.gen_range(0usize..2)]);
            }
            7 => {
                let count = EDGE_COUNTS[rng.gen_range(0..EDGE_COUNTS.len())];
                s = match s.rsplit_once(':') {
                    Some((tag, _)) => format!("{tag}:{count}"),
                    None => format!("{s}:{count}"),
                };
            }
            _ => {
                let digit = NON_ASCII_DIGITS[rng.gen_range(0..NON_ASCII_DIGITS.len())];
                match s.char_indices().rfind(|(_, c)| c.is_ascii_digit()) {
                    Some((i, _)) => s.replace_range(i..i + 1, &digit.to_string()),
                    None => s.push(digit),
                }
            }
        }
        s
    }

    /// Damaged `--generate` (`uniform:2000`) and `--trace` (`FAMILY:N`)
    /// specs either fail to parse or parse to a value whose canonical
    /// `family:n` form parses back to the same value; a panic fails the
    /// test.
    #[test]
    fn damaged_specs_are_rejected_or_round_trip() {
        // Per parser (`--trace`, `--generate`): damaged specs accepted
        // and rejected, so neither outcome goes untested.
        let (mut accepted, mut rejected) = ([0u32; 2], [0u32; 2]);
        rim_rng::prop::check(
            "damaged_specs_are_rejected_or_round_trip",
            4096,
            |rng| {
                let generate = rng.gen_bool(0.5);
                let mut spec = if generate {
                    "uniform:2000".to_string()
                } else {
                    let families = rim_churn::Family::ALL;
                    let family = families[rng.gen_range(0..families.len())];
                    format!("{family}:{}", rng.gen_range(1usize..5000))
                };
                for _ in 0..rng.gen_range(1u32..4) {
                    spec = damage(&spec, rng);
                }
                (generate, spec)
            },
            |(generate, spec)| {
                let which = usize::from(*generate);
                if *generate {
                    let Ok(n) = parse_generate_spec(spec) else {
                        rejected[which] += 1;
                        return Ok(());
                    };
                    prop_ensure_eq!(parse_generate_spec(&format!("uniform:{n}")), Ok(n));
                } else {
                    let Ok((family, n0)) = parse_trace_spec(spec) else {
                        rejected[which] += 1;
                        return Ok(());
                    };
                    prop_ensure_eq!(
                        parse_trace_spec(&format!("{family}:{n0}")),
                        Ok((family, n0))
                    );
                }
                accepted[which] += 1;
                Ok(())
            },
        );
        for which in 0..2 {
            assert!(
                accepted[which] > 0 && rejected[which] > 0,
                "accepted {accepted:?}, rejected {rejected:?}"
            );
        }
    }
}
